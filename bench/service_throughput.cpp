// Throughput/latency bench of the scheduling service: sustained
// schedules/sec through exp::Service (in-process) and through the full
// mtsched.rpc.v1 loopback path (socket + codec + server), plus p50/p99
// request latency.
//
// The in-process cases are the perf gate (see bench/baselines): they
// cover the session pipeline, the sharded schedule cache and the pool
// hand-off without socket noise. The loopback case is informational —
// kernel socket behaviour varies too much across CI runners to gate on.
//
// Requests rotate through a small pool of distinct DAGs, so after the
// first lap the schedule cache serves hits and the numbers measure the
// steady state of a busy daemon (the emulated execution still runs per
// request; only the schedule+simulate stage is memoized).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "micro_util.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/server.hpp"
#include "mtsched/exp/service.hpp"

namespace {

using namespace mtsched;
using Clock = std::chrono::steady_clock;

const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

std::vector<std::string> dag_pool(std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dag::DagGenParams p;
    p.num_tasks = 10;
    p.width = 4;
    p.add_ratio = 0.5;
    p.matrix_dim = 2000;
    p.seed = 9000 + static_cast<std::uint64_t>(i);
    out.push_back(dag::to_text(dag::generate_random_dag(p).graph));
  }
  return out;
}

exp::ScheduleRequest make_request(const std::string& dag_text, bool execute) {
  exp::ScheduleRequest req;
  req.dag_text = dag_text;
  req.algorithm = "HCPA";
  req.model = models::ModelSpec::parse("profile");
  req.exp_seed = bench::kExpSeed;
  req.execute = execute;
  return req;
}

double percentile(std::vector<double>& sorted_asc, double q) {
  if (sorted_asc.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_asc.size() - 1) + 0.5);
  return sorted_asc[std::min(idx, sorted_asc.size() - 1)];
}

/// Feeds p50/p99 into the benchmark counters and the BENCH_*.json
/// metrics (obs::Histogram only tracks p50/p95, so the service's p99
/// headline number is computed here from the raw samples).
void note_latency(benchmark::State& state, const std::string& label,
                  std::vector<double>& latencies) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  state.counters["p50_latency_seconds"] = p50;
  state.counters["p99_latency_seconds"] = p99;
  if (auto* r = bench::Reporter::current()) {
    r->set(label + ".p50_latency_seconds", p50);
    r->set(label + ".p99_latency_seconds", p99);
  }
}

void BM_ServiceThroughput(benchmark::State& state, bool execute,
                          const std::string& label) {
  const auto pool = dag_pool(16);
  exp::ServiceConfig cfg;
  cfg.threads = bench::bench_threads();
  exp::Service service(lab(), cfg);

  std::vector<double> latencies;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const auto resp =
        service.call(make_request(pool[i++ % pool.size()], execute));
    if (!resp.ok()) {
      state.SkipWithError(resp.message.c_str());
      break;
    }
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  note_latency(state, label, latencies);
}
// UseRealTime: the work runs on the service pool, so wall time (not the
// submitting thread's CPU time) is what "schedules per second" means.
BENCHMARK_CAPTURE(BM_ServiceThroughput, inproc, true,
                  std::string("service.inproc"))
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ServiceThroughput, sim_only, false,
                  std::string("service.sim_only"))
    ->UseRealTime();

/// The full wire path: loopback socket, length-prefixed frames, JSON
/// codec, per-connection handler thread, service pool. Informational.
void BM_ServiceRpcLoopback(benchmark::State& state) {
  const auto pool = dag_pool(16);
  exp::ServiceConfig cfg;
  cfg.threads = bench::bench_threads();
  exp::Service service(lab(), cfg);
  exp::RpcServer server(service);
  std::thread accept_thread([&server] { server.serve(); });
  exp::RpcClient client("127.0.0.1", server.port());

  std::vector<double> latencies;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const auto resp = client.call(make_request(pool[i++ % pool.size()], true));
    if (!resp.ok()) {
      state.SkipWithError(resp.message.c_str());
      break;
    }
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  note_latency(state, "service.rpc_loopback", latencies);

  server.shutdown();
  accept_thread.join();
}
BENCHMARK(BM_ServiceRpcLoopback)->UseRealTime();

/// The event-driven wire path under concurrent pipelined load: N
/// persistent connections, each keeping up to `window` requests in
/// flight. Latency is measured per request from its send to its recv,
/// so pipelined p50/p99 include the queueing a real pipelining client
/// observes. With window 1 and one connection this degenerates to the
/// strict request/response tier (the "no p50 regression" guard); the
/// deep tiers measure how much of the per-request socket overhead the
/// event loop and pipelining amortize away, with every request its own
/// task on the service's worker pool.
void BM_ServiceRpcPipelined(benchmark::State& state, int connections,
                            std::size_t window, bool execute,
                            const std::string& label) {
  const auto pool = dag_pool(16);
  exp::ServiceConfig cfg;
  cfg.threads = bench::bench_threads();
  // Provision admission for the offered load: the client-side window
  // keeps connections*window requests in flight, and the next request
  // of a window races the in-flight decrement of the one it replaces.
  cfg.queue_limit = std::max<std::size_t>(
      cfg.queue_limit, static_cast<std::size_t>(connections) * window * 2);
  exp::Service service(lab(), cfg);
  exp::RpcServer server(service);
  std::thread loop_thread([&server] { server.serve(); });

  std::vector<std::unique_ptr<exp::RpcClient>> clients;
  clients.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    clients.push_back(
        std::make_unique<exp::RpcClient>("127.0.0.1", server.port()));
  }

  constexpr std::size_t kPerConn = 64;
  const std::size_t batch = kPerConn * static_cast<std::size_t>(connections);
  std::mutex lat_mutex;
  std::vector<double> latencies;
  std::atomic<bool> failed{false};

  while (state.KeepRunningBatch(static_cast<std::int64_t>(batch))) {
    std::vector<std::thread> workers;
    workers.reserve(clients.size());
    for (std::size_t c = 0; c < clients.size(); ++c) {
      workers.emplace_back([&, c] {
        auto& client = *clients[c];
        std::vector<double> local;
        local.reserve(kPerConn);
        std::vector<Clock::time_point> sent_at(kPerConn);
        std::size_t sent = 0;
        for (std::size_t received = 0; received < kPerConn; ++received) {
          while (sent < kPerConn && sent - received < window) {
            sent_at[sent] = Clock::now();
            client.send(
                make_request(pool[(sent + c) % pool.size()], execute));
            ++sent;
          }
          const auto resp = client.recv();
          if (!resp.ok()) {
            failed.store(true);
            return;
          }
          local.push_back(
              std::chrono::duration<double>(Clock::now() - sent_at[received])
                  .count());
        }
        std::unique_lock lock(lat_mutex);
        latencies.insert(latencies.end(), local.begin(), local.end());
      });
    }
    for (auto& w : workers) w.join();
    if (failed.load()) {
      state.SkipWithError("a pipelined request failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  note_latency(state, label, latencies);

  server.shutdown();
  loop_thread.join();
}
// The strict request/response tier over the event loop (guards p50
// against the thread-per-connection server it replaced).
BENCHMARK_CAPTURE(BM_ServiceRpcPipelined, single_sim, 1, 1, false,
                  std::string("service.rpc_single_sim"))
    ->UseRealTime();
// Deep pipelining at 8 concurrent connections: the headline tier. With
// execute=false the per-request compute is small enough that socket and
// wakeup overhead dominates a strict client — this tier shows how much
// of it pipelining amortizes.
BENCHMARK_CAPTURE(BM_ServiceRpcPipelined, piped_sim, 8, 8, false,
                  std::string("service.rpc_pipelined_sim"))
    ->UseRealTime();
// Same shape with emulated execution per request (compute-bound on
// small runners; the pipelining win shrinks to the transport share).
BENCHMARK_CAPTURE(BM_ServiceRpcPipelined, piped_exec, 8, 8, true,
                  std::string("service.rpc_pipelined"))
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return bench::run_micro_suite("service_throughput", argc, argv);
}
