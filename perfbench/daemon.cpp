// The daemon path over loopback, measured in campaign's traced run: an
// open-loop generator in this process (Poisson arrivals from the workload
// seed; one sender and one receiver thread over four connections) drives
// exp::RpcServer fronting an exp::Service at a light and a heavy fixed
// rate, and the rpc codec, the transport and in-process Service::call are
// timed on the same requests.
//
// Traffic: Table-I-shaped DAGs of 10-40 tasks. Half the requests carry a
// new DAG (a cache miss that inserts a cell), with the three cost models
// in rotation and HCPA/MCPA alternating; the other half repeat an earlier
// request's DAG, model and algorithm with a new exp_seed (a cache hit).
// Half of all requests execute on the emulated cluster.
#include <poll.h>
#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "mtsched/core/net.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/core/thread_pool.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/exp/server.hpp"
#include "mtsched/exp/service.hpp"

namespace perfbench {

using namespace mtsched;

namespace {

// Fixed offered loads, requests/s: about 25 % and 50 % of the saturation
// rate for this mix (about 2300 requests/s on a 4-core x86 host when this
// benchmark was added).
constexpr double kLightRps = 575.0;
constexpr double kHeavyRps = 1150.0;
constexpr int kConnections = 4;

const char* const kModels[] = {"analytical", "profile", "empirical"};

/// One request of the mix; the DAG is an index into the pool.
struct Item {
  std::uint32_t dag = 0;
  std::uint8_t model = 0;
  bool mcpa = false;
  bool execute = false;
  std::uint64_t exp_seed = 0;
};

/// The deterministic request stream of a seed.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(derive_seed(seed, 7)) {}

  /// Appends the next request of the stream and returns its index.
  std::size_t next() {
    Item it;
    if (fresh_.empty() || rng_.uniform() < 0.5) {
      static const int widths[] = {2, 4, 8};
      static const double ratios[] = {0.5, 0.75, 1.0};
      dag::DagGenParams p;
      p.num_tasks = static_cast<int>(rng_.uniform_int(10, 40));
      p.width = widths[rng_.uniform_int(0, 2)];
      p.add_ratio = ratios[rng_.uniform_int(0, 2)];
      p.matrix_dim = rng_.uniform() < 0.5 ? 2000 : 3000;
      p.seed = rng_.next_u64();
      dags_.push_back(dag::to_text(dag::generate_random_dag(p).graph));
      it.dag = static_cast<std::uint32_t>(dags_.size() - 1);
      it.model = static_cast<std::uint8_t>(fresh_.size() % 3);
      it.mcpa = fresh_.size() % 2 == 1;
      fresh_.push_back(items_.size());
    } else {
      it = items_[fresh_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(fresh_.size()) - 1))]];
    }
    it.execute = rng_.uniform() < 0.5;
    it.exp_seed = rng_.next_u64() % 1000000000;
    items_.push_back(it);
    return items_.size() - 1;
  }

  exp::ScheduleRequest request(std::size_t k) const {
    const Item& it = items_[k];
    exp::ScheduleRequest req;
    req.dag_text = dags_[it.dag];
    req.algorithm = it.mcpa ? "MCPA" : "HCPA";
    req.model = models::ModelSpec::parse(kModels[it.model]);
    req.exp_seed = it.exp_seed;
    req.execute = it.execute;
    return req;
  }

  std::size_t size() const { return items_.size(); }
  core::Rng& rng() { return rng_; }

 private:
  core::Rng rng_;
  std::vector<std::string> dags_;
  std::vector<Item> items_;
  std::vector<std::size_t> fresh_;  ///< indices of the new-DAG requests
};

/// The system under test: lab, service, rpc server on its own loop thread.
struct Daemon {
  exp::Lab lab;
  exp::Service service;
  exp::RpcServer server;
  std::thread loop;

  explicit Daemon(int workers)
      : service(lab, config(workers)), server(service),
        loop([this] { server.serve(); }) {}
  ~Daemon() {
    server.shutdown();
    loop.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  static exp::ServiceConfig config(int workers) {
    exp::ServiceConfig cfg;
    cfg.threads = workers;
    // Above what the connections can have in flight (backpressure stops
    // reading a connection at 64 owed responses), so admission never
    // rejects this generator's traffic.
    cfg.queue_limit = 1024;
    return cfg;
  }
};

/// One phase of traffic: pre-encoded frames and their due times (seconds
/// from the phase start).
struct Phase {
  std::vector<std::size_t> items;
  std::vector<std::string> frames;
  std::vector<double> due;
};

struct PhaseResult {
  std::vector<double> latency;  ///< seconds from due; +inf when failed
  std::vector<double> lag;      ///< seconds the send ran behind its due time
  std::size_t backlog_max = 0;  ///< most requests sent and not yet answered
  std::uint64_t failed = 0;
};

/// The client side: kConnections sockets, a sender (the calling thread)
/// and a receiver thread that polls every socket.
class LoadGen {
 public:
  explicit LoadGen(std::uint16_t port) {
    for (int c = 0; c < kConnections; ++c) {
      socks_.push_back(core::net::connect_to("127.0.0.1", port));
    }
    // Sleep to each due time with no timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }

  /// Runs one phase; stores each response payload at its item index.
  PhaseResult run(const Phase& phase, std::vector<std::string>& responses) {
    const std::size_t n = phase.frames.size();
    PhaseResult out;
    out.latency.assign(n, std::numeric_limits<double>::infinity());
    out.lag.assign(n, 0.0);
    std::vector<std::deque<std::size_t>> fifo(socks_.size());
    std::mutex fifo_mutex;
    std::atomic<std::size_t> sent{0}, received{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<bool> broken{false};
    const auto t0 = Clock::now();
    const auto elapsed = [&t0] { return since(t0); };

    std::thread receiver([&] {
      std::vector<pollfd> fds(socks_.size());
      for (std::size_t c = 0; c < socks_.size(); ++c) {
        fds[c] = {socks_[c].fd(), POLLIN, 0};
      }
      while (received.load() < n && !broken.load()) {
        if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
        for (std::size_t c = 0; c < fds.size(); ++c) {
          if (fds[c].revents == 0) continue;
          std::optional<std::string> payload;
          try {
            payload = core::net::read_frame(socks_[c]);
          } catch (const std::exception&) {
          }
          if (!payload.has_value()) {
            broken.store(true);
            return;
          }
          const double t = elapsed();
          std::size_t k = 0;
          {
            std::lock_guard lock(fifo_mutex);
            k = fifo[c].front();
            fifo[c].pop_front();
          }
          bool ok = false;
          try {
            ok = exp::parse_response(*payload).ok();
          } catch (const std::exception&) {
          }
          if (ok) {
            out.latency[k] = t - phase.due[k];
          } else {
            failed.fetch_add(1);
          }
          responses[phase.items[k]] = std::move(*payload);
          received.fetch_add(1);
        }
      }
    });

    for (std::size_t k = 0; k < n && !broken.load(); ++k) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(phase.due[k])));
      const std::size_t c = k % socks_.size();
      {
        std::lock_guard lock(fifo_mutex);
        fifo[c].push_back(k);
      }
      out.lag[k] = elapsed() - phase.due[k];
      try {
        core::net::write_frame(socks_[c], phase.frames[k]);
      } catch (const std::exception&) {
        broken.store(true);
        break;
      }
      const std::size_t backlog = sent.fetch_add(1) + 1 - received.load();
      out.backlog_max = std::max(out.backlog_max, backlog);
    }
    receiver.join();
    out.failed = failed.load() + (n - received.load());
    return out;
  }

 private:
  std::vector<core::net::Socket> socks_;
};

/// Draws Poisson arrivals at `rate` for `seconds` and prepares the frames.
Phase open_loop(Mix& mix, double rate, double seconds) {
  Phase p;
  double t = -std::log(1.0 - mix.rng().uniform()) / rate;
  while (t < seconds) {
    p.due.push_back(t);
    t += -std::log(1.0 - mix.rng().uniform()) / rate;
  }
  for (std::size_t i = 0; i < p.due.size(); ++i) {
    p.items.push_back(mix.next());
    p.frames.push_back(exp::encode_request(mix.request(p.items.back())));
  }
  return p;
}

/// Every response equals Session::run of the same request on a fresh
/// local session; the requests are replayed on all hardware threads.
bool responses_match(const exp::Lab& lab, const Mix& mix,
                     const std::vector<std::string>& responses) {
  const exp::Session local(lab);
  std::atomic<bool> ok{true};
  const int threads = core::ThreadPool::recommended_threads();
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t k = static_cast<std::size_t>(w); k < mix.size();
           k += static_cast<std::size_t>(threads)) {
        if (exp::encode_response(local.run(mix.request(k))) != responses[k]) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  return ok.load();
}

/// Mean seconds per call of `fn` over `items`.
template <class Fn>
double per_call_s(std::size_t items, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < items; ++i) fn(i);
  return since(t0) / static_cast<double>(items);
}

}  // namespace

void report_serve_layers(const Options& opt, Report& report) {
  const int workers = std::max(1, core::ThreadPool::recommended_threads() - 2);
  const double phase_s = opt.tiny ? 0.2 : 2.0;
  Daemon daemon(workers);
  LoadGen gen(daemon.server.port());

  Mix mix(opt.seed);
  std::vector<std::string> responses;
  std::uint64_t failed = 0;
  const auto run = [&](const Phase& p) {
    responses.resize(mix.size());
    PhaseResult r = gen.run(p, responses);
    report.count(p.frames.size(), r.failed);
    failed += r.failed;
    return r;
  };
  run(open_loop(mix, kLightRps, phase_s / 4));  // warm-up
  const PhaseResult light = run(open_loop(mix, kLightRps, phase_s));
  const PhaseResult heavy = run(open_loop(mix, kHeavyRps, phase_s));

  std::vector<double> lag_ms;
  for (const PhaseResult* p : {&light, &heavy}) {
    for (const double l : p->lag) lag_ms.push_back(l * 1e3);
  }
  const Tail lag = summarize(lag_ms);
  const std::size_t backlog_max = std::max(light.backlog_max, heavy.backlog_max);
  report.note(describe("daemon at " + std::to_string(int(kLightRps)) + "/s",
                       summarize(light.latency), 1e3, "ms"));
  report.note(describe("daemon at " + std::to_string(int(kHeavyRps)) + "/s",
                       summarize(heavy.latency), 1e3, "ms"));
  report.check(failed == 0, std::to_string(failed) + " of " +
                                std::to_string(mix.size()) +
                                " daemon requests failed");
  report.check(responses_match(daemon.lab, mix, responses),
               "all " + std::to_string(mix.size()) +
                   " daemon responses equal Session::run on a fresh local "
                   "session");

  // Load generator and server counters of the traffic above.
  const exp::RpcServerStats stats = daemon.server.stats();
  report.metric("loadgen.lag_p99_ms", lag.tail, "ms");
  report.metric("loadgen.backlog_max", static_cast<double>(backlog_max),
                "count");
  report.metric("service.mean_batch",
                static_cast<double>(stats.batched_requests) /
                    static_cast<double>(stats.batches),
                "count");
  report.metric("server.rejected", static_cast<double>(stats.rejected),
                "count");
  report.metric("server.backpressure_pauses",
                static_cast<double>(stats.backpressure_pauses), "count");

  // The codec, per call, over the requests sent.
  const std::size_t sample = mix.size();
  std::vector<exp::ScheduleRequest> reqs;
  std::vector<std::string> frames;
  std::vector<exp::ScheduleResponse> resps;
  double req_bytes = 0, resp_bytes = 0;
  for (std::size_t k = 0; k < sample; ++k) {
    reqs.push_back(mix.request(k));
    frames.push_back(exp::encode_request(reqs.back()));
    resps.push_back(exp::parse_response(responses[k]));
    req_bytes += static_cast<double>(frames.back().size());
    resp_bytes += static_cast<double>(responses[k].size());
  }
  report.metric("rpc.encode_request_us", 1e6 * per_call_s(sample, [&](auto k) {
                  exp::encode_request(reqs[k]);
                }),
                "us");
  report.metric("rpc.parse_request_us", 1e6 * per_call_s(sample, [&](auto k) {
                  exp::parse_request(frames[k]);
                }),
                "us");
  report.metric("rpc.encode_response_us", 1e6 * per_call_s(sample, [&](auto k) {
                  exp::encode_response(resps[k]);
                }),
                "us");
  report.metric("rpc.parse_response_us", 1e6 * per_call_s(sample, [&](auto k) {
                  exp::parse_response(responses[k]);
                }),
                "us");
  report.metric("rpc.request_bytes", req_bytes / sample, "B");
  report.metric("rpc.response_bytes", resp_bytes / sample, "B");

  // Transport: ping round trips on the now idle server.
  {
    exp::RpcClient client("127.0.0.1", daemon.server.port());
    std::vector<double> rtt;
    for (int i = 0; i < 500; ++i) {
      const auto t0 = Clock::now();
      client.ping();
      rtt.push_back(since(t0));
    }
    report.metric("net.ping_rtt_us", median(rtt) * 1e6, "us");
  }

  // The same requests through an in-process Service::call, one at a time:
  // the service's share of a request, without the transport.
  exp::Service inproc(daemon.lab, Daemon::config(workers));
  std::vector<double> call_s;
  for (const exp::ScheduleRequest& req : reqs) {
    const auto t0 = Clock::now();
    inproc.call(req);
    call_s.push_back(since(t0));
  }
  const Tail t = summarize(call_s);
  report.metric("service.call_us.p50", t.p50 * 1e6, "us");
  report.metric("service.call_us.p99", t.tail * 1e6, "us");
}

}  // namespace perfbench
