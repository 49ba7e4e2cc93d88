// Event-driven rpc server tests: pipelined request/response ordering,
// protocol errors mid-pipeline, slow-reader backpressure, connection
// churn hygiene, and the byte-identity of responses against sequential
// local Session runs under concurrent connections.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/net.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/exp/server.hpp"
#include "mtsched/exp/service.hpp"

namespace {

using namespace mtsched;

const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

std::string small_dag_text(std::uint64_t seed = 11) {
  dag::DagGenParams p;
  p.num_tasks = 8;
  p.width = 3;
  p.add_ratio = 0.5;
  p.matrix_dim = 2000;
  p.seed = seed;
  return dag::to_text(dag::generate_random_dag(p).graph);
}

exp::ScheduleRequest sample_request(std::uint64_t exp_seed = 42) {
  exp::ScheduleRequest req;
  req.dag_text = small_dag_text();
  req.algorithm = "HCPA";
  req.model = models::ModelSpec::parse("profile");
  req.exp_seed = exp_seed;
  return req;
}

struct ServeFixture {
  exp::Service service;
  exp::RpcServer server;
  std::thread loop_thread;

  explicit ServeFixture(exp::ServiceConfig cfg = {},
                        exp::RpcServerConfig server_cfg = {})
      : service(lab(), cfg), server(service, server_cfg) {
    loop_thread = std::thread([this] { server.serve(); });
  }

  ~ServeFixture() {
    server.shutdown();
    loop_thread.join();
  }
};

/// Spin-waits (bounded) for `pred` to become true.
template <typename Pred>
bool eventually(Pred pred, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(RpcPipeline, ResponsesArriveInRequestOrder) {
  exp::ServiceConfig cfg;
  cfg.threads = 2;
  ServeFixture fx(cfg);
  exp::RpcClient client("127.0.0.1", fx.server.port());

  // Fire the whole burst before reading anything. Responses must come
  // back in request order; the echoed exp_seed pins each one to its
  // request, and the full encoding pins it to the local answer.
  const exp::Session local(lab());
  constexpr std::uint64_t kBurst = 24;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    client.send(sample_request(1000 + i));
  }
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.exp_seed, 1000 + i);
    EXPECT_EQ(exp::encode_response(resp),
              exp::encode_response(local.run(sample_request(1000 + i))));
  }
  EXPECT_EQ(fx.server.stats().requests, kBurst);
}

TEST(RpcPipeline, PipelinedBurstOnOneWorkerAnswersInOrder) {
  // One worker, a pipelined burst: while the worker executes the first
  // request, the loop admits the rest, which queue behind it as pool
  // tasks and are answered in request order.
  exp::ServiceConfig cfg;
  cfg.threads = 1;
  ServeFixture fx(cfg);
  exp::RpcClient client("127.0.0.1", fx.server.port());

  constexpr std::uint64_t kBurst = 32;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    client.send(sample_request(2000 + i));
  }
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.exp_seed, 2000 + i);
  }
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.batched_requests, kBurst);
  EXPECT_EQ(stats.batches, kBurst);
}

TEST(RpcPipeline, MalformedFrameMidPipelineKillsOnlyThatConnection) {
  ServeFixture fx;
  // Connection A pipelines two good requests, then an oversized frame
  // header. It is owed the two responses and a best-effort BadRequest,
  // then dies.
  const auto bad = core::net::connect_to("127.0.0.1", fx.server.port());
  core::net::write_frame(bad, exp::encode_request(sample_request(7)));
  core::net::write_frame(bad, exp::encode_request(sample_request(8)));
  const unsigned char header[4] = {0x7F, 0xFF, 0xFF, 0xFF};
  bad.write_all(header, sizeof(header));

  for (const std::uint64_t seed : {7u, 8u}) {
    const auto reply = core::net::read_frame(bad);
    ASSERT_TRUE(reply.has_value());
    const auto resp = exp::parse_response(*reply);
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.exp_seed, seed);
  }
  const auto err = core::net::read_frame(bad);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(exp::parse_response(*err).status,
            exp::ServiceStatus::BadRequest);
  EXPECT_FALSE(core::net::read_frame(bad).has_value());  // dropped

  // Connection B is unaffected before, during and after A's demise.
  exp::RpcClient good("127.0.0.1", fx.server.port());
  EXPECT_EQ(good.ping().message, "pong");
  const auto resp = good.call(sample_request(9));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.exp_seed, 9u);
  EXPECT_EQ(fx.server.stats().protocol_errors, 1u);
}

TEST(RpcPipeline, DeeplyNestedFrameIsABadRequestNotACrash) {
  // A 1 MiB frame of '[' fits the frame limit; the JSON reader's depth
  // bound turns it into an in-band BadRequest and the connection lives on.
  ServeFixture fx;
  const auto conn = core::net::connect_to("127.0.0.1", fx.server.port());
  core::net::write_frame(conn, std::string(1 << 20, '['));
  const auto err = core::net::read_frame(conn);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(exp::parse_response(*err).status,
            exp::ServiceStatus::BadRequest);
  core::net::write_frame(conn, exp::encode_ping());
  const auto pong = core::net::read_frame(conn);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(exp::parse_response(*pong).message, "pong");
  EXPECT_EQ(fx.server.stats().protocol_errors, 1u);
}

TEST(RpcPipeline, SlowReaderIsBackpressuredNotBuffered) {
  // With one in-flight response allowed per connection, a client that
  // pipelines a burst without reading gets parsed one request at a
  // time: the server parks its read side instead of queueing responses
  // for a reader that is not consuming them.
  exp::RpcServerConfig server_cfg;
  server_cfg.max_conn_inflight = 1;
  ServeFixture fx({}, server_cfg);
  exp::RpcClient client("127.0.0.1", fx.server.port());

  constexpr std::uint64_t kBurst = 8;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    client.send(sample_request(3000 + i));
  }
  // Let the server chew on the burst before we start reading.
  ASSERT_TRUE(eventually(
      [&] { return fx.server.stats().backpressure_pauses >= 1; }));
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.ok()) << resp.message;
    EXPECT_EQ(resp.exp_seed, 3000 + i);
  }
  EXPECT_EQ(fx.server.stats().requests, kBurst);
}

/// Threads currently live in this process (/proc/self/status).
int process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

TEST(RpcPipeline, ConnectionChurnDoesNotAccumulateThreadsOrState) {
  ServeFixture fx;
  {
    // Warm up: the service pool and the loop are fully spawned after
    // the first round trip.
    exp::RpcClient warm("127.0.0.1", fx.server.port());
    EXPECT_EQ(warm.ping().message, "pong");
  }
  ASSERT_TRUE(eventually([&] { return fx.server.open_connections() == 0; }));
  const int threads_before = process_thread_count();
  ASSERT_GT(threads_before, 0);

  constexpr std::uint64_t kChurn = 50;
  for (std::uint64_t i = 0; i < kChurn; ++i) {
    exp::RpcClient client("127.0.0.1", fx.server.port());
    ASSERT_TRUE(client.call(sample_request(4000 + i)).ok());
  }
  // Every connection's state is released as soon as the client leaves;
  // no handler threads were ever created for them.
  ASSERT_TRUE(eventually([&] { return fx.server.open_connections() == 0; }));
  EXPECT_EQ(process_thread_count(), threads_before);
  EXPECT_EQ(fx.server.stats().connections, kChurn + 1);
}

TEST(RpcPipeline, BatchedResponsesAreByteIdenticalUnderConcurrency) {
  // The hard contract of the service: whichever worker serves each
  // request under concurrent pipelined load, every response is
  // byte-identical to a sequential local Session::run of the same
  // request — at any worker count.
  for (const int threads : {1, 4}) {
    exp::ServiceConfig cfg;
    cfg.threads = threads;
    ServeFixture fx(cfg);
    const exp::Session local(lab());

    constexpr std::uint64_t kPerClient = 12;
    std::vector<std::thread> clients;
    std::vector<std::vector<std::string>> got(4);
    for (std::size_t c = 0; c < got.size(); ++c) {
      clients.emplace_back([&, c] {
        exp::RpcClient client("127.0.0.1", fx.server.port());
        // Mix algorithms per client so workers interleave cells of
        // both allocators.
        const char* algo = (c % 2 == 0) ? "HCPA" : "MCPA";
        for (std::uint64_t i = 0; i < kPerClient; ++i) {
          auto req = sample_request(100 * c + i);
          req.algorithm = algo;
          client.send(req);
        }
        for (std::uint64_t i = 0; i < kPerClient; ++i) {
          got[c].push_back(exp::encode_response(client.recv()));
        }
      });
    }
    for (auto& t : clients) t.join();

    for (std::size_t c = 0; c < got.size(); ++c) {
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        auto req = sample_request(100 * c + i);
        req.algorithm = (c % 2 == 0) ? "HCPA" : "MCPA";
        EXPECT_EQ(got[c][i], exp::encode_response(local.run(req)))
            << "threads=" << threads << " client=" << c << " i=" << i;
      }
    }
    const auto stats = fx.server.stats();
    EXPECT_EQ(stats.batched_requests, got.size() * kPerClient);
    EXPECT_EQ(stats.batches, got.size() * kPerClient);
  }
}

}  // namespace
