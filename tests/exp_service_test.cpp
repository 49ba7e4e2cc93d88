// Session/Service/RpcServer tests: the typed request pipeline, the
// sharded schedule cache, admission control, --threads 0 semantics, and
// the loopback serve path returning results identical to a local run.
#include "mtsched/exp/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/thread_pool.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/exp/server.hpp"
#include "mtsched/obs/metrics.hpp"
#include "mtsched/obs/sink.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"

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

exp::ScheduleRequest sample_request() {
  exp::ScheduleRequest req;
  req.dag_text = small_dag_text();
  req.algorithm = "HCPA";
  req.model = models::ModelSpec::parse("profile");
  req.exp_seed = 42;
  return req;
}

// --- Session ------------------------------------------------------------

TEST(Session, ServesARequest) {
  const exp::Session session(lab());
  const auto resp = session.run(sample_request());
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.model, "profile");
  EXPECT_EQ(resp.algorithm, "HCPA");
  EXPECT_EQ(resp.exp_seed, 42u);
  EXPECT_GT(resp.est_makespan, 0.0);
  EXPECT_GT(resp.makespan_sim, 0.0);
  EXPECT_GT(resp.makespan_exp, 0.0);
  EXPECT_TRUE(resp.executed);
  EXPECT_FALSE(resp.allocation.empty());
}

TEST(Session, IsDeterministicAcrossSessions) {
  const exp::Session a(lab());
  const exp::Session b(lab());
  const auto req = sample_request();
  // Compare through the codec: equal encodings mean equal bytes on the
  // wire and therefore equal rendered reports.
  EXPECT_EQ(exp::encode_response(a.run(req)),
            exp::encode_response(b.run(req)));
}

TEST(Session, MemoizesCompatibleRequests) {
  const exp::Session session(lab());
  auto req = sample_request();
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_misses(), 1u);
  EXPECT_EQ(session.cache_hits(), 0u);

  // Same DAG/model/algorithm, different weather: the schedule memo is
  // experiment-seed-independent, so this is a hit.
  req.exp_seed = 1234;
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_hits(), 1u);

  // A different algorithm is a different cell.
  req.algorithm = "MCPA";
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_misses(), 2u);

  // A different DAG is a different cell too.
  req.dag_text = small_dag_text(99);
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_misses(), 3u);
}

TEST(Session, CacheKeyIgnoresTextFormatting) {
  const exp::Session session(lab());
  auto req = sample_request();
  ASSERT_TRUE(session.run(req).ok());
  // The same DAG with a comment before every line and blank lines
  // between them.
  std::string spelled = "# the sample DAG\n\n";
  for (std::size_t at = 0; at < req.dag_text.size();) {
    const std::size_t end = req.dag_text.find('\n', at);
    spelled += "# next line\n" + req.dag_text.substr(at, end - at) + "\n\n";
    at = end + 1;
  }
  ASSERT_NE(spelled, req.dag_text);
  req.dag_text = spelled;
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_misses(), 1u);
  EXPECT_EQ(session.cache_hits(), 1u);
}

TEST(Session, SkipsExecutionOnRequest) {
  const exp::Session session(lab());
  auto req = sample_request();
  req.execute = false;
  const auto resp = session.run(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp.executed);
  EXPECT_GT(resp.makespan_sim, 0.0);
  EXPECT_EQ(resp.makespan_exp, 0.0);
}

TEST(Session, FillsArtifacts) {
  const exp::Session session(lab());
  exp::RunArtifacts artifacts;
  const auto resp = session.run(sample_request(), &artifacts);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(artifacts.schedule.allocation(), resp.allocation);
  EXPECT_EQ(artifacts.exp_trace.makespan, resp.makespan_exp);
}

TEST(Session, BadRequestsComeBackInBand) {
  const exp::Session session(lab());
  auto req = sample_request();
  req.dag_text = "this is not a dag";
  auto resp = session.run(req);
  EXPECT_EQ(resp.status, exp::ServiceStatus::BadRequest);
  EXPECT_FALSE(resp.message.empty());

  req = sample_request();
  req.algorithm = "MAGIC";
  resp = session.run(req);
  EXPECT_EQ(resp.status, exp::ServiceStatus::BadRequest);
}

/// A real cache entry: the small DAG, HCPA-scheduled under the profile
/// model on the default lab.
std::shared_ptr<const exp::CachedCell> small_cell() {
  dag::Dag g = dag::from_text(small_dag_text());
  const auto& model = lab().model(models::CostModelKind::Profile);
  auto s = exp::allocate_and_map(*sched::make_allocator("HCPA"),
                                 sched::MappingStrategy::EarliestStart, g,
                                 models::SchedCostAdapter(model), lab().spec());
  return std::make_shared<const exp::CachedCell>(std::move(g), std::move(s),
                                                 model, lab().rig());
}

TEST(ScheduleCache, ComputesOncePerKeyUnderContention) {
  exp::ScheduleCache cache;
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const exp::CachedCell>> cells(8);
  std::vector<std::thread> threads;
  threads.reserve(cells.size());
  for (auto& cell : cells) {
    threads.emplace_back([&] {
      cell = cache.get_or_compute("shared", [&] {
        computes.fetch_add(1);
        return small_cell();
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  ASSERT_NE(cells.front(), nullptr);
  EXPECT_GT(cells.front()->cell.makespan_sim, 0.0);
  for (const auto& cell : cells) EXPECT_EQ(cell, cells.front());
}

TEST(ScheduleCache, FailedComputePropagatesToAllWaiters) {
  exp::ScheduleCache cache;
  const auto boom = [&]() -> std::shared_ptr<const exp::CachedCell> {
    throw std::runtime_error("boom");
  };
  EXPECT_THROW((void)cache.get_or_compute("bad", boom), std::runtime_error);
  // The failure is cached, not retried: same inputs, same failure.
  bool hit = false;
  EXPECT_THROW((void)cache.get_or_compute("bad", boom, &hit),
               std::runtime_error);
  EXPECT_TRUE(hit);
}

TEST(Session, CacheHitsMatchFreshSessions) {
  // Requests that differ only in the experiment seed share one cell: the
  // hit runs its seed on the cell's plan and must answer exactly what a
  // fresh session (a miss) does.
  const exp::Session session(lab());
  auto first = sample_request();
  auto second = first;
  second.exp_seed = 9001;
  const auto a = session.run(first);
  const auto b = session.run(second);
  EXPECT_EQ(session.cache_misses(), 1u);
  EXPECT_EQ(session.cache_hits(), 1u);
  EXPECT_EQ(exp::encode_response(a),
            exp::encode_response(exp::Session(lab()).run(first)));
  EXPECT_EQ(exp::encode_response(b),
            exp::encode_response(exp::Session(lab()).run(second)));

  // Three concurrent hits through a service, one per worker thread.
  exp::ServiceConfig cfg;
  cfg.threads = 3;
  exp::Service service(lab(), cfg);
  ASSERT_TRUE(service.call(first).ok());
  std::vector<exp::ScheduleRequest> reqs(3, first);
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].exp_seed = 100 + i;
  std::vector<std::future<exp::ScheduleResponse>> pending;
  for (const auto& req : reqs) {
    pending.push_back(
        std::async(std::launch::async, [&service, req] { return service.call(req); }));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(exp::encode_response(pending[i].get()),
              exp::encode_response(exp::Session(lab()).run(reqs[i])))
        << "seed " << reqs[i].exp_seed;
  }
  EXPECT_EQ(service.session().cache_misses(), 1u);
  EXPECT_EQ(service.session().cache_hits(), 3u);
}

// --- Service ------------------------------------------------------------

TEST(Service, CallMatchesSession) {
  const exp::Session session(lab());
  exp::Service service(lab());
  const auto req = sample_request();
  EXPECT_EQ(exp::encode_response(service.call(req)),
            exp::encode_response(session.run(req)));
}

TEST(Service, ThreadsZeroMeansHardwareConcurrency) {
  exp::ServiceConfig cfg;
  cfg.threads = 0;
  exp::Service service(lab(), cfg);
  EXPECT_EQ(service.threads(), core::ThreadPool::recommended_threads());
}

TEST(Service, AdmissionControlRejectsBeyondTheQueueLimit) {
  exp::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.queue_limit = 1;
  exp::Service service(lab(), cfg);

  // Block the single worker inside the first request's delivery callback
  // so the one queue slot stays deterministically occupied.
  std::promise<void> entered;
  std::promise<void> release;
  std::promise<void> finished;
  auto release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(
      sample_request(), [&](const exp::ScheduleResponse& resp) {
        EXPECT_TRUE(resp.ok());
        entered.set_value();
        release_future.wait();
        finished.set_value();
      }));
  entered.get_future().wait();

  // The slot is taken: the next submit must be rejected, not queued.
  EXPECT_FALSE(service.submit(sample_request(),
                              [](const exp::ScheduleResponse&) {
                                FAIL() << "rejected submit must not deliver";
                              }));
  const auto rejected = service.reject_response();
  EXPECT_EQ(rejected.status, exp::ServiceStatus::Overloaded);
  EXPECT_FALSE(rejected.message.empty());

  release.set_value();
  finished.get_future().wait();
  // The slot frees after delivery; admission recovers.
  while (service.in_flight() != 0) std::this_thread::yield();
  EXPECT_TRUE(service.call(sample_request()).ok());
}

TEST(Service, FreeWorkerServesWhileAnotherDelivers) {
  // Two workers, two requests, and A's delivery blocks until B's delivery
  // has run. That ends only if a free worker takes B while A's worker
  // still delivers A; a worker that served both in turn would wait out
  // the timeout.
  exp::ServiceConfig cfg;
  cfg.threads = 2;
  exp::Service service(lab(), cfg);
  std::promise<void> b_delivered;
  auto b_done = b_delivered.get_future();
  std::promise<bool> a_saw_b;
  auto a_result = a_saw_b.get_future();
  auto b_req = sample_request();
  b_req.exp_seed = 7;
  ASSERT_TRUE(service.submit(
      sample_request(), [&](const exp::ScheduleResponse& resp) {
        EXPECT_TRUE(resp.ok());
        a_saw_b.set_value(b_done.wait_for(std::chrono::seconds(20)) ==
                          std::future_status::ready);
      }));
  ASSERT_TRUE(service.submit(b_req, [&](const exp::ScheduleResponse& resp) {
    EXPECT_TRUE(resp.ok());
    b_delivered.set_value();
  }));
  EXPECT_TRUE(a_result.get()) << "B was not delivered while A delivered";
}

TEST(Service, ReportsMetricsThroughTheSink) {
  obs::MetricsRegistry metrics;
  obs::BasicSink sink(nullptr, &metrics);
  exp::ServiceConfig cfg;
  cfg.threads = 1;
  exp::Service service(lab(), cfg, &sink);
  ASSERT_TRUE(service.call(sample_request()).ok());
  ASSERT_TRUE(service.call(sample_request()).ok());
  EXPECT_EQ(metrics.counter("service.accepted").value(), 2u);
  EXPECT_EQ(metrics.counter("service.completed").value(), 2u);
  EXPECT_EQ(metrics.counter("service.rejected").value(), 0u);
  EXPECT_EQ(metrics.histogram("service.latency_seconds").summary().count, 2u);
  EXPECT_EQ(service.session().cache_hits(), 1u);
  EXPECT_EQ(service.session().cache_misses(), 1u);
}

// --- Platform registry ----------------------------------------------------

/// A lab over an arbitrary platform spec, mirroring the CLI's --platform
/// construction: built-in cluster behaviour scaled to the spec's node
/// count and reference speed.
std::unique_ptr<exp::Lab> lab_for_spec(platform::ClusterSpec spec) {
  exp::LabConfig cfg;
  cfg.machine.num_nodes = spec.num_nodes;
  cfg.machine.nominal_flops = spec.reference_flops();
  if (spec.num_nodes != 32) {
    cfg.sample_plan = profiling::SamplePlan::scaled(spec.num_nodes);
  }
  auto model = std::make_unique<machine::JavaClusterModel>(cfg.machine);
  return std::make_unique<exp::Lab>(std::move(model), std::move(spec), cfg);
}

/// A small 2-rack platform so registry tests stay cheap (8 nodes).
platform::ClusterSpec tiny_hier_spec() {
  return platform::to_cluster(platform::hierarchical_topology(2, 4, 4.0));
}

TEST(Session, ResolvesRegisteredPlatformsByName) {
  const auto hier_lab = lab_for_spec(tiny_hier_spec());
  exp::Session session(lab());
  session.add_platform(*hier_lab);
  EXPECT_EQ(&session.resolve_lab(""), &lab());
  EXPECT_EQ(&session.resolve_lab("hier2x4"), hier_lab.get());
  EXPECT_THROW((void)session.resolve_lab("nosuch"),
               mtsched::core::InvalidArgument);

  auto req = sample_request();
  req.platform = "hier2x4";
  req.mapping = sched::MappingStrategy::RackAware;
  const auto resp = session.run(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.platform, "hier2x4");
  ASSERT_FALSE(resp.allocation.empty());
  // Scheduled against the registered 8-node platform, not the default.
  for (int a : resp.allocation) EXPECT_LE(a, 8);
}

TEST(Session, UnknownPlatformIsBadRequest) {
  const exp::Session session(lab());
  auto req = sample_request();
  req.platform = "andromeda";
  const auto resp = session.run(req);
  EXPECT_EQ(resp.status, exp::ServiceStatus::BadRequest);
  EXPECT_NE(resp.message.find("andromeda"), std::string::npos)
      << resp.message;
}

TEST(Session, PlatformIsPartOfTheScheduleCacheKey) {
  const auto hier_lab = lab_for_spec(tiny_hier_spec());
  exp::Session session(lab());
  session.add_platform(*hier_lab);
  auto req = sample_request();
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_misses(), 1u);
  // Same DAG/model/algorithm on a different platform: a new cache cell.
  req.platform = "hier2x4";
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_misses(), 2u);
  EXPECT_EQ(session.cache_hits(), 0u);
  ASSERT_TRUE(session.run(req).ok());
  EXPECT_EQ(session.cache_hits(), 1u);
}

TEST(Session, OneRackPlatformIsBitIdenticalToStar) {
  // The bit-identity bridge at the service layer: an 8-node star and the
  // one-rack hierarchical topology of the same nodes serve byte-identical
  // responses.
  auto star_topo = platform::bayreuth32(8).topology();
  star_topo.name = "star8";
  const auto star = platform::to_cluster(star_topo);
  auto rack_topo = platform::hierarchical_topology(1, 8, 1.0);
  rack_topo.name = "star8";
  const auto one_rack = platform::to_cluster(rack_topo);
  const auto lab_star = lab_for_spec(star);
  const auto lab_rack = lab_for_spec(one_rack);
  const exp::Session a(*lab_star);
  const exp::Session b(*lab_rack);
  for (const auto mapping : {sched::MappingStrategy::EarliestStart,
                             sched::MappingStrategy::RedistributionAware}) {
    auto req = sample_request();
    req.mapping = mapping;
    EXPECT_EQ(exp::encode_response(a.run(req)),
              exp::encode_response(b.run(req)))
        << sched::mapping_name(mapping);
  }
}

TEST(Service, ServesRegisteredPlatforms) {
  const auto hier_lab = lab_for_spec(tiny_hier_spec());
  exp::ServiceConfig cfg;
  cfg.threads = 1;
  exp::Service service(lab(), cfg);
  service.add_platform(*hier_lab);

  auto req = sample_request();
  req.platform = "hier2x4";
  const auto resp = service.call(req);
  ASSERT_TRUE(resp.ok()) << resp.message;
  EXPECT_EQ(resp.platform, "hier2x4");

  // Byte-identical to a direct session with the same registry.
  exp::Session session(lab());
  session.add_platform(*hier_lab);
  EXPECT_EQ(exp::encode_response(resp), exp::encode_response(session.run(req)));

  // Unknown names come back in-band, not as transport errors.
  req.platform = "nosuch";
  EXPECT_EQ(service.call(req).status, exp::ServiceStatus::BadRequest);
}

// --- RpcServer loopback -------------------------------------------------

/// Serve fixture: a service + server on an ephemeral port with the accept
/// loop on its own thread, torn down safely even when a test fails.
struct ServeFixture {
  exp::Service service;
  exp::RpcServer server;
  std::thread accept_thread;

  explicit ServeFixture(exp::ServiceConfig cfg = {})
      : service(lab(), cfg), server(service) {
    accept_thread = std::thread([this] { server.serve(); });
  }

  ~ServeFixture() {
    server.shutdown();
    accept_thread.join();
  }
};

TEST(RpcServer, LoopbackMatchesLocalSession) {
  ServeFixture fx;
  exp::RpcClient client("127.0.0.1", fx.server.port());
  EXPECT_EQ(client.ping().message, "pong");

  const exp::Session local(lab());
  for (const auto algo : {"HCPA", "MCPA"}) {
    auto req = sample_request();
    req.algorithm = algo;
    EXPECT_EQ(exp::encode_response(client.call(req)),
              exp::encode_response(local.run(req)));
  }
  const auto stats = fx.server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(RpcServer, ConcurrentClientsGetIdenticalAnswers) {
  exp::ServiceConfig cfg;
  cfg.threads = 2;
  ServeFixture fx(cfg);
  const exp::Session local(lab());
  const auto req = sample_request();
  const std::string expect = exp::encode_response(local.run(req));

  std::vector<std::thread> clients;
  std::vector<std::string> got(4);
  for (std::size_t i = 0; i < got.size(); ++i) {
    clients.emplace_back([&, i] {
      exp::RpcClient client("127.0.0.1", fx.server.port());
      got[i] = exp::encode_response(client.call(req));
    });
  }
  for (auto& t : clients) t.join();
  for (const auto& g : got) EXPECT_EQ(g, expect);
}

TEST(RpcServer, UndecodablePayloadKeepsTheConnection) {
  ServeFixture fx;
  const auto sock = core::net::connect_to("127.0.0.1", fx.server.port());
  core::net::write_frame(sock, "this is not rpc json");
  const auto reply = core::net::read_frame(sock);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(exp::parse_response(*reply).status,
            exp::ServiceStatus::BadRequest);
  // The frame boundary was intact, so the connection still works.
  core::net::write_frame(sock, exp::encode_ping());
  const auto pong = core::net::read_frame(sock);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(exp::parse_response(*pong).ok());
  EXPECT_EQ(fx.server.stats().protocol_errors, 1u);
}

TEST(RpcServer, OversizedFrameIsRejectedAndDropped) {
  ServeFixture fx;
  const auto sock = core::net::connect_to("127.0.0.1", fx.server.port());
  // Announce far beyond the frame limit without sending a payload.
  const unsigned char header[4] = {0x7F, 0xFF, 0xFF, 0xFF};
  sock.write_all(header, sizeof(header));
  const auto reply = core::net::read_frame(sock);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(exp::parse_response(*reply).status,
            exp::ServiceStatus::BadRequest);
  // The stream is unsound after an oversized announcement: dropped.
  EXPECT_FALSE(core::net::read_frame(sock).has_value());
}

TEST(RpcServer, ShutdownUnblocksIdleConnections) {
  // A connected-but-idle client must not pin the server: shutdown()
  // half-closes open connections so their handlers wake with EOF, and
  // serve() can join them without waiting for the client to hang up.
  auto fx = std::make_unique<ServeFixture>();
  exp::RpcClient idle("127.0.0.1", fx->server.port());
  EXPECT_EQ(idle.ping().message, "pong");
  fx.reset();  // shutdown + join with `idle` still connected — no hang
}

TEST(RpcServer, ShutdownRequestStopsTheServer) {
  ServeFixture fx;
  exp::RpcClient client("127.0.0.1", fx.server.port());
  const auto ack = client.request_shutdown();
  EXPECT_TRUE(ack.ok());
  EXPECT_EQ(ack.message, "shutting down");
  // The accept loop winds down on its own; joining must not hang.
  for (int i = 0; i < 200 && !fx.server.stopping(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fx.server.stopping());
}

}  // namespace
