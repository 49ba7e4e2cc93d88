// mtsched command-line interface.
//
// Run `mtsched_cli` for the command list and `mtsched_cli <command>
// --help` for the options of one command — every option is declared with
// type, default and help text through core::ArgParser.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

#include "mtsched/core/argparse.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/core/thread_pool.hpp"
#include "mtsched/dag/apps.hpp"
#include "mtsched/dag/daggen.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/campaign.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/results.hpp"
#include "mtsched/exp/server.hpp"
#include "mtsched/exp/service.hpp"
#include "mtsched/exp/session.hpp"
#include "mtsched/machine/table_machine.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/obs/analysis.hpp"
#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/obs/metrics.hpp"
#include "mtsched/obs/sink.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/platform/parser.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"

namespace {

using namespace mtsched;
using core::ArgParser;

struct Command {
  const char* name;
  const char* summary;
  int (*run)(int argc, char** argv);
};

[[noreturn]] void usage(const std::string& error = {});

// --- shared option groups ---------------------------------------------

void add_dag_input(ArgParser& args) {
  args.add_str("dag", "", "read the DAG from FILE (stdin when omitted)",
               "FILE");
}

void add_machine_option(ArgParser& args) {
  args.add_str("machine", "",
               "load measurement tables from FILE instead of the built-in "
               "cluster behaviour model",
               "FILE");
}

void add_model_option(ArgParser& args) {
  args.add_str("model", "profile",
               "cost model: analytical, profile or empirical", "NAME");
}

void add_platform_option(ArgParser& args) {
  args.add_str("platform", "",
               "schedule on this platform: a built-in name (bayreuth32, "
               "cray_xt4, hier1x32, hier2x16, hier4x8) or an "
               "mtsched.platform.v1 platform file",
               "NAME|FILE");
}

void add_mapping_options(ArgParser& args) {
  args.add_str("mapping", "earliest",
               "list-mapping strategy: earliest, redist_aware or rack_aware",
               "NAME");
}

sched::MappingStrategy mapping_from_args(const ArgParser& args) {
  const auto name = args.str("mapping");
  const auto strategy = sched::parse_mapping(name);
  if (!strategy) {
    throw core::InvalidArgument("unknown --mapping '" + name +
                                "' (earliest | redist_aware | rack_aware)");
  }
  return *strategy;
}

std::string read_all(std::istream& is) {
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string load_dag_text(const ArgParser& args) {
  const auto path = args.str("dag");
  if (path.empty()) {
    std::cerr << "(reading DAG from stdin)\n";
    return read_all(std::cin);
  }
  std::ifstream f(path);
  if (!f) throw core::InvalidArgument("cannot open DAG file '" + path + "'");
  return read_all(f);
}

dag::Dag load_dag(const ArgParser& args) {
  return dag::from_text(load_dag_text(args));
}

/// Resolves one --platform value: a built-in name first, a platform file
/// otherwise.
platform::ClusterSpec resolve_platform(const std::string& value) {
  if (auto spec = platform::named_platform(value)) return *std::move(spec);
  std::ifstream f(value);
  if (!f) {
    std::string names;
    for (const auto& n : platform::named_platform_names()) {
      names += (names.empty() ? "" : ", ") + n;
    }
    throw core::InvalidArgument("unknown platform '" + value +
                                "': not a built-in name (" + names +
                                ") and not a readable file");
  }
  return platform::parse_platform(read_all(f));
}

/// A lab on `spec`'s platform: the built-in cluster behaviour calibrated
/// to the spec's node count and nominal speed. A 32-node spec keeps the
/// default lab's profiling plan, so flat-equivalent platforms (hier1x32)
/// reproduce default-lab outputs byte for byte.
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

/// The --machine half of lab construction: measurement tables when given,
/// the built-in cluster behaviour otherwise.
std::unique_ptr<exp::Lab> make_machine_lab(const ArgParser& args) {
  const auto path = args.str("machine");
  if (path.empty()) return std::make_unique<exp::Lab>();
  std::ifstream f(path);
  if (!f) {
    throw core::InvalidArgument("cannot open machine file '" + path + "'");
  }
  auto tables = machine::parse_machine_tables(read_all(f));
  auto model = std::make_unique<machine::TableMachineModel>(std::move(tables));
  auto spec = platform::bayreuth32(model->max_procs(), model->nominal_flops());
  exp::LabConfig cfg;
  cfg.sample_plan = profiling::SamplePlan::scaled(model->max_procs());
  return std::make_unique<exp::Lab>(std::move(model), spec, cfg);
}

std::unique_ptr<exp::Lab> make_lab(const ArgParser& args) {
  const auto value = args.str("platform");
  if (value.empty()) return make_machine_lab(args);
  if (!args.str("machine").empty()) {
    throw core::InvalidArgument(
        "--machine and --platform are mutually exclusive");
  }
  return lab_for_spec(resolve_platform(value));
}

/// Parses, honours --help, and reports errors uniformly. Returns true
/// when the command should proceed.
bool parse_or_help(ArgParser& args, int argc, char** argv) {
  args.parse(argc, argv, 2);
  if (args.help_requested()) {
    std::cout << args.help();
    return false;
  }
  return true;
}

// --- gen-* commands -----------------------------------------------------

int cmd_gen_dag(int argc, char** argv) {
  ArgParser args("mtsched_cli gen-dag",
                 "Generate a Table I style random DAG (text to stdout).");
  args.add_int("tasks", 10, "total number of tasks");
  args.add_int("width", 4, "number of input matrices (DAG width)");
  args.add_double("ratio", 0.5, "fraction of addition tasks");
  args.add_int("dim", 2000, "matrix dimension n");
  args.add_uint64("seed", 1, "generator seed");
  args.add_flag("dot", "emit Graphviz DOT instead of the text format");
  if (!parse_or_help(args, argc, argv)) return 0;

  dag::DagGenParams p;
  p.num_tasks = static_cast<int>(args.integer("tasks"));
  p.width = static_cast<int>(args.integer("width"));
  p.add_ratio = args.number("ratio");
  p.matrix_dim = static_cast<int>(args.integer("dim"));
  p.seed = args.uint64("seed");
  const auto inst = dag::generate_random_dag(p);
  std::cout << (args.flag("dot") ? dag::to_dot(inst.graph, "dag")
                                 : dag::to_text(inst.graph));
  return 0;
}

int cmd_gen_daggen(int argc, char** argv) {
  ArgParser args("mtsched_cli gen-daggen",
                 "Generate a DAGGEN-style layered random DAG.");
  args.add_int("tasks", 20, "total number of tasks");
  args.add_double("fat", 0.5, "width of the DAG (0 = chain, 1 = wide)");
  args.add_double("density", 0.5, "edge density between layers");
  args.add_double("regularity", 0.5, "regularity of layer sizes");
  args.add_int("jump", 2, "maximum level distance an edge may span");
  args.add_double("ratio", 0.5, "fraction of addition tasks");
  args.add_int("dim", 2000, "matrix dimension n");
  args.add_uint64("seed", 1, "generator seed");
  args.add_flag("dot", "emit Graphviz DOT instead of the text format");
  if (!parse_or_help(args, argc, argv)) return 0;

  dag::DaggenParams p;
  p.num_tasks = static_cast<int>(args.integer("tasks"));
  p.fat = args.number("fat");
  p.density = args.number("density");
  p.regularity = args.number("regularity");
  p.jump = static_cast<int>(args.integer("jump"));
  p.add_ratio = args.number("ratio");
  p.matrix_dim = static_cast<int>(args.integer("dim"));
  p.seed = args.uint64("seed");
  const auto g = dag::generate_daggen(p);
  std::cout << (args.flag("dot") ? dag::to_dot(g, "dag") : dag::to_text(g));
  return 0;
}

int cmd_gen_strassen(int argc, char** argv) {
  ArgParser args("mtsched_cli gen-strassen",
                 "Generate a Strassen matrix-multiplication DAG.");
  args.add_int("dim", 2000, "matrix dimension n");
  args.add_int("levels", 1, "recursion levels");
  args.add_flag("dot", "emit Graphviz DOT instead of the text format");
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto g = dag::strassen_dag(static_cast<int>(args.integer("dim")),
                                   static_cast<int>(args.integer("levels")));
  std::cout << (args.flag("dot") ? dag::to_dot(g, "strassen")
                                 : dag::to_text(g));
  return 0;
}

int cmd_gen_lu(int argc, char** argv) {
  ArgParser args("mtsched_cli gen-lu",
                 "Generate a blocked LU factorization DAG.");
  args.add_int("blocks", 4, "blocks per matrix dimension");
  args.add_int("dim", 1000, "matrix dimension n");
  args.add_flag("dot", "emit Graphviz DOT instead of the text format");
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto g = dag::block_lu_dag(static_cast<int>(args.integer("blocks")),
                                   static_cast<int>(args.integer("dim")));
  std::cout << (args.flag("dot") ? dag::to_dot(g, "lu") : dag::to_text(g));
  return 0;
}

// --- observability ------------------------------------------------------

void add_obs_options(ArgParser& args) {
  args.add_str("trace", "",
               "write a Chrome trace_event JSON (chrome://tracing, "
               "Perfetto) to FILE",
               "FILE");
  args.add_flag("trace-normalize",
                "replace trace timestamps with per-track event ordinals "
                "(byte-identical across runs; for diffing)");
  args.add_flag("metrics", "print the metrics registry after the run");
  args.add_uint64("trace-cap", 0,
                  "keep at most N trace events; drops are counted in the "
                  "trace.dropped_events metric (0 = unbounded)",
                  "N");
  args.add_flag("trace-stream",
                "stream trace events to the --trace file as they are "
                "emitted instead of buffering the whole trace in memory "
                "(for very large runs; makes --trace-cap unnecessary)");
  args.add_uint64("trace-ring", 4096,
                  "per-track ring buffer capacity used with --trace-stream",
                  "N");
}

/// Applies --trace-cap before any events are emitted.
void apply_trace_cap(const ArgParser& args, obs::Tracer& tracer,
                     obs::MetricsRegistry* metrics) {
  const auto cap = args.uint64("trace-cap");
  if (cap > 0) {
    tracer.set_event_cap(static_cast<std::size_t>(cap), metrics);
  }
}

void write_trace_file(const ArgParser& args, const obs::Tracer& tracer) {
  const std::string& path = args.str("trace");
  obs::ChromeTraceOptions opt;
  opt.normalize_timestamps = args.flag("trace-normalize");
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    throw core::InvalidArgument("cannot open --trace file '" + path + "'");
  }
  f << obs::to_chrome_json(tracer, opt);
}

/// Streaming trace pipeline: with --trace-stream, the --trace file is
/// opened up front and a ChromeStreamWriter is attached to the tracer, so
/// events hit disk as the run produces them and memory stays bounded by
/// the ring buffers. Inactive (and write_trace_file applies) otherwise.
class TraceStream {
 public:
  TraceStream(const ArgParser& args, obs::Tracer& tracer) : tracer_(tracer) {
    if (args.str("trace").empty() || !args.flag("trace-stream")) return;
    const auto ring = args.uint64("trace-ring");
    if (ring == 0) {
      throw core::InvalidArgument("--trace-ring must be at least 1");
    }
    file_.open(args.str("trace"), std::ios::binary);
    if (!file_) {
      throw core::InvalidArgument("cannot open --trace file '" +
                                  args.str("trace") + "'");
    }
    obs::ChromeTraceOptions opt;
    opt.normalize_timestamps = args.flag("trace-normalize");
    writer_.emplace(file_, opt);
    tracer.set_stream(&*writer_, static_cast<std::size_t>(ring));
  }

  bool active() const { return writer_.has_value(); }

  /// Flushes the buffered tails and terminates the document.
  void finish() {
    if (!writer_) return;
    tracer_.flush_stream();
    writer_->finish(tracer_.dropped_events());
  }

 private:
  obs::Tracer& tracer_;
  std::ofstream file_;
  std::optional<obs::ChromeStreamWriter> writer_;
};

// --- schedule / run -----------------------------------------------------

void add_schedule_options(ArgParser& args) {
  args.add_str("algo", "HCPA",
               "allocation algorithm: CPA, HCPA, MCPA, SEQ or MAXPAR",
               "NAME");
  add_model_option(args);
  add_mapping_options(args);
  add_dag_input(args);
  add_machine_option(args);
  add_platform_option(args);
}

int cmd_schedule(int argc, char** argv) {
  ArgParser args("mtsched_cli schedule",
                 "Compute a schedule for a DAG and print the placement "
                 "table.");
  add_schedule_options(args);
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto g = load_dag(args);
  const auto lab = make_lab(args);
  const auto algo = sched::make_allocator(args.str("algo"));
  const models::SchedCostAdapter cost(
      lab->model(models::ModelSpec::parse(args.str("model"))));
  const auto s = exp::allocate_and_map(*algo, mapping_from_args(args), g,
                                       cost, lab->spec());
  core::TextTable t;
  t.set_header({"task", "kernel", "procs", "est start", "est finish"});
  for (dag::TaskId id = 0; id < g.num_tasks(); ++id) {
    std::string procs;
    for (std::size_t i = 0; i < s.placements[id].procs.size(); ++i) {
      procs += (i ? "," : "") + std::to_string(s.placements[id].procs[i]);
    }
    t.add_row({g.task(id).name, dag::kernel_name(g.task(id).kernel), procs,
               core::fmt(s.placements[id].est_start, 2),
               core::fmt(s.placements[id].est_finish, 2)});
  }
  std::cout << t.render();
  std::cout << "estimated makespan: " << core::fmt(s.est_makespan, 2)
            << " s\n";
  return 0;
}

/// Builds the session-layer request from the shared schedule options.
exp::ScheduleRequest request_from_args(const ArgParser& args) {
  exp::ScheduleRequest req;
  req.dag_text = load_dag_text(args);
  req.algorithm = args.str("algo");
  req.mapping = mapping_from_args(args);
  req.model = models::ModelSpec::parse(args.str("model"));
  req.exp_seed = args.uint64("exp-seed");
  return req;
}

/// The standard run report, printed identically by `run` (local session)
/// and `request` (over the rpc service): the byte-identity contract
/// between the two rests on rendering the same ScheduleResponse fields.
void print_run_report(const exp::ScheduleResponse& resp) {
  std::cout << "scheduler estimate: " << core::fmt(resp.est_makespan, 2)
            << " s\n"
            << "simulated makespan: " << core::fmt(resp.makespan_sim, 2)
            << " s (" << resp.model << " model)\n"
            << "measured makespan:  " << core::fmt(resp.makespan_exp, 2)
            << " s (seed " << resp.exp_seed << ")\n"
            << "simulation error:   "
            << core::fmt(std::abs(resp.makespan_exp - resp.makespan_sim) /
                             resp.makespan_sim * 100.0,
                         1)
            << " % of the simulated value\n";
}

int cmd_run(int argc, char** argv) {
  ArgParser args("mtsched_cli run",
                 "Schedule one DAG, simulate it and execute it on the "
                 "emulated cluster.");
  add_schedule_options(args);
  args.add_uint64("exp-seed", 42, "experiment seed (cluster weather)");
  args.add_flag("gantt", "print the experimental timeline");
  add_obs_options(args);
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto req = request_from_args(args);
  const auto lab = make_lab(args);
  const exp::Session session(*lab);

  // Route the scheduling, simulation and emulated-execution layers'
  // events to one tracer/registry via the ambient obs context.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  apply_trace_cap(args, tracer, args.flag("metrics") ? &metrics : nullptr);
  const bool tracing = !args.str("trace").empty();
  TraceStream stream(args, tracer);
  std::optional<obs::ScopedContext> obs_ctx;
  if (tracing || args.flag("metrics")) {
    obs_ctx.emplace(tracing ? tracer.root() : obs::Track{},
                    args.flag("metrics") ? &metrics : nullptr);
  }

  exp::RunArtifacts artifacts;
  const auto resp = session.run(req, &artifacts);
  obs_ctx.reset();
  if (stream.active()) {
    stream.finish();
  } else if (tracing) {
    write_trace_file(args, tracer);
  }
  // Surface request-level failures exactly like the pre-session CLI:
  // as an error on stderr with exit status 1.
  if (!resp.ok()) throw core::Error(resp.message);
  print_run_report(resp);
  if (args.flag("metrics")) {
    std::cout << '\n' << metrics.render();
  }
  if (args.flag("gantt")) {
    const auto g = dag::from_text(req.dag_text);
    std::vector<std::vector<int>> procs;
    for (const auto& pl : artifacts.schedule.placements) {
      procs.push_back(pl.procs);
    }
    std::cout << "\nexperimental timeline:\n"
              << artifacts.exp_trace.ascii_gantt(g, procs,
                                                 lab->spec().num_nodes);
  }
  return 0;
}

// --- serve / request ----------------------------------------------------

int cmd_serve(int argc, char** argv) {
  ArgParser args(
      "mtsched_cli serve",
      "Run the scheduling daemon: accept mtsched.rpc.v1 requests on a "
      "loopback socket and serve them through a shared session (worker "
      "pool, schedule cache, admission control). Stops on a shutdown "
      "request (`mtsched_cli request --shutdown`).");
  args.add_int("port", 0,
               "listen port on 127.0.0.1 (0 = pick an ephemeral port; the "
               "bound port is printed on startup)");
  args.add_int("threads", 0, "worker threads (0 = one per hardware thread)");
  args.add_int("queue-limit", 64,
               "maximum requests in flight; beyond this requests are "
               "rejected with status 429");
  args.add_flag("metrics", "print the metrics registry on shutdown");
  add_machine_option(args);
  args.add_str("platform", "",
               "comma-separated extra platforms to register with the "
               "session (built-in names or platform files); requests "
               "select them by platform name",
               "LIST");
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto lab = make_machine_lab(args);
  // Every registered platform gets its own fully wired lab; they must
  // outlive the service, so they are declared before it.
  std::vector<std::unique_ptr<exp::Lab>> platform_labs;
  for (const auto& entry : core::split_csv(args.str("platform"))) {
    platform_labs.push_back(lab_for_spec(resolve_platform(entry)));
  }
  obs::MetricsRegistry metrics;
  obs::BasicSink sink(nullptr, args.flag("metrics") ? &metrics : nullptr);

  exp::ServiceConfig cfg;
  cfg.threads = static_cast<int>(args.integer("threads"));
  cfg.queue_limit = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.integer("queue-limit")));
  exp::Service service(*lab, cfg, &sink);
  for (const auto& extra : platform_labs) service.add_platform(*extra);

  exp::RpcServerConfig server_cfg;
  server_cfg.port = static_cast<std::uint16_t>(args.integer("port"));
  exp::RpcServer server(service, server_cfg);
  // One flushed line with the bound port so scripts can scrape it.
  std::cout << "mtsched serve: listening on 127.0.0.1:" << server.port()
            << " (" << service.threads() << " worker thread"
            << (service.threads() == 1 ? "" : "s") << ", queue limit "
            << service.queue_limit() << ")" << std::endl;
  if (!platform_labs.empty()) {
    std::cout << "mtsched serve: platforms: " << lab->spec().name()
              << " (default)";
    for (const auto& extra : platform_labs) {
      std::cout << ", " << extra->spec().name();
    }
    std::cout << std::endl;
  }
  server.serve();
  const auto stats = server.stats();
  std::cout << "mtsched serve: shut down after " << stats.requests
            << " requests on " << stats.connections << " connections ("
            << stats.rejected << " rejected, " << stats.protocol_errors
            << " protocol errors, " << stats.backpressure_pauses
            << " backpressure pauses)\n";
  if (args.flag("metrics")) std::cout << metrics.render();
  return 0;
}

int cmd_request(int argc, char** argv) {
  ArgParser args(
      "mtsched_cli request",
      "Send one scheduling request to a running `mtsched_cli serve` "
      "daemon and print the standard run report (byte-identical to a "
      "local `run` against the same machine model).");
  args.add_str("host", "127.0.0.1", "daemon host", "HOST");
  args.add_int("port", 0, "daemon port (required; see the serve startup "
               "line)");
  args.add_str("algo", "HCPA",
               "allocation algorithm: CPA, HCPA, MCPA, SEQ or MAXPAR",
               "NAME");
  add_model_option(args);
  add_mapping_options(args);
  args.add_str("platform", "",
               "schedule on this platform registered at the daemon "
               "(empty = the daemon's default)",
               "NAME");
  add_dag_input(args);
  args.add_uint64("exp-seed", 42, "experiment seed (cluster weather)");
  args.add_int("count", 1,
               "number of schedule requests to send; request i uses "
               "exp-seed + i and the reports print in request order");
  args.add_int("pipeline", 1,
               "requests kept in flight on the connection before reading "
               "responses (1 = strict request/response round trips; "
               "clamped to the server's per-connection in-flight budget)");
  args.add_flag("ping", "probe daemon liveness instead of scheduling");
  args.add_flag("shutdown",
                "ask the daemon to shut down instead of scheduling");
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto port = args.integer("port");
  if (port <= 0 || port > 65535) {
    throw core::InvalidArgument(
        "--port is required (the daemon prints its port on startup)");
  }
  exp::RpcClient client(args.str("host"), static_cast<std::uint16_t>(port));
  if (args.flag("ping")) {
    const auto resp = client.ping();
    std::cout << resp.message << '\n';
    return resp.ok() ? 0 : 1;
  }
  if (args.flag("shutdown")) {
    const auto resp = client.request_shutdown();
    std::cout << resp.message << '\n';
    return resp.ok() ? 0 : 1;
  }
  auto req = request_from_args(args);
  req.platform = args.str("platform");
  const auto count =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.integer("count")));
  // The server parks reads on a connection once max_conn_inflight
  // responses are owed; a window beyond that budget would leave this
  // client blocked in send() against a server that has stopped reading.
  const auto window = std::min(
      exp::RpcServerConfig{}.max_conn_inflight,
      static_cast<std::size_t>(
          std::max<std::int64_t>(1, args.integer("pipeline"))));
  const std::uint64_t seed0 = req.exp_seed;
  // Sliding window of pipelined requests: keep up to `window` in flight,
  // print each response as it comes back (the server answers in request
  // order, so the reports line up with the seeds).
  std::size_t sent = 0;
  std::size_t received = 0;
  const auto consume_one = [&] {
    const auto resp = client.recv();
    if (!resp.ok()) {
      throw core::Error(std::string(exp::status_name(resp.status)) + ": " +
                        resp.message);
    }
    print_run_report(resp);
    ++received;
  };
  while (received < count) {
    while (sent < count && sent - received < window) {
      // Drain responses the server already delivered before blocking in
      // send(): unread responses fill the kernel buffers, feed the
      // server's write backpressure and can stall the whole window.
      while (received < sent && client.response_ready()) consume_one();
      req.exp_seed = seed0 + sent;
      client.send(req);
      ++sent;
    }
    consume_one();
  }
  return 0;
}

// --- case-study / campaign ----------------------------------------------

int cmd_case_study(int argc, char** argv) {
  ArgParser args("mtsched_cli case-study",
                 "The paper's HCPA-vs-MCPA comparison: verdict-flip counts "
                 "per cost model for one matrix dimension.");
  args.add_int("dim", 2000, "matrix dimension to report (2000 or 3000)");
  args.add_uint64("exp-seed", 42, "experiment seed (cluster weather)");
  add_machine_option(args);
  add_platform_option(args);
  if (!parse_or_help(args, argc, argv)) return 0;

  // Only the reported dimension's slice of the Table I suite runs, so
  // the dimension must be one the suite has.
  const int dim = static_cast<int>(args.integer("dim"));
  exp::CampaignSpec spec;  // default algorithms: HCPA vs MCPA
  spec.suites = {exp::SuiteSpec::table1()};
  std::set<int> suite_dims;
  for (const auto& inst : spec.suites.front().dags) {
    suite_dims.insert(inst.params.matrix_dim);
  }
  if (!suite_dims.contains(dim)) {
    std::string known;
    for (const int d : suite_dims) {
      known += (known.empty() ? "" : ", ") + std::to_string(d);
    }
    throw core::InvalidArgument("--dim " + std::to_string(dim) +
                                " is not a matrix dimension of the Table I "
                                "suite (" + known + ")");
  }
  spec.dims = {dim};

  const auto lab = make_lab(args);
  spec.models = exp::lab_models(*lab, models::all_kinds());
  spec.exp_seeds = {args.uint64("exp-seed")};
  const auto campaign = exp::Campaign(lab->rig()).run(spec);
  for (const auto& model : spec.models) {
    const auto result =
        campaign.case_study(model.label, "HCPA", "MCPA",
                            spec.suites.front().seed, spec.exp_seeds.front());
    std::cout << result.model_name << " model, n = " << dim << ": "
              << result.num_flips() << "/" << result.outcomes.size()
              << " verdict flips\n";
  }
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  ArgParser args(
      "mtsched_cli campaign",
      "Run a full experiment campaign (suites x algorithms x models x "
      "seeds) on a worker pool and emit structured results. The output "
      "is byte-identical for every --threads value.");
  args.add_int("threads", core::ThreadPool::recommended_threads(),
               "worker threads (0 = one per hardware thread)");
  args.add_str("models", "analytical,profile,empirical",
               "comma-separated cost models to sweep", "LIST");
  args.add_str("algos", "HCPA,MCPA",
               "comma-separated allocation algorithms (CPA, HCPA, MCPA, "
               "SEQ, MAXPAR)",
               "LIST");
  args.add_str("dims", "", "keep only these matrix dimensions (e.g. "
               "2000,3000); empty = all", "LIST");
  args.add_str("suite-seeds", "2011",
               "comma-separated Table I suite seeds, one 54-DAG suite each",
               "LIST");
  args.add_int("suite-tasks", 10,
               "tasks per generated DAG in every suite (paper value: 10)");
  args.add_str("exp-seeds", "42",
               "comma-separated experiment seeds (cluster weather)", "LIST");
  args.add_str("out", "", "write the JSON document to FILE ('-' = stdout)",
               "FILE");
  args.add_str("csv", "", "also write the flat CSV to FILE ('-' = stdout)",
               "FILE");
  args.add_flag("progress", "report progress on stderr while running");
  args.add_flag("quiet", "suppress the summary tables on stdout");
  add_obs_options(args);
  add_machine_option(args);
  add_platform_option(args);
  add_mapping_options(args);
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto lab = make_lab(args);
  const auto strategy = mapping_from_args(args);

  const auto suite_tasks = static_cast<int>(args.integer("suite-tasks"));
  if (suite_tasks < 1)
    throw core::InvalidArgument("--suite-tasks must be >= 1");

  exp::CampaignSpec spec;
  for (const auto seed :
       core::split_csv_uint64(args.str("suite-seeds"), "--suite-seeds")) {
    spec.suites.push_back(exp::SuiteSpec::table1(seed, suite_tasks));
  }
  for (const auto& name : core::split_csv(args.str("algos"))) {
    spec.algorithms.push_back(
        exp::AlgoSpec::allocator(name, strategy));
  }
  spec.models = exp::lab_models(*lab, models::parse_kind_list(args.str("models")));
  spec.dims = core::split_csv_int(args.str("dims"), "--dims");
  spec.exp_seeds = core::split_csv_uint64(args.str("exp-seeds"), "--exp-seeds");
  spec.threads = static_cast<int>(args.integer("threads"));

  obs::BasicSink::ProgressCallback on_progress;
  if (args.flag("progress")) {
    on_progress = [](const obs::Progress& p) {
      if (p.done % 50 == 0 || p.done == p.total) {
        std::cerr << "  [" << p.done << "/" << p.total << "] "
                  << core::fmt(p.elapsed_seconds, 2) << " s elapsed\n";
      }
    };
  }
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  apply_trace_cap(args, tracer, args.flag("metrics") ? &metrics : nullptr);
  const bool tracing = !args.str("trace").empty();
  TraceStream stream(args, tracer);
  obs::BasicSink sink(tracing ? &tracer : nullptr,
                      args.flag("metrics") ? &metrics : nullptr,
                      std::move(on_progress));
  const bool observed =
      tracing || args.flag("metrics") || args.flag("progress");

  const exp::Campaign campaign(lab->rig());
  const auto result = campaign.run(spec, observed ? &sink : nullptr);
  if (stream.active()) {
    stream.finish();
  } else if (tracing) {
    write_trace_file(args, tracer);
  }

  const auto write_doc = [](const std::string& path, const std::string& doc,
                            const char* what) {
    if (path == "-") {
      std::cout << doc;
      return;
    }
    std::ofstream f(path, std::ios::binary);
    if (!f) {
      throw core::InvalidArgument(std::string("cannot open ") + what +
                                  " file '" + path + "'");
    }
    f << doc;
  };
  if (!args.str("out").empty()) {
    write_doc(args.str("out"), exp::to_json(spec, result), "--out");
  }
  if (!args.str("csv").empty()) {
    write_doc(args.str("csv"), exp::to_csv(result.records), "--csv");
  }

  if (!args.flag("quiet")) {
    // Verdict-flip summary per (model, suite, exp seed) when the sweep
    // pairs exactly two algorithms — the paper's headline table.
    if (spec.algorithms.size() == 2) {
      core::TextTable t;
      t.set_header({"model", "suite seed", "exp seed", "flips", "of"});
      for (const auto& model : spec.models) {
        for (const auto& suite : spec.suites) {
          for (const auto exp_seed : spec.exp_seeds) {
            const auto cs = result.case_study(
                model.label, spec.algorithms[0].label,
                spec.algorithms[1].label, suite.seed, exp_seed);
            t.add_row({model.label, std::to_string(suite.seed),
                       std::to_string(exp_seed),
                       std::to_string(cs.num_flips()),
                       std::to_string(cs.outcomes.size())});
          }
        }
      }
      std::cout << t.render();
    }
    std::cout << result.metrics.describe();
  }
  if (args.flag("metrics")) {
    std::cout << metrics.render();
  }
  return 0;
}

int cmd_export_machine(int argc, char** argv) {
  ArgParser args("mtsched_cli export-machine",
                 "Dump the built-in cluster behaviour as measurement "
                 "tables (loadable via --machine).");
  if (!parse_or_help(args, argc, argv)) return 0;

  const machine::JavaClusterModel java;
  const auto tables = machine::snapshot_tables(
      java, {{dag::TaskKernel::MatMul, 2000},
             {dag::TaskKernel::MatMul, 3000},
             {dag::TaskKernel::MatAdd, 2000},
             {dag::TaskKernel::MatAdd, 3000}});
  std::cout << machine::to_text(tables);
  return 0;
}

// --- trace analytics ----------------------------------------------------

obs::TraceProfile load_profile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw core::InvalidArgument("cannot open trace file '" + path + "'");
  }
  return obs::TraceProfile::from_chrome(obs::parse_chrome_json(read_all(f)));
}

int cmd_trace_report(int argc, char** argv) {
  ArgParser args("mtsched_cli trace-report",
                 "Profile a Chrome trace_event JSON file: per-category and "
                 "per-span self/total attribution plus the critical path.");
  args.add_positional("file", "trace file (as written by --trace)", "FILE");
  args.add_int("top", 20, "span rows to print (0 = all)");
  if (!parse_or_help(args, argc, argv)) return 0;

  const auto profile = load_profile(args.str("file"));
  std::cout << obs::render_profile(
      profile, static_cast<std::size_t>(std::max<std::int64_t>(
                   0, args.integer("top"))));
  return 0;
}

int cmd_trace_diff(int argc, char** argv) {
  ArgParser args(
      "mtsched_cli trace-diff",
      "Compare two Chrome trace files span by span and flag the "
      "(category, name) pairs whose total time moved beyond the "
      "threshold. Useful with --trace-normalize'd traces, where times "
      "are event counts and the diff is structural.");
  args.add_positional("a", "baseline trace file", "A");
  args.add_positional("b", "candidate trace file", "B");
  args.add_double("threshold", 10.0,
                  "relative change (percent) beyond which a span pair is "
                  "flagged",
                  "PCT");
  args.add_double("abs-threshold", 0.0,
                  "ignore changes smaller than this many seconds",
                  "SECONDS");
  args.add_int("top", 30, "per-pair rows to print (0 = all)");
  args.add_flag("gate", "exit with status 1 when any pair is flagged");
  if (!parse_or_help(args, argc, argv)) return 0;

  obs::TraceDiffOptions opt;
  opt.rel_threshold = args.number("threshold") / 100.0;
  opt.abs_threshold_seconds = args.number("abs-threshold");
  const auto diff =
      obs::TraceDiff::between(load_profile(args.str("a")),
                              load_profile(args.str("b")), opt);
  std::cout << obs::render_diff(
      diff, static_cast<std::size_t>(std::max<std::int64_t>(
                0, args.integer("top"))));
  return args.flag("gate") && !diff.flagged.empty() ? 1 : 0;
}

constexpr Command kCommands[] = {
    {"gen-dag", "generate a Table I style random DAG", cmd_gen_dag},
    {"gen-daggen", "generate a DAGGEN-style layered DAG", cmd_gen_daggen},
    {"gen-strassen", "generate a Strassen multiplication DAG",
     cmd_gen_strassen},
    {"gen-lu", "generate a blocked LU factorization DAG", cmd_gen_lu},
    {"schedule", "compute a schedule for a DAG", cmd_schedule},
    {"run", "schedule + simulate + execute one DAG", cmd_run},
    {"serve", "scheduling daemon over the mtsched.rpc.v1 protocol",
     cmd_serve},
    {"request", "send one request to a running serve daemon", cmd_request},
    {"case-study", "the paper's full HCPA-vs-MCPA comparison",
     cmd_case_study},
    {"campaign", "parallel experiment campaign with JSON/CSV output",
     cmd_campaign},
    {"export-machine", "dump the built-in cluster measurement tables",
     cmd_export_machine},
    {"trace-report", "profile a trace: attribution + critical path",
     cmd_trace_report},
    {"trace-diff", "compare two traces and flag perf regressions",
     cmd_trace_diff},
};

[[noreturn]] void usage(const std::string& error) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: mtsched_cli <command> [options]\ncommands:\n";
  for (const auto& cmd : kCommands) {
    std::string lhs = std::string("  ") + cmd.name;
    if (lhs.size() < 17) lhs += std::string(17 - lhs.size(), ' ');
    std::cerr << lhs << cmd.summary << '\n';
  }
  std::cerr << "run 'mtsched_cli <command> --help' for that command's "
               "options\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") usage();
  try {
    for (const auto& c : kCommands) {
      if (cmd == c.name) return c.run(argc, argv);
    }
    usage("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
