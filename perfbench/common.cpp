#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "mtsched/core/rng.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"

namespace perfbench {

using namespace mtsched;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) correct_ = false;
  std::cout << (ok ? "check ok: " : "check FAILED: ") << what << std::endl;
}

void Report::note(const std::string& line) const {
  std::cout << line << std::endl;
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
        << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {

constexpr double kQuietSlack = 1.1;

/// Nearest-rank quantile of an ascending sample, q in [0, 1].
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.5);
}

Tail summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.n = samples.size();
  t.n_p50 = samples.size();
  if (samples.empty()) return t;
  t.p50 = quantile_sorted(samples, 0.5);
  const double n = static_cast<double>(samples.size());
  const double q = std::min(0.99, 1.0 - 10.0 / n);
  if (q > 0.5) {
    t.tail = quantile_sorted(samples, q);
    t.tail_pct = 100.0 * q;
  } else {
    t.tail = quantile_sorted(samples, 0.9);
    t.tail_pct = 90.0;
  }
  return t;
}

Tail timing(const std::vector<double>& all,
            const std::vector<double>& quiet_reps) {
  Tail t = summarize(all);
  t.p50 = median(quiet_reps);
  t.n_p50 = quiet_reps.size();
  return t;
}

std::string describe(const std::string& label, const Tail& t, double scale,
                     const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: p50 %.4g %s of n=%zu, p%.4g %.4g %s of n=%zu",
                label.c_str(), t.p50 * scale, unit.c_str(), t.n_p50,
                t.tail_pct, t.tail * scale, unit.c_str(), t.n);
  return buf;
}

std::vector<double> quiet(const std::vector<double>& costs) {
  const double best = *std::min_element(costs.begin(), costs.end());
  std::vector<double> out;
  for (const double c : costs) {
    if (c <= kQuietSlack * best) out.push_back(c);
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  if (parent >= 0 && request == 0) request = tracer_.spans_[parent].request;
  tracer_.spans_.push_back({name, since(tracer_.epoch_), 0.0, parent, request});
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[index_].end = since(tracer_.epoch_);
  tracer_.open_.pop_back();
}

std::map<std::string, std::vector<double>> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<unsigned long long>(s.request), s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent);
    out << buf;
  }
  out << "]}\n";
}

LayerResult run_layers(const exp::Lab& lab, const exp::ScheduleRequest& req,
                       Tracer& tracer, std::uint64_t request_id,
                       bool platform_mapper) {
  const Tracer::Scope root(tracer, "request", request_id);
  dag::Dag g;
  {
    const Tracer::Scope s(tracer, "dag.parse");
    g = dag::from_text(req.dag_text);
  }
  const models::CostModel& model = lab.model(req.model);
  const models::SchedCostAdapter cost(model);
  const int P = lab.spec().num_nodes;
  std::vector<int> sizes;
  {
    const Tracer::Scope s(tracer, "sched.allocate");
    sizes = sched::make_allocator(req.algorithm)->allocate(g, cost, P);
  }
  LayerResult out;
  {
    const Tracer::Scope s(tracer, "sched.map");
    const sched::ListMapper mapper =
        platform_mapper ? sched::ListMapper(req.mapping, lab.spec())
                        : sched::ListMapper(req.mapping);
    out.schedule = mapper.map(g, sizes, cost, P);
  }
  {
    const Tracer::Scope s(tracer, "sim.simulate");
    out.makespan_sim = sim::Simulator(model).makespan(g, out.schedule);
  }
  if (req.execute) {
    const Tracer::Scope s(tracer, "tgrid.execute");
    out.makespan_exp = lab.rig().makespan(g, out.schedule, req.exp_seed);
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return core::hash_mix(seed, stream);
}

}  // namespace perfbench
