// Tests for the parallel campaign runner: determinism across thread
// counts, memo-cache accounting, the JSON/CSV writers, and agreement of
// the case-study pivot with a sequential reference pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/exp/campaign.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/results.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sim/simulator.hpp"
#include "mtsched/stats/summary.hpp"
#include "mtsched/tgrid/emulator.hpp"

namespace {

using namespace mtsched;

/// One shared lab for the whole test binary (construction runs the full
/// profiling campaign).
const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

/// A small suite: three DAGs at n=2000, two at n=3000, all distinct.
exp::SuiteSpec mini_suite(std::uint64_t suite_seed = 7) {
  exp::SuiteSpec suite;
  suite.seed = suite_seed;
  for (int i = 0; i < 5; ++i) {
    dag::DagGenParams p;
    p.width = 4;
    p.add_ratio = 0.5;
    p.matrix_dim = i < 3 ? 2000 : 3000;
    p.seed = suite_seed * 100 + static_cast<std::uint64_t>(i);
    suite.dags.push_back(dag::generate_random_dag(p));
  }
  return suite;
}

/// The inverse of exp::to_csv, the oracle of the CSV round trip: every
/// field except the derived sim_error_percent. Throws core::ParseError on
/// a missing header, a wrong field count or a malformed number.
std::vector<std::string> split_csv(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(line);
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

template <typename T>
T parse_csv_number(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) {
    throw core::ParseError("campaign CSV: bad number '" + s + "'");
  }
  return v;
}

std::vector<exp::RunRecord> parse_campaign_csv(const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line) || line + '\n' != exp::to_csv({})) {
    throw core::ParseError("campaign CSV: missing or unexpected header");
  }
  std::vector<exp::RunRecord> out;
  while (std::getline(is, line)) {
    const auto f = split_csv(line, ',');
    if (f.size() != 11) throw core::ParseError("campaign CSV: field count");
    exp::RunRecord& r = out.emplace_back();
    r.suite_seed = parse_csv_number<std::uint64_t>(f[0]);
    r.dag = f[1];
    r.matrix_dim = parse_csv_number<int>(f[2]);
    r.model = f[3];
    r.algorithm = f[4];
    r.exp_seed = parse_csv_number<std::uint64_t>(f[5]);
    r.run_seed = parse_csv_number<std::uint64_t>(f[6]);
    for (const auto& p : split_csv(f[7], '|')) {
      r.allocation.push_back(parse_csv_number<int>(p));
    }
    r.makespan_sim = parse_csv_number<double>(f[8]);
    r.makespan_exp = parse_csv_number<double>(f[9]);
  }
  return out;
}

exp::CampaignSpec mini_spec() {
  exp::CampaignSpec spec;
  spec.suites = {mini_suite()};
  spec.models = {exp::lab_model(lab(), models::CostModelKind::Profile)};
  return spec;
}

TEST(Campaign, ParallelRunIsByteIdenticalToSequential) {
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};

  spec.threads = 1;
  const auto seq = exp::Campaign(lab().rig()).run(spec);
  spec.threads = 8;
  const auto par = exp::Campaign(lab().rig()).run(spec);

  EXPECT_EQ(par.metrics.threads, 8);
  ASSERT_EQ(seq.records.size(), par.records.size());
  EXPECT_EQ(exp::to_json(spec, seq), exp::to_json(spec, par));
  EXPECT_EQ(exp::to_csv(seq.records), exp::to_csv(par.records));
  // Cache accounting is part of the deterministic contract too.
  EXPECT_EQ(seq.metrics.cache_hits, par.metrics.cache_hits);
  EXPECT_EQ(seq.metrics.cache_misses, par.metrics.cache_misses);
}

TEST(Campaign, RepeatedExpSeedsHitTheScheduleCache) {
  // The schedule of a (suite, dag, model, algorithm) cell does not depend
  // on the experiment seed, so with two seeds every cell computes once
  // and hits once: hits == misses == jobs / 2.
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};
  spec.threads = 4;
  const auto result = exp::Campaign(lab().rig()).run(spec);

  const std::size_t jobs = 5 * 1 * 2 * 2;  // dags x models x seeds x algos
  EXPECT_EQ(result.metrics.jobs, jobs);
  EXPECT_EQ(result.metrics.cache_hits, jobs / 2);
  EXPECT_EQ(result.metrics.cache_misses, jobs / 2);
}

TEST(Campaign, DagsUnderDifferentDimsDoNotShareCacheEntries) {
  // The mini suite re-uses generator parameters across dims; the cache
  // must key on the DAG instance, never collapse across dims. With one
  // exp seed there is nothing to reuse at all.
  auto spec = mini_spec();
  const auto result = exp::Campaign(lab().rig()).run(spec);

  EXPECT_EQ(result.metrics.jobs, 10u);  // 5 dags x 1 model x 1 seed x 2 algos
  EXPECT_EQ(result.metrics.cache_hits, 0u);
  EXPECT_EQ(result.metrics.cache_misses, 10u);

  // The dims filter selects exactly the n=2000 slice.
  spec.dims = {2000};
  const auto filtered = exp::Campaign(lab().rig()).run(spec);
  EXPECT_EQ(filtered.metrics.jobs, 6u);
  for (const auto& r : filtered.records) EXPECT_EQ(r.matrix_dim, 2000);
}

TEST(Campaign, RecordsFollowSpecExpansionOrder) {
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};
  const auto result = exp::Campaign(lab().rig()).run(spec);

  // suites -> dags -> models -> exp_seeds -> algorithms.
  std::size_t i = 0;
  for (const auto& dag : spec.suites[0].dags) {
    for (const auto seed : spec.exp_seeds) {
      for (const char* algo : {"HCPA", "MCPA"}) {
        ASSERT_LT(i, result.records.size());
        const auto& r = result.records[i++];
        EXPECT_EQ(r.dag, dag.name);
        EXPECT_EQ(r.exp_seed, seed);
        EXPECT_EQ(r.algorithm, algo);
        EXPECT_EQ(r.model, "profile");
        EXPECT_EQ(r.suite_seed, 7u);
      }
    }
  }
  EXPECT_EQ(i, result.records.size());
}

TEST(Campaign, PivotMatchesTheSequentialCaseStudy) {
  auto spec = mini_spec();
  const auto result = exp::Campaign(lab().rig()).run(spec);
  const auto pivot = result.case_study("profile", "HCPA", "MCPA", 7, 42);

  // The sequential reference: the default HCPA/MCPA recipe (two-step
  // scheduling under the model, EST mapping), a fresh simulation, and
  // one cluster run per algorithm seeded hash_mix(exp seed, slot, dag
  // seed) with slots 1 and 2 — separate runs, separate weather.
  const models::SchedCostAdapter cost(lab().profile());
  const sim::Simulator simulator(lab().profile());
  const sched::HcpaAllocator hcpa;
  const sched::McpaAllocator mcpa;
  const auto reference = [&](const dag::GeneratedDag& inst,
                             const sched::Allocator& alloc,
                             std::uint64_t slot) {
    const auto s = sched::TwoStepScheduler(alloc, cost, lab().spec().num_nodes)
                       .schedule(inst.graph);
    exp::RunRecord r;
    r.algorithm = alloc.name();
    r.allocation = s.allocation();
    r.makespan_sim = simulator.makespan(inst.graph, s);
    r.makespan_exp = lab().rig().makespan(
        inst.graph, s, core::hash_mix(42, slot, inst.params.seed));
    return r;
  };
  exp::CaseStudyResult direct;
  for (const auto& inst : spec.suites[0].dags) {
    exp::DagOutcome o;
    o.dag_name = inst.name;
    o.first = reference(inst, hcpa, 1);
    o.second = reference(inst, mcpa, 2);
    direct.outcomes.push_back(std::move(o));
  }

  ASSERT_EQ(pivot.outcomes.size(), direct.outcomes.size());
  for (std::size_t i = 0; i < pivot.outcomes.size(); ++i) {
    const auto& a = pivot.outcomes[i];
    const auto& b = direct.outcomes[i];
    EXPECT_EQ(a.dag_name, b.dag_name);
    for (const auto side :
         {&exp::DagOutcome::first, &exp::DagOutcome::second}) {
      EXPECT_EQ((a.*side).algorithm, (b.*side).algorithm);
      EXPECT_EQ((a.*side).allocation, (b.*side).allocation);
      EXPECT_EQ((a.*side).makespan_sim, (b.*side).makespan_sim);
      EXPECT_EQ((a.*side).makespan_exp, (b.*side).makespan_exp);
    }
  }
  EXPECT_EQ(pivot.num_flips(), direct.num_flips());
}

TEST(Campaign, CaseStudyThrowsOnMissingSlice) {
  const auto result = exp::Campaign(lab().rig()).run(mini_spec());
  EXPECT_THROW(result.case_study("analytical", "HCPA", "MCPA", 7, 42),
               core::InvalidArgument);
  EXPECT_THROW(result.case_study("profile", "HCPA", "CPA", 7, 42),
               core::InvalidArgument);
  EXPECT_THROW(result.case_study("profile", "HCPA", "MCPA", 7, 99),
               core::InvalidArgument);
}

TEST(Campaign, CsvRoundTripsThroughTheStatsSummary) {
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};
  const auto result = exp::Campaign(lab().rig()).run(spec);

  const auto parsed = parse_campaign_csv(exp::to_csv(result.records));
  ASSERT_EQ(parsed.size(), result.records.size());

  const auto makespans = [](const std::vector<exp::RunRecord>& rs) {
    std::vector<double> v;
    for (const auto& r : rs) v.push_back(r.makespan_exp);
    return v;
  };
  const auto s1 = stats::summarize(makespans(result.records));
  const auto s2 = stats::summarize(makespans(parsed));
  EXPECT_DOUBLE_EQ(s1.mean, s2.mean);
  EXPECT_DOUBLE_EQ(s1.min, s2.min);
  EXPECT_DOUBLE_EQ(s1.max, s2.max);
  EXPECT_DOUBLE_EQ(s1.stddev, s2.stddev);

  // Every field survives except the derived error column.
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto& a = result.records[i];
    const auto& b = parsed[i];
    EXPECT_EQ(a.suite_seed, b.suite_seed);
    EXPECT_EQ(a.dag, b.dag);
    EXPECT_EQ(a.matrix_dim, b.matrix_dim);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.exp_seed, b.exp_seed);
    EXPECT_EQ(a.run_seed, b.run_seed);
    EXPECT_EQ(a.allocation, b.allocation);
    EXPECT_DOUBLE_EQ(a.makespan_sim, b.makespan_sim);
    EXPECT_DOUBLE_EQ(a.makespan_exp, b.makespan_exp);
  }
}

TEST(Campaign, CsvParserRejectsMalformedInput) {
  EXPECT_THROW(parse_campaign_csv(""), core::ParseError);
  EXPECT_THROW(parse_campaign_csv("wrong,header\n"), core::ParseError);
  const std::string header =
      "suite_seed,dag,dim,model,algorithm,exp_seed,run_seed,allocation,"
      "makespan_sim,makespan_exp,sim_error_percent\n";
  EXPECT_THROW(parse_campaign_csv(header + "1,d,2000\n"),
               core::ParseError);
  EXPECT_THROW(
      parse_campaign_csv(header +
                              "1,d,2000,m,a,42,43,1|x,1.0,2.0,100\n"),
      core::ParseError);
}

TEST(Campaign, SeedSlotZeroReplaysIdenticalWeather) {
  // With seed_slot = 0 both algorithms execute under the same derived
  // seed — the setup variant-comparison benches rely on.
  auto spec = mini_spec();
  auto est = exp::AlgoSpec::allocator("HCPA");
  est.label = "a";
  est.seed_slot = 0;
  auto aware = exp::AlgoSpec::allocator("HCPA");
  aware.label = "b";
  aware.seed_slot = 0;
  spec.algorithms = {est, aware};
  const auto result = exp::Campaign(lab().rig()).run(spec);

  ASSERT_EQ(result.records.size(), 10u);
  for (std::size_t i = 0; i + 1 < result.records.size(); i += 2) {
    EXPECT_EQ(result.records[i].run_seed, result.records[i + 1].run_seed);
    // Identical algorithm + identical weather => identical measurement.
    EXPECT_DOUBLE_EQ(result.records[i].makespan_exp,
                     result.records[i + 1].makespan_exp);
  }
}

TEST(Campaign, ValidatesSpec) {
  exp::CampaignSpec empty_models;
  EXPECT_THROW(exp::Campaign(lab().rig()).run(empty_models),
               core::InvalidArgument);

  auto dup = mini_spec();
  dup.algorithms = {exp::AlgoSpec::allocator("HCPA"),
                    exp::AlgoSpec::allocator("HCPA")};
  EXPECT_THROW(exp::Campaign(lab().rig()).run(dup), core::InvalidArgument);

  // Every model must live on a platform of the rig's size: the lab's
  // 32-node models cannot drive an 8-node rig.
  machine::JavaClusterConfig cfg;
  cfg.num_nodes = 8;
  const machine::JavaClusterModel small(cfg);
  const tgrid::TGridEmulator small_rig(small, small.platform_spec());
  EXPECT_THROW(exp::Campaign(small_rig).run(mini_spec()),
               core::InvalidArgument);
}

TEST(AlgoSpecAllocator, RackAwareMapsOnTheModelsRacks) {
  // The recipe's mapper takes its racks from the model's platform. On
  // hier4x8 rack-aware mapping must differ from redistribution-aware
  // mapping for some of these DAGs, and the recipe must match the
  // platform-aware mapper exactly on all of them.
  const auto hier = *platform::named_platform("hier4x8");
  const models::AnalyticalModel model(hier);
  const models::SchedCostAdapter cost(model);
  const int P = hier.num_nodes;
  const auto recipe =
      exp::AlgoSpec::allocator("HCPA", sched::MappingStrategy::RackAware);
  const sched::ListMapper rack(sched::MappingStrategy::RackAware, hier);
  const sched::ListMapper redist(sched::MappingStrategy::RedistributionAware,
                                 hier);
  int differs = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    dag::DagGenParams p;
    p.num_tasks = 40;
    p.width = 4;
    p.add_ratio = 0.4;
    p.seed = seed;
    const auto inst = dag::generate_random_dag(p);
    const auto alloc = sched::HcpaAllocator{}.allocate(inst.graph, cost, P);
    const auto want = rack.map(inst.graph, alloc, cost, P);
    const auto got = recipe.schedule(inst.graph, model, P);
    ASSERT_EQ(got.placements.size(), want.placements.size());
    for (std::size_t t = 0; t < want.placements.size(); ++t) {
      EXPECT_EQ(got.placements[t].procs, want.placements[t].procs)
          << "seed " << seed << ", task " << t;
      EXPECT_EQ(got.placements[t].est_start, want.placements[t].est_start);
      EXPECT_EQ(got.placements[t].est_finish, want.placements[t].est_finish);
    }
    EXPECT_EQ(got.proc_order, want.proc_order) << "seed " << seed;
    const auto other = redist.map(inst.graph, alloc, cost, P);
    for (std::size_t t = 0; t < want.placements.size(); ++t) {
      if (other.placements[t].procs != want.placements[t].procs) {
        ++differs;
        break;
      }
    }
  }
  EXPECT_GT(differs, 0);
}

/// Every record of `result` must equal what fresh per-record calls give:
/// the algorithm's schedule, a fresh Simulator::run(g, s) and a fresh
/// rig.run(g, s, run_seed).
void expect_records_match_fresh_calls(const exp::CampaignSpec& spec,
                                      const exp::CampaignResult& result,
                                      const tgrid::TGridEmulator& rig) {
  const int P = rig.spec().num_nodes;
  std::size_t checked = 0;
  for (const auto& rec : result.records) {
    const dag::GeneratedDag* inst = nullptr;
    for (const auto& suite : spec.suites) {
      for (const auto& d : suite.dags) {
        if (suite.seed == rec.suite_seed && d.name == rec.dag) inst = &d;
      }
    }
    const auto model = std::find_if(
        spec.models.begin(), spec.models.end(),
        [&](const exp::ModelRef& m) { return m.label == rec.model; });
    const auto algo = std::find_if(
        spec.algorithms.begin(), spec.algorithms.end(),
        [&](const exp::AlgoSpec& a) { return a.label == rec.algorithm; });
    ASSERT_NE(inst, nullptr);
    ASSERT_NE(model, spec.models.end());
    ASSERT_NE(algo, spec.algorithms.end());
    const auto s = algo->schedule(inst->graph, *model->model, P);
    const std::string what = rec.dag + "/" + rec.model + "/" + rec.algorithm +
                             "/s" + std::to_string(rec.exp_seed);
    EXPECT_EQ(rec.allocation, s.allocation()) << what;
    EXPECT_EQ(rec.makespan_sim,
              sim::Simulator(*model->model).run(inst->graph, s).makespan)
        << what;
    EXPECT_EQ(rec.makespan_exp, rig.run(inst->graph, s, rec.run_seed).makespan)
        << what;
    ++checked;
  }
  EXPECT_EQ(checked, result.metrics.jobs);
}

TEST(CampaignSharedCompile, ModelsOnTheRigPlatformMatchFreshCalls) {
  // Every lab model lives on the rig's platform: each cell simulates on
  // its plan for the rig.
  auto spec = mini_spec();
  spec.models = exp::lab_models(lab(), models::all_kinds());
  spec.algorithms = {exp::AlgoSpec::allocator("HCPA"),
                     exp::AlgoSpec::allocator("MCPA")};
  spec.exp_seeds = {42, 9001};
  spec.threads = 2;
  const auto result = exp::Campaign(lab().rig()).run(spec);
  expect_records_match_fresh_calls(spec, result, lab().rig());
}

TEST(CampaignSharedCompile, ModelOnAnotherPlatformMatchesFreshCalls) {
  // Shaped like the heterogeneous virtual-cluster bench: the rig runs a
  // skewed cluster. The speed-blind model believes in the homogeneous
  // star and must simulate on a plan of its own; the aware model lives on
  // the rig's platform and shares the cell's plan.
  auto skewed = lab().spec();
  const double lo = 2.0 * skewed.reference_flops() / (1.0 + 4.0);
  skewed = platform::heterogeneous_cluster(skewed.num_nodes, lo, lo * 4.0,
                                           /*seed=*/5);
  const tgrid::TGridEmulator rig(lab().machine(), skewed);
  const models::AnalyticalModel blind(lab().spec());
  const models::AnalyticalModel aware(skewed);
  ASSERT_FALSE(blind.spec() == rig.spec());
  ASSERT_TRUE(aware.spec() == rig.spec());

  auto spec = mini_spec();
  spec.models = {{"blind", &blind}, {"aware", &aware}};
  auto hcpa = exp::AlgoSpec::allocator("HCPA");
  hcpa.seed_slot = 0;
  auto mcpa = exp::AlgoSpec::allocator("MCPA");
  mcpa.seed_slot = 0;
  spec.algorithms = {hcpa, mcpa};
  spec.exp_seeds = {42, 7};
  spec.threads = 2;
  const auto result = exp::Campaign(rig).run(spec);
  expect_records_match_fresh_calls(spec, result, rig);
}

}  // namespace
