#include "mtsched/sched/mapping.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "list_common.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"

namespace mtsched::sched {

const char* mapping_name(MappingStrategy s) {
  switch (s) {
    case MappingStrategy::EarliestStart:
      return "earliest";
    case MappingStrategy::RedistributionAware:
      return "redist_aware";
    case MappingStrategy::RackAware:
      return "rack_aware";
  }
  throw core::InvalidArgument("unknown mapping strategy");
}

std::optional<MappingStrategy> parse_mapping(const std::string& name) {
  if (name == "earliest") return MappingStrategy::EarliestStart;
  if (name == "redist_aware") return MappingStrategy::RedistributionAware;
  if (name == "rack_aware") return MappingStrategy::RackAware;
  return std::nullopt;
}

ListMapper::ListMapper(MappingStrategy strategy, double locality_weight)
    : strategy_(strategy), locality_weight_(locality_weight) {
  MTSCHED_REQUIRE(locality_weight >= 0.0,
                  "locality weight must be non-negative");
}

ListMapper::ListMapper(MappingStrategy strategy,
                       const platform::ClusterSpec& spec,
                       double locality_weight)
    : ListMapper(strategy, locality_weight) {
  const platform::Topology& topo = spec.topology();
  num_racks_ = topo.num_racks();
  rack_of_.reserve(static_cast<std::size_t>(spec.num_nodes));
  for (int r = 0; r < num_racks_; ++r) {
    for (int k = 0; k < topo.racks[static_cast<std::size_t>(r)].nodes; ++k) {
      rack_of_.push_back(r);
    }
  }
  const platform::FlatNetwork net = topo.flat_network();
  if (net.uplink_bandwidth > 0.0) {
    // sigma: the rack uplink's share of the per-byte cross-rack path cost
    // — what a same-rack (but non-holder) processor saves relative to a
    // cross-rack one. 0 on one rack and when uplinks are infinitely fast;
    // -> 1 as the uplink becomes the bottleneck.
    const double inv_link = 1.0 / net.link_bandwidth;
    const double inv_uplink = 1.0 / net.uplink_bandwidth;
    sigma_ = 1.0 - inv_link / (inv_link + inv_uplink);
  }
}

Schedule ListMapper::map(const dag::Dag& g, const std::vector<int>& alloc,
                         const SchedCost& cost, int P) const {
  const obs::Span obs_span(
      obs::current_track(), "sched",
      strategy_ == MappingStrategy::EarliestStart
          ? "map:earliest_start"
          : (strategy_ == MappingStrategy::RedistributionAware
                 ? "map:redist_aware"
                 : "map:rack_aware"),
      [&] {
        return obs::Args{{"tasks", std::to_string(g.num_tasks())},
                         {"P", std::to_string(P)}};
      });
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  MTSCHED_REQUIRE(alloc.size() == g.num_tasks(),
                  "allocation vector size mismatch");
  for (int a : alloc) {
    MTSCHED_REQUIRE(a >= 1 && a <= P, "allocation entries must be in [1, P]");
  }
  const bool redist_aware = strategy_ != MappingStrategy::EarliestStart;
  // Rack machinery engages only when it can change the result: a genuine
  // multi-rack sigma and rack data covering the cluster. Otherwise
  // RackAware degenerates to RedistributionAware exactly.
  const bool rack_aware = strategy_ == MappingStrategy::RackAware &&
                          sigma_ > 0.0 &&
                          static_cast<std::size_t>(P) <= rack_of_.size();

  const CostCurveTable table(cost, P, g);
  core::ArenaScope scratch(core::scratch_arena());
  auto tau = scratch.arena().make_span<double>(g.num_tasks());
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    tau[t] = table.tau(t, alloc[t]);
  }
  // List order: decreasing bottom level, ties by id; only dependency-ready
  // tasks are eligible, tracked by the ready queue (which pops exactly the
  // first ready task in priority order).
  const auto bl = detail::bottom_levels(g, tau, scratch.arena());
  const auto order = detail::priority_order(bl, scratch.arena());
  detail::ReadyQueue ready(g, order, scratch.arena());

  Schedule s;
  s.placements.resize(g.num_tasks());
  s.proc_order.assign(static_cast<std::size_t>(P), {});
  std::vector<double> proc_ready(static_cast<std::size_t>(P), 0.0);

  // Per-placement scratch, sized once. Processor-set membership is kept
  // as one bit per processor when the cluster fits a word — overlap
  // counts become a popcount — with epoch-stamped flag arrays (a slot is
  // set iff its stamp matches the current one, so nothing is cleared
  // between placements) as the wide-cluster fallback. Both paths produce
  // the same integer counts. Per-predecessor redistribution estimates
  // are computed once per placement instead of once per candidate-set
  // evaluation.
  const bool use_masks = redist_aware && P <= 64;
  std::vector<std::uint64_t> placed_mask;  // per task, procs as a bitset
  if (use_masks) placed_mask.resize(g.num_tasks(), 0);
  std::vector<std::uint32_t> holds_stamp;
  std::vector<std::uint32_t> member_stamp;
  if (redist_aware && !use_masks) {
    holds_stamp.assign(static_cast<std::size_t>(P), 0);
    member_stamp.assign(static_cast<std::size_t>(P), 0);
  }
  std::uint32_t hold_epoch = 0;   // bumped per placement
  std::uint32_t member_epoch = 0; // bumped per candidate-set evaluation
  std::vector<double> redist_base;  // redist_time(q, p_q, p_t) per pred
  std::vector<double> redist_ovh;   // redist_overhead_time(p_q, p_t) per pred
  std::vector<int> est_set, loc_set;

  // Rack-aware scratch: per-rack processor bitmasks (narrow clusters), a
  // per-pred rack-expanded holder mask, and epoch-stamped per-rack flags
  // for the wide fallback — mirroring the holder machinery one level up.
  std::vector<std::uint64_t> rack_masks;     // procs of each rack, P <= 64
  std::vector<std::uint64_t> pred_rack_mask; // per pred: racks(q)'s procs
  std::vector<std::uint32_t> rack_hold_stamp;
  std::vector<std::uint32_t> rack_eval_stamp;
  std::uint32_t rack_epoch = 0;  // bumped per (evaluation, predecessor)
  if (rack_aware) {
    if (use_masks) {
      rack_masks.assign(static_cast<std::size_t>(num_racks_), 0);
      for (int pr = 0; pr < P; ++pr) {
        rack_masks[static_cast<std::size_t>(rack_of_[static_cast<std::size_t>(
            pr)])] |= std::uint64_t{1} << pr;
      }
    } else {
      rack_hold_stamp.assign(static_cast<std::size_t>(num_racks_), 0);
      rack_eval_stamp.assign(static_cast<std::size_t>(num_racks_), 0);
    }
  }

  // Processors ordered by (availability, id) — the EST ranking. A
  // placement moves only the processors it used, all to the same finish
  // time, so the ranking is repaired by removing them and merging them
  // back (they stay ordered by id) instead of re-sorting: the total
  // order (proc_ready, id) determines the result uniquely either way.
  std::vector<int> by_ready(static_cast<std::size_t>(P));
  std::iota(by_ready.begin(), by_ready.end(), 0);
  std::vector<int> keep_buf(static_cast<std::size_t>(P));
  std::vector<std::uint32_t> update_stamp(static_cast<std::size_t>(P), 0);
  std::uint32_t update_epoch = 0;

  for (std::size_t placed_count = 0; placed_count < g.num_tasks();
       ++placed_count) {
    const dag::TaskId chosen = ready.pop();
    const int p_t = alloc[chosen];
    const auto& preds = g.predecessors(chosen);

    // Which processors already hold input data, the lower bound on when
    // any data can be ready (producers must have finished), and the
    // redistribution estimate per predecessor — all gathered in one pass.
    ++hold_epoch;
    std::uint64_t holders = 0;
    std::uint64_t holder_rack_procs = 0;  // all procs of racks with holders
    double producers_done = 0.0;
    double mean_redist = 0.0;
    redist_base.clear();
    redist_ovh.clear();
    pred_rack_mask.clear();
    for (dag::TaskId q : preds) {
      const auto& qp = s.placements[q];
      const int p_q = static_cast<int>(qp.procs.size());
      producers_done = std::max(producers_done, qp.est_finish);
      const double redist = table.redist(q, p_q, p_t);
      redist_base.push_back(redist);
      mean_redist += redist;
      if (redist_aware) {
        redist_ovh.push_back(table.redist_overhead_time(p_q, p_t));
        if (use_masks) {
          holders |= placed_mask[q];
          if (rack_aware) {
            std::uint64_t rm = 0;
            for (int pr : qp.procs) {
              rm |= rack_masks[static_cast<std::size_t>(
                  rack_of_[static_cast<std::size_t>(pr)])];
            }
            pred_rack_mask.push_back(rm);
            holder_rack_procs |= rm;
          }
        } else {
          for (int pr : qp.procs) {
            holds_stamp[static_cast<std::size_t>(pr)] = hold_epoch;
            if (rack_aware) {
              rack_hold_stamp[static_cast<std::size_t>(
                  rack_of_[static_cast<std::size_t>(pr)])] = hold_epoch;
            }
          }
        }
      }
    }
    if (!preds.empty()) {
      mean_redist /= static_cast<double>(preds.size());
    }

    // Data-ready time for a given processor set: predecessors' finish plus
    // the redistribution estimate; the redistribution-aware strategy
    // discounts the payload share by the overlap with each predecessor's
    // processors (same-node transfers are local copies).
    auto data_ready_on = [&](const std::vector<int>& set) {
      double ready_at = 0.0;
      std::uint64_t set_mask = 0;
      if (redist_aware) {
        if (use_masks) {
          for (int pr : set) set_mask |= std::uint64_t{1} << pr;
        } else {
          ++member_epoch;
          for (int pr : set) {
            member_stamp[static_cast<std::size_t>(pr)] = member_epoch;
          }
        }
      }
      for (std::size_t qi = 0; qi < preds.size(); ++qi) {
        const auto& qp = s.placements[preds[qi]];
        double redist = redist_base[qi];
        if (redist_aware) {
          int overlap;
          int in_rack = 0;  // set members sharing a rack with q's procs
          if (use_masks) {
            overlap = std::popcount(placed_mask[preds[qi]] & set_mask);
            if (rack_aware) {
              in_rack = std::popcount(pred_rack_mask[qi] & set_mask);
            }
          } else {
            overlap = 0;
            for (int pr : qp.procs) {
              if (member_stamp[static_cast<std::size_t>(pr)] == member_epoch) {
                ++overlap;
              }
            }
            if (rack_aware) {
              ++rack_epoch;
              for (int pr : qp.procs) {
                rack_eval_stamp[static_cast<std::size_t>(
                    rack_of_[static_cast<std::size_t>(pr)])] = rack_epoch;
              }
              for (int pr : set) {
                if (rack_eval_stamp[static_cast<std::size_t>(
                        rack_of_[static_cast<std::size_t>(pr)])] ==
                    rack_epoch) {
                  ++in_rack;
                }
              }
            }
          }
          const double overhead = redist_ovh[qi];
          const double payload = std::max(0.0, redist - overhead);
          // Holders count fully; same-rack non-holders save only the
          // uplink/core share of the path, i.e. sigma per member.
          double covered = static_cast<double>(overlap);
          if (rack_aware) {
            covered += sigma_ * static_cast<double>(in_rack - overlap);
          }
          const double remote_frac = 1.0 - covered / static_cast<double>(p_t);
          redist = overhead + payload * remote_frac;
        }
        ready_at = std::max(ready_at, qp.est_finish + redist);
      }
      return ready_at;
    };
    auto start_on = [&](const std::vector<int>& set) {
      double avail = 0.0;
      for (int pr : set) {
        avail = std::max(avail, proc_ready[static_cast<std::size_t>(pr)]);
      }
      return std::max(data_ready_on(set), avail);
    };

    // Candidate 1: classic EST — the p_t earliest-available processors,
    // i.e. the leading prefix of the maintained availability ranking.
    est_set.assign(by_ready.begin(),
                   by_ready.begin() + static_cast<std::ptrdiff_t>(p_t));
    std::sort(est_set.begin(), est_set.end());

    const std::vector<int>* procs = &est_set;
    double start;
    if (strategy_ == MappingStrategy::EarliestStart) {
      start = start_on(est_set);
    } else {
      // Candidate 2: locality-biased — a processor that holds input data
      // earns a bonus worth (weighted) redistribution savings; waiting
      // for it below the producers' finish time is free anyway. The
      // score is a monotone transform of availability within each class
      // (holders all get the same bonus, non-holders none), so each
      // class, filtered out of the availability ranking, is already
      // ordered by the loc key (score, availability, id): the p_t best
      // come from a two-stream merge — no per-placement sort or
      // selection over the cluster. Rack-aware mapping adds a third
      // class between the two: same-rack non-holders, whose bonus is the
      // sigma share of a holder's.
      const double bonus = locality_weight_ * mean_redist;
      if (!rack_aware) {
        auto is_holder = [&](int pr) {
          return use_masks
                     ? ((holders >> pr) & 1u) != 0
                     : holds_stamp[static_cast<std::size_t>(pr)] == hold_epoch;
        };
        std::size_t cur[2] = {0, 0};   // stream cursors into by_ready
        int head[2] = {-1, -1};        // next processor per class, -1 = done
        double head_score[2] = {0.0, 0.0};
        auto fetch = [&](int cls) {
          std::size_t& c = cur[cls];
          while (c < static_cast<std::size_t>(P)) {
            const int pr = by_ready[c];
            if (static_cast<int>(is_holder(pr)) == cls) {
              const double effective = std::max(
                  proc_ready[static_cast<std::size_t>(pr)], producers_done);
              head[cls] = pr;
              head_score[cls] = cls == 1 ? effective - bonus : effective;
              return;
            }
            ++c;
          }
          head[cls] = -1;
        };
        fetch(0);
        fetch(1);
        loc_set.clear();
        while (static_cast<int>(loc_set.size()) < p_t) {
          int cls;
          if (head[0] < 0) {
            cls = 1;
          } else if (head[1] < 0) {
            cls = 0;
          } else if (head_score[0] != head_score[1]) {
            cls = head_score[0] < head_score[1] ? 0 : 1;
          } else {
            const double r0 = proc_ready[static_cast<std::size_t>(head[0])];
            const double r1 = proc_ready[static_cast<std::size_t>(head[1])];
            if (r0 != r1) {
              cls = r0 < r1 ? 0 : 1;
            } else {
              cls = head[0] < head[1] ? 0 : 1;
            }
          }
          loc_set.push_back(head[cls]);
          ++cur[cls];
          fetch(cls);
        }
      } else {
        // Classes: 0 = other rack (no bonus), 1 = same rack as a holder
        // (sigma * bonus), 2 = holder (full bonus).
        const double bonus_of[3] = {0.0, sigma_ * bonus, bonus};
        auto class_of = [&](int pr) -> int {
          if (use_masks) {
            if ((holders >> pr) & 1u) return 2;
            return ((holder_rack_procs >> pr) & 1u) != 0 ? 1 : 0;
          }
          if (holds_stamp[static_cast<std::size_t>(pr)] == hold_epoch) {
            return 2;
          }
          return rack_hold_stamp[static_cast<std::size_t>(
                     rack_of_[static_cast<std::size_t>(pr)])] == hold_epoch
                     ? 1
                     : 0;
        };
        std::size_t cur[3] = {0, 0, 0};
        int head[3] = {-1, -1, -1};
        double head_score[3] = {0.0, 0.0, 0.0};
        auto fetch = [&](int cls) {
          std::size_t& c = cur[cls];
          while (c < static_cast<std::size_t>(P)) {
            const int pr = by_ready[c];
            if (class_of(pr) == cls) {
              const double effective = std::max(
                  proc_ready[static_cast<std::size_t>(pr)], producers_done);
              head[cls] = pr;
              head_score[cls] = effective - bonus_of[cls];
              return;
            }
            ++c;
          }
          head[cls] = -1;
        };
        fetch(0);
        fetch(1);
        fetch(2);
        loc_set.clear();
        while (static_cast<int>(loc_set.size()) < p_t) {
          int best = -1;
          for (int cls = 0; cls < 3; ++cls) {
            if (head[cls] < 0) continue;
            if (best < 0) {
              best = cls;
              continue;
            }
            if (head_score[cls] != head_score[best]) {
              if (head_score[cls] < head_score[best]) best = cls;
              continue;
            }
            const double rc = proc_ready[static_cast<std::size_t>(head[cls])];
            const double rb = proc_ready[static_cast<std::size_t>(head[best])];
            if (rc != rb) {
              if (rc < rb) best = cls;
              continue;
            }
            if (head[cls] < head[best]) best = cls;
          }
          loc_set.push_back(head[best]);
          ++cur[best];
          fetch(best);
        }
      }
      std::sort(loc_set.begin(), loc_set.end());
      // Keep whichever candidate starts (hence finishes) earlier; ties go
      // to EST. Comparing candidates prevents the classic failure mode of
      // greedy locality: sibling tasks piling onto their parent's
      // processors and serializing. Equal candidate sets start at the
      // same time, so the tie resolves to EST without a second
      // evaluation.
      if (loc_set == est_set) {
        start = start_on(est_set);
      } else {
        const double loc_start = start_on(loc_set);
        const double est_start = start_on(est_set);
        if (loc_start < est_start) {
          procs = &loc_set;
          start = loc_start;
        } else {
          start = est_start;
        }
      }
    }

    const double finish = start + tau[chosen];

    auto& pl = s.placements[chosen];
    pl.procs = *procs;
    pl.est_start = start;
    pl.est_finish = finish;
    ++update_epoch;
    for (int pr : pl.procs) {
      proc_ready[static_cast<std::size_t>(pr)] = finish;
      s.proc_order[static_cast<std::size_t>(pr)].push_back(chosen);
      update_stamp[static_cast<std::size_t>(pr)] = update_epoch;
      if (use_masks) placed_mask[chosen] |= std::uint64_t{1} << pr;
    }
    // Repair the availability ranking: drop the just-updated processors
    // (preserving the order of the rest) and merge them back by
    // (proc_ready, id); pl.procs is id-sorted and shares one ready time,
    // so both ranges are ordered by that key.
    std::size_t kept = 0;
    for (int pr : by_ready) {
      if (update_stamp[static_cast<std::size_t>(pr)] != update_epoch) {
        keep_buf[kept++] = pr;
      }
    }
    std::size_t i = 0, j = 0, o = 0;
    while (i < kept && j < pl.procs.size()) {
      const int a = keep_buf[i];
      const int b = pl.procs[j];
      const double ra = proc_ready[static_cast<std::size_t>(a)];
      const double rb = proc_ready[static_cast<std::size_t>(b)];
      by_ready[o++] = (ra != rb ? ra < rb : a < b) ? keep_buf[i++]
                                                   : pl.procs[j++];
    }
    while (i < kept) by_ready[o++] = keep_buf[i++];
    while (j < pl.procs.size()) by_ready[o++] = pl.procs[j++];
    ready.mark_placed(chosen);
    s.est_makespan = std::max(s.est_makespan, finish);
  }

  validate_schedule(g, s, P);
  return s;
}

Schedule TwoStepScheduler::schedule(const dag::Dag& g) const {
  const auto alloc = allocator_.allocate(g, cost_, num_procs_);
  return ListMapper{}.map(g, alloc, cost_, num_procs_);
}

}  // namespace mtsched::sched
