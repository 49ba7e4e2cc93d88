#include "mtsched/simcore/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "mtsched/core/error.hpp"
#include "mtsched/core/table.hpp"

namespace mtsched::simcore {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Work/delay below this is treated as complete; guards against float drift.
constexpr double kEps = 1e-12;
}  // namespace

Engine::Engine() : delay_min_(kInf), work_min_(kInf), submit_min_(kInf) {
  capture_context();
}

void Engine::capture_context() {
  trace_ = obs::current_track();
  events_counter_ = nullptr;
  reshares_counter_ = nullptr;
  if (obs::MetricsRegistry* m = obs::current_metrics()) {
    events_counter_ = &m->counter("simcore.events");
    reshares_counter_ = &m->counter("simcore.reshares");
  }
}

void Engine::reset() {
  capture_context();
  now_ = 0.0;
  next_id_ = 1;
  events_ = 0;
  std::fill(usage_.begin(), usage_.end(), 0.0);
  slot_id_.clear();
  slot_tag_.clear();
  slot_cb_.clear();
  slot_uses_.clear();
  slot_uses_len_.clear();
  slot_amount_.clear();
  free_slots_.clear();
  // No activity is left to read the copied usage lists: rewind the arena
  // and start the solver's CSR buffers afresh on it.
  arena_.reset();
  csr_off_ = core::ArenaVector<std::uint32_t>(arena_);
  csr_res_ = core::ArenaVector<std::uint32_t>(arena_);
  csr_w_ = core::ArenaVector<double>(arena_);
  csr_rates_ = core::ArenaVector<double>(arena_);
  csr_map_ = core::ArenaVector<std::uint32_t>(arena_);
  d_rem_.clear();
  d_slot_.clear();
  d_head_ = 0;
  pend_rem_.clear();
  pend_slot_.clear();
  w_id_.clear();
  w_rem_.clear();
  w_rate_.clear();
  w_slot_.clear();
  w_len_.clear();
  live_ = 0;
  num_working_ = 0;
  rates_dirty_ = false;
  solve_dirty_ = false;
  delay_min_ = kInf;
  work_min_ = kInf;
  submit_min_ = kInf;
}

void Engine::trace_state(std::uint32_t slot, const char* state) {
  const Tag tag = slot_tag_[slot];
  trace_.instant("simcore",
                 tag.kind == 0 || !namer_
                     ? "activity#" + std::to_string(slot_id_[slot])
                     : namer_(tag),
                 {{"state", state}, {"vt", core::fmt_roundtrip(now_)}});
}

ResourceId Engine::add_resource(double capacity) {
  MTSCHED_REQUIRE(capacity > 0.0, "resource capacity must be positive");
  capacities_.push_back(capacity);
  usage_.push_back(0.0);
  return capacities_.size() - 1;
}

double Engine::capacity(ResourceId r) const {
  MTSCHED_REQUIRE(r < capacities_.size(), "unknown resource");
  return capacities_[r];
}

ActivityId Engine::submit(std::span<const Use> uses, double amount,
                          double delay, CompletionFn on_complete, Tag tag) {
  const std::span<Use> copy = arena_.make_span<Use>(uses.size());
  std::copy(uses.begin(), uses.end(), copy.begin());
  return submit_borrowed(copy, amount, delay, std::move(on_complete), tag);
}

ActivityId Engine::submit_borrowed(std::span<const Use> uses, double amount,
                                   double delay, CompletionFn on_complete,
                                   Tag tag) {
  MTSCHED_REQUIRE(amount >= 0.0, "work amount must be >= 0");
  MTSCHED_REQUIRE(delay >= 0.0, "delay must be >= 0");
  for (const auto& u : uses) {
    MTSCHED_REQUIRE(u.resource < capacities_.size(), "unknown resource");
    MTSCHED_REQUIRE(u.weight > 0.0, "usage weight must be positive");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_id_.size());
    slot_id_.emplace_back();
    slot_tag_.emplace_back();
    slot_cb_.emplace_back();
    slot_uses_.emplace_back();
    slot_uses_len_.emplace_back();
    slot_amount_.emplace_back();
  }
  const ActivityId id = next_id_++;
  slot_id_[slot] = id;
  slot_tag_[slot] = tag;
  slot_cb_[slot] = std::move(on_complete);
  slot_uses_[slot] = uses.data();
  slot_uses_len_[slot] = static_cast<std::uint32_t>(uses.size());
  slot_amount_[slot] = amount;
  ++live_;
  rates_dirty_ = true;

  // Event-calendar candidate, exactly what a full next-event scan would
  // contribute for this activity.
  if (delay > 0.0) {
    pend_rem_.push_back(delay);
    pend_slot_.push_back(slot);
    submit_min_ = std::min(submit_min_, delay);
  } else {
    ++num_working_;
    w_id_.push_back(id);  // ids are monotonic: the work class stays sorted
    w_slot_.push_back(slot);
    w_rem_.push_back(amount);
    w_len_.push_back(slot_uses_len_[slot]);
    if (uses.empty()) {
      w_rate_.push_back(kInf);  // what the solver reports for usage-free
      submit_min_ = 0.0;
    } else if (amount <= kEps) {
      w_rate_.push_back(0.0);
      solve_dirty_ = true;
      submit_min_ = 0.0;
    } else {
      // Finite candidate: produced by the solve scheduled right here.
      w_rate_.push_back(0.0);
      solve_dirty_ = true;
    }
  }

  if (trace_) {
    trace_state(slot, "submitted");
    trace_.counter("simcore", "active", static_cast<double>(live_));
  }
  return id;
}

ActivityId Engine::submit_timer(double duration, CompletionFn on_complete,
                                Tag tag) {
  return submit(std::span<const Use>{}, 0.0, duration, std::move(on_complete),
                tag);
}

void Engine::compact_delay() {
  if (d_head_ == 0) return;
  d_rem_.erase(d_rem_.begin(), d_rem_.begin() + static_cast<std::ptrdiff_t>(d_head_));
  d_slot_.erase(d_slot_.begin(),
                d_slot_.begin() + static_cast<std::ptrdiff_t>(d_head_));
  d_head_ = 0;
}

void Engine::merge_pending() {
  if (pend_rem_.size() == 1) {
    // One entry: insert it at its upper bound among the live entries, so
    // equal remainders keep older activities first.
    const auto live = d_rem_.begin() + static_cast<std::ptrdiff_t>(d_head_);
    const auto at = std::upper_bound(live, d_rem_.end(), pend_rem_[0]) -
                    d_rem_.begin();
    d_rem_.insert(d_rem_.begin() + at, pend_rem_[0]);
    d_slot_.insert(d_slot_.begin() + at, pend_slot_[0]);
    pend_rem_.clear();
    pend_slot_.clear();
    return;
  }
  compact_delay();
  const std::size_t p = pend_rem_.size();
  // Pending entries arrive in submission (= ascending-id) order; sorting
  // the permutation by remaining delay with the index as tie-break keeps
  // equal delays in id order, deterministically.
  pend_perm_.resize(p);
  std::iota(pend_perm_.begin(), pend_perm_.end(), 0u);
  std::sort(pend_perm_.begin(), pend_perm_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return pend_rem_[a] != pend_rem_[b] ? pend_rem_[a] < pend_rem_[b]
                                                  : a < b;
            });
  const std::size_t n = d_rem_.size();
  d_rem_.resize(n + p);
  d_slot_.resize(n + p);
  // Backward merge; on equal remainders existing entries stay first.
  std::size_t i = n;
  std::size_t j = p;
  std::size_t k = n + p;
  while (j > 0) {
    const std::uint32_t pj = pend_perm_[j - 1];
    if (i > 0 && d_rem_[i - 1] > pend_rem_[pj]) {
      --i;
      --k;
      d_rem_[k] = d_rem_[i];
      d_slot_[k] = d_slot_[i];
    } else {
      --j;
      --k;
      d_rem_[k] = pend_rem_[pj];
      d_slot_[k] = pend_slot_[pj];
    }
  }
  pend_rem_.clear();
  pend_slot_.clear();
}

bool Engine::rate_lone_flow() {
  const std::size_t wn = w_len_.size();
  std::size_t lone = wn;
  for (std::size_t i = 0; i < wn; ++i) {
    if (w_len_[i] == 0) continue;
    if (lone != wn) return false;  // a second flow: the solver shares
    lone = i;
  }
  if (lone == wn) return false;
  const Use* uses = slot_uses_[w_slot_[lone]];
  double rate = kInf;
  for (std::uint32_t k = 0; k < w_len_[lone]; ++k) {
    if (k > 0 && uses[k].resource <= uses[k - 1].resource) return false;
    rate = std::min(rate, capacities_[uses[k].resource] / uses[k].weight);
  }
  w_rate_[lone] = rate;
  return true;
}

void Engine::reshare() {
  if (solve_dirty_) {
    const std::size_t wn = w_id_.size();
    if (!rate_lone_flow()) {
      // Gather the working usage lists into one CSR view, in id order —
      // the same activity sequence the AoS engine fed the solver.
      csr_off_.clear();
      csr_res_.clear();
      csr_w_.clear();
      csr_map_.clear();
      csr_off_.push_back(0);
      for (std::size_t i = 0; i < wn; ++i) {
        const std::uint32_t len = w_len_[i];
        if (len == 0) continue;
        const Use* uses = slot_uses_[w_slot_[i]];
        for (std::uint32_t k = 0; k < len; ++k) {
          csr_res_.push_back(static_cast<std::uint32_t>(uses[k].resource));
          csr_w_.push_back(uses[k].weight);
        }
        csr_off_.push_back(static_cast<std::uint32_t>(csr_res_.size()));
        csr_map_.push_back(static_cast<std::uint32_t>(i));
      }
      if (!csr_map_.empty()) {
        csr_rates_.resize(csr_map_.size());
        solver_.solve(
            std::span<const double>(capacities_),
            UsesView{{csr_off_.data(), csr_off_.size()},
                     {csr_res_.data(), csr_res_.size()},
                     {csr_w_.data(), csr_w_.size()}},
            std::span<double>(csr_rates_.data(), csr_rates_.size()));
        for (std::size_t k = 0; k < csr_map_.size(); ++k) {
          w_rate_[csr_map_[k]] = csr_rates_[k];
        }
      }
    }
    solve_dirty_ = false;
    // Rates moved: refresh the work-phase event lookahead from scratch.
    work_min_ = kInf;
    for (std::size_t i = 0; i < wn; ++i) {
      if (w_rem_[i] <= kEps || w_len_[i] == 0 || std::isinf(w_rate_[i])) {
        work_min_ = 0.0;  // completes immediately
      } else {
        MTSCHED_INVARIANT(w_rate_[i] > 0.0, "working activity has zero rate");
        work_min_ = std::min(work_min_, w_rem_[i] / w_rate_[i]);
      }
    }
  }
  rates_dirty_ = false;
  if (reshares_counter_ != nullptr) reshares_counter_->add();
  if (trace_) {
    trace_.instant("simcore", "reshare",
                   {{"working", std::to_string(num_working_)},
                    {"vt", core::fmt_roundtrip(now_)}});
  }
}

bool Engine::step() {
  if (live_ == 0) return false;
  if (rates_dirty_) reshare();
  if (!pend_rem_.empty()) merge_pending();
  const double dt = std::min(std::min(delay_min_, work_min_), submit_min_);
  MTSCHED_INVARIANT(std::isfinite(dt), "no upcoming event among activities");

  now_ += dt;
  submit_min_ = kInf;

  // Latency class: one contiguous subtract (auto-vectorizes). Sortedness
  // is preserved — subtracting the same dt is weakly monotonic in IEEE
  // arithmetic — so the expired entries are exactly the front prefix and
  // the next latency event is the front survivor.
  {
    double* rem = d_rem_.data();
    const std::size_t n = d_rem_.size();
    for (std::size_t i = d_head_; i < n; ++i) rem[i] -= dt;
  }
  expired_.clear();
  while (d_head_ < d_rem_.size() && d_rem_[d_head_] <= kEps) {
    expired_.push_back(d_slot_[d_head_]);
    ++d_head_;
  }
  delay_min_ = d_head_ < d_rem_.size() ? d_rem_[d_head_] : kInf;
  if (d_head_ >= 64 && d_head_ * 2 >= d_rem_.size()) compact_delay();

  // Latency phase over: enter the work phase within this event batch.
  // Transitions are applied in ascending-id order — the order the fused
  // AoS pass encountered them — so trace emission and flag updates match.
  done_delay_.clear();
  trans_slot_.clear();
  trans_rem_.clear();
  if (!expired_.empty()) {
    if (expired_.size() > 1) {
      std::sort(expired_.begin(), expired_.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return slot_id_[a] < slot_id_[b];
                });
    }
    for (const std::uint32_t slot : expired_) {
      ++num_working_;
      rates_dirty_ = true;
      if (slot_uses_len_[slot] != 0) {
        solve_dirty_ = true;  // joins the working usage multiset
      }
      if (trace_) trace_state(slot, "work");
      if (slot_amount_[slot] <= kEps || slot_uses_len_[slot] == 0) {
        done_delay_.push_back(slot);
      } else {
        // Its event candidate comes from the solve solve_dirty_ scheduled.
        trans_slot_.push_back(slot);
        trans_rem_.push_back(slot_amount_[slot]);
      }
    }
  }

  // Work pass in id order: advance work, account resource consumption,
  // detect completions, refresh the work-phase event lookahead.
  work_min_ = kInf;
  done_work_.clear();
  {
    const std::size_t wn = w_id_.size();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < wn; ++i) {
      const std::uint32_t len = w_len_[i];
      const double rate = w_rate_[i];
      if (len != 0 && !std::isinf(rate)) {
        w_rem_[i] -= rate * dt;
        const Use* uses = slot_uses_[w_slot_[i]];
        for (std::uint32_t k = 0; k < len; ++k) {
          usage_[uses[k].resource] += uses[k].weight * rate * dt;
        }
      }
      if (w_rem_[i] <= kEps || len == 0 || std::isinf(rate)) {
        done_work_.push_back(w_slot_[i]);
        continue;
      }
      MTSCHED_INVARIANT(rate > 0.0, "working activity has zero rate");
      work_min_ = std::min(work_min_, w_rem_[i] / rate);
      if (keep != i) {
        w_id_[keep] = w_id_[i];
        w_rem_[keep] = w_rem_[i];
        w_rate_[keep] = w_rate_[i];
        w_slot_[keep] = w_slot_[i];
        w_len_[keep] = w_len_[i];
      }
      ++keep;
    }
    w_id_.resize(keep);
    w_rem_.resize(keep);
    w_rate_.resize(keep);
    w_slot_.resize(keep);
    w_len_.resize(keep);
  }

  // Surviving transitions join the work class *after* the work pass (they
  // do no work in the step they leave latency), merged by id.
  if (!trans_slot_.empty()) {
    const std::size_t wn = w_id_.size();
    const std::size_t tn = trans_slot_.size();
    w_id_.resize(wn + tn);
    w_rem_.resize(wn + tn);
    w_rate_.resize(wn + tn);
    w_slot_.resize(wn + tn);
    w_len_.resize(wn + tn);
    std::size_t i = wn;
    std::size_t j = tn;
    std::size_t k = wn + tn;
    while (j > 0) {
      const std::uint32_t slot = trans_slot_[j - 1];
      const ActivityId tid = slot_id_[slot];
      if (i > 0 && w_id_[i - 1] > tid) {
        --i;
        --k;
        w_id_[k] = w_id_[i];
        w_rem_[k] = w_rem_[i];
        w_rate_[k] = w_rate_[i];
        w_slot_[k] = w_slot_[i];
        w_len_[k] = w_len_[i];
      } else {
        --j;
        --k;
        w_id_[k] = tid;
        w_rem_[k] = trans_rem_[j];
        w_rate_[k] = 0.0;
        w_slot_[k] = slot;
        w_len_[k] = slot_uses_len_[slot];
      }
    }
  }

  // Merge this step's completions from both classes back into ascending-id
  // order — the order the fused AoS pass collected them in.
  completed_.clear();
  {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < done_delay_.size() && j < done_work_.size()) {
      if (slot_id_[done_delay_[i]] < slot_id_[done_work_[j]]) {
        completed_.push_back(done_delay_[i++]);
      } else {
        completed_.push_back(done_work_[j++]);
      }
    }
    while (i < done_delay_.size()) completed_.push_back(done_delay_[i++]);
    while (j < done_work_.size()) completed_.push_back(done_work_[j++]);
  }

  if (!completed_.empty()) {
    // Detach completions before invoking callbacks so callbacks can
    // submit. The callback buffer round-trips through a local so a
    // re-entrant run() inside a callback stays safe.
    std::vector<CompletionFn> callbacks = std::move(callbacks_);
    callbacks.clear();
    callbacks.reserve(completed_.size());
    for (const std::uint32_t slot : completed_) {
      if (trace_) trace_state(slot, "done");
      callbacks.push_back(std::move(slot_cb_[slot]));
      // Leaving the working set with a non-empty usage vector changes the
      // solve inputs; pure timers expire without disturbing the rates.
      if (slot_uses_len_[slot] != 0) solve_dirty_ = true;
      slot_cb_[slot] = nullptr;
      free_slots_.push_back(slot);
      --num_working_;
      --live_;
      rates_dirty_ = true;
      ++events_;
    }
    if (events_counter_ != nullptr) events_counter_->add(completed_.size());
    if (trace_) {
      trace_.counter("simcore", "active", static_cast<double>(live_));
    }
    for (auto& cb : callbacks) {
      if (cb) cb(now_);
    }
    callbacks_ = std::move(callbacks);
  }
  return true;
}

void Engine::run(std::uint64_t max_events) {
  while (step()) {
    MTSCHED_INVARIANT(events_ <= max_events,
                      "simulation exceeded the event budget (runaway?)");
  }
}

double Engine::resource_usage(ResourceId r) const {
  MTSCHED_REQUIRE(r < usage_.size(), "unknown resource");
  return usage_[r];
}

}  // namespace mtsched::simcore
