#include "net/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace wadp::net {
namespace {

/// Residual fluid below which a flow counts as finished (half a byte —
/// far below anything observable at wide-area rates).
constexpr double kCompletionEpsilon = 0.5;

/// Minimum forward step the engine schedules.  SimTime is an epoch-
/// seconds double (~1e9), whose ulp is ~1.2e-7 s: steps below the ulp
/// would schedule a wake at an *unchanged* timestamp and spin forever.
/// One microsecond is comfortably above the ulp and far below anything
/// a wide-area transfer can resolve.
constexpr double kTimeQuantum = 1e-6;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Engine-wide counters; totals aggregate across engines in a process.
struct NetMetrics {
  obs::Counter& started = obs::Registry::global().counter(
      "wadp_net_flows_started_total", {}, "Flows started on any engine");
  obs::Counter& completed = obs::Registry::global().counter(
      "wadp_net_flows_completed_total", {}, "Flows completed on any engine");
  obs::Counter& reallocs = obs::Registry::global().counter(
      "wadp_net_reallocs_total", {},
      "Applied max-min waterfill passes");
  obs::Counter& realloc_flows = obs::Registry::global().counter(
      "wadp_net_realloc_flows_total", {},
      "Flow entries recomputed across waterfill passes");
  obs::Counter& realloc_ns = obs::Registry::global().counter(
      "wadp_net_realloc_ns_total", {},
      "Wall nanoseconds spent in applied waterfill passes");
  obs::Counter& waterfill_visits = obs::Registry::global().counter(
      "wadp_net_waterfill_visits_total", {},
      "Entry slots read by the waterfill round loop, fixed entries "
      "included");
  obs::Counter& sweeps = obs::Registry::global().counter(
      "wadp_net_sweeps_total", {},
      "Lazy-mode dirty-set coalescing sweeps");
  obs::Gauge& active = obs::Registry::global().gauge(
      "wadp_net_active_flows", {}, "Currently active flows");
  obs::Gauge& util_max = obs::Registry::global().gauge(
      "wadp_net_link_utilization_max_pct", {},
      "Max resource utilization among resources touched by the last "
      "reallocation");

  static NetMetrics& get() {
    static NetMetrics metrics;
    return metrics;
  }
};

}  // namespace

// ---------------------------------------------------------------------
// MaxMinSolver: the waterfill.

void MaxMinSolver::clear() {
  ++problem_;
  cap_.clear();
  flow_begin_.assign(1, 0);
  cross_res_.clear();
  cross_weight_.clear();
  res_ids_.clear();
}

void MaxMinSolver::add_flow(Bandwidth cap) {
  WADP_CHECK_MSG(cap >= 0.0, "flow caps are non-negative");
  cap_.push_back(cap);
  flow_begin_.push_back(flow_begin_.back());
}

void MaxMinSolver::cross(std::uint32_t id, double weight) {
  WADP_CHECK_MSG(!cap_.empty(), "cross() needs a flow");
  WADP_CHECK_MSG(weight >= 1.0, "resource weights are integers >= 1");
  if (id >= stamp_.size()) {
    stamp_.resize(id + 1, 0);
    local_of_.resize(id + 1, 0);
  }
  if (stamp_[id] != problem_) {
    stamp_[id] = problem_;
    local_of_[id] = static_cast<std::uint32_t>(res_ids_.size());
    res_ids_.push_back(id);
  }
  cross_res_.push_back(local_of_[id]);
  cross_weight_.push_back(weight);
  ++flow_begin_.back();
}

std::uint64_t MaxMinSolver::solve(const std::vector<double>& capacity) {
  const auto n = static_cast<std::uint32_t>(cap_.size());
  const auto m = static_cast<std::uint32_t>(res_ids_.size());
  WADP_CHECK(capacity.size() == m);
  rate_.assign(n, 0.0);
  if (n == 0) return 0;

  fixed_.assign(n, 0);
  round_mark_.assign(n, 0);
  residual_.resize(m);
  pool_.assign(m, 0.0);
  share_.resize(m);
  lightest_.resize(m);
  res_mark_.assign(m, 0);
  for (std::uint32_t r = 0; r < m; ++r) {
    residual_[r] = std::max(0.0, capacity[r]);
  }

  // Resource -> member lists (CSR), sorted by ascending weight, ties in
  // flow order.
  member_begin_.assign(m + 1, 0);
  for (const std::uint32_t r : cross_res_) ++member_begin_[r + 1];
  for (std::uint32_t r = 0; r < m; ++r) {
    member_begin_[r + 1] += member_begin_[r];
  }
  head_.assign(member_begin_.begin(), member_begin_.end() - 1);
  members_.resize(cross_res_.size());
  // Min-heap by cap of the flows whose cap can bind; fixed flows are
  // dropped when they surface.  While a flow is unfixed, every round's
  // least tentative rate is at most its own share on the resource of
  // least capacity it crosses, residual * w / pool <= capacity (times
  // 1 + 2^-52 for rounding: residuals only shrink and w <= pool), so
  // the threshold stays below 2 * that capacity + 1.  A cap at or above
  // that can neither be the least rate nor fall under a threshold: the
  // flow is fixed through its shares alone, and leaving it out of the
  // heap changes no rate.  On simgrid most flows are share-bound:
  // with every flow in the heap, perfbench simgrid ran ~20% slower.
  cap_heap_.clear();
  for (std::uint32_t e = 0; e < n; ++e) {
    double least_capacity = std::numeric_limits<double>::infinity();
    for (std::uint32_t k = flow_begin_[e]; k < flow_begin_[e + 1]; ++k) {
      const std::uint32_t r = cross_res_[k];
      members_[head_[r]++] = {e, cross_weight_[k]};
      pool_[r] += cross_weight_[k];
      least_capacity = std::min(least_capacity, residual_[r]);
    }
    if (flow_begin_[e] == flow_begin_[e + 1] ||
        cap_[e] < 2.0 * least_capacity + 1.0) {
      cap_heap_.push_back(e);
    }
  }
  live_.clear();
  for (std::uint32_t r = 0; r < m; ++r) {
    const auto first = members_.begin() + member_begin_[r];
    const auto last = members_.begin() + member_begin_[r + 1];
    std::sort(first, last, [](const Member& a, const Member& b) {
      return a.weight != b.weight ? a.weight < b.weight : a.flow < b.flow;
    });
    head_[r] = member_begin_[r];
    lightest_[r] = members_[head_[r]].weight;
    live_.push_back(r);
  }

  const auto cap_after = [this](std::uint32_t a, std::uint32_t b) {
    return cap_[a] != cap_[b] ? cap_[a] > cap_[b] : a > b;
  };
  std::make_heap(cap_heap_.begin(), cap_heap_.end(), cap_after);
  const auto pop_cap = [&] {
    std::pop_heap(cap_heap_.begin(), cap_heap_.end(), cap_after);
    cap_heap_.pop_back();
  };

  std::uint64_t visits = 0;
  std::uint32_t unfixed = n;
  std::uint32_t round = 0;
  while (unfixed > 0) {
    ++round;
    // The least tentative rate over unfixed flows is min(cap, shares),
    // so it is the smaller of the least unfixed cap and the least share
    // over resources.  On one resource, residual * w / pool is monotone
    // in w (rounding is monotone), so its least share is the one of its
    // lightest unfixed member.
    while (!cap_heap_.empty() && fixed_[cap_heap_.front()] != 0) {
      ++visits;
      pop_cap();
    }
    double least = std::numeric_limits<double>::infinity();
    if (!cap_heap_.empty()) {
      ++visits;
      least = cap_[cap_heap_.front()];
    }
    for (const std::uint32_t r : live_) {
      share_[r] = residual_[r] * lightest_[r] / pool_[r];
      least = std::min(least, share_[r]);
    }

    // Fix every flow at the minimum (ties fix together).  A flow's
    // tentative rate is under the threshold exactly when its cap is or
    // its share on one of its resources is; members are sorted by
    // weight, so on each resource those are a prefix of the unfixed.
    const double threshold = least * (1.0 + 1e-12) + 1e-9;
    candidates_.clear();
    const auto propose = [&](std::uint32_t e) {
      if (round_mark_[e] == round) return;
      round_mark_[e] = round;
      candidates_.push_back(e);
    };
    while (!cap_heap_.empty() && cap_[cap_heap_.front()] <= threshold) {
      ++visits;
      const std::uint32_t e = cap_heap_.front();
      pop_cap();
      if (fixed_[e] == 0) propose(e);
    }
    for (const std::uint32_t r : live_) {
      if (share_[r] > threshold) continue;
      const double residual = residual_[r];
      const double pool = pool_[r];
      std::uint32_t j = head_[r];
      const double lightest = lightest_[r];
      for (; j < member_begin_[r + 1]; ++j) {
        ++visits;
        const Member& member = members_[j];
        if (fixed_[member.flow] != 0) continue;
        // A member as light as the head has the head's share, share_[r].
        if (member.weight != lightest &&
            residual * member.weight / pool > threshold) {
          break;
        }
        propose(member.flow);
      }
      head_[r] = j;  // every member before j is fixed by this round's end
    }
    WADP_CHECK_MSG(!candidates_.empty(),
                   "max-min allocation failed to converge");

    // Rates from the round-start residuals and pools, then release
    // them in ascending flow order — the order the float results
    // depend on.
    std::sort(candidates_.begin(), candidates_.end());
    for (const std::uint32_t e : candidates_) {
      ++visits;
      double share = std::numeric_limits<double>::infinity();
      for (std::uint32_t k = flow_begin_[e]; k < flow_begin_[e + 1]; ++k) {
        const std::uint32_t r = cross_res_[k];
        const double w = cross_weight_[k];
        share = std::min(share, w == lightest_[r]
                                    ? share_[r]
                                    : residual_[r] * w / pool_[r]);
      }
      rate_[e] = std::min(cap_[e], share);
    }
    touched_.clear();
    for (const std::uint32_t e : candidates_) {
      fixed_[e] = 1;
      --unfixed;
      for (std::uint32_t k = flow_begin_[e]; k < flow_begin_[e + 1]; ++k) {
        const std::uint32_t r = cross_res_[k];
        residual_[r] = std::max(0.0, residual_[r] - rate_[e]);
        // Exact: weights are integer-valued doubles and a pool is a sum
        // of them far below 2^53, so every partial sum and difference
        // is an integer the double represents exactly.  The decremented
        // pool is therefore bit-identical to re-summing the unfixed
        // members' weights, in any order, as a full rescan would.
        pool_[r] -= cross_weight_[k];
        if (res_mark_[r] != round) {
          res_mark_[r] = round;
          touched_.push_back(r);
        }
      }
    }

    // Advance the touched resources past their fixed members; drop the
    // ones left without unfixed members.
    bool drained = false;
    for (const std::uint32_t r : touched_) {
      std::uint32_t j = head_[r];
      const std::uint32_t end = member_begin_[r + 1];
      while (j < end) {
        ++visits;
        if (fixed_[members_[j].flow] == 0) break;
        ++j;
      }
      head_[r] = j;
      if (j < end) {
        lightest_[r] = members_[j].weight;
      } else {
        drained = true;
      }
    }
    if (drained) {
      std::erase_if(live_, [this](std::uint32_t r) {
        return head_[r] == member_begin_[r + 1];
      });
    }
  }
  return visits;
}

const std::vector<double>& MaxMinSolver::resource_sums() {
  sums_.assign(res_ids_.size(), 0.0);
  for (std::uint32_t e = 0; e < cap_.size(); ++e) {
    for (std::uint32_t k = flow_begin_[e]; k < flow_begin_[e + 1]; ++k) {
      sums_[cross_res_[k]] += rate_[e];
    }
  }
  return sums_;
}

// ---------------------------------------------------------------------
// FluidEngine: flow and resource slots.

Bandwidth FluidEngine::flow_cap(const Flow& f, SimTime t) {
  const Duration elapsed = t - f.start;
  return static_cast<double>(f.spec.streams) *
         ramp_rate_cap(f.tcp, f.spec.buffer, f.rtt, elapsed);
}

std::optional<FluidEngine::Slot> FluidEngine::find_flow(FlowId id) const {
  const auto it = flow_slots_.find(id);
  if (it == flow_slots_.end()) return std::nullopt;
  return it->second;
}

FlowId FluidEngine::start_flow(FlowSpec spec) {
  WADP_CHECK_MSG(spec.path != nullptr || !spec.links.empty(),
                 "flow needs a path or a link route");
  WADP_CHECK_MSG(spec.path == nullptr || spec.links.empty(),
                 "flow route is either a path or links, not both");
  WADP_CHECK_MSG(spec.size > 0, "flow needs bytes to move");
  WADP_CHECK_MSG(spec.streams >= 1, "flow needs at least one stream");
  WADP_CHECK_MSG(spec.buffer > 0, "flow needs a socket buffer");

  if (!config_.lazy_progress) advance_to(sim_.now());

  const SimTime now = sim_.now();
  const FlowId id = next_id_++;
  Flow flow;
  flow.start = now;
  flow.remaining = static_cast<double>(spec.size);
  flow.tcp = spec.path != nullptr ? spec.path->tcp() : spec.tcp;
  flow.ramp_rtts_total = rtts_to_fill_window(flow.tcp, spec.buffer);
  flow.rtt = spec.path != nullptr ? spec.path->effective_rtt(now)
                                  : spec.base_rtt;
  WADP_CHECK_MSG(flow.rtt > 0.0, "flow needs a positive rtt");
  flow.integrated_to = now;
  flow.spec = std::move(spec);
  register_flow(id, std::move(flow));

  NetMetrics::get().started.inc();
  NetMetrics::get().active.set(static_cast<double>(active_));

  if (config_.lazy_progress) {
    request_sweep();
  } else {
    realloc_dirty(now);
    schedule_next();
  }
  return id;
}

void FluidEngine::compact() {
  // Flows register in ascending FlowId and are packed in that order, so
  // cross_begin ascends along order_ and every block moves down (or
  // stays): one in-place pass.
  std::size_t kept = 0;
  std::uint32_t packed = 0;
  for (const FlowRef& ref : order_) {
    if (!live(ref)) continue;
    order_[kept++] = ref;
    FlowHead& head = heads_[ref.second];
    std::copy_n(crossings_.begin() + head.cross_begin, head.cross_count,
                crossings_.begin() + packed);
    head.cross_begin = packed;
    packed += head.cross_count;
  }
  order_.resize(kept);
  crossings_.resize(packed);
  crossing_garbage_ = 0;
}

void FluidEngine::register_flow(FlowId id, Flow&& flow) {
  // Garbage is dropped here, never while a walk over order_ may be
  // running.  Every flow crosses at least one resource, so once garbage
  // is half of crossings_ it also outnumbers the live entries of order_:
  // each pass costs O(garbage), amortized O(1) per finished flow.
  if (2 * crossing_garbage_ >= crossings_.size()) compact();
  Slot slot = 0;
  if (free_flows_.empty()) {
    slot = static_cast<Slot>(flows_.size());
    flows_.push_back(std::move(flow));
    heads_.emplace_back();
  } else {
    slot = free_flows_.back();
    free_flows_.pop_back();
    flows_[slot] = std::move(flow);
  }
  heads_[slot].id = id;
  heads_[slot].cross_begin = static_cast<std::uint32_t>(crossings_.size());
  heads_[slot].cross_count = 0;
  flow_slots_.emplace(id, slot);
  order_.emplace_back(id, slot);
  ++active_;

  const SimTime now = sim_.now();
  const auto cross = [&](CapacityProvider* provider, double weight) {
    const auto [it, fresh] = resource_slots_.try_emplace(provider, 0);
    if (fresh) {
      if (free_resources_.empty()) {
        it->second = static_cast<Slot>(resources_.size());
        resources_.emplace_back();
      } else {
        it->second = free_resources_.back();
        free_resources_.pop_back();
      }
      Resource& res = resources_[it->second];
      res.provider = provider;
      res.capacity_cached = provider->capacity_at(now);
      if (config_.lazy_progress) arm_load_event(it->second);
    }
    Resource& res = resources_[it->second];
    crossings_.push_back(
        {it->second, static_cast<std::uint32_t>(res.members.size()), weight});
    res.members.push_back({slot, heads_[slot].cross_count++});
    mark_dirty(it->second);
  };
  const FlowSpec& spec = flows_[slot].spec;
  const double stream_weight = static_cast<double>(spec.streams);
  if (spec.path != nullptr) {
    cross(spec.path, stream_weight);
  } else {
    for (CapacityProvider* link : spec.links) cross(link, stream_weight);
  }
  for (CapacityProvider* extra : spec.extra_resources) cross(extra, 1.0);

  if (config_.lazy_progress && flows_[slot].ramp_rtts_total > 0) {
    arm_ramp(slot);
  }
}

void FluidEngine::unlink_flow(Slot slot) {
  const SimTime now = sim_.now();
  const FlowHead& head = heads_[slot];
  for (std::uint32_t i = 0; i < head.cross_count; ++i) {
    const Crossing c = crossings_[head.cross_begin + i];
    Resource& res = resources_[c.resource];
    const Member last = res.members.back();
    res.members[c.member_pos] = last;
    crossings_[heads_[last.flow].cross_begin + last.crossing].member_pos =
        c.member_pos;
    res.members.pop_back();
    if (res.members.empty()) {
      // Last flow gone: the resource reads as idle from now on.
      res.provider->on_allocation(now, 0.0);
      if (res.load_ev != 0) sim_.cancel(res.load_ev);
      resource_slots_.erase(res.provider);
      res.provider = nullptr;
      res.dirty = false;
      res.load_ev = 0;
      free_resources_.push_back(c.resource);
    } else {
      mark_dirty(c.resource);
    }
  }
  Flow& f = flows_[slot];
  if (f.completion_ev != 0) {
    sim_.cancel(f.completion_ev);
    f.completion_ev = 0;
  }
  if (f.ramp_ev != 0) {
    sim_.cancel(f.ramp_ev);
    f.ramp_ev = 0;
  }
}

void FluidEngine::release_flow(Slot slot) {
  flow_slots_.erase(heads_[slot].id);
  crossing_garbage_ += heads_[slot].cross_count;
  heads_[slot] = FlowHead{};
  flows_[slot] = Flow{};
  free_flows_.push_back(slot);
  --active_;
}

void FluidEngine::mark_dirty(Slot resource) {
  Resource& res = resources_[resource];
  if (res.dirty) return;
  res.dirty = true;
  dirty_resources_.push_back(resource);
}

void FluidEngine::mark_resources_dirty(Slot slot) {
  for (const Crossing& c : crossings(slot)) mark_dirty(c.resource);
}

bool FluidEngine::cancel_flow(FlowId id) {
  if (!config_.lazy_progress) advance_to(sim_.now());
  const auto slot = find_flow(id);
  if (!slot) return false;
  unlink_flow(*slot);
  release_flow(*slot);
  NetMetrics::get().active.set(static_cast<double>(active_));
  if (config_.lazy_progress) {
    request_sweep();
  } else {
    realloc_dirty(sim_.now());
    schedule_next();
  }
  return true;
}

Bandwidth FluidEngine::current_rate(FlowId id) const {
  const auto slot = find_flow(id);
  return slot ? flows_[*slot].rate : 0.0;
}

std::optional<FluidEngine::FlowProgress> FluidEngine::progress(FlowId id) {
  if (!config_.lazy_progress) {
    advance_to(sim_.now());
  } else if (const auto slot = find_flow(id)) {
    integrate_flow(flows_[*slot], sim_.now());
  }
  const auto slot = find_flow(id);
  if (!slot) return std::nullopt;
  const Flow& f = flows_[*slot];
  FlowProgress p;
  p.total = f.spec.size;
  const auto remaining = static_cast<Bytes>(std::max(0.0, f.remaining));
  p.moved = f.spec.size > remaining ? f.spec.size - remaining : 0;
  p.rate = f.rate;
  return p;
}

std::optional<FluidEngine::FlowProgress> FluidEngine::interrupt_flow(
    FlowId id) {
  if (!config_.lazy_progress) advance_to(sim_.now());
  const auto slot = find_flow(id);
  if (!slot) return std::nullopt;
  Flow& f = flows_[*slot];
  if (config_.lazy_progress) integrate_flow(f, sim_.now());
  FlowProgress p;
  p.total = f.spec.size;
  const auto remaining = static_cast<Bytes>(std::max(0.0, f.remaining));
  p.moved = f.spec.size > remaining ? f.spec.size - remaining : 0;
  p.rate = f.rate;
  unlink_flow(*slot);
  release_flow(*slot);
  NetMetrics::get().active.set(static_cast<double>(active_));
  if (config_.lazy_progress) {
    request_sweep();
  } else {
    realloc_dirty(sim_.now());
    schedule_next();
  }
  return p;
}

// ---------------------------------------------------------------------
// Eager mode: whole-engine integration and a single pending wake-up.
// This is the original engine's schedule, preserved bit-identically.

void FluidEngine::advance_to(SimTime t) {
  if (active_ == 0) {
    last_update_ = t;
    return;
  }
  const Duration elapsed = t - last_update_;
  WADP_CHECK(elapsed >= 0.0);
  last_update_ = t;
  if (elapsed == 0.0) return;

  struct Completion {
    FlowStats stats;
    std::function<void(const FlowStats&)> callback;
  };
  std::vector<Completion> done;

  // Ascending FlowId; drops the entries of finished flows as it goes.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const FlowRef ref = order_[i];
    if (!live(ref)) continue;
    Flow& f = flows_[ref.second];
    f.remaining -= f.rate * elapsed;
    // A flow also completes when its residue would drain within one
    // time quantum — the engine cannot schedule anything finer.
    if (f.remaining <= kCompletionEpsilon ||
        f.remaining <= f.rate * kTimeQuantum) {
      FlowStats stats;
      stats.id = ref.first;
      stats.start = f.start;
      stats.end = t;
      stats.bytes = f.spec.size;
      unlink_flow(ref.second);
      done.push_back({stats, std::move(f.spec.on_complete)});
      release_flow(ref.second);
      ++completed_;
      NetMetrics::get().completed.inc();
    } else {
      order_[kept++] = ref;
    }
  }
  order_.resize(kept);
  NetMetrics::get().active.set(static_cast<double>(active_));

  // Callbacks run after bookkeeping so they can start new flows safely.
  for (auto& c : done) {
    if (c.callback) c.callback(c.stats);
  }
}

void FluidEngine::scan_for_changes(SimTime t) {
  // A resource is dirty when its available capacity moved off the value
  // used by its component's last waterfill; a flow when its TCP cap
  // crossed a slow-start boundary.  Components with no change recompute
  // to the identical rates, so skipping them is exact.
  for (Slot r = 0; r < resources_.size(); ++r) {
    Resource& res = resources_[r];
    if (res.provider == nullptr) continue;
    const double capacity = res.provider->capacity_at(t);
    if (capacity != res.capacity_cached) {
      res.capacity_cached = capacity;
      mark_dirty(r);
    }
  }
  for (const FlowRef& ref : order_) {
    if (!live(ref)) continue;
    const Flow& f = flows_[ref.second];
    if (flow_cap(f, t) != f.cached_cap) mark_resources_dirty(ref.second);
  }
}

void FluidEngine::schedule_next() {
  if (pending_wake_ != 0) {
    sim_.cancel(pending_wake_);
    pending_wake_ = 0;
  }
  if (active_ == 0) return;

  const SimTime now = sim_.now();
  SimTime next = kNeverTime;

  for (const FlowRef& ref : order_) {
    if (!live(ref)) continue;
    const Flow& f = flows_[ref.second];
    // Earliest completion at current rate (never below the quantum).
    if (f.rate > 0.0) {
      next = std::min(next, now + std::max(f.remaining / f.rate, kTimeQuantum));
    }
    // Next slow-start doubling (only while ramping).
    const Duration elapsed = now - f.start;
    const Duration rtt = f.rtt;
    const int rtts_done = elapsed_rtts(rtt, elapsed);
    if (rtts_done < f.ramp_rtts_total) {
      const SimTime ramp_next = f.start + (rtts_done + 1) * rtt;
      if (ramp_next > now) next = std::min(next, ramp_next);
    }
  }
  // Resource load-grid changes (every live resource carries a flow).
  for (const Resource& res : resources_) {
    if (res.provider != nullptr) {
      next = std::min(next, res.provider->next_change_after(now));
    }
  }

  if (next == kNeverTime) return;
  // Guard against zero-length self-wake loops from float coincidences.
  if (next <= now + kTimeQuantum) next = now + kTimeQuantum;
  pending_wake_ = sim_.schedule_at(next, [this] {
    pending_wake_ = 0;
    wake();
  });
}

void FluidEngine::wake() {
  advance_to(sim_.now());
  scan_for_changes(sim_.now());
  realloc_dirty(sim_.now());
  schedule_next();
}

// ---------------------------------------------------------------------
// Allocation: dirty-component collection and the max-min waterfill.

void FluidEngine::collect_dirty_components() {
  ++visit_epoch_;
  component_.clear();
  for (const Slot seed : dirty_resources_) {
    Resource& seed_res = resources_[seed];
    if (seed_res.provider == nullptr) continue;  // last member already left
    seed_res.dirty = false;
    if (seed_res.visit_mark == visit_epoch_) continue;
    seed_res.visit_mark = visit_epoch_;
    ++stats_.components;
    stack_.push_back(seed);
    while (!stack_.empty()) {
      const Slot r = stack_.back();
      stack_.pop_back();
      for (const Member& member : resources_[r].members) {
        FlowHead& head = heads_[member.flow];
        if (head.visit_mark == visit_epoch_) continue;
        head.visit_mark = visit_epoch_;
        component_.emplace_back(head.id, member.flow);
        for (const Crossing& c : crossings(member.flow)) {
          Resource& other = resources_[c.resource];
          if (other.visit_mark == visit_epoch_) continue;
          other.visit_mark = visit_epoch_;
          other.dirty = false;
          stack_.push_back(c.resource);
        }
      }
    }
  }
  dirty_resources_.clear();
  // Ascending FlowId: the order compare_with_reference() waterfills in,
  // which keeps the arithmetic order-identical.  Sorting k flows costs
  // O(k log k); reading them off order_ (already ascending) by visit
  // stamp costs O(active).  Each alone loses end to end (4-vCPU x86
  // VM): always sorting cut perfbench simgrid throughput (~650-flow
  // components of ~700 active) by ~17%; always filtering made
  // bench_netsim's locality-1.0 tier (~8-flow components of up to
  // 12,000 active) ~3x slower.  Timed in isolation at 700, 2,000 and
  // 12,000 active flows, the two cross between 1/32 and 1/16 of the
  // active flows.
  if (component_.size() * 16 < order_.size()) {
    std::sort(component_.begin(), component_.end());
  } else {
    component_.clear();
    for (const FlowRef& ref : order_) {
      const FlowHead& head = heads_[ref.second];
      if (head.id == ref.first && head.visit_mark == visit_epoch_) {
        component_.push_back(ref);
      }
    }
  }
}

void FluidEngine::apply_waterfill(const std::vector<FlowRef>& component,
                                  SimTime t) {
  if (component.empty()) return;
  const std::uint64_t begin = now_ns();
  solver_.clear();
  for (const FlowRef& ref : component) {
    const Flow& f = flows_[ref.second];
    solver_.add_flow(flow_cap(f, t));
    for (const Crossing& c : crossings(ref.second)) {
      solver_.cross(c.resource, c.weight);
    }
  }
  capacity_.clear();
  for (const Slot r : solver_.resources()) {
    capacity_.push_back(resources_[r].provider->capacity_at(t));
  }
  const std::uint64_t visits = solver_.solve(capacity_);
  const std::uint64_t ns = now_ns() - begin;

  const std::vector<double>& rates = solver_.rates();
  const std::vector<double>& caps = solver_.caps();
  for (std::size_t i = 0; i < component.size(); ++i) {
    const Slot slot = component[i].second;
    Flow& f = flows_[slot];
    const bool moved = f.rate != rates[i];
    f.rate = rates[i];
    f.cached_cap = caps[i];
    // A changed rate moves the completion instant; an unchanged rate
    // leaves the armed event valid (same remaining trajectory).
    if (config_.lazy_progress && (moved || f.completion_ev == 0)) {
      arm_completion(slot);
    }
  }

  ++stats_.reallocs;
  stats_.flows_touched += component.size();
  stats_.alloc_ns += ns;
  stats_.waterfill_visits += visits;
  NetMetrics& metrics = NetMetrics::get();
  metrics.reallocs.inc();
  metrics.realloc_flows.inc(component.size());
  metrics.realloc_ns.inc(ns);
  metrics.waterfill_visits.inc(visits);

  // Report the allocated sum per touched resource — the hook links use
  // to record utilization series — in first-touch order.
  const std::vector<double>& sums = solver_.resource_sums();
  const std::vector<std::uint32_t>& touched = solver_.resources();
  double max_util = 0.0;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    CapacityProvider* provider = resources_[touched[i]].provider;
    provider->on_allocation(t, sums[i]);
    const double capacity = provider->capacity_at(t);
    if (capacity > 0.0) max_util = std::max(max_util, sums[i] / capacity);
  }
  metrics.util_max.set(100.0 * max_util);
}

void FluidEngine::realloc_dirty(SimTime t) {
  if (dirty_resources_.empty()) return;
  collect_dirty_components();
  apply_waterfill(component_, t);
}

std::size_t FluidEngine::compare_with_reference() const {
  const SimTime now = sim_.now();
  MaxMinSolver solver;
  solver.clear();
  for (const FlowRef& ref : order_) {
    if (!live(ref)) continue;
    const Flow& f = flows_[ref.second];
    solver.add_flow(flow_cap(f, now));
    for (const Crossing& c : crossings(ref.second)) {
      solver.cross(c.resource, c.weight);
    }
  }
  std::vector<double> capacity;
  for (const Slot r : solver.resources()) {
    capacity.push_back(resources_[r].provider->capacity_at(now));
  }
  solver.solve(capacity);
  std::size_t mismatches = 0;
  std::size_t i = 0;
  for (const FlowRef& ref : order_) {
    if (live(ref) && flows_[ref.second].rate != solver.rates()[i++]) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---------------------------------------------------------------------
// Lazy mode: per-flow completion/ramp events, per-resource load events,
// and a same-instant coalescing sweep.

void FluidEngine::request_sweep() {
  if (sweep_pending_) return;
  sweep_pending_ = true;
  // Scheduled at the current instant: the simulator's FIFO tie-break
  // runs it after every already-queued event of this timestamp, so all
  // same-instant dirt lands in one sweep.
  sim_.schedule_at(sim_.now(), [this] { sweep(); });
}

void FluidEngine::integrate_flow(Flow& f, SimTime t) {
  const Duration elapsed = t - f.integrated_to;
  if (elapsed <= 0.0) return;
  f.remaining -= f.rate * elapsed;
  f.integrated_to = t;
}

void FluidEngine::arm_completion(Slot slot) {
  Flow& f = flows_[slot];
  if (f.completion_ev != 0) {
    sim_.cancel(f.completion_ev);
    f.completion_ev = 0;
  }
  if (f.rate <= 0.0) return;  // starved: a later reallocation re-arms
  const SimTime now = sim_.now();
  SimTime when = f.integrated_to + f.remaining / f.rate;
  if (when <= now + kTimeQuantum) when = now + kTimeQuantum;
  const FlowId id = heads_[slot].id;
  f.completion_ev = sim_.schedule_at(when, [this, id, slot] {
    WADP_CHECK(heads_[slot].id == id);
    Flow& flow = flows_[slot];
    flow.completion_ev = 0;
    integrate_flow(flow, sim_.now());
    if (flow.remaining <= kCompletionEpsilon ||
        flow.remaining <= flow.rate * kTimeQuantum) {
      finish_flow(slot, sim_.now());
    } else {
      arm_completion(slot);  // float residue: nudge forward
    }
  });
}

void FluidEngine::arm_ramp(Slot slot) {
  Flow& f = flows_[slot];
  if (f.ramp_ev != 0) {
    sim_.cancel(f.ramp_ev);
    f.ramp_ev = 0;
  }
  const SimTime now = sim_.now();
  const int rtts_done = elapsed_rtts(f.rtt, now - f.start);
  if (rtts_done >= f.ramp_rtts_total) return;  // window filled
  SimTime when = f.start + (rtts_done + 1) * f.rtt;
  if (when <= now + kTimeQuantum) when = now + kTimeQuantum;
  const FlowId id = heads_[slot].id;
  f.ramp_ev = sim_.schedule_at(when, [this, id, slot] {
    WADP_CHECK(heads_[slot].id == id);
    flows_[slot].ramp_ev = 0;
    mark_resources_dirty(slot);
    request_sweep();
    arm_ramp(slot);
  });
}

void FluidEngine::arm_load_event(Slot resource) {
  Resource& res = resources_[resource];
  if (res.load_ev != 0) {
    sim_.cancel(res.load_ev);
    res.load_ev = 0;
  }
  const SimTime when = res.provider->next_change_after(sim_.now());
  if (when == kNeverTime) return;
  CapacityProvider* provider = res.provider;
  res.load_ev = sim_.schedule_at(when, [this, resource, provider] {
    Resource& state = resources_[resource];
    if (state.provider != provider) return;  // deregistered meanwhile
    state.load_ev = 0;
    mark_dirty(resource);
    request_sweep();
    arm_load_event(resource);
  });
}

void FluidEngine::finish_flow(Slot slot, SimTime t) {
  Flow& f = flows_[slot];
  FlowStats stats;
  stats.id = heads_[slot].id;
  stats.start = f.start;
  stats.end = t;
  stats.bytes = f.spec.size;
  auto callback = std::move(f.spec.on_complete);
  unlink_flow(slot);
  release_flow(slot);
  ++completed_;
  NetMetrics::get().completed.inc();
  NetMetrics::get().active.set(static_cast<double>(active_));
  request_sweep();
  if (callback) callback(stats);
}

void FluidEngine::sweep() {
  sweep_pending_ = false;
  const SimTime t = sim_.now();
  ++stats_.sweeps;
  NetMetrics::get().sweeps.inc();
  if (dirty_resources_.empty()) return;

  collect_dirty_components();
  if (component_.empty()) return;

  // Bring the affected flows' byte counts to t; anything that drains in
  // the process completes after rates settle (callbacks last).
  std::vector<FlowRef> drained;
  live_refs_.clear();
  for (const FlowRef& ref : component_) {
    Flow& f = flows_[ref.second];
    integrate_flow(f, t);
    if (f.remaining <= kCompletionEpsilon ||
        f.remaining <= f.rate * kTimeQuantum) {
      drained.push_back(ref);
    } else {
      live_refs_.push_back(ref);
    }
  }

  apply_waterfill(live_refs_, t);

  for (const FlowRef& ref : drained) {
    if (live(ref)) finish_flow(ref.second, t);
  }
}

}  // namespace wadp::net
