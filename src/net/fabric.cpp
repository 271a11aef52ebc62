#include "net/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>

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

template <typename Fn>
void FluidEngine::for_each_resource(const Flow& f, Fn&& fn) {
  const double stream_weight = static_cast<double>(f.spec.streams);
  if (f.spec.path != nullptr) {
    fn(static_cast<CapacityProvider*>(f.spec.path), stream_weight);
  } else {
    for (CapacityProvider* link : f.spec.links) fn(link, stream_weight);
  }
  for (CapacityProvider* extra : f.spec.extra_resources) fn(extra, 1.0);
}

Bandwidth FluidEngine::flow_cap(const Flow& f, SimTime t) const {
  const Duration elapsed = t - f.start;
  return static_cast<double>(f.spec.streams) *
         ramp_rate_cap(f.tcp, f.spec.buffer, f.rtt, elapsed);
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
  NetMetrics::get().active.set(static_cast<double>(flows_.size()));

  if (config_.lazy_progress) {
    request_sweep();
  } else {
    realloc_dirty(now);
    schedule_next();
  }
  return id;
}

void FluidEngine::register_flow(FlowId id, Flow&& flow) {
  const auto [it, inserted] = flows_.emplace(id, std::move(flow));
  WADP_CHECK(inserted);
  Flow& f = it->second;
  const SimTime now = sim_.now();
  for_each_resource(f, [&](CapacityProvider* r, double) {
    auto [rit, fresh] = resources_.try_emplace(r);
    ResourceState& state = rit->second;
    if (fresh) {
      state.capacity_cached = r->capacity_at(now);
      if (config_.lazy_progress) arm_load_event(r, state);
    }
    state.members.push_back(id);
    if (!state.dirty) {
      state.dirty = true;
      dirty_resources_.push_back(r);
    }
  });
  if (config_.lazy_progress && f.ramp_rtts_total > 0) arm_ramp(id, f);
}

void FluidEngine::unlink_flow(FlowId id, Flow& f) {
  const SimTime now = sim_.now();
  for_each_resource(f, [&](CapacityProvider* r, double) {
    const auto rit = resources_.find(r);
    if (rit == resources_.end()) return;
    ResourceState& state = rit->second;
    std::erase(state.members, id);
    if (state.members.empty()) {
      // Last flow gone: the resource reads as idle from now on.
      r->on_allocation(now, 0.0);
      if (state.load_ev != 0) sim_.cancel(state.load_ev);
      resources_.erase(rit);
    } else if (!state.dirty) {
      state.dirty = true;
      dirty_resources_.push_back(r);
    }
  });
  if (f.completion_ev != 0) {
    sim_.cancel(f.completion_ev);
    f.completion_ev = 0;
  }
  if (f.ramp_ev != 0) {
    sim_.cancel(f.ramp_ev);
    f.ramp_ev = 0;
  }
}

void FluidEngine::mark_resources_dirty(const Flow& f) {
  for_each_resource(f, [&](CapacityProvider* r, double) {
    const auto rit = resources_.find(r);
    if (rit == resources_.end()) return;
    if (!rit->second.dirty) {
      rit->second.dirty = true;
      dirty_resources_.push_back(r);
    }
  });
}

bool FluidEngine::cancel_flow(FlowId id) {
  if (!config_.lazy_progress) advance_to(sim_.now());
  const auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  unlink_flow(id, it->second);
  flows_.erase(it);
  NetMetrics::get().active.set(static_cast<double>(flows_.size()));
  if (config_.lazy_progress) {
    request_sweep();
  } else {
    realloc_dirty(sim_.now());
    schedule_next();
  }
  return true;
}

Bandwidth FluidEngine::current_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

std::optional<FluidEngine::FlowProgress> FluidEngine::progress(FlowId id) {
  if (!config_.lazy_progress) {
    advance_to(sim_.now());
  } else {
    const auto lit = flows_.find(id);
    if (lit != flows_.end()) integrate_flow(id, lit->second, sim_.now());
  }
  const auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  const Flow& f = it->second;
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
  const auto it = flows_.find(id);
  if (it == flows_.end()) return std::nullopt;
  Flow& f = it->second;
  if (config_.lazy_progress) integrate_flow(id, f, sim_.now());
  FlowProgress p;
  p.total = f.spec.size;
  const auto remaining = static_cast<Bytes>(std::max(0.0, f.remaining));
  p.moved = f.spec.size > remaining ? f.spec.size - remaining : 0;
  p.rate = f.rate;
  unlink_flow(id, f);
  flows_.erase(it);
  NetMetrics::get().active.set(static_cast<double>(flows_.size()));
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
  if (flows_.empty()) {
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

  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& f = it->second;
    f.remaining -= f.rate * elapsed;
    // A flow also completes when its residue would drain within one
    // time quantum — the engine cannot schedule anything finer.
    if (f.remaining <= kCompletionEpsilon ||
        f.remaining <= f.rate * kTimeQuantum) {
      FlowStats stats;
      stats.id = it->first;
      stats.start = f.start;
      stats.end = t;
      stats.bytes = f.spec.size;
      unlink_flow(it->first, f);
      done.push_back({stats, std::move(f.spec.on_complete)});
      it = flows_.erase(it);
      ++completed_;
      NetMetrics::get().completed.inc();
    } else {
      ++it;
    }
  }
  NetMetrics::get().active.set(static_cast<double>(flows_.size()));

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
  for (auto& [r, state] : resources_) {
    const double capacity = r->capacity_at(t);
    if (capacity != state.capacity_cached) {
      state.capacity_cached = capacity;
      if (!state.dirty) {
        state.dirty = true;
        dirty_resources_.push_back(r);
      }
    }
  }
  for (auto& [id, f] : flows_) {
    if (flow_cap(f, t) != f.cached_cap) mark_resources_dirty(f);
  }
}

void FluidEngine::schedule_next() {
  if (pending_wake_ != 0) {
    sim_.cancel(pending_wake_);
    pending_wake_ = 0;
  }
  if (flows_.empty()) return;

  const SimTime now = sim_.now();
  SimTime next = kNeverTime;

  std::vector<const CapacityProvider*> seen;
  for (const auto& [id, f] : flows_) {
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
    // Resource load-grid changes.
    for_each_resource(f, [&](const CapacityProvider* r, double) {
      for (const CapacityProvider* s : seen) {
        if (s == r) return;
      }
      seen.push_back(r);
      next = std::min(next, r->next_change_after(now));
    });
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

std::vector<FlowId> FluidEngine::collect_dirty_components() {
  ++visit_epoch_;
  std::vector<FlowId> ids;
  std::unordered_set<FlowId> visited_flows;
  std::vector<CapacityProvider*> stack;

  for (CapacityProvider* seed : dirty_resources_) {
    const auto sit = resources_.find(seed);
    if (sit == resources_.end()) continue;  // last member already left
    sit->second.dirty = false;
    if (sit->second.visit_mark == visit_epoch_) continue;
    sit->second.visit_mark = visit_epoch_;
    ++stats_.components;
    stack.push_back(seed);
    while (!stack.empty()) {
      CapacityProvider* r = stack.back();
      stack.pop_back();
      for (const FlowId id : resources_.at(r).members) {
        if (!visited_flows.insert(id).second) continue;
        ids.push_back(id);
        const auto fit = flows_.find(id);
        WADP_CHECK(fit != flows_.end());
        for_each_resource(fit->second, [&](CapacityProvider* other, double) {
          const auto oit = resources_.find(other);
          if (oit == resources_.end()) return;
          ResourceState& state = oit->second;
          if (state.visit_mark == visit_epoch_) return;
          state.visit_mark = visit_epoch_;
          state.dirty = false;
          stack.push_back(other);
        });
      }
    }
  }
  dirty_resources_.clear();
  // Ascending FlowId: matches compare_with_reference()'s map iteration,
  // which keeps the waterfill arithmetic order-identical.
  std::sort(ids.begin(), ids.end());
  return ids;
}

void FluidEngine::waterfill(const std::vector<FlowId>& ids, SimTime t,
                            std::vector<double>& rates) const {
  rates.clear();
  if (ids.empty()) return;

  // Resources indexed by first touch over flows in id order — the
  // iteration order the original global allocator used, preserved so
  // float accumulation is bit-identical.
  std::vector<CapacityProvider*> resources;
  std::unordered_map<CapacityProvider*, std::size_t> resource_index;
  const auto index_of = [&](CapacityProvider* r) {
    const auto [it, fresh] = resource_index.try_emplace(r, resources.size());
    if (fresh) resources.push_back(r);
    return it->second;
  };

  struct Member {
    std::size_t resource;
    double weight;
  };
  struct Entry {
    double cap;  // TCP ramp/window ceiling
    std::vector<Member> members;
    bool fixed = false;
    double rate = 0.0;
  };
  std::vector<Entry> entries;
  entries.reserve(ids.size());
  for (const FlowId id : ids) {
    const auto fit = flows_.find(id);
    WADP_CHECK(fit != flows_.end());
    const Flow& flow = fit->second;
    Entry e;
    e.cap = flow_cap(flow, t);
    for_each_resource(flow, [&](CapacityProvider* r, double weight) {
      e.members.push_back({index_of(r), weight});
    });
    entries.push_back(std::move(e));
  }

  std::vector<double> residual(resources.size());
  for (std::size_t i = 0; i < resources.size(); ++i) {
    residual[i] = std::max(0.0, resources[i]->capacity_at(t));
  }

  // Weighted max-min: repeatedly find the most constrained flow, fix it,
  // and release its resource consumption from the pools.
  std::size_t unfixed = entries.size();
  while (unfixed > 0) {
    std::vector<double> pool_weight(resources.size(), 0.0);
    for (const Entry& e : entries) {
      if (e.fixed) continue;
      for (const Member& m : e.members) pool_weight[m.resource] += m.weight;
    }

    double min_tentative = std::numeric_limits<double>::infinity();
    for (Entry& e : entries) {
      if (e.fixed) continue;
      double share = std::numeric_limits<double>::infinity();
      for (const Member& m : e.members) {
        WADP_CHECK(pool_weight[m.resource] > 0.0);
        share = std::min(
            share, residual[m.resource] * m.weight / pool_weight[m.resource]);
      }
      const double tentative = std::min(e.cap, share);
      min_tentative = std::min(min_tentative, tentative);
      e.rate = tentative;  // provisional; final once fixed below
    }

    // Fix every flow at the minimum (ties fix together), release capacity.
    const double threshold = min_tentative * (1.0 + 1e-12) + 1e-9;
    bool fixed_any = false;
    for (Entry& e : entries) {
      if (e.fixed || e.rate > threshold) continue;
      e.fixed = true;
      fixed_any = true;
      --unfixed;
      for (const Member& m : e.members) {
        residual[m.resource] = std::max(0.0, residual[m.resource] - e.rate);
      }
    }
    WADP_CHECK_MSG(fixed_any, "max-min allocation failed to converge");
  }

  rates.reserve(entries.size());
  for (const Entry& e : entries) rates.push_back(e.rate);
}

void FluidEngine::apply_waterfill(const std::vector<FlowId>& ids,
                                  SimTime t) {
  if (ids.empty()) return;
  std::vector<double> rates;
  const std::uint64_t begin = now_ns();
  waterfill(ids, t, rates);
  const std::uint64_t ns = now_ns() - begin;

  for (std::size_t i = 0; i < ids.size(); ++i) {
    Flow& f = flows_.at(ids[i]);
    const bool moved = f.rate != rates[i];
    f.rate = rates[i];
    f.cached_cap = flow_cap(f, t);
    // A changed rate moves the completion instant; an unchanged rate
    // leaves the armed event valid (same remaining trajectory).
    if (config_.lazy_progress && (moved || f.completion_ev == 0)) {
      arm_completion(ids[i], f);
    }
  }

  ++stats_.reallocs;
  stats_.flows_touched += ids.size();
  stats_.alloc_ns += ns;
  NetMetrics::get().reallocs.inc();
  NetMetrics::get().realloc_flows.inc(ids.size());
  NetMetrics::get().realloc_ns.inc(ns);
  report_allocations(ids, t);
}

void FluidEngine::realloc_dirty(SimTime t) {
  if (dirty_resources_.empty()) return;
  apply_waterfill(collect_dirty_components(), t);
}

void FluidEngine::report_allocations(const std::vector<FlowId>& ids,
                                     SimTime t) {
  // Sum allocated rate per resource touched by the recomputed flows and
  // report it — the hook links use to record utilization series.
  std::vector<CapacityProvider*> order;
  std::unordered_map<CapacityProvider*, double> sums;
  for (const FlowId id : ids) {
    const auto fit = flows_.find(id);
    if (fit == flows_.end()) continue;  // completed during this instant
    const Flow& f = fit->second;
    for_each_resource(f, [&](CapacityProvider* r, double) {
      const auto [it, fresh] = sums.try_emplace(r, 0.0);
      if (fresh) order.push_back(r);
      it->second += f.rate;
    });
  }
  double max_util = 0.0;
  for (CapacityProvider* r : order) {
    const double allocated = sums[r];
    r->on_allocation(t, allocated);
    const double capacity = r->capacity_at(t);
    if (capacity > 0.0) max_util = std::max(max_util, allocated / capacity);
  }
  if (!order.empty()) {
    NetMetrics::get().util_max.set(100.0 * max_util);
  }
}

std::size_t FluidEngine::compare_with_reference() const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (const auto& [id, f] : flows_) ids.push_back(id);
  std::vector<double> rates;
  waterfill(ids, sim_.now(), rates);
  std::size_t mismatches = 0;
  std::size_t i = 0;
  for (const auto& [id, f] : flows_) {
    if (f.rate != rates[i++]) ++mismatches;
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

void FluidEngine::integrate_flow(FlowId, Flow& f, SimTime t) {
  const Duration elapsed = t - f.integrated_to;
  if (elapsed <= 0.0) return;
  f.remaining -= f.rate * elapsed;
  f.integrated_to = t;
}

void FluidEngine::arm_completion(FlowId id, Flow& f) {
  if (f.completion_ev != 0) {
    sim_.cancel(f.completion_ev);
    f.completion_ev = 0;
  }
  if (f.rate <= 0.0) return;  // starved: a later reallocation re-arms
  const SimTime now = sim_.now();
  SimTime when = f.integrated_to + f.remaining / f.rate;
  if (when <= now + kTimeQuantum) when = now + kTimeQuantum;
  f.completion_ev = sim_.schedule_at(when, [this, id] {
    const auto it = flows_.find(id);
    WADP_CHECK(it != flows_.end());
    Flow& flow = it->second;
    flow.completion_ev = 0;
    integrate_flow(id, flow, sim_.now());
    if (flow.remaining <= kCompletionEpsilon ||
        flow.remaining <= flow.rate * kTimeQuantum) {
      finish_flow(id, sim_.now());
    } else {
      arm_completion(id, flow);  // float residue: nudge forward
    }
  });
}

void FluidEngine::arm_ramp(FlowId id, Flow& f) {
  if (f.ramp_ev != 0) {
    sim_.cancel(f.ramp_ev);
    f.ramp_ev = 0;
  }
  const SimTime now = sim_.now();
  const int rtts_done = elapsed_rtts(f.rtt, now - f.start);
  if (rtts_done >= f.ramp_rtts_total) return;  // window filled
  SimTime when = f.start + (rtts_done + 1) * f.rtt;
  if (when <= now + kTimeQuantum) when = now + kTimeQuantum;
  f.ramp_ev = sim_.schedule_at(when, [this, id] {
    const auto it = flows_.find(id);
    WADP_CHECK(it != flows_.end());
    Flow& flow = it->second;
    flow.ramp_ev = 0;
    mark_resources_dirty(flow);
    request_sweep();
    arm_ramp(id, flow);
  });
}

void FluidEngine::arm_load_event(CapacityProvider* resource,
                                 ResourceState& state) {
  if (state.load_ev != 0) {
    sim_.cancel(state.load_ev);
    state.load_ev = 0;
  }
  const SimTime when = resource->next_change_after(sim_.now());
  if (when == kNeverTime) return;
  state.load_ev = sim_.schedule_at(when, [this, resource] {
    const auto it = resources_.find(resource);
    if (it == resources_.end()) return;  // deregistered meanwhile
    it->second.load_ev = 0;
    if (!it->second.dirty) {
      it->second.dirty = true;
      dirty_resources_.push_back(resource);
    }
    request_sweep();
    arm_load_event(resource, it->second);
  });
}

void FluidEngine::finish_flow(FlowId id, SimTime t) {
  const auto it = flows_.find(id);
  WADP_CHECK(it != flows_.end());
  Flow& f = it->second;
  FlowStats stats;
  stats.id = id;
  stats.start = f.start;
  stats.end = t;
  stats.bytes = f.spec.size;
  auto callback = std::move(f.spec.on_complete);
  unlink_flow(id, f);
  flows_.erase(it);
  ++completed_;
  NetMetrics::get().completed.inc();
  NetMetrics::get().active.set(static_cast<double>(flows_.size()));
  request_sweep();
  if (callback) callback(stats);
}

void FluidEngine::sweep() {
  sweep_pending_ = false;
  const SimTime t = sim_.now();
  ++stats_.sweeps;
  NetMetrics::get().sweeps.inc();
  if (dirty_resources_.empty()) return;

  const std::vector<FlowId> ids = collect_dirty_components();
  if (ids.empty()) return;

  // Bring the affected flows' byte counts to t; anything that drains in
  // the process completes after rates settle (callbacks last).
  std::vector<FlowId> drained;
  std::vector<FlowId> live;
  live.reserve(ids.size());
  for (const FlowId id : ids) {
    const auto fit = flows_.find(id);
    if (fit == flows_.end()) continue;
    Flow& f = fit->second;
    integrate_flow(id, f, t);
    if (f.remaining <= kCompletionEpsilon ||
        f.remaining <= f.rate * kTimeQuantum) {
      drained.push_back(id);
    } else {
      live.push_back(id);
    }
  }

  apply_waterfill(live, t);

  for (const FlowId id : drained) {
    if (flows_.contains(id)) finish_flow(id, t);
  }
}

}  // namespace wadp::net
