// Fluid-flow transfer engine.
//
// FluidEngine simulates concurrent data flows over shared resources
// (paths, grid links, storage ports) using a piecewise-constant fluid
// model: between "re-evaluation instants" every flow moves bytes at a
// constant rate; rates are recomputed by weighted max-min fair
// allocation whenever anything changes — a flow starts or finishes, a
// stream's slow-start window doubles, or a resource's background load
// steps to a new grid value.
//
// The allocation honours, per flow:
//   * a rate cap from TCP:  streams * min(cwnd(t), buffer) / rtt
//     (the slow-start ramp, then the window-limited ceiling);
//   * its weighted share of every resource it crosses.  The weight on
//     wide-area segments equals the stream count — the reason GridFTP
//     opens parallel streams is precisely to claim a larger share of a
//     congested link — and 1 on storage ports.
//
// Weighted max-min decomposes exactly across connected components of
// the flow<->resource sharing graph: flows in different components
// never compete, so a change confined to one component cannot move any
// rate outside it.  The engine exploits that to make reallocation
// *incremental*: every change (arrival, completion, ramp step, load
// step) marks the resources it touches dirty, and only the connected
// components reached from dirty resources are waterfilled again.  That
// is the engine's one allocation path.  compare_with_reference() is the
// oracle hook: it waterfills every active flow globally into scratch
// and counts rates that differ from the live ones — the equivalence
// tests call it at every settled instant, and bench_netsim times it as
// the global-recompute baseline.
//
// Two progress-bookkeeping modes:
//   * eager (default) — every advance integrates every flow, and one
//     pending wake-up covers the earliest completion/ramp/load instant.
//     This is the original engine's schedule, kept bit-identical so the
//     calibrated paper testbed reproduces its records exactly.
//   * lazy (EngineConfig::lazy_progress) — per-flow completion and ramp
//     events, per-resource load events, and same-instant dirty-set
//     coalescing ("sweep") localize each event's cost to its component.
//     This is the grid-scale mode: cost per event is proportional to
//     the affected component, not to the total flow count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/path.hpp"
#include "net/provider.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace wadp::net {

using FlowId = std::uint64_t;

/// Completion statistics delivered to the flow's callback.
struct FlowStats {
  FlowId id = 0;
  SimTime start = 0.0;
  SimTime end = 0.0;
  Bytes bytes = 0;
  Duration duration() const { return end - start; }
  Bandwidth bandwidth() const {
    return duration() > 0.0 ? static_cast<double>(bytes) / duration() : 0.0;
  }
};

struct FlowSpec {
  /// The wide-area route: either a single PathModel (paper testbed) or
  /// an explicit link list (grid routes).  Exactly one must be set.
  PathModel* path = nullptr;
  /// Multi-segment route: each link is a shared resource the flow
  /// crosses with weight = streams.  Used when `path` is null.
  std::vector<CapacityProvider*> links;
  /// TCP parameters and end-to-end RTT for link-routed flows (ignored
  /// when `path` is set — the path carries both).
  TcpParams tcp;
  Duration base_rtt = 0.05;
  /// Additional unit-weight resources the flow crosses (storage ports).
  std::vector<CapacityProvider*> extra_resources;
  int streams = 1;
  Bytes buffer = kTunedTcpBuffer;  ///< per-stream socket buffer
  Bytes size = 0;                  ///< bytes to move (> 0)
  std::function<void(const FlowStats&)> on_complete;  ///< may be empty
};

struct EngineConfig {
  /// Per-flow/per-resource events instead of the eager single wake.
  bool lazy_progress = false;
};

class FluidEngine {
 public:
  explicit FluidEngine(sim::Simulator& sim, EngineConfig config = {})
      : sim_(sim), config_(config) {}

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Starts a flow now.  The completion callback fires from simulator
  /// context when the last byte moves.
  FlowId start_flow(FlowSpec spec);

  /// Aborts an active flow without invoking its callback.  Returns
  /// false when the flow already completed or never existed.
  bool cancel_flow(FlowId id);

  std::size_t active_flows() const { return flows_.size(); }

  /// Current allocated rate of an active flow (bytes/s); 0 if unknown.
  Bandwidth current_rate(FlowId id) const;

  /// Instantaneous progress of an active flow (advances internal
  /// bookkeeping to now first, which in eager mode may complete other
  /// flows whose callbacks then fire).  nullopt once the flow completed
  /// or never existed.  Basis for GridFTP performance markers.
  struct FlowProgress {
    Bytes moved = 0;
    Bytes total = 0;
    Bandwidth rate = 0.0;
  };
  std::optional<FlowProgress> progress(FlowId id);

  /// Aborts an active flow like cancel_flow but returns how far it got
  /// — the basis for partial-transfer failure records when a data
  /// channel is truncated or times out.  nullopt when the flow already
  /// completed (its callback has fired or is firing) or never existed.
  std::optional<FlowProgress> interrupt_flow(FlowId id);

  /// Total flows completed since construction (for tests/metrics).
  std::uint64_t completed_flows() const { return completed_; }

  /// Allocator cost accounting (bench / property tests).
  struct AllocStats {
    std::uint64_t reallocs = 0;       ///< waterfill passes
    std::uint64_t components = 0;     ///< dirty components recomputed
    std::uint64_t flows_touched = 0;  ///< flow entries across passes
    std::uint64_t sweeps = 0;         ///< lazy-mode coalescing sweeps
    std::uint64_t alloc_ns = 0;       ///< wall time in applied waterfills
  };
  const AllocStats& alloc_stats() const { return stats_; }

  /// Waterfills every active flow globally into a scratch buffer and
  /// returns how many live rates differ from it.  The oracle hook for
  /// tests and bench_netsim.  Between
  /// same-instant events (before the pending reallocation has run) the
  /// live rates may legitimately lag.
  std::size_t compare_with_reference() const;

 private:
  struct Flow {
    FlowSpec spec;
    SimTime start = 0.0;
    double remaining = 0.0;  ///< fluid bytes left
    Bandwidth rate = 0.0;    ///< current allocation
    int ramp_rtts_total = 0; ///< re-evaluations needed to finish slow start
    /// RTT including queueing delay, sampled when the flow starts.  The
    /// connection's self-clocking is set up in its first round trips, so
    /// the load level at establishment dominates its ramp behaviour.
    Duration rtt = 0.0;
    TcpParams tcp;           ///< copied from path or spec at start
    double cached_cap = -1.0;  ///< flow_cap at the last waterfill
    // Lazy mode only.
    SimTime integrated_to = 0.0;
    sim::EventId completion_ev = 0;
    sim::EventId ramp_ev = 0;
  };

  struct ResourceState {
    std::vector<FlowId> members;
    double capacity_cached = -1.0;  ///< capacity_at at last dirty scan
    std::uint64_t visit_mark = 0;   ///< BFS epoch
    bool dirty = false;
    sim::EventId load_ev = 0;  ///< lazy mode: next load-grid step
  };

  /// Invokes fn(provider, weight) for each resource the flow crosses,
  /// in canonical order: path/links (weight = streams), then extras
  /// (weight = 1).
  template <typename Fn>
  static void for_each_resource(const Flow& f, Fn&& fn);

  // -- shared bookkeeping --------------------------------------------
  void register_flow(FlowId id, Flow&& flow);
  /// Removes the flow from resource membership, marks its resources
  /// dirty, and (lazy mode) cancels its events.  Does not erase it from
  /// flows_.
  void unlink_flow(FlowId id, Flow& f);
  void mark_resources_dirty(const Flow& f);

  /// Weighted max-min over `ids` (ascending FlowId order expected):
  /// `rates[i]` is the rate of flow `ids[i]` at `t`.
  void waterfill(const std::vector<FlowId>& ids, SimTime t,
                 std::vector<double>& rates) const;
  /// Waterfills `ids` and stores the rates (lazy mode: re-arms the
  /// completion of every flow whose rate moved), then accounts the pass
  /// in AllocStats and NetMetrics and reports it to the resources.
  /// No-op for an empty set.
  void apply_waterfill(const std::vector<FlowId>& ids, SimTime t);

  /// Recomputes the connected components reached from dirty resources
  /// (eager mode).  No-op when nothing is dirty.
  void realloc_dirty(SimTime t);
  /// Expands dirty resources to full components and clears the dirty
  /// set; returns member flow ids ascending.
  std::vector<FlowId> collect_dirty_components();
  /// Reports allocation sums to the touched resources' on_allocation.
  void report_allocations(const std::vector<FlowId>& ids, SimTime t);

  // -- eager mode ----------------------------------------------------
  /// Moves bytes for the elapsed interval and completes finished flows.
  void advance_to(SimTime t);
  /// Marks resources whose capacity changed and flows whose TCP cap
  /// changed since the last waterfill (eager wake-ups).
  void scan_for_changes(SimTime t);
  /// Schedules the next wake-up (completion / ramp step / load change).
  void schedule_next();
  void wake();

  // -- lazy mode -----------------------------------------------------
  void request_sweep();
  void sweep();
  void integrate_flow(FlowId id, Flow& f, SimTime t);
  /// (Re)schedules the flow's completion event from its current rate.
  void arm_completion(FlowId id, Flow& f);
  void arm_ramp(FlowId id, Flow& f);
  void arm_load_event(CapacityProvider* resource, ResourceState& state);
  /// Completes the flow at `t` (records stats, unlinks, erases) and
  /// fires its callback.
  void finish_flow(FlowId id, SimTime t);

  /// Per-flow instantaneous cap from TCP ramp + window limit.
  Bandwidth flow_cap(const Flow& f, SimTime t) const;

  sim::Simulator& sim_;
  EngineConfig config_;
  std::map<FlowId, Flow> flows_;  // ordered: deterministic iteration
  std::unordered_map<CapacityProvider*, ResourceState> resources_;
  std::vector<CapacityProvider*> dirty_resources_;
  FlowId next_id_ = 1;
  SimTime last_update_ = 0.0;
  sim::EventId pending_wake_ = 0;
  bool sweep_pending_ = false;
  std::uint64_t visit_epoch_ = 0;
  std::uint64_t completed_ = 0;
  AllocStats stats_;
};

}  // namespace wadp::net
