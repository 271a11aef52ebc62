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
// components reached from dirty resources are waterfilled again, by
// MaxMinSolver.  That is the engine's one allocation path.
// compare_with_reference() is the oracle hook: it waterfills every
// active flow globally into scratch and counts rates that differ from
// the live ones — the equivalence tests call it at every settled
// instant, and bench_netsim times it as the global-recompute baseline.
//
// Storage is flat: flows and resources live in dense slots (freed
// slots are reused), every flow's crossings sit back to back in one
// shared array, and each resource keeps its member flows.  The
// provider -> slot hash lookup happens once per flow start; component
// search and reallocation run on slot indices and epoch stamps only.
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
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
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

/// Weighted max-min fair allocation of one sharing component, in flat
/// form.  Load a problem with add_flow()/cross(), then solve() it with
/// the capacities of resources() in that order; rates()[i] is the rate
/// of the i-th flow added.
///
/// The result is the classic round-based waterfill's, bit for bit.
/// Every round finds the least tentative rate over unfixed flows —
/// min(TCP cap, min over crossings of residual * weight / pool) — fixes
/// every flow within a relative 1e-12 (+1e-9) of it, and subtracts
/// their rates from the residuals of the resources they cross, in flow
/// order.  It is incremental instead of re-scanning every flow each
/// round: pool weights are decremented as flows fix, and a round
/// evaluates only its candidates — flows whose cap, or whose share on
/// some resource, is under the threshold (see solve()).  The
/// round-based loop it replaces is kept as a test oracle.
class MaxMinSolver {
 public:
  /// Drops the loaded problem (scratch capacity is kept for the next).
  void clear();
  /// Appends the next flow, with its TCP rate cap.
  void add_flow(Bandwidth cap);
  /// The last added flow crosses resource `id` (any small dense integer)
  /// with `weight` (an integer value >= 1).  Resources are numbered in
  /// first-touch order.
  void cross(std::uint32_t id, double weight);

  /// Resource ids in first-touch order.
  const std::vector<std::uint32_t>& resources() const { return res_ids_; }
  /// Waterfills the loaded problem; `capacity[i]` is the capacity of
  /// resources()[i].  Returns the entry slots the round loop read.
  std::uint64_t solve(const std::vector<double>& capacity);
  const std::vector<double>& rates() const { return rate_; }
  const std::vector<double>& caps() const { return cap_; }
  /// Sum of solved rates per resource (indexed like resources()),
  /// accumulated in flow order then crossing order.
  const std::vector<double>& resource_sums();

 private:
  struct Member {
    std::uint32_t flow;
    double weight;
  };

  // Loaded problem: per-flow cap and crossings (CSR, local resource
  // index + weight).
  std::vector<double> cap_;
  std::vector<std::uint32_t> flow_begin_{0};
  std::vector<std::uint32_t> cross_res_;
  std::vector<double> cross_weight_;
  std::vector<std::uint32_t> res_ids_;
  // Global id -> local index, valid where stamp == problem_.
  std::vector<std::uint32_t> local_of_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t problem_ = 1;

  // Solve state.
  std::vector<double> rate_;
  std::vector<std::uint8_t> fixed_;
  std::vector<std::uint32_t> round_mark_;
  std::vector<std::uint32_t> cap_heap_;
  std::vector<double> residual_;
  std::vector<double> pool_;
  std::vector<double> share_;     // per round: residual * lightest / pool
  std::vector<double> lightest_;  // weight of the member at head_
  std::vector<std::uint32_t> res_mark_;  // round a resource was touched
  std::vector<std::uint32_t> member_begin_;  // resource -> members (CSR)
  std::vector<Member> members_;              // ascending weight per resource
  std::vector<std::uint32_t> head_;          // first member not yet fixed
  std::vector<std::uint32_t> live_;          // resources with unfixed members
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> candidates_;
  std::vector<double> sums_;
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

  std::size_t active_flows() const { return active_; }

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
    /// Entry slots the waterfill round loop read across applied passes,
    /// fixed entries included (MaxMinSolver::solve's return value).
    std::uint64_t waterfill_visits = 0;
  };
  const AllocStats& alloc_stats() const { return stats_; }

  /// Waterfills every active flow globally into a scratch buffer and
  /// returns how many live rates differ from it.  The oracle hook for
  /// tests and bench_netsim.  Between
  /// same-instant events (before the pending reallocation has run) the
  /// live rates may legitimately lag.
  std::size_t compare_with_reference() const;

 private:
  using Slot = std::uint32_t;

  /// One resource a flow crosses: its slot, the flow's weight on it,
  /// and the flow's position in that resource's member list.
  struct Crossing {
    Slot resource;
    std::uint32_t member_pos;
    double weight;
  };

  /// The fields component search reads, kept apart from Flow so the
  /// search walks a dense array.
  struct FlowHead {
    FlowId id = 0;  ///< 0 while the slot is free
    std::uint64_t visit_mark = 0;  ///< component-search epoch
    /// Resources crossed: crossings_[cross_begin, +cross_count), in
    /// canonical order — path/links (weight = streams), then extras
    /// (weight = 1).  Fixed at start.
    std::uint32_t cross_begin = 0;
    std::uint32_t cross_count = 0;
  };

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

  struct Member {
    Slot flow;
    std::uint32_t crossing;  ///< index into the flow's crossings
  };

  struct Resource {
    CapacityProvider* provider = nullptr;  ///< null while the slot is free
    std::vector<Member> members;
    double capacity_cached = -1.0;  ///< capacity_at at last dirty scan
    std::uint64_t visit_mark = 0;   ///< component-search epoch
    bool dirty = false;
    sim::EventId load_ev = 0;  ///< lazy mode: next load-grid step
  };

  /// (FlowId, slot) of one flow; sorting by the first member gives the
  /// ascending-FlowId order every float and callback sequence uses.
  using FlowRef = std::pair<FlowId, Slot>;

  bool live(const FlowRef& ref) const {
    return heads_[ref.second].id == ref.first;
  }
  std::span<const Crossing> crossings(Slot slot) const {
    const FlowHead& head = heads_[slot];
    return {crossings_.data() + head.cross_begin, head.cross_count};
  }
  /// Slot of an active flow, or nullopt.
  std::optional<Slot> find_flow(FlowId id) const;

  // -- shared bookkeeping --------------------------------------------
  void register_flow(FlowId id, Flow&& flow);
  /// Removes the flow from resource membership (freeing resources left
  /// without members), marks its resources dirty, and (lazy mode)
  /// cancels its events.  Does not free the flow slot.
  void unlink_flow(Slot slot);
  /// Frees an unlinked flow's slot.
  void release_flow(Slot slot);
  /// Drops the entries of freed flows from order_ and their crossings
  /// from crossings_.
  void compact();
  void mark_dirty(Slot resource);
  void mark_resources_dirty(Slot slot);

  /// Waterfills `component` (ascending FlowId) and stores the rates
  /// (lazy mode: re-arms the completion of every flow whose rate
  /// moved), then accounts the pass in AllocStats and NetMetrics and
  /// reports per-resource sums to the providers.  No-op when empty.
  void apply_waterfill(const std::vector<FlowRef>& component, SimTime t);

  /// Recomputes the connected components reached from dirty resources
  /// (eager mode).  No-op when nothing is dirty.
  void realloc_dirty(SimTime t);
  /// Expands dirty resources to full components into `component_`
  /// (ascending FlowId) and clears the dirty set.
  void collect_dirty_components();

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
  static void integrate_flow(Flow& f, SimTime t);
  /// (Re)schedules the flow's completion event from its current rate.
  void arm_completion(Slot slot);
  void arm_ramp(Slot slot);
  void arm_load_event(Slot resource);
  /// Completes the flow at `t` (records stats, unlinks, frees) and
  /// fires its callback.
  void finish_flow(Slot slot, SimTime t);

  /// Per-flow instantaneous cap from TCP ramp + window limit.
  static Bandwidth flow_cap(const Flow& f, SimTime t);

  sim::Simulator& sim_;
  EngineConfig config_;
  std::vector<FlowHead> heads_;  // indexed by slot, like flows_
  std::deque<Flow> flows_;       // grows without moving or over-reserving
  std::vector<Slot> free_flows_;
  std::unordered_map<FlowId, Slot> flow_slots_;
  /// Every active flow in ascending FlowId order, plus entries of flows
  /// gone since the last compact() (see live()).
  std::vector<FlowRef> order_;
  /// Crossing arrays of every flow, back to back; freed flows leave
  /// garbage that compact() drops.
  std::vector<Crossing> crossings_;
  std::size_t crossing_garbage_ = 0;
  std::size_t active_ = 0;
  std::vector<Resource> resources_;
  std::vector<Slot> free_resources_;
  std::unordered_map<CapacityProvider*, Slot> resource_slots_;
  std::vector<Slot> dirty_resources_;
  // Reallocation scratch.
  std::vector<FlowRef> component_;
  std::vector<FlowRef> live_refs_;
  std::vector<Slot> stack_;
  std::vector<double> capacity_;
  MaxMinSolver solver_;
  FlowId next_id_ = 1;
  SimTime last_update_ = 0.0;
  sim::EventId pending_wake_ = 0;
  bool sweep_pending_ = false;
  std::uint64_t visit_epoch_ = 0;
  std::uint64_t completed_ = 0;
  AllocStats stats_;
};

}  // namespace wadp::net
