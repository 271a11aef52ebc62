// Grid-scale scenario generator: seeded random topologies and
// synthetic flow drivers.
//
// The paper's world is the three-site testbed; the grid the ROADMAP
// targets is hundreds of sites and thousands of links.  This module
// generalizes the hard-coded Testbed construction into two pieces:
//
//   * TopologyBuilder — accumulates sites and links (by hand, or via
//     random_grid(): a seeded random *connected* graph built from a
//     random recursive spanning tree plus extra uniformly drawn edges)
//     and materializes a frozen net::GridTopology.  Like the Testbed,
//     load-process seeds are drawn from one seeder in insertion order,
//     so a given (layout, seed) pair is bit-reproducible.
//
//   * GridWorld — owns the simulated world (event core, topology,
//     fluid engine in lazy/incremental mode) and drives a synthetic
//     traffic scenario over it: uniform Poisson arrivals, a flash
//     crowd converging on one hot sink site, or diurnally modulated
//     arrivals correlated across sites.  This is the workload behind
//     `wadp simgrid` and bench_netsim.
//
// The calibrated paper testbed stays on the spec-driven Testbed class
// (net::Topology with per-direction PathModels) — its records must
// reproduce bit-identically; the grid world is the scale path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/types.hpp"

namespace wadp::workload {

/// Parameters of a seeded random grid.  Link capacities are drawn
/// log-uniformly (each decade equally likely, like real WAN tiers),
/// hop RTTs uniformly.
struct GridSpec {
  std::size_t sites = 100;
  /// Total undirected links; must be >= sites - 1 (connectivity) and is
  /// capped at the complete graph.
  std::size_t links = 1000;
  SimTime origin = 0.0;                    ///< simulation start
  Bandwidth min_capacity = 12'500'000.0;   ///< 12.5 MB/s (paper-class)
  Bandwidth max_capacity = 125'000'000.0;  ///< 125 MB/s (backbone-class)
  Duration min_rtt = 0.002;                ///< per-hop round trip
  Duration max_rtt = 0.040;
  /// Background-load template applied to every link; each link's
  /// process gets its own seed.
  net::LoadParams load;
};

/// Builds a net::GridTopology from accumulated sites and links.
class TopologyBuilder {
 public:
  TopologyBuilder& add_site(std::string name);
  TopologyBuilder& add_link(std::string a, std::string b,
                            net::LinkParams params);

  /// Appends a seeded random connected grid per `spec`: sites named
  /// "s0".."sN-1", a random recursive spanning tree (site i attaches to
  /// a uniform earlier site — connected by construction), then extra
  /// uniformly drawn distinct pairs up to the link budget.
  TopologyBuilder& random_grid(const GridSpec& spec, std::uint64_t seed);

  /// Materializes the frozen topology.  Each link's load process is
  /// seeded from one seeder in insertion order (the Testbed's
  /// convention), anchored at `origin`.
  std::unique_ptr<net::GridTopology> build(std::uint64_t seed,
                                           SimTime origin) const;

  std::size_t site_count() const { return sites_.size(); }
  std::size_t link_count() const { return links_.size(); }

 private:
  struct PendingLink {
    std::string a;
    std::string b;
    net::LinkParams params;
  };
  std::vector<std::string> sites_;
  std::vector<PendingLink> links_;
};

/// Synthetic traffic shapes.
enum class Scenario {
  kUniform,     ///< homogeneous Poisson arrivals, uniform site pairs
  kFlashCrowd,  ///< arrival burst converging on one hot sink site
  kDiurnal,     ///< arrival rate follows a shared time-of-day cycle
};

const char* scenario_name(Scenario scenario);
std::optional<Scenario> parse_scenario(std::string_view name);

struct ScenarioConfig {
  Scenario scenario = Scenario::kUniform;
  Duration duration = 600.0;          ///< simulated seconds
  double arrivals_per_second = 20.0;  ///< mean flow arrival rate
  Bytes min_size = 1 * kMB;           ///< log-uniform size draw
  Bytes max_size = 1000 * kMB;
  int streams = 8;
  /// Arrivals beyond this many concurrent flows are shed (counted).
  std::size_t max_concurrent = 50'000;
  /// Flash crowd: [flash_after, flash_after + flash_duration) from the
  /// scenario start runs at flash_multiplier x the base rate, every
  /// arrival sinking at one randomly chosen hot site.
  Duration flash_after = 120.0;
  Duration flash_duration = 60.0;
  double flash_multiplier = 10.0;
  /// Diurnal: rate scaled by 1 + amplitude*cos anchored at peak hour
  /// (shared clock — correlated across all sites, floor 0.05).
  double diurnal_amplitude = 0.8;
  double diurnal_peak_hour = 14.0;
  /// Fraction of arrivals routed over one randomly chosen link (source
  /// and sink are its endpoints).  Localized traffic keeps sharing
  /// components small — the regime incremental allocation targets;
  /// 0 = all site pairs uniform.
  double locality = 0.0;
  /// Lookahead window handed to Simulator::run_batch per iteration.
  Duration batch_horizon = 1.0;
  /// Health-plane hook: when > 0, `health_tick(now)` fires every
  /// `health_interval` simulated seconds for the scenario's duration —
  /// the caller points it at MetricsRecorder::scrape +
  /// HealthMonitor::evaluate.  A generic callback keeps workload/ free
  /// of an obs dependency choice; it observes, never steers.
  Duration health_interval = 0.0;
  std::function<void(SimTime now)> health_tick;
};

/// A self-contained grid-scale world: event core + random topology +
/// fluid engine, defaulting to the lazy/incremental configuration
/// (per-event cost proportional to the touched component).
class GridWorld {
 public:
  /// Lazy progress — the grid-scale mode.
  static net::EngineConfig default_engine_config();

  GridWorld(const GridSpec& spec, std::uint64_t seed,
            net::EngineConfig engine_config = default_engine_config());

  GridWorld(const GridWorld&) = delete;
  GridWorld& operator=(const GridWorld&) = delete;

  sim::Simulator& sim() { return sim_; }
  net::FluidEngine& engine() { return engine_; }
  net::GridTopology& topology() { return *topology_; }

  struct Summary {
    std::uint64_t flows_started = 0;
    std::uint64_t flows_completed = 0;
    std::uint64_t flows_shed = 0;       ///< dropped at max_concurrent
    std::size_t peak_concurrent = 0;
    std::size_t active_at_end = 0;
    double bytes_moved = 0.0;           ///< completed flows' bytes
    Duration sim_elapsed = 0.0;
    std::uint64_t wall_ms = 0;
    net::GridTopology::UtilizationSummary utilization;
    net::FluidEngine::AllocStats alloc;
  };

  /// Drives one scenario from the current simulated instant for
  /// `scenario.duration`, batching the event core through run_batch.
  /// Flows still active at the end are left running (counted in
  /// active_at_end); allocator stats are engine totals since
  /// construction.
  Summary run(const ScenarioConfig& scenario, std::uint64_t seed);

 private:
  sim::Simulator sim_;
  std::unique_ptr<net::GridTopology> topology_;
  net::FluidEngine engine_;
};

}  // namespace wadp::workload
