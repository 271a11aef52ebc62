// Grid-scale network fabric bench: event core + incremental max-min
// allocation, in two tiers.
//
// Tier 1 (locality 1.0) runs one localized-traffic scenario on a
// seeded 100-site / 1000-link grid with >= 10k concurrent flows and the
// lazy fluid engine.  Every allocator pass waterfills only the dirty
// connected component; a periodic task on the simulator additionally
// times FluidEngine::compare_with_reference() — a global recompute of
// every active flow — every few simulated seconds.  The speedup gate
// compares the two on a per-pass basis, so the claim is measured
// in-bench, not assumed.
//
// Tier 2 (locality 0) runs the default `wadp simgrid` scenario (24
// sites, 60 links, uniform site pairs, 120 simulated seconds, same
// seeds, without the health plane): one large sharing component, so
// every pass waterfills hundreds of flows.  It reports wall time, ns per
// flow-entry and waterfill entry visits per flow-entry.
//
// Enforced by exit code:
//   * scale: >= 100 sites, >= 1000 links, >= 10k peak concurrent flows;
//   * >= 10 timed reference samples, and incremental reallocation
//     >= 10x faster per pass than the reference global recompute;
//   * conservation: flows started == completed + still active + shed;
//   * locality 0: <= 8 waterfill entry visits per flow-entry (a
//     deterministic count; a round-based waterfill reads every entry
//     once per round, ~32 visits per flow-entry here).
//
// Emits BENCH_netsim.json (uploaded as a CI artifact).
#include "common.hpp"

#include <chrono>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "workload/gridworld.hpp"

namespace {

/// `wadp simgrid`'s default wall time when this tier was added (24,798
/// reallocs over 16.1M flow-entries, 513M waterfill entry visits).
constexpr double kRoundBasedWallS = 21.9;
constexpr double kWallTarget = 5.0;          // x faster than that
constexpr double kMaxVisitsPerEntry = 8.0;

/// Runs the default `wadp simgrid` scenario; returns gate failures.
int run_locality0_tier() {
  using namespace wadp;
  workload::GridSpec spec;
  spec.sites = 24;
  spec.links = 60;
  constexpr std::uint64_t kSimgridSeed = 42;  // `wadp simgrid` default
  workload::GridWorld world(spec, kSimgridSeed);
  workload::ScenarioConfig scenario;
  scenario.duration = 120.0;
  const auto summary = world.run(scenario, kSimgridSeed ^ 0x5ce0ULL);
  const auto& alloc = summary.alloc;

  const double entries = static_cast<double>(alloc.flows_touched);
  const double visits_per_entry =
      entries > 0.0 ? static_cast<double>(alloc.waterfill_visits) / entries
                    : 0.0;
  const double ns_per_entry =
      entries > 0.0 ? static_cast<double>(alloc.alloc_ns) / entries : 0.0;
  const double wall_s = static_cast<double>(summary.wall_ms) / 1e3;
  const double vs_round_based = wall_s > 0.0 ? kRoundBasedWallS / wall_s : 0.0;

  std::printf("\nlocality 0 (default `wadp simgrid`): %zu sites  %zu links  "
              "sim %.0f s\n",
              world.topology().site_count(), world.topology().link_count(),
              summary.sim_elapsed);
  std::printf("allocator: %llu passes, %.0f flow-entries (mean component "
              "%.1f flows)\n",
              static_cast<unsigned long long>(alloc.reallocs), entries,
              alloc.reallocs > 0
                  ? entries / static_cast<double>(alloc.reallocs)
                  : 0.0);
  std::printf("cost: wall %.2f s, %.1f ns per flow-entry, %.2f waterfill "
              "visits per flow-entry (gate <= %.0f)\n",
              wall_s, ns_per_entry, visits_per_entry, kMaxVisitsPerEntry);
  std::printf("wall vs the %.1f s round-based baseline: %.1fx (target "
              "%.0fx) -- informational: that baseline is one wall time "
              "from one host, so it cannot gate a run on another; the "
              "visit count is the deterministic gate\n",
              kRoundBasedWallS, vs_round_based, kWallTarget);

  auto& registry = obs::Registry::global();
  registry
      .gauge("wadp_bench_netsim_local0_wall_seconds", {},
             "Locality-0 scenario wall time (s)")
      .set(wall_s);
  registry
      .gauge("wadp_bench_netsim_local0_entry_ns", {},
             "Locality-0 applied waterfill cost per flow-entry (ns)")
      .set(ns_per_entry);
  registry
      .gauge("wadp_bench_netsim_local0_visits_ratio", {},
             "Locality-0 waterfill entry visits per flow-entry")
      .set(visits_per_entry);

  int failures = 0;
  if (!(visits_per_entry > 0.0) || visits_per_entry > kMaxVisitsPerEntry) {
    std::fprintf(stderr,
                 "FAIL: %.2f waterfill visits per flow-entry at locality 0 "
                 "(need <= %.0f)\n",
                 visits_per_entry, kMaxVisitsPerEntry);
    ++failures;
  }
  if (summary.flows_started !=
      summary.flows_completed + summary.active_at_end) {
    std::fprintf(stderr, "FAIL: locality-0 flow conservation violated\n");
    ++failures;
  }
  return failures;
}

}  // namespace

int main() {
  using namespace wadp;
  bench::banner("bench_netsim: grid-scale fabric",
                "scales the paper's 3-site fluid model to a data grid "
                "(incremental max-min over dirty components)");

  workload::GridSpec spec;
  spec.sites = 100;
  spec.links = 1000;

  workload::GridWorld world(spec, bench::kSeed);

  workload::ScenarioConfig scenario;
  scenario.duration = 60.0;
  scenario.arrivals_per_second = 300.0;
  scenario.locality = 1.0;  // single-link flows: components stay small
  scenario.min_size = 100 * kMB;
  scenario.max_size = 1000 * kMB;
  scenario.max_concurrent = 12'000;

  // Sparse sampling: one reference recompute is O(active flows x
  // waterfill rounds) — at 10k+ flows it costs ~4-5 orders of magnitude
  // more than an incremental pass, which is the point.  Timing only: a
  // tick may land between same-instant events, before the pending
  // reallocation has run, so its mismatch count is not a verdict (the
  // allocator equivalence tests check settled instants).
  struct ReferenceSamples {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
    std::uint64_t flows = 0;
  } reference;
  sim::PeriodicTask sampler(
      world.sim(), /*period=*/2.0,
      [&] {
        const auto begin = std::chrono::steady_clock::now();
        world.engine().compare_with_reference();
        reference.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count());
        reference.flows += world.engine().active_flows();
        ++reference.count;
      },
      /*immediate=*/false, /*until=*/world.sim().now() + scenario.duration);

  const auto summary = world.run(scenario, bench::kSeed);
  const auto& alloc = summary.alloc;

  const double inc_ns_per_pass =
      alloc.reallocs > 0
          ? static_cast<double>(alloc.alloc_ns) /
                static_cast<double>(alloc.reallocs)
          : 0.0;
  const double ref_ns_per_pass =
      reference.count > 0 ? static_cast<double>(reference.ns) /
                                static_cast<double>(reference.count)
                          : 0.0;
  const double speedup =
      inc_ns_per_pass > 0.0 ? ref_ns_per_pass / inc_ns_per_pass : 0.0;
  const double mean_component_flows =
      alloc.reallocs > 0 ? static_cast<double>(alloc.flows_touched) /
                               static_cast<double>(alloc.reallocs)
                         : 0.0;
  const double ref_mean_flows =
      reference.count > 0 ? static_cast<double>(reference.flows) /
                                static_cast<double>(reference.count)
                          : 0.0;

  std::printf("sites %zu  links %zu  sim %.0f s  wall %llu ms\n",
              world.topology().site_count(), world.topology().link_count(),
              summary.sim_elapsed,
              static_cast<unsigned long long>(summary.wall_ms));
  std::printf("flows: started %llu  completed %llu  shed %llu  peak %zu  "
              "at-end %zu\n",
              static_cast<unsigned long long>(summary.flows_started),
              static_cast<unsigned long long>(summary.flows_completed),
              static_cast<unsigned long long>(summary.flows_shed),
              summary.peak_concurrent, summary.active_at_end);
  std::printf("allocator: %llu passes, mean component %.1f flows "
              "(reference recomputes %.0f)\n",
              static_cast<unsigned long long>(alloc.reallocs),
              mean_component_flows, ref_mean_flows);
  std::printf("cost: incremental %.0f ns/pass, reference %.0f ns/pass "
              "=> speedup %.1fx\n",
              inc_ns_per_pass, ref_ns_per_pass, speedup);
  std::printf("link utilization: max %.1f%%  mean %.1f%%\n",
              summary.utilization.max * 100.0,
              summary.utilization.mean * 100.0);

  int failures = run_locality0_tier();

  auto& registry = obs::Registry::global();
  registry.gauge("wadp_bench_netsim_sites", {}, "Grid sites simulated")
      .set(static_cast<double>(world.topology().site_count()));
  registry.gauge("wadp_bench_netsim_links", {}, "Grid links simulated")
      .set(static_cast<double>(world.topology().link_count()));
  registry
      .gauge("wadp_bench_netsim_peak_flows", {}, "Peak concurrent flows")
      .set(static_cast<double>(summary.peak_concurrent));
  registry
      .gauge("wadp_bench_netsim_incremental_ns_per_pass", {},
             "Mean applied waterfill cost per allocator pass (ns)")
      .set(inc_ns_per_pass);
  registry
      .gauge("wadp_bench_netsim_reference_ns_per_pass", {},
             "Mean reference global-recompute cost per sample (ns)")
      .set(ref_ns_per_pass);
  registry
      .gauge("wadp_bench_netsim_speedup", {},
             "Reference / incremental per-pass cost ratio")
      .set(speedup);
  registry
      .gauge("wadp_bench_netsim_wall_ms", {}, "Scenario wall time (ms)")
      .set(static_cast<double>(summary.wall_ms));
  const auto written =
      obs::write_bench_json("BENCH_netsim.json", "netsim", registry);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.error().c_str());
    return 1;
  }
  std::printf("wrote BENCH_netsim.json\n");

  if (world.topology().site_count() < 100 ||
      world.topology().link_count() < 1000) {
    std::fprintf(stderr, "FAIL: scale gate (%zu sites, %zu links)\n",
                 world.topology().site_count(),
                 world.topology().link_count());
    ++failures;
  }
  if (summary.peak_concurrent < 10'000) {
    std::fprintf(stderr, "FAIL: peak concurrency %zu < 10000\n",
                 summary.peak_concurrent);
    ++failures;
  }
  if (reference.count < 10) {
    std::fprintf(stderr,
                 "FAIL: only %llu reference samples timed (need >= 10)\n",
                 static_cast<unsigned long long>(reference.count));
    ++failures;
  }
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: incremental allocation only %.1fx faster than the "
                 "reference global recompute (need >= 10x)\n",
                 speedup);
    ++failures;
  }
  if (summary.flows_started !=
      summary.flows_completed + summary.active_at_end) {
    std::fprintf(stderr, "FAIL: flow conservation violated\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
