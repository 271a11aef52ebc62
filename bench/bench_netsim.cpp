// Grid-scale network fabric bench: event core + incremental max-min
// allocation at 100 sites / 1000 links / >= 10k concurrent flows.
//
// Runs one localized-traffic scenario on a seeded random grid with the
// lazy fluid engine.  Every allocator pass waterfills only the dirty
// connected component; a periodic task on the simulator additionally
// times FluidEngine::compare_with_reference() — a global recompute of
// every active flow, the pre-refactor cost — every few simulated
// seconds.  The speedup gate compares the two on a per-pass basis, so
// the claim is measured in-bench, not assumed.
//
// Enforced by exit code:
//   * scale: >= 100 sites, >= 1000 links, >= 10k peak concurrent flows;
//   * >= 10 timed reference samples, and incremental reallocation
//     >= 10x faster per pass than the reference global recompute;
//   * conservation: flows started == completed + still active + shed.
//
// Emits BENCH_netsim.json (uploaded as a CI artifact).
#include "common.hpp"

#include <chrono>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "workload/gridworld.hpp"

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

  int failures = 0;
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
