// Property tests for the incremental max-min allocator: under ANY
// randomized mix of flow arrivals, cancellations, and background-load
// steps — on the paper's three-site topology and on multi-hop grid
// routes — the dirty-component allocator must hold rates bit-identical
// to a global recompute (FluidEngine::compare_with_reference) at every
// settled instant.  Weighted max-min decomposes exactly across
// connected components, so any divergence is a bug, not float noise.
// Rates that agree at every settled instant give the same trajectory,
// because every wake-up depends only on rates.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/fabric.hpp"
#include "net/path.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/gridworld.hpp"

namespace wadp::net {
namespace {

/// An instant is settled when nothing else is due within this guard.
/// elapsed_rtts() counts a round trip 1e-4·rtt early (its rounding
/// tolerance), so in the last few microseconds before a ramp event a
/// flow's cap has already doubled while its rate still waits for that
/// event to reallocate.  The guard skips those instants; it is far
/// above 1e-4 of any RTT simulated here and far below any gap between
/// real events.
constexpr Duration kSettleGuard = 100e-6;

/// Minimum settled-instant checks per run, so a scenario that quietly
/// stops producing events cannot pass vacuously.
constexpr std::size_t kMinChecks = 500;

struct OracleTally {
  std::size_t checks = 0;
  std::size_t mismatched_instants = 0;
};

/// Runs the simulator dry one event at a time and compares the live
/// rates with a global recompute at every settled instant (no live
/// event left, or the next one at least kSettleGuard away).
OracleTally run_checking_settled_instants(sim::Simulator& sim,
                                          FluidEngine& engine) {
  const SimTime origin = sim.now();
  OracleTally tally;
  while (sim.step()) {
    const auto next = sim.next_event_time();
    if (next && *next - sim.now() < kSettleGuard) continue;
    ++tally.checks;
    const std::size_t mismatches = engine.compare_with_reference();
    if (mismatches == 0) continue;
    if (tally.mismatched_instants++ == 0) {
      ADD_FAILURE() << mismatches << " of " << engine.active_flows()
                    << " flows differ from the global recompute at t=+"
                    << sim.now() - origin << " s";
    }
  }
  ::testing::Test::RecordProperty("settled_checks",
                                  static_cast<int>(tally.checks));
  return tally;
}

/// The paper testbed's wide-area geometry with a lively load process
/// (small grid step => frequent capacity steps during the horizon).
void add_paper_paths(Topology& topology, util::Rng& seeder, SimTime origin) {
  struct Wan {
    const char* a;
    const char* b;
    Duration rtt;
    Bandwidth bottleneck;
  };
  const Wan wans[] = {
      {"lbl", "anl", 0.055, 12'500'000.0},
      {"isi", "anl", 0.065, 12'500'000.0},
      {"lbl", "isi", 0.075, 11'000'000.0},
  };
  for (const Wan& wan : wans) {
    PathParams params;
    params.bottleneck = wan.bottleneck;
    params.rtt = wan.rtt;
    params.load.base = 0.38;
    params.load.ar_sigma = 0.05;
    params.load.episode_rate_per_hour = 2.0;
    params.load.episode_mean_minutes = 2.0;
    params.load.max_utilization = 0.82;
    params.load.grid_step = 10.0;  // step capacities often
    topology.add_path(wan.a, wan.b, params, seeder.next_u64(), origin);
    topology.add_path(wan.b, wan.a, params, seeder.next_u64(), origin);
  }
}

struct Completion {
  SimTime at = 0.0;
  Bytes bytes = 0;
};

/// Runs one randomized churn scenario, checking rates at every settled
/// instant, and returns completions keyed by arrival index.  The
/// schedule (arrival times, sizes, streams, cancel times) depends only
/// on `seed`, so two engine configurations see the same offered load.
std::map<int, Completion> run_churn(std::uint64_t seed, EngineConfig config,
                                    OracleTally* tally_out) {
  const SimTime origin = 1'000'000'000.0;
  sim::Simulator sim(origin);
  FluidEngine engine(sim, config);
  Topology topology;
  util::Rng seeder(seed);
  add_paper_paths(topology, seeder, origin);

  std::vector<PathModel*> paths;
  for (const char* src : {"lbl", "isi", "anl"}) {
    for (const char* dst : {"lbl", "isi", "anl"}) {
      if (PathModel* p = topology.find(src, dst)) paths.push_back(p);
    }
  }

  util::Rng rng(seed ^ 0xc4u);
  std::map<int, Completion> completions;
  const int kFlows = 48;
  for (int i = 0; i < kFlows; ++i) {
    PathModel* path = paths[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(paths.size()) - 1))];
    const auto size = static_cast<Bytes>(rng.uniform(5e5, 1.5e8));
    const auto streams = static_cast<int>(rng.uniform_int(1, 8));
    const Duration start = rng.uniform(0.0, 400.0);
    const bool cancel = rng.uniform() < 0.25;
    const Duration cancel_after = rng.uniform(0.5, 40.0);
    sim.schedule_after(start, [&, i, path, size, streams, cancel,
                               cancel_after] {
      const FlowId id =
          engine.start_flow({.path = path,
                             .streams = streams,
                             .size = size,
                             .on_complete = [&completions, i](
                                                const FlowStats& stats) {
                               completions[i] = {stats.end, stats.bytes};
                             }});
      if (cancel) {
        sim.schedule_after(cancel_after, [&engine, id] {
          engine.cancel_flow(id);  // no-op if already complete
        });
      }
    });
  }
  const OracleTally tally = run_checking_settled_instants(sim, engine);
  if (tally_out != nullptr) *tally_out = tally;
  EXPECT_GT(engine.alloc_stats().reallocs, 0u);
  return completions;
}

/// ~150 multi-hop flows over shortest-RTT routes on a 12-site/24-link
/// random grid, with cancellations; returns the oracle tally.
OracleTally run_grid_routes(std::uint64_t seed, EngineConfig config) {
  workload::GridSpec spec;
  spec.sites = 12;
  spec.links = 24;
  spec.origin = 1'000'000'000.0;
  spec.load.grid_step = 10.0;  // step capacities often
  workload::GridWorld world(spec, seed, config);
  sim::Simulator& sim = world.sim();
  FluidEngine& engine = world.engine();
  const auto& names = world.topology().site_names();
  const auto last = static_cast<std::int64_t>(names.size()) - 1;

  util::Rng rng(seed ^ 0x9e11u);
  const int kFlows = 150;
  for (int i = 0; i < kFlows; ++i) {
    const auto dst = static_cast<std::size_t>(rng.uniform_int(0, last));
    auto src = static_cast<std::size_t>(rng.uniform_int(0, last - 1));
    if (src >= dst) ++src;
    auto route = world.topology().resolve(names[src], names[dst]);
    EXPECT_TRUE(route.has_value()) << names[src] << " -> " << names[dst];
    if (!route) continue;
    const auto size = static_cast<Bytes>(rng.uniform(5e6, 8e8));
    const auto streams = static_cast<int>(rng.uniform_int(1, 8));
    const Duration start = rng.uniform(0.0, 120.0);
    const bool cancel = rng.uniform() < 0.25;
    const Duration cancel_after = rng.uniform(0.5, 30.0);
    FlowSpec flow;
    flow.links = std::move(route->links);
    flow.tcp = route->tcp;
    flow.base_rtt = route->rtt;
    flow.streams = streams;
    flow.size = size;
    sim.schedule_after(start, [&sim, &engine, flow = std::move(flow), cancel,
                               cancel_after]() mutable {
      const FlowId id = engine.start_flow(std::move(flow));
      if (cancel) {
        sim.schedule_after(cancel_after, [&engine, id] {
          engine.cancel_flow(id);  // no-op if already complete
        });
      }
    });
  }
  const OracleTally tally = run_checking_settled_instants(sim, engine);
  EXPECT_EQ(engine.active_flows(), 0u);
  return tally;
}

EngineConfig eager_config() { return {}; }

EngineConfig lazy_config() {
  EngineConfig config;
  config.lazy_progress = true;
  return config;
}

class AllocatorEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorEquivalenceTest, EagerRatesMatchGlobalRecomputeWhenSettled) {
  OracleTally tally;
  run_churn(GetParam(), eager_config(), &tally);
  EXPECT_EQ(tally.mismatched_instants, 0u);
  EXPECT_GE(tally.checks, kMinChecks);
}

TEST_P(AllocatorEquivalenceTest, LazyRatesMatchGlobalRecomputeWhenSettled) {
  OracleTally tally;
  run_churn(GetParam(), lazy_config(), &tally);
  EXPECT_EQ(tally.mismatched_instants, 0u);
  EXPECT_GE(tally.checks, kMinChecks);
}

TEST_P(AllocatorEquivalenceTest, LazyProgressMatchesEagerEndToEnd) {
  const auto eager_done = run_churn(GetParam(), eager_config(), nullptr);
  const auto lazy_done = run_churn(GetParam(), lazy_config(), nullptr);
  ASSERT_EQ(lazy_done.size(), eager_done.size());
  for (const auto& [index, completion] : lazy_done) {
    const auto it = eager_done.find(index);
    ASSERT_NE(it, eager_done.end()) << "flow " << index;
    // Lazy mode re-times wakeups but must move the same bytes at the
    // same rates: completions land within a time quantum.
    EXPECT_NEAR(completion.at, it->second.at, 1e-5) << "flow " << index;
    EXPECT_EQ(completion.bytes, it->second.bytes) << "flow " << index;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 1337u, 0xfeedu));

class GridRouteEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridRouteEquivalenceTest, EagerRatesMatchGlobalRecomputeWhenSettled) {
  const OracleTally tally = run_grid_routes(GetParam(), eager_config());
  EXPECT_EQ(tally.mismatched_instants, 0u);
  EXPECT_GE(tally.checks, kMinChecks);
}

TEST_P(GridRouteEquivalenceTest, LazyRatesMatchGlobalRecomputeWhenSettled) {
  const OracleTally tally = run_grid_routes(GetParam(), lazy_config());
  EXPECT_EQ(tally.mismatched_instants, 0u);
  EXPECT_GE(tally.checks, kMinChecks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridRouteEquivalenceTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace wadp::net
