// Bit-identity of MaxMinSolver against the round-based reference
// waterfill (reference_waterfill.hpp) over seeded random components.
//
// The components mix what the fluid engine feeds the solver: link
// crossings weighted by a flow's stream count (1-8) and unit-weight
// storage ports; tied caps, capacities and weights (so shares tie);
// zero-capacity resources; flows held down by their TCP cap; and
// single-flow components.  Every rate must match the oracle's bit for
// bit, and each feature must actually occur, so the test cannot pass
// vacuously.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "net/fabric.hpp"
#include "reference_waterfill.hpp"
#include "util/rng.hpp"

namespace wadp::net {
namespace {

using testing::FlatComponent;
using testing::reference_waterfill;

constexpr int kComponents = 2400;

struct Coverage {
  int single_flow = 0;
  int zero_capacity = 0;
  int cap_bound = 0;
  int tied = 0;
  int mixed_weights = 0;
  int storage_ports = 0;
};

/// One random component.  `variant` rotates the shape so every feature
/// appears in a fixed share of the draws.
FlatComponent random_component(util::Rng& rng, int variant, Coverage& cov) {
  FlatComponent c;
  const bool single = variant % 5 == 0;
  const bool tied = variant % 3 == 0;
  const bool zero = variant % 7 == 0;
  const auto links = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  const auto ports = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  for (std::uint32_t i = 0; i < links + ports; ++i) {
    c.capacity.push_back(tied ? 12'500'000.0
                              : rng.uniform(1e6, 1.25e8));
  }
  if (zero) {
    c.capacity[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(c.capacity.size()) - 1))] = 0.0;
    ++cov.zero_capacity;
  }
  if (ports > 0) ++cov.storage_ports;
  if (tied) ++cov.tied;

  const int flows = single ? 1 : static_cast<int>(rng.uniform_int(2, 40));
  bool mixed = false;
  int first_streams = 0;
  for (int f = 0; f < flows; ++f) {
    FlatComponent::Flow flow;
    const int streams =
        tied ? 4 : static_cast<int>(rng.uniform_int(1, 8));
    if (f == 0) first_streams = streams;
    mixed = mixed || streams != first_streams;
    // Caps: window-limited ceilings well above any link, slow-start
    // values that bind, or near-ties inside the 1e-12 fixing band — they
    // fix in one round at different rates, so the order their rates
    // leave the residuals in shows in later shares.
    const double draw = rng.uniform();
    if (tied) {
      flow.cap = draw < 0.5 ? 2'000'000.0 *
                                  (1.0 + 1e-13 * static_cast<double>(
                                                     rng.uniform_int(0, 9)))
                            : 1e12;
    } else if (draw < 0.4) {
      flow.cap = rng.uniform(1e5, 2e7);
    } else {
      flow.cap = 1.6e8 * streams;
    }
    // A route of 1-3 distinct links at weight = streams.
    const auto hops = static_cast<std::uint32_t>(
        rng.uniform_int(1, std::min<std::int64_t>(3, links)));
    const auto first = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(links) - 1));
    for (std::uint32_t h = 0; h < hops; ++h) {
      flow.crossings.push_back({(first + h) % links,
                                static_cast<double>(streams)});
    }
    // Endpoint storage ports at unit weight.
    if (ports > 0 && rng.uniform() < 0.7) {
      flow.crossings.push_back(
          {links + static_cast<std::uint32_t>(rng.uniform_int(0, ports - 1)),
           1.0});
    }
    c.flows.push_back(std::move(flow));
  }
  if (single) ++cov.single_flow;
  if (mixed) ++cov.mixed_weights;
  // Every resource needs a flow: give an uncrossed one to the last flow.
  std::vector<bool> crossed(c.capacity.size(), false);
  for (const auto& flow : c.flows) {
    for (const auto& x : flow.crossings) crossed[x.resource] = true;
  }
  for (std::uint32_t r = 0; r < crossed.size(); ++r) {
    if (!crossed[r]) c.flows.back().crossings.push_back({r, 1.0});
  }
  return c;
}

std::vector<double> solve(MaxMinSolver& solver, const FlatComponent& c,
                          std::uint64_t* visits) {
  solver.clear();
  for (const auto& flow : c.flows) {
    solver.add_flow(flow.cap);
    for (const auto& x : flow.crossings) solver.cross(x.resource, x.weight);
  }
  std::vector<double> capacity;
  for (const std::uint32_t r : solver.resources()) {
    capacity.push_back(c.capacity[r]);
  }
  *visits += solver.solve(capacity);
  return solver.rates();
}

TEST(MaxMinOracleTest, RatesBitIdenticalToRoundBasedWaterfill) {
  util::Rng rng(20021);
  MaxMinSolver solver;  // reused: stale scratch must never leak through
  Coverage cov;
  std::uint64_t visits = 0;
  std::uint64_t entries = 0;
  int mismatched = 0;
  for (int i = 0; i < kComponents; ++i) {
    const FlatComponent c = random_component(rng, i, cov);
    const std::vector<double> expected = reference_waterfill(c);
    const std::vector<double> got = solve(solver, c, &visits);
    ASSERT_EQ(got.size(), expected.size());
    entries += got.size();
    bool bound = false;
    for (std::size_t f = 0; f < got.size(); ++f) {
      bound = bound || (got[f] == c.flows[f].cap);
      if (std::bit_cast<std::uint64_t>(got[f]) !=
          std::bit_cast<std::uint64_t>(expected[f])) {
        if (mismatched++ < 5) {
          ADD_FAILURE() << "component " << i << " flow " << f << ": "
                        << got[f] << " vs oracle " << expected[f];
        }
      }
    }
    if (bound) ++cov.cap_bound;
  }
  EXPECT_EQ(mismatched, 0);
  EXPECT_GE(cov.single_flow, 100);
  EXPECT_GE(cov.zero_capacity, 100);
  EXPECT_GE(cov.cap_bound, 100);
  EXPECT_GE(cov.tied, 100);
  EXPECT_GE(cov.mixed_weights, 100);
  EXPECT_GE(cov.storage_ports, 100);
  // Each entry is read a bounded number of times, not once per round.
  EXPECT_LE(visits, 8 * entries);
}

TEST(MaxMinOracleTest, TiedSharesFixTogether) {
  // Two links of equal capacity, four equal flows: one round fixes all.
  FlatComponent c;
  c.capacity = {8e6, 8e6};
  for (std::uint32_t f = 0; f < 4; ++f) {
    c.flows.push_back({1e12, {{f % 2, 2.0}}});
  }
  MaxMinSolver solver;
  std::uint64_t visits = 0;
  const auto rates = solve(solver, c, &visits);
  EXPECT_EQ(rates, reference_waterfill(c));
  for (const double rate : rates) EXPECT_EQ(rate, 4e6);
}

TEST(MaxMinOracleTest, CapBoundFlowReleasesItsShare) {
  // One 9 MB/s link shared 8:1 by stream count.  The 8-stream flow's
  // 0.5 MB/s cap binds first; the 1-stream flow then takes the rest.
  FlatComponent c;
  c.capacity = {9e6};
  c.flows.push_back({0.5e6, {{0, 8.0}}});
  c.flows.push_back({1e12, {{0, 1.0}}});
  MaxMinSolver solver;
  std::uint64_t visits = 0;
  const auto rates = solve(solver, c, &visits);
  EXPECT_EQ(rates, reference_waterfill(c));
  EXPECT_EQ(rates[0], 0.5e6);
  EXPECT_EQ(rates[1], 8.5e6);
}

TEST(MaxMinOracleTest, ZeroCapacityStarvesItsFlowsOnly) {
  FlatComponent c;
  c.capacity = {0.0, 6e6};
  c.flows.push_back({1e12, {{0, 1.0}, {1, 1.0}}});
  c.flows.push_back({1e12, {{1, 1.0}}});
  MaxMinSolver solver;
  std::uint64_t visits = 0;
  const auto rates = solve(solver, c, &visits);
  EXPECT_EQ(rates, reference_waterfill(c));
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_EQ(rates[1], 6e6);
}

}  // namespace
}  // namespace wadp::net
