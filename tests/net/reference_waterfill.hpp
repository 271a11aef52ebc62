// Reference weighted max-min allocator: the round-based waterfill the
// fluid engine used before MaxMinSolver, kept as a test oracle.
//
// Every round re-sums every unfixed flow's weight into its resources'
// pools, evaluates every unfixed flow's tentative rate (its TCP cap or
// its least weighted share, whichever is smaller), fixes every flow
// within a relative 1e-12 (+1e-9) of the least one, and releases their
// rates from the residuals in flow order.  O(flows x rounds); the
// production solver must reproduce its rates bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace wadp::net::testing {

/// One sharing component in flat form.
struct FlatComponent {
  struct Crossing {
    std::uint32_t resource;
    double weight;
  };
  struct Flow {
    double cap = 0.0;
    std::vector<Crossing> crossings;
  };
  std::vector<double> capacity;  ///< per resource
  std::vector<Flow> flows;       ///< in allocation order
};

inline std::vector<double> reference_waterfill(const FlatComponent& c) {
  struct Entry {
    bool fixed = false;
    double rate = 0.0;
  };
  std::vector<Entry> entries(c.flows.size());
  std::vector<double> residual(c.capacity.size());
  for (std::size_t i = 0; i < c.capacity.size(); ++i) {
    residual[i] = std::max(0.0, c.capacity[i]);
  }

  std::size_t unfixed = entries.size();
  while (unfixed > 0) {
    std::vector<double> pool_weight(c.capacity.size(), 0.0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].fixed) continue;
      for (const auto& m : c.flows[i].crossings) {
        pool_weight[m.resource] += m.weight;
      }
    }

    double min_tentative = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      Entry& e = entries[i];
      if (e.fixed) continue;
      double share = std::numeric_limits<double>::infinity();
      for (const auto& m : c.flows[i].crossings) {
        share = std::min(share, residual[m.resource] * m.weight /
                                    pool_weight[m.resource]);
      }
      const double tentative = std::min(c.flows[i].cap, share);
      min_tentative = std::min(min_tentative, tentative);
      e.rate = tentative;
    }

    const double threshold = min_tentative * (1.0 + 1e-12) + 1e-9;
    bool fixed_any = false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      Entry& e = entries[i];
      if (e.fixed || e.rate > threshold) continue;
      e.fixed = true;
      fixed_any = true;
      --unfixed;
      for (const auto& m : c.flows[i].crossings) {
        residual[m.resource] = std::max(0.0, residual[m.resource] - e.rate);
      }
    }
    if (!fixed_any) throw std::logic_error("waterfill failed to converge");
  }

  std::vector<double> rates;
  rates.reserve(entries.size());
  for (const Entry& e : entries) rates.push_back(e.rate);
  return rates;
}

}  // namespace wadp::net::testing
