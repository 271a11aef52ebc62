#include "workload/gridworld.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace wadp::workload {

TopologyBuilder& TopologyBuilder::add_site(std::string name) {
  sites_.push_back(std::move(name));
  return *this;
}

TopologyBuilder& TopologyBuilder::add_link(std::string a, std::string b,
                                           net::LinkParams params) {
  links_.push_back({std::move(a), std::move(b), params});
  return *this;
}

TopologyBuilder& TopologyBuilder::random_grid(const GridSpec& spec,
                                              std::uint64_t seed) {
  WADP_CHECK_MSG(spec.sites >= 2, "random grid needs at least two sites");
  const std::size_t complete = spec.sites * (spec.sites - 1) / 2;
  const std::size_t want = std::min(spec.links, complete);
  WADP_CHECK_MSG(want + 1 >= spec.sites,
                 "random grid needs at least sites-1 links");
  WADP_CHECK_MSG(spec.min_capacity > 0.0 &&
                     spec.min_capacity <= spec.max_capacity,
                 "bad capacity range");
  WADP_CHECK_MSG(spec.min_rtt > 0.0 && spec.min_rtt <= spec.max_rtt,
                 "bad rtt range");

  util::Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(spec.sites);
  for (std::size_t i = 0; i < spec.sites; ++i) {
    names.push_back("s" + std::to_string(i));
    add_site(names.back());
  }

  const auto draw_params = [&] {
    net::LinkParams params;
    params.capacity = rng.log_uniform(spec.min_capacity, spec.max_capacity);
    params.rtt = rng.uniform(spec.min_rtt, spec.max_rtt);
    params.load = spec.load;
    return params;
  };

  // Random recursive spanning tree: connected with exactly sites-1
  // edges, degree distribution skewed toward early sites (hubs).
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (std::size_t i = 1; i < spec.sites; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    used.emplace(j, i);
    add_link(names[j], names[i], draw_params());
  }

  // Extra edges: uniformly drawn distinct pairs up to the budget.
  const auto limit = static_cast<std::int64_t>(spec.sites) - 1;
  while (used.size() < want) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, limit));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, limit));
    if (a == b) continue;
    const auto key = std::minmax(a, b);
    if (!used.emplace(key.first, key.second).second) continue;
    add_link(names[key.first], names[key.second], draw_params());
  }
  return *this;
}

std::unique_ptr<net::GridTopology> TopologyBuilder::build(
    std::uint64_t seed, SimTime origin) const {
  auto topology = std::make_unique<net::GridTopology>();
  for (const std::string& site : sites_) topology->add_site(site);
  util::Rng seeder(seed);
  for (const PendingLink& link : links_) {
    topology->add_link(link.a, link.b, link.params, seeder.next_u64(), origin);
  }
  topology->freeze();
  return topology;
}

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kUniform:
      return "uniform";
    case Scenario::kFlashCrowd:
      return "flash-crowd";
    case Scenario::kDiurnal:
      return "diurnal";
  }
  WADP_CHECK(false);
  return "";
}

std::optional<Scenario> parse_scenario(std::string_view name) {
  if (name == "uniform") return Scenario::kUniform;
  if (name == "flash-crowd" || name == "flash") return Scenario::kFlashCrowd;
  if (name == "diurnal") return Scenario::kDiurnal;
  return std::nullopt;
}

namespace {

/// Live state of one scenario run; events hold it via shared_ptr, so a
/// stale arrival left queued past the end stays harmless.
struct ScenarioState {
  explicit ScenarioState(std::uint64_t seed) : rng(seed) {}

  ScenarioConfig cfg;
  util::Rng rng;
  SimTime t0 = 0.0;
  SimTime end = 0.0;
  SimTime flash_a = 0.0;
  SimTime flash_b = 0.0;
  std::size_t hot = 0;  ///< flash-crowd sink site index

  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::size_t peak = 0;
  double bytes = 0.0;
};

bool in_flash(const ScenarioState& st, SimTime t) {
  return st.cfg.scenario == Scenario::kFlashCrowd && t >= st.flash_a &&
         t < st.flash_b;
}

double rate_at(const ScenarioState& st, SimTime t) {
  double rate = st.cfg.arrivals_per_second;
  switch (st.cfg.scenario) {
    case Scenario::kUniform:
      break;
    case Scenario::kFlashCrowd:
      if (in_flash(st, t)) rate *= st.cfg.flash_multiplier;
      break;
    case Scenario::kDiurnal: {
      const double hour = std::fmod(t, 86'400.0) / 3'600.0;
      const double phase =
          2.0 * M_PI * (hour - st.cfg.diurnal_peak_hour) / 24.0;
      rate *= std::max(0.05, 1.0 + st.cfg.diurnal_amplitude * std::cos(phase));
      break;
    }
  }
  return rate;
}

void start_one_flow(GridWorld& world,
                    const std::shared_ptr<ScenarioState>& st) {
  const auto& names = world.topology().site_names();
  const auto limit = static_cast<std::int64_t>(names.size()) - 1;
  const bool flash = in_flash(*st, world.sim().now());
  net::FlowSpec spec;
  if (!flash && st->cfg.locality > 0.0 &&
      st->rng.uniform() < st->cfg.locality) {
    // Local transfer pinned to one randomly chosen link — guaranteed
    // single-hop even where shortest-RTT routing would detour, so the
    // flow's sharing component stays confined to that link.
    const auto& links = world.topology().links();
    net::Link* link = links[static_cast<std::size_t>(st->rng.uniform_int(
                               0, static_cast<std::int64_t>(links.size()) -
                                      1))]
                          .get();
    if (world.engine().active_flows() >= st->cfg.max_concurrent) {
      ++st->shed;
      return;
    }
    spec.links = {link};
    spec.tcp = world.topology().tcp();
    spec.base_rtt = link->rtt();
  } else {
    const std::size_t dst =
        flash ? st->hot
              : static_cast<std::size_t>(st->rng.uniform_int(0, limit));
    // Uniform over src != dst: draw from the remaining sites.
    auto src = static_cast<std::size_t>(st->rng.uniform_int(0, limit - 1));
    if (src >= dst) ++src;
    if (world.engine().active_flows() >= st->cfg.max_concurrent) {
      ++st->shed;
      return;
    }
    auto route = world.topology().resolve(names[src], names[dst]);
    if (!route) {
      ++st->shed;
      return;
    }
    spec.links = std::move(route->links);
    spec.tcp = route->tcp;
    spec.base_rtt = route->rtt;
  }
  spec.streams = st->cfg.streams;
  spec.size = std::max<Bytes>(
      1, static_cast<Bytes>(st->rng.log_uniform(
             static_cast<double>(st->cfg.min_size),
             static_cast<double>(st->cfg.max_size))));
  spec.on_complete = [st](const net::FlowStats& stats) {
    ++st->completed;
    st->bytes += static_cast<double>(stats.bytes);
  };
  world.engine().start_flow(std::move(spec));
  ++st->started;
  st->peak = std::max(st->peak, world.engine().active_flows());
}

/// Schedules the next arrival from the current rate (piecewise
/// thinned Poisson; flash edges are made sharp by re-drawing at the
/// window boundaries instead of letting a pre-flash gap span them).
void arm_arrival(GridWorld& world, const std::shared_ptr<ScenarioState>& st) {
  const SimTime now = world.sim().now();
  if (now >= st->end) return;
  SimTime next = now + st->rng.exponential(1.0 / rate_at(*st, now));
  bool boundary_only = false;
  if (st->cfg.scenario == Scenario::kFlashCrowd) {
    if (now < st->flash_a && next > st->flash_a) {
      next = st->flash_a;
      boundary_only = true;
    } else if (in_flash(*st, now) && next >= st->flash_b) {
      next = st->flash_b;
      boundary_only = true;
    }
  }
  if (next >= st->end) return;
  world.sim().schedule_at(next, [world_ptr = &world, st, boundary_only] {
    if (!boundary_only) start_one_flow(*world_ptr, st);
    arm_arrival(*world_ptr, st);
  });
}

}  // namespace

net::EngineConfig GridWorld::default_engine_config() {
  net::EngineConfig config;
  config.lazy_progress = true;
  return config;
}

GridWorld::GridWorld(const GridSpec& spec, std::uint64_t seed,
                     net::EngineConfig engine_config)
    : sim_(spec.origin),
      // Structure and load processes get decorrelated seed streams.
      topology_(TopologyBuilder()
                    .random_grid(spec, seed)
                    .build(seed ^ 0x6f61dULL, spec.origin)),
      engine_(sim_, engine_config) {}

GridWorld::Summary GridWorld::run(const ScenarioConfig& scenario,
                                  std::uint64_t seed) {
  const auto& names = topology_->site_names();
  WADP_CHECK_MSG(names.size() >= 2, "scenario needs at least two sites");
  WADP_CHECK_MSG(scenario.arrivals_per_second > 0.0,
                 "arrivals_per_second must be > 0");
  WADP_CHECK_MSG(scenario.min_size > 0 && scenario.min_size <= scenario.max_size,
                 "bad size range");
  WADP_CHECK_MSG(scenario.batch_horizon > 0.0, "batch_horizon must be > 0");

  auto st = std::make_shared<ScenarioState>(seed);
  st->cfg = scenario;
  st->t0 = sim_.now();
  st->end = st->t0 + scenario.duration;
  st->flash_a = st->t0 + scenario.flash_after;
  st->flash_b = st->flash_a + scenario.flash_duration;
  st->hot = static_cast<std::size_t>(
      st->rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1));

  const auto wall_start = std::chrono::steady_clock::now();
  // Health-plane scrape/evaluate tick, bounded to the scenario window
  // so the run loop below still drains to quiescence.
  std::optional<sim::PeriodicTask> health;
  if (scenario.health_interval > 0.0 && scenario.health_tick) {
    health.emplace(
        sim_, scenario.health_interval,
        [this, cb = scenario.health_tick] { cb(sim_.now()); },
        /*immediate=*/false, /*until=*/st->end);
  }
  arm_arrival(*this, st);
  while (sim_.now() < st->end) {
    sim_.run_batch(std::min(scenario.batch_horizon, st->end - sim_.now()));
  }
  const auto wall_end = std::chrono::steady_clock::now();

  Summary summary;
  summary.flows_started = st->started;
  summary.flows_completed = st->completed;
  summary.flows_shed = st->shed;
  summary.active_at_end = engine_.active_flows();
  summary.peak_concurrent = std::max(st->peak, summary.active_at_end);
  summary.bytes_moved = st->bytes;
  summary.sim_elapsed = sim_.now() - st->t0;
  summary.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(wall_end -
                                                            wall_start)
          .count());
  summary.utilization = topology_->utilization_summary();
  summary.alloc = engine_.alloc_stats();
  return summary;
}

}  // namespace wadp::workload
