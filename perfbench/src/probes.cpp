// Per-module probes of the traced run.  Each one times calls into one
// src/ module's public functions from outside, on fixed inputs derived from
// the workload seed, and reports one per-layer metric.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/equivalence.hpp"
#include "des/event_queue.hpp"
#include "des/kernel_backend.hpp"
#include "fault/fault_model.hpp"
#include "perfbench.hpp"
#include "queueing/levelled_network.hpp"
#include "routing/deflection.hpp"
#include "routing/greedy_butterfly.hpp"
#include "routing/greedy_hypercube.hpp"
#include "routing/topology_greedy.hpp"
#include "routing/valiant_mixing.hpp"
#include "serve/service.hpp"
#include "stats/ci.hpp"
#include "store/result_store.hpp"
#include "topology/topology.hpp"
#include "util/distributions.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"
#include "workload/destination.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using namespace routesim;

// Keeps timed loops from being optimised away.
volatile std::uint64_t g_sink = 0;

/// Median wall time of `reps` calls of `body`, in seconds.
double time_median(int reps, const std::function<void()>& body) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    body();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

Scenario resolved(const std::string& text) { return parse_scenario(text).resolved(); }

std::uint64_t arc_services(const std::vector<ArcCounters>& counters) {
  std::uint64_t total = 0;
  for (const ArcCounters& arc : counters) total += arc.total_arrivals;
  return total;
}

/// One replication of a sim through its run(), twice (the second after a
/// reset() to the same config); returns the faster run's ns per hop-event.
template <typename Sim, typename Config, typename Run, typename HopEvents>
double ns_per_hop_event(const Config& config, Run run, HopEvents hop_events) {
  Sim sim(config);
  double best = INFINITY;
  for (int i = 0; i < 2; ++i) {
    if (i > 0) sim.reset(config);
    const double t0 = now_s();
    run(sim);
    const double elapsed = now_s() - t0;
    best = std::min(best, 1e9 * elapsed / static_cast<double>(hop_events(sim)));
  }
  return best;
}

GreedyHypercubeConfig hypercube_config(const Scenario& s, std::uint64_t seed) {
  GreedyHypercubeConfig config;
  config.d = s.d;
  config.lambda = s.lambda;
  config.destinations = s.make_destinations();
  config.seed = seed;
  config.slot = s.tau;
  return config;
}

void probe_util(std::uint64_t seed, Report& report) {
  constexpr int kDraws = 1 << 22;
  Rng rng(seed);
  const double rng_s = time_median(3, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < kDraws; ++i) acc ^= rng.next();
    g_sink = g_sink + acc;
  });
  report.add("util.rng_next_ns", 1e9 * rng_s / kDraws, "ns", 3);

  const double exp_s = time_median(3, [&] {
    double acc = 0.0;
    for (int i = 0; i < kDraws; ++i) acc += sample_exponential(rng, 1.0);
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
  });
  report.add("util.sample_exponential_ns", 1e9 * exp_s / kDraws, "ns", 3);

  // A store record of a real result: the JSON the daemon and store parse.
  const Scenario s = resolved("hypercube_greedy d=4 rho=0.3 reps=2 measure=100 seed=" +
                              std::to_string(item_seed(seed, 1)));
  const RunResult result = Engine(EngineOptions{1}).run_one(s);
  const std::string text = store_record_json(ResultCache::key(s), s, result);
  constexpr int kParses = 2000;
  const double parse_s = time_median(3, [&] {
    for (int i = 0; i < kParses; ++i) {
      json::Value value;
      g_sink = g_sink + json::parse(text, &value);
    }
  });
  report.add("util.json_parse_ns_per_byte",
             1e9 * parse_s / (static_cast<double>(kParses) * text.size()), "ns", 3);
}

void probe_workload(const Options& options, Report& report) {
  constexpr int kDraws = 1 << 21;
  const DestinationDistribution dist = DestinationDistribution::bit_flip(10, 0.5);
  Rng rng(item_seed(options.seed, 2));
  const double dest_s = time_median(3, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < kDraws; ++i) acc += dist.sample(rng, static_cast<NodeId>(i & 1023));
    g_sink = g_sink + acc;
  });
  report.add("workload.dest_sample_ns", 1e9 * dest_s / kDraws, "ns", 3);

  const Scenario s = resolved("hypercube_greedy d=10 rho=0.5");
  const PacketTrace trace = generate_hypercube_trace(
      s.d, s.lambda, s.make_destinations(), 100.0, item_seed(options.seed, 3));
  const std::string path = options.work_dir + "/probe_trace.jsonl";
  save_trace_jsonl(trace, path);
  std::size_t loaded = 0;
  const double load_s = time_median(3, [&] { loaded = load_trace_jsonl(path, s.d).size(); });
  if (loaded != trace.size()) report.fail("probe trace did not load back whole");
  report.add("workload.trace_load_ns_per_record",
             1e9 * load_s / static_cast<double>(trace.size()), "ns", 3);

  const Scenario perm = parse_scenario(
      "hypercube_greedy d=10 workload=permutation permutation=bit_reversal");
  const double perm_s = time_median(5, [&] { g_sink = g_sink + perm.permutation_table().size(); });
  report.add("workload.permutation_table_us", 1e6 * perm_s, "us", 5);
}

void probe_des(std::uint64_t seed, Report& report) {
  // Hold model at the d=10 cube's depth d * 2^d: pop the earliest event,
  // push one a random time later.
  constexpr std::size_t kDepth = 10 * 1024;
  constexpr int kHolds = 1 << 20;
  Rng rng(item_seed(seed, 4));
  EventQueue<std::uint32_t> queue;
  queue.reserve(kDepth + 1);
  for (std::size_t i = 0; i < kDepth; ++i) {
    queue.push(sample_exponential(rng, 1.0), static_cast<std::uint32_t>(i));
  }
  const double hold_s = time_median(3, [&] {
    for (int i = 0; i < kHolds; ++i) {
      const auto event = queue.pop();
      queue.push(event.time + sample_exponential(rng, 1.0), event.payload);
    }
  });
  report.add("des.event_queue_ns_per_op", 1e9 * hold_s / kHolds, "ns", 3);

  // soa_batch vs scalar on one slotted d=10 rho=0.8 replication: min-of-N
  // on both sides, alternating which side runs first.
  constexpr int kPairs = 3;
  constexpr double kHorizon = 150.0;
  const Scenario s = resolved("hypercube_greedy d=10 rho=0.8 tau=1");
  std::vector<double> ratios;
  double best_scalar = INFINITY;
  double best_soa = INFINITY;
  std::string reference;
  for (int pair = 0; pair < kPairs; ++pair) {
    double ns[2] = {0.0, 0.0};
    for (int k = 0; k < 2; ++k) {
      const int side = (pair % 2 == 0) ? k : 1 - k;  // 0 = scalar, 1 = soa_batch
      GreedyHypercubeConfig config = hypercube_config(s, item_seed(seed, 5));
      config.backend = side == 0 ? KernelBackend::kScalar : KernelBackend::kSoaBatch;
      GreedyHypercubeSim sim(config);
      const double t0 = now_s();
      sim.run(0.0, kHorizon);
      const double elapsed = now_s() - t0;
      ns[side] = 1e9 * elapsed / static_cast<double>(arc_services(sim.arc_counters()));
      char text[96];
      std::snprintf(text, sizeof text, "%a %a %llu", sim.delay().mean(), sim.hops().mean(),
                    static_cast<unsigned long long>(sim.delay().count()));
      if (reference.empty()) reference = text;
      if (reference != text) report.fail("soa_batch and scalar results differ");
    }
    best_scalar = std::min(best_scalar, ns[0]);
    best_soa = std::min(best_soa, ns[1]);
    ratios.push_back(ns[0] / ns[1]);
  }
  report.add("des.soa_batch_speedup", best_scalar / best_soa, "ratio", kPairs);
  report.add("des.soa_batch_speedup_spread",
             *std::max_element(ratios.begin(), ratios.end()) -
                 *std::min_element(ratios.begin(), ratios.end()),
             "ratio", kPairs);
}

void probe_routing(std::uint64_t seed, Report& report) {
  const std::uint64_t rep_seed = item_seed(seed, 6);
  const auto hypercube_run = [](double horizon) {
    return [horizon](GreedyHypercubeSim& sim) { sim.run(0.0, horizon); };
  };
  const auto hypercube_hops = [](const GreedyHypercubeSim& sim) {
    return arc_services(sim.arc_counters());
  };

  const Scenario cube = resolved("hypercube_greedy d=10 rho=0.8");
  report.add("routing.hypercube_ns_per_hop_event",
             ns_per_hop_event<GreedyHypercubeSim>(hypercube_config(cube, rep_seed),
                                                  hypercube_run(150.0), hypercube_hops),
             "ns", 2);
  const Scenario slotted = resolved("hypercube_greedy d=10 rho=0.8 tau=1");
  report.add("routing.hypercube_slotted_ns_per_hop_event",
             ns_per_hop_event<GreedyHypercubeSim>(hypercube_config(slotted, rep_seed),
                                                  hypercube_run(150.0), hypercube_hops),
             "ns", 2);

  const Scenario fly = resolved("butterfly_greedy d=9 rho=0.8");
  GreedyButterflyConfig fly_config;
  fly_config.d = fly.d;
  fly_config.lambda = fly.lambda;
  fly_config.destinations = fly.make_destinations();
  fly_config.seed = rep_seed;
  report.add("routing.butterfly_ns_per_hop_event",
             ns_per_hop_event<GreedyButterflySim>(
                 fly_config, [](GreedyButterflySim& sim) { sim.run(0.0, 150.0); },
                 [](const GreedyButterflySim& sim) { return arc_services(sim.arc_counters()); }),
             "ns", 2);

  const Scenario valiant = resolved("valiant_mixing d=10 rho=0.4");
  ValiantMixingConfig valiant_config;
  valiant_config.d = valiant.d;
  valiant_config.lambda = valiant.lambda;
  valiant_config.destinations = valiant.make_destinations();
  valiant_config.seed = rep_seed;
  report.add("routing.valiant_ns_per_hop_event",
             ns_per_hop_event<ValiantMixingSim>(
                 valiant_config, [](ValiantMixingSim& sim) { sim.run(0.0, 150.0); },
                 [](const ValiantMixingSim& sim) {
                   return static_cast<std::uint64_t>(std::llround(sim.hops().sum()));
                 }),
             "ns", 2);

  const Scenario deflection = resolved("deflection d=8 rho=0.3");
  DeflectionConfig deflection_config;
  deflection_config.d = deflection.d;
  deflection_config.lambda = deflection.lambda;
  deflection_config.destinations = deflection.make_destinations();
  deflection_config.seed = rep_seed;
  report.add("routing.deflection_ns_per_hop_event",
             ns_per_hop_event<DeflectionSim>(
                 deflection_config, [](DeflectionSim& sim) { sim.run(0, 4000); },
                 [](const DeflectionSim& sim) {
                   return static_cast<std::uint64_t>(std::llround(sim.hops().sum()));
                 }),
             "ns", 2);

  const Scenario faulty = resolved("hypercube_greedy d=8 rho=0.5");
  GreedyHypercubeConfig adaptive = hypercube_config(faulty, rep_seed);
  adaptive.fault_policy = FaultPolicy::kAdaptive;
  adaptive.arc_fault_rate = 0.06;
  report.add("routing.fault_adaptive_ns_per_hop_event",
             ns_per_hop_event<GreedyHypercubeSim>(adaptive, hypercube_run(1500.0),
                                                  hypercube_hops),
             "ns", 2);
  GreedyHypercubeConfig storm = hypercube_config(faulty, rep_seed);
  storm.fault_policy = FaultPolicy::kAdaptive;
  storm.storm_rate = 0.05;
  storm.storm_radius = 1;
  storm.storm_duration = 20.0;
  report.add("routing.storm_ns_per_hop_event",
             ns_per_hop_event<GreedyHypercubeSim>(storm, hypercube_run(1500.0),
                                                  hypercube_hops),
             "ns", 2);

  const auto topology_probe = [&](const std::string& text, double horizon) {
    const Scenario s = resolved(text);
    TopologyRoutingConfig config;
    config.spec = s.topology_spec();
    config.lambda = s.lambda;
    config.seed = rep_seed;
    return ns_per_hop_event<TopologyGreedySim>(
        config, [horizon](TopologyGreedySim& sim) { sim.run(0.0, horizon); },
        [](const TopologyGreedySim& sim) { return arc_services(sim.arc_counters()); });
  };
  report.add("routing.ring_ns_per_hop_event",
             topology_probe("hypercube_greedy topology=ring ring_chords=papillon d=8 "
                            "workload=uniform rho=0.5", 1500.0),
             "ns", 2);
  report.add("routing.torus_ns_per_hop_event",
             topology_probe("hypercube_greedy topology=torus torus_dims=16x16 "
                            "workload=uniform rho=0.5", 3000.0),
             "ns", 2);

  // Construction and replication reset of the d=10 cube sim.
  const GreedyHypercubeConfig config = hypercube_config(cube, rep_seed);
  std::unique_ptr<GreedyHypercubeSim> sim;
  report.add("routing.construct_us", 1e6 * time_median(5, [&] {
               sim = std::make_unique<GreedyHypercubeSim>(config);
             }), "us", 5);
  std::vector<double> resets;
  for (int i = 0; i < 5; ++i) {
    sim->run(0.0, 10.0);
    const double t0 = now_s();
    sim->reset(config);
    resets.push_back(now_s() - t0);
  }
  report.add("routing.reset_us", 1e6 * median(resets), "us", resets.size());
}

void probe_queueing(std::uint64_t seed, Report& report) {
  const Scenario s = resolved("network_q_ps d=8 rho=0.8");
  double best = INFINITY;
  for (int i = 0; i < 2; ++i) {
    LevelledNetwork net(make_hypercube_network_q(s.d, s.lambda, s.effective_p(),
                                                 Discipline::kPs, item_seed(seed, 7)));
    const double t0 = now_s();
    net.run(0.0, 200.0);
    const double elapsed = now_s() - t0;
    std::uint64_t departures = 0;
    for (const ServerStats& server : net.server_stats()) departures += server.departures;
    best = std::min(best, 1e9 * elapsed / static_cast<double>(departures));
  }
  report.add("queueing.ns_per_departure", best, "ns", 2);
}

void probe_fault_topology_stats(std::uint64_t seed, Report& report) {
  const auto cube = make_topology(TopologySpec{"hypercube", 10, "", "4x4"});
  FaultModelConfig config;
  config.num_arcs = cube->num_arcs();
  config.num_nodes = cube->num_nodes();
  config.arc_fault_rate = 0.05;
  config.node_fault_rate = 0.01;
  config.seed = item_seed(seed, 8);
  report.add("fault.model_build_us", 1e6 * time_median(5, [&] {
               FaultModel model;
               model.configure(config, [&](std::uint32_t node, std::vector<std::uint32_t>& out) {
                 cube->append_incident_arcs(node, out);
               });
               g_sink = g_sink + model.is_faulty(0);
             }), "us", 5);

  const TopologySpec ring{"ring", 10, "papillon", "4x4"};
  const TopologySpec torus{"torus", 10, "", "32x32"};
  report.add("topology.build_us", 1e6 * time_median(5, [&] {
               g_sink = g_sink + make_topology(ring)->num_arcs() +
                        make_topology(torus)->num_arcs();
             }), "us", 5);

  constexpr int kQueries = 1 << 20;
  const auto ring_topology = make_topology(ring);
  const auto torus_topology = make_topology(torus);
  Rng rng(item_seed(seed, 9));
  std::vector<std::pair<NodeId, NodeId>> pairs(4096);
  for (auto& [from, to] : pairs) {
    from = static_cast<NodeId>(rng.uniform_below(1024));
    to = static_cast<NodeId>(rng.uniform_below(1024));
    if (to == from) to = (to + 1) % 1024;
  }
  const double next_s = time_median(3, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < kQueries; ++i) {
      const auto& [from, to] = pairs[static_cast<std::size_t>(i) & 4095];
      const Topology& topo = (i & 1) ? *torus_topology : *ring_topology;
      acc += topo.greedy_next_arc(from, to);
    }
    g_sink = g_sink + acc;
  });
  report.add("topology.next_arc_ns", 1e9 * next_s / kQueries, "ns", 3);

  constexpr int kIntervals = 1 << 16;
  Summary summary;
  for (int i = 0; i < 8; ++i) summary.add(rng.uniform());
  const double ci_s = time_median(3, [&] {
    double acc = 0.0;
    for (int i = 0; i < kIntervals; ++i) acc += t_confidence_interval(summary).half_width;
    g_sink = g_sink + static_cast<std::uint64_t>(acc);
  });
  report.add("stats.t_interval_ns", 1e9 * ci_s / kIntervals, "ns", 3);
}

void probe_core_store_serve(const Options& options, Report& report) {
  const std::string text =
      "hypercube_greedy d=6 rho=0.5 fault_policy=adaptive fault_rate=0.02 reps=4 "
      "measure=200 seed=" + std::to_string(item_seed(options.seed, 10));
  constexpr int kParses = 2000;
  report.add("core.scenario_parse_us", 1e6 * time_median(3, [&] {
               for (int i = 0; i < kParses; ++i) g_sink = g_sink + parse_scenario(text).d;
             }) / kParses, "us", 3);
  const Scenario scenario = parse_scenario(text).resolved();
  report.add("core.cache_key_us", 1e6 * time_median(3, [&] {
               for (int i = 0; i < kParses; ++i) g_sink = g_sink + ResultCache::key(scenario).size();
             }) / kParses, "us", 3);

  // Store: open a file of kRecords records, fetch, persist (with fsync).
  constexpr int kRecords = 2000;
  const RunResult result = Engine(EngineOptions{options.pool_width}).run_one(scenario);
  const std::string path = options.work_dir + "/probe_store.jsonl";
  std::vector<std::string> keys;
  {
    std::ofstream out(path, std::ios::trunc);
    for (int i = 0; i < kRecords; ++i) {
      Scenario copy = scenario;
      copy.plan.base_seed = item_seed(options.seed, 100000 + i);
      keys.push_back(ResultCache::key(copy));
      out << store_record_json(keys.back(), copy, result) << '\n';
    }
  }
  std::unique_ptr<ResultStore> store;
  const double open_s = time_median(3, [&] { store = std::make_unique<ResultStore>(path); });
  if (!store->ok() || store->size() != kRecords) report.fail("probe store did not load");
  report.add("store.open_ms_per_krecord", 1e3 * open_s / (kRecords / 1000.0), "ms", 3);
  const double fetch_s = time_median(3, [&] {
    RunResult out;
    for (const std::string& key : keys) g_sink = g_sink + store->fetch(key, &out);
  });
  report.add("store.fetch_us", 1e6 * fetch_s / kRecords, "us", 3);
  std::vector<double> persists;
  for (int i = 0; i < 20; ++i) {
    const double t0 = now_s();
    store->persist(keys[static_cast<std::size_t>(i)], scenario, result);
    persists.push_back(now_s() - t0);
  }
  report.add("store.persist_us", 1e6 * median(persists), "us", persists.size());

  // Serve, in process, on a cached key: query() alone, then the whole
  // protocol path (JSON parse, query, reply rendering).
  serve::QueryService service({1, nullptr});
  if (!service.query(scenario).ok) report.fail("in-process query failed");
  constexpr int kQueries = 500;
  report.add("serve.query_us", 1e6 * time_median(3, [&] {
               for (int i = 0; i < kQueries; ++i) g_sink = g_sink + service.query(scenario).ok;
             }) / kQueries, "us", 3);
  const std::string line = "{\"op\":\"query\",\"id\":1,\"scenario\":\"" + text + "\"}";
  std::size_t bytes = 0;
  report.add("serve.handle_request_us", 1e6 * time_median(3, [&] {
               for (int i = 0; i < kQueries; ++i) {
                 serve::handle_request(service, line,
                                       [&](const std::string& reply) { bytes += reply.size(); });
               }
             }) / kQueries, "us", 3);
  g_sink = g_sink + bytes;
}

}  // namespace

void run_probes(const Options& options, Report& report) {
  probe_util(options.seed, report);
  probe_workload(options, report);
  probe_des(options.seed, report);
  probe_routing(options.seed, report);
  probe_queueing(options.seed, report);
  probe_fault_topology_stats(options.seed, report);
  probe_core_store_serve(options, report);
}

}  // namespace perfbench
