#include "routing/topology_greedy.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "des/kernel_backend.hpp"
#include "routing/deflection.hpp"
#include "util/assert.hpp"
#include "workload/permutation.hpp"

namespace routesim {

namespace {

/// Per-scheme RNG stream salts, mirroring the native schemes' 0xC0BE /
/// 0x3A1A (a different topology must not replay the hypercube's draw
/// sequence; deflection's 0xDEF2 lives in routing/deflection.cpp).
constexpr std::uint64_t kGreedySalt = 0x7090;
constexpr std::uint64_t kValiantSalt = 0x7091;

}  // namespace

TopologyGreedySim::TopologyGreedySim(TopologyRoutingConfig config)
    : config_(std::move(config)) {
  configure_kernel();
}

void TopologyGreedySim::reset(TopologyRoutingConfig config) {
  config_ = std::move(config);
  configure_kernel();
}

void TopologyGreedySim::configure_kernel() {
  topo_ = make_topology(config_.spec);
  RS_EXPECTS(config_.lambda > 0.0);
  if (config_.slot > 0.0) {
    const double inv = 1.0 / config_.slot;
    RS_EXPECTS_MSG(config_.slot <= 1.0 && std::abs(inv - std::round(inv)) < 1e-9,
                   "slot length must satisfy: 1/slot integer, slot <= 1 (§3.4)");
  }
  if (config_.fixed_destinations != nullptr) {
    RS_EXPECTS_MSG(config_.fixed_destinations->size() == topo_->num_nodes(),
                   "fixed-destination table must have num_nodes entries");
  }

  const int diameter = std::max(1, topo_->diameter());
  PacketKernelConfig kernel;
  kernel.num_arcs = topo_->num_arcs();
  kernel.seed = config_.seed;
  kernel.stream_salt = config_.valiant ? kValiantSalt : kGreedySalt;
  kernel.birth_rate =
      config_.lambda * static_cast<double>(topo_->num_nodes());
  kernel.slot = config_.slot;
  kernel.fixed_destinations = config_.fixed_destinations;
  kernel.buffer_capacity = config_.buffer_capacity;
  // In-flight packets ~ (aggregate rate) x (delay ~ O(diameter)) at
  // moderate load; mixing doubles the path length.
  kernel.expected_packets = static_cast<std::size_t>(
      kernel.birth_rate * (config_.valiant ? 2.0 : 1.0) *
          static_cast<double>(diameter)) + 64;
  if (config_.track_node_occupancy) {
    kernel.stats.occupancy_trackers = topo_->num_nodes();
  }
  if (config_.track_delay_histogram) {
    enable_delay_tail_tracking(kernel.stats, diameter);
  }
  kernel_.configure(kernel);
}

void TopologyGreedySim::on_spawn(double now) {
  const auto origin =
      static_cast<NodeId>(kernel_.rng().uniform_below(topo_->num_nodes()));
  const NodeId dest =
      kernel_.has_fixed_destinations()
          ? kernel_.fixed_destination(origin)
          : static_cast<NodeId>(kernel_.rng().uniform_below(topo_->num_nodes()));
  inject(now, origin, dest);
}

void TopologyGreedySim::on_traced(double now, NodeId origin, NodeId dest) {
  inject(now, origin, dest);
}

void TopologyGreedySim::inject(double now, NodeId origin, NodeId dest) {
  kernel_.count_arrival(now);
  const std::uint32_t id = kernel_.allocate_packet();
  NodeId target = dest;
  std::uint8_t phase = 1;
  int min_hops = 0;
  if (config_.valiant) {
    const auto intermediate =
        static_cast<NodeId>(kernel_.rng().uniform_below(topo_->num_nodes()));
    min_hops = topo_->metric(origin, intermediate) +
               topo_->metric(intermediate, dest);
    if (intermediate != origin) {
      target = intermediate;
      phase = 0;
    }
  } else {
    min_hops = topo_->metric(origin, dest);
  }
  kernel_.packet(id) = Pkt{origin,   target, dest, now, 0, phase,
                           static_cast<std::uint16_t>(min_hops)};
  if (phase == 1 && origin == target) {
    // A packet for its own origin needs no transmission (delay 0).
    kernel_.deliver(now, id, now, 0.0);
    return;
  }
  kernel_.enqueue(now, topo_->greedy_next_arc(origin, target), id,
                  /*external=*/true, origin);
}

void TopologyGreedySim::on_arc_done(double now, ArcId arc) {
  const std::uint32_t pkt = kernel_.finish_arc(now, arc, topo_->arc_source(arc));

  Pkt& packet = kernel_.packet(pkt);
  packet.cur = topo_->arc_target(arc);
  ++packet.hop_count;
  if (packet.cur == packet.target) {
    if (packet.phase == 1) {
      deliver(now, pkt);
      return;
    }
    // Reached the random intermediate node: head for the destination.
    packet.phase = 1;
    packet.target = packet.final_dest;
    if (packet.cur == packet.target) {
      deliver(now, pkt);
      return;
    }
  }
  kernel_.enqueue(now, topo_->greedy_next_arc(packet.cur, packet.target), pkt,
                  /*external=*/false, packet.cur);
}

void TopologyGreedySim::deliver(double now, std::uint32_t pkt) {
  const Pkt& packet = kernel_.packet(pkt);
  const double stretch =
      packet.min_hops > 0
          ? static_cast<double>(packet.hop_count) / packet.min_hops
          : 0.0;
  kernel_.deliver(now, pkt, packet.gen_time,
                  static_cast<double>(packet.hop_count), stretch);
}

void TopologyGreedySim::run(double warmup, double horizon) {
  kernel_.drive(*this, warmup, horizon);
}

namespace {

TopologySpec generic_spec(const Scenario& s, const std::string& name) {
  TopologySpec spec;
  spec.name = name;
  spec.d = s.d;
  spec.ring_chords = s.ring_chords;
  spec.torus_dims = s.torus_dims;
  return spec;
}

/// Shared compile-time validation for the topology-parametric paths: the
/// dispatching scheme has already resolved the topology name; here the
/// hypercube-native knobs (faults, traces, XOR-mask workloads, soa_batch)
/// are rejected as catchable ScenarioErrors and the topology itself is
/// built once so size errors surface before the worker fan-out.
std::string validated_generic_name(const Scenario& s) {
  const std::string name =
      s.resolved_topology({"hypercube", "ring", "torus", "mesh"});
  // Faults and the soa_batch backend are hypercube/butterfly-native: a
  // scheme may take them there and still not here, so the error names the
  // topology.
  if (s.faults_active()) {
    throw ScenarioError("scheme '" + s.scheme + "' does not support fault injection on topology=" +
                        name + " (faults run on the hypercube and butterfly only)");
  }
  if (s.resolved_backend({KernelBackend::kSoaBatch}) != KernelBackend::kScalar) {
    throw ScenarioError("scheme '" + s.scheme + "' does not support backend '" + s.backend +
                        "' on topology=" + name + " (supported: scalar)");
  }
  if (s.workload == "permutation") {
    if (name != "ring") {
      throw ScenarioError(
          "workload=permutation needs 2^d nodes; among the generic "
          "topologies only the ring has them (topology=" + name + ")");
    }
  } else if (s.workload != "uniform") {
    throw ScenarioError(
        "workload '" + s.workload + "' is hypercube-native; topology=" +
        name + " supports workload=uniform (and permutation on the ring)");
  }
  try {
    (void)make_topology(generic_spec(s, name));
  } catch (const std::invalid_argument& error) {
    throw ScenarioError(error.what());
  }
  return name;
}

}  // namespace

CompiledScenario compile_topology_greedy(const Scenario& s) {
  CompiledScenario compiled;
  const std::string name = validated_generic_name(s);
  const auto perm = s.shared_permutation_table();
  const Window window = s.resolved_window();
  compiled.replicate = [s, name, window, perm](std::uint64_t seed, int) {
    TopologyRoutingConfig config;
    config.spec = generic_spec(s, name);
    config.lambda = s.lambda;
    config.seed = seed;
    config.slot = s.tau;
    config.buffer_capacity = s.buffer_capacity;
    config.fixed_destinations = perm ? perm.get() : nullptr;
    // Permutation runs track per-node occupancy for the max_queue extra.
    config.track_node_occupancy = perm != nullptr;
    // Tail metrics (delay_p50/p99) come from the delay histogram.
    config.track_delay_histogram = true;
    TopologyGreedySim& sim =
        reusable_sim<TopologyGreedySim>(std::move(config));
    sim.run(window.warmup, window.horizon);
    const KernelStats& stats = sim.kernel_stats();
    std::vector<double> metrics{
        sim.delay().mean(),          sim.time_avg_population(),
        sim.throughput(),            sim.hops().mean(),
        sim.little_check().relative_error(), sim.final_population(),
        stats.delivery_ratio(),      stats.mean_stretch(),
        stats.delay_quantile(0.5),   stats.delay_quantile(0.99),
        static_cast<double>(stats.fault_drops_in_window()),
        static_cast<double>(stats.drops_in_window())};
    if (perm) metrics.push_back(stats.max_occupancy());
    return metrics;
  };
  compiled.extra_metrics = {"delivery_ratio", "mean_stretch",
                            "delay_p50",      "delay_p99",
                            "fault_drops",    "buffer_drops"};
  if (perm) compiled.extra_metrics.emplace_back("max_queue");
  // No closed-form bracket: the paper's delay bounds are hypercube and
  // butterfly theorems.
  return compiled;
}

CompiledScenario compile_topology_valiant(const Scenario& s) {
  CompiledScenario compiled;
  const std::string name = validated_generic_name(s);
  const auto perm = s.shared_permutation_table();
  const Window window = s.resolved_window();
  compiled.replicate = [s, name, window, perm](std::uint64_t seed, int) {
    TopologyRoutingConfig config;
    config.spec = generic_spec(s, name);
    config.lambda = s.lambda;
    config.seed = seed;
    config.valiant = true;
    config.fixed_destinations = perm ? perm.get() : nullptr;
    config.track_delay_histogram = true;
    TopologyGreedySim& sim =
        reusable_sim<TopologyGreedySim>(std::move(config));
    sim.run(window.warmup, window.horizon);
    const KernelStats& stats = sim.kernel_stats();
    return std::vector<double>{
        sim.delay().mean(),          sim.time_avg_population(),
        sim.throughput(),            sim.hops().mean(),
        sim.little_check().relative_error(), sim.final_population(),
        stats.delivery_ratio(),      stats.mean_stretch(),
        stats.delay_quantile(0.5),   stats.delay_quantile(0.99),
        static_cast<double>(stats.fault_drops_in_window()),
        static_cast<double>(stats.drops_in_window())};
  };
  compiled.extra_metrics = {"delivery_ratio", "mean_stretch",
                            "delay_p50",      "delay_p99",
                            "fault_drops",    "buffer_drops"};
  return compiled;
}

CompiledScenario compile_topology_deflection(const Scenario& s) {
  CompiledScenario compiled;
  const std::string name = validated_generic_name(s);
  const auto perm = s.shared_permutation_table();
  const Window window = s.resolved_window();
  compiled.replicate = [s, name, window, perm](std::uint64_t seed, int) {
    TopologyRoutingConfig config;
    config.spec = generic_spec(s, name);
    config.lambda = s.lambda;
    config.seed = seed;
    config.fixed_destinations = perm ? perm.get() : nullptr;
    TopologyDeflectionSim& sim =
        reusable_sim<TopologyDeflectionSim>(std::move(config));
    const auto warmup_slots = static_cast<std::uint64_t>(window.warmup);
    const auto num_slots = static_cast<std::uint64_t>(window.horizon);
    sim.run(warmup_slots, num_slots);
    const KernelStats& stats = sim.kernel_stats();
    return std::vector<double>{
        sim.delay().mean(),
        0.0,
        sim.throughput(),
        sim.hops().mean(),
        0.0,
        static_cast<double>(sim.injection_backlog()),
        sim.deflection_fraction(),
        stats.delivery_ratio(),
        stats.mean_stretch(),
        stats.delay_quantile(0.5),
        stats.delay_quantile(0.99),
        static_cast<double>(stats.fault_drops_in_window())};
  };
  compiled.extra_metrics = {"deflection_fraction", "delivery_ratio",
                            "mean_stretch",        "delay_p50",
                            "delay_p99",           "fault_drops"};
  return compiled;
}

}  // namespace routesim
