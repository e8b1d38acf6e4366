#pragma once
/// \file topology_greedy.hpp
/// \brief Topology-parametric greedy routing: metric descent and its
///        Valiant-mixing variant over any `Topology`.
///
/// TopologyGreedySim is what `hypercube_greedy` and `valiant_mixing`
/// dispatch to when a scenario selects a non-native topology (topology=ring
/// / torus / mesh); `deflection` dispatches to TopologyDeflectionSim
/// (routing/deflection.hpp), which runs the hypercube's slot loop under a
/// metric-descent port rule.  TopologyGreedySim reuses the shared packet
/// kernel (des/packet_kernel.hpp) wholesale; the only scheme-specific
/// ingredient is `Topology::greedy_next_arc`, so one implementation serves
/// every family the concept admits.
///
/// The hypercube and butterfly keep their specialised greedy simulators —
/// those are the paper's bit-exactness oracle (tests/test_kernel_parity.cpp)
/// and the conformance kit certifies the concept adapters agree with them.
///
/// Workloads: uniform destinations over all nodes (sampled directly from
/// the kernel RNG — the XOR-mask DestinationDistribution is a hypercube
/// notion), plus fixed-destination permutation tables on the ring (whose
/// 2^d nodes match the permutation families).  Faults, traces and the
/// soa_batch backend stay native-only; the compile helpers below reject
/// them with catchable ScenarioErrors.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "des/packet_kernel.hpp"
#include "stats/histogram.hpp"
#include "stats/little.hpp"
#include "stats/summary.hpp"
#include "topology/topology.hpp"

namespace routesim {

struct TopologyRoutingConfig {
  TopologySpec spec;
  double lambda = 0.1;  ///< packet generation rate per node
  std::uint64_t seed = 1;
  /// 0 => continuous time; > 0 => slotted arrivals (greedy mode only).
  double slot = 0.0;
  /// Route via a uniform random intermediate node (Valiant's trick) before
  /// heading to the destination; evens out adversarial workloads such as
  /// the ring's tornado permutation.
  bool valiant = false;
  /// Per-source fixed destinations (workload = permutation); entry x is the
  /// destination of packets generated at node x.  Non-owning; num_nodes()
  /// entries; null = uniform destinations.
  const std::vector<NodeId>* fixed_destinations = nullptr;
  /// Finite-buffer ablation; 0 = infinite buffers.
  std::uint32_t buffer_capacity = 0;
  /// Track a time-weighted occupancy per node.
  bool track_node_occupancy = false;
  /// Collect a delay histogram (bin width 1, range [0, 64*diameter]).
  bool track_delay_histogram = false;
};

/// Greedy metric descent (optionally via a Valiant intermediate) over any
/// Topology, on the shared packet kernel: store-and-forward, one packet per
/// arc at a time, FIFO queues, unit transmission times.
class TopologyGreedySim {
 public:
  explicit TopologyGreedySim(TopologyRoutingConfig config);

  /// Reconfigures for another replication, reusing kernel storage.
  void reset(TopologyRoutingConfig config);

  /// Simulates [0, horizon]; statistics cover [warmup, horizon].
  void run(double warmup, double horizon);

  // --- results (valid after run()) ---

  [[nodiscard]] const Summary& delay() const noexcept { return kernel_.stats().delay(); }
  [[nodiscard]] const Summary& hops() const noexcept { return kernel_.stats().hops(); }
  [[nodiscard]] double time_avg_population() const noexcept {
    return kernel_.stats().time_avg_population();
  }
  [[nodiscard]] double final_population() const noexcept {
    return kernel_.stats().final_population();
  }
  [[nodiscard]] double throughput() const noexcept {
    return kernel_.stats().throughput();
  }
  [[nodiscard]] LittleCheck little_check() const noexcept {
    return kernel_.stats().little_check();
  }
  [[nodiscard]] double max_node_occupancy() const noexcept {
    return kernel_.stats().max_occupancy();
  }
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept {
    return kernel_.stats();
  }
  [[nodiscard]] const std::vector<ArcCounters>& arc_counters() const noexcept {
    return kernel_.arc_counters();
  }
  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

  // --- kernel hooks (called by PacketKernel::drive) ---

  void on_spawn(double now);
  void on_traced(double now, NodeId origin, NodeId dest);
  void on_arc_done(double now, ArcId arc);

 private:
  struct Pkt {
    NodeId cur = 0;
    NodeId target = 0;      ///< current phase's goal (intermediate, then dest)
    NodeId final_dest = 0;
    double gen_time = 0.0;
    std::uint16_t hop_count = 0;
    std::uint8_t phase = 0;  ///< 0 = toward intermediate, 1 = toward dest
    std::uint16_t min_hops = 0;  ///< metric along the routed path — stretch baseline
  };

  void configure_kernel();
  void inject(double now, NodeId origin, NodeId dest);
  void deliver(double now, std::uint32_t pkt);

  TopologyRoutingConfig config_;
  std::unique_ptr<const Topology> topo_;
  PacketKernel<Pkt> kernel_;
};

struct CompiledScenario;
class Scenario;

/// Compile hooks the native schemes dispatch to for non-native topologies
/// (defined in topology_greedy.cpp).  Each validates the scenario's knob
/// combination — faults, traces and backend=soa_batch are rejected with
/// catchable ScenarioErrors; workload must be uniform (or a permutation on
/// the ring) — and mirrors the native scheme's metric layout and extras.
[[nodiscard]] CompiledScenario compile_topology_greedy(const Scenario& s);
[[nodiscard]] CompiledScenario compile_topology_valiant(const Scenario& s);
[[nodiscard]] CompiledScenario compile_topology_deflection(const Scenario& s);

}  // namespace routesim
