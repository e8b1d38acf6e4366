#pragma once
/// \file deflection.hpp
/// \brief Deflection ("hot-potato") routing — the bufferless alternative
///        analysed approximately by Greenberg & Hajek [GrH89], included here
///        as the related-work comparator — on the hypercube and on any
///        `Topology` (ring, torus, mesh).
///
/// Time is slotted (slot = one packet transmission).  Each node owns one
/// port per out-arc and holds at most one packet per port.  In every slot
/// each node assigns each resident packet a port: packets are considered
/// oldest first; a packet takes its lowest-index *productive* port (one
/// that brings it closer to its destination) that is still free, and
/// otherwise is *deflected* onto the lowest free port.  Freshly generated
/// packets wait in a per-node injection queue and are admitted whenever the
/// node holds fewer packets than it has ports.
///
/// Both simulators below run the one slot loop of DeflectionSlotLoop; each
/// supplies a static port rule:
/// - DeflectionSim (the d-cube): port k is dimension k+1 and is productive
///   when node XOR dest has that bit; destinations come from a
///   DestinationDistribution; natively fault-aware; RNG salt 0xDEF1.
/// - TopologyDeflectionSim (any Topology): port k is out_arc(node, k) and is
///   productive when the hop metric to the destination drops; uniform
///   destinations; no faults; RNG salt 0xDEF2.
///
/// The slot-stepped dynamics need no event set, but the measurement-window
/// accounting (delay / hops / deliveries / throughput) is the shared
/// KernelStats of des/packet_kernel.hpp — the same harvest every other
/// scheme uses, which is what makes the cross-scheme comparisons coupled.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "des/packet_kernel.hpp"
#include "routing/topology_greedy.hpp"
#include "stats/summary.hpp"
#include "topology/hypercube.hpp"
#include "util/rng.hpp"
#include "workload/destination.hpp"

namespace routesim {

struct DeflectionConfig {
  int d = 4;
  double lambda = 0.05;  ///< per-node generation rate (packets per slot)
  DestinationDistribution destinations = DestinationDistribution::uniform(4);
  /// Per-source fixed destinations (workload = permutation); non-owning,
  /// 2^d entries, null = sample from `destinations`.
  const std::vector<NodeId>* fixed_destinations = nullptr;
  std::uint64_t seed = 1;

  // --- fault injection (src/fault/fault_model.hpp) ----------------------
  // Deflection is *natively* fault-aware: a dead arc is simply a port that
  // is never free, so resident packets route around it with the existing
  // productive-then-deflect rule (the skip-dimension machinery of the
  // greedy scheme, expressed in slots).  Packets are fault-dropped when
  // their node has no free live port in a slot, when they are generated at
  // a dead node, or when their hop count exceeds the TTL.
  double arc_fault_rate = 0.0;
  double node_fault_rate = 0.0;
  double fault_mtbf = 0.0;  ///< mean link up-time (> 0 with mttr => dynamic)
  double fault_mttr = 0.0;  ///< mean link repair time
  int ttl = 0;              ///< max hops before a packet is dropped; 0 = 64*d
};

/// The per-node packet state, counters and measurement harvest shared by
/// both deflection simulators, and the one slot loop they run.
class DeflectionSlotLoop {
 public:
  /// Delay: generation slot to delivery slot (includes injection waiting).
  [[nodiscard]] const Summary& delay() const noexcept { return stats_.delay(); }

  /// Hops actually taken per delivered packet (>= the shortest path; the
  /// excess counts deflections).
  [[nodiscard]] const Summary& hops() const noexcept { return stats_.hops(); }

  /// Fraction of transmissions that were deflections (non-productive).
  [[nodiscard]] double deflection_fraction() const noexcept {
    const double total = static_cast<double>(productive_ + deflected_);
    return total == 0.0 ? 0.0 : static_cast<double>(deflected_) / total;
  }

  /// Packets still waiting in injection queues (or in flight) at the end.
  [[nodiscard]] std::uint64_t injection_backlog() const noexcept { return backlog_; }

  [[nodiscard]] std::uint64_t deliveries_in_window() const noexcept {
    return stats_.deliveries_in_window();
  }

  /// Deliveries per slot over the measurement window.
  [[nodiscard]] double throughput() const noexcept { return stats_.throughput(); }

  /// Packets lost to faults (dead node, no live port, TTL) in the window.
  [[nodiscard]] std::uint64_t fault_drops_in_window() const noexcept {
    return stats_.fault_drops_in_window();
  }
  [[nodiscard]] double delivery_ratio() const noexcept {
    return stats_.delivery_ratio();
  }
  /// The full measurement harvest (delivery ratio, stretch, quantiles, ...).
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept {
    return stats_;
  }

 protected:
  /// Trivial on purpose: with default member initializers a d=8 run
  /// measured about 4% slower.  Always built with all four fields.
  struct Pkt {
    NodeId dest;
    double gen_time;
    std::uint16_t hops;
    std::uint16_t min_hops;  ///< shortest-path length at generation (stretch)
  };

  /// Empties `num_nodes` nodes, zeroes the counters, reseeds the stream to
  /// derive_stream(seed, salt) and tracks delay tails up to 64*tail_scale.
  void reset_slots(std::size_t num_nodes, std::uint64_t seed,
                   std::uint64_t salt, int tail_scale);

  /// Simulates `num_slots` unit slots under the static port rule `Ports`
  /// (deflection.cpp); statistics cover slots >= warmup_slots.
  template <class Ports>
  void run_slots(Ports ports, double lambda, std::uint64_t warmup_slots,
                 std::uint64_t num_slots);

 private:
  Rng rng_;
  std::vector<std::vector<Pkt>> resident_;  // packets at each node
  std::vector<std::deque<Pkt>> injection_;  // waiting to be admitted
  KernelStats stats_;
  std::uint64_t productive_ = 0;
  std::uint64_t deflected_ = 0;
  std::uint64_t backlog_ = 0;
};

/// Hot-potato routing on the d-cube.
class DeflectionSim : public DeflectionSlotLoop {
 public:
  explicit DeflectionSim(DeflectionConfig config);

  /// Reconfigures for another replication, reusing storage.
  void reset(DeflectionConfig config);

  /// Simulates `num_slots` unit slots; statistics cover slots >= warmup_slots.
  void run(std::uint64_t warmup_slots, std::uint64_t num_slots);

  /// The attached fault model (inactive without fault rates).
  [[nodiscard]] const FaultModel& fault_model() const noexcept {
    return fault_model_;
  }

 private:
  struct Ports;  // the hypercube port rule (deflection.cpp)

  DeflectionConfig config_;
  Hypercube cube_{1};  ///< placeholder; reset() installs the real topology
  FaultModel fault_model_;
  bool fault_active_ = false;
  int ttl_ = 0;
  /// Per-node live-out-port count and dead-port dimension mask, cached in
  /// reset() when the fault set is static (empty in dynamic mode, where
  /// liveness is recomputed per slot).
  std::vector<std::uint8_t> live_ports_;
  std::vector<std::uint32_t> dead_ports_;
};

/// Hot-potato routing over any Topology (ring, torus, mesh): ports are the
/// out-arcs in out_arc() order.  Faults and traces are hypercube-only.
class TopologyDeflectionSim : public DeflectionSlotLoop {
 public:
  explicit TopologyDeflectionSim(TopologyRoutingConfig config);

  void reset(TopologyRoutingConfig config);

  /// Runs slots [0, num_slots); statistics cover [warmup_slots, num_slots).
  void run(std::uint64_t warmup_slots, std::uint64_t num_slots);

  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

 private:
  struct Ports;  // the metric-descent port rule (deflection.cpp)

  TopologyRoutingConfig config_;
  std::unique_ptr<const Topology> topo_;
};

class SchemeRegistry;

/// core/registry.hpp hookup: registers "deflection" ([GrH89] hot-potato
/// comparator; window interpreted in slots) with extra metrics
/// deflection_fraction plus the resilience extras (delivery_ratio,
/// mean_stretch, delay_p50/p99, fault_drops).  Natively fault-aware:
/// fault_rate / node_fault_rate / fault_mtbf / fault_mttr apply,
/// fault_policy does not.
void register_deflection_scheme(SchemeRegistry& registry);

}  // namespace routesim
