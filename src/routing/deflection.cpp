#include "routing/deflection.hpp"

#include "core/registry.hpp"

#include <algorithm>
#include <utility>

#include "des/kernel_backend.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

// ------------------------------------------------------------- slot loop

void DeflectionSlotLoop::reset_slots(std::size_t num_nodes, std::uint64_t seed,
                                     std::uint64_t salt, int tail_scale) {
  rng_.reseed(derive_stream(seed, salt));
  resident_.resize(num_nodes);
  injection_.resize(num_nodes);
  for (auto& residents : resident_) residents.clear();
  for (auto& waiting : injection_) waiting.clear();
  productive_ = deflected_ = backlog_ = 0;

  // Tail metrics (delay_p50/p99) come from the delay histogram.
  KernelStats::Config stats;
  enable_delay_tail_tracking(stats, tail_scale);
  stats_.configure(stats);
}

/// A port rule supplies: num_nodes(), max_degree(), begin_slot(now),
/// node_dead(node), destination(rng, node), min_hops(node, dest),
/// capacity(node), degree(node), mark_dead_ports(node, used),
/// productive_port(node, dest, used, degree) (lowest free productive port
/// or -1), next(node, port), expired(hops) and faulty().
template <class Ports>
void DeflectionSlotLoop::run_slots(Ports ports, double lambda,
                                   std::uint64_t warmup_slots,
                                   std::uint64_t num_slots) {
  RS_EXPECTS(warmup_slots <= num_slots);
  const NodeId nodes = ports.num_nodes();
  const double warmup_time = static_cast<double>(warmup_slots);
  stats_.begin(warmup_time, static_cast<double>(num_slots));

  // Next-slot buffers, reused across slots.
  std::vector<std::vector<Pkt>> incoming(nodes);
  std::vector<int> port_used(static_cast<std::size_t>(ports.max_degree()));

  for (std::uint64_t slot = 0; slot < num_slots; ++slot) {
    const double now = static_cast<double>(slot);
    ports.begin_slot(now);

    // 1. New packets join their origin's injection queue.
    for (NodeId node = 0; node < nodes; ++node) {
      const std::uint64_t births = sample_poisson(rng_, lambda);
      const bool node_dead = ports.node_dead(node);
      for (std::uint64_t b = 0; b < births; ++b) {
        const NodeId dest = ports.destination(rng_, node);
        if (node_dead) {
          // A dead node offers no deliverable traffic; count its load as
          // fault-dropped so the delivery ratio reflects the offered load.
          stats_.count_fault_drop(now);
          continue;
        }
        if (dest == node) {
          // Delivered in place, delay 0 (consistent with the greedy model).
          stats_.record_delivery(now, now, 0.0);
          continue;
        }
        injection_[node].push_back(Pkt{dest, now, 0, ports.min_hops(node, dest)});
      }
    }

    // 2. Admission: a node may hold at most one packet per live out-port.
    for (NodeId node = 0; node < nodes; ++node) {
      auto& residents = resident_[node];
      auto& waiting = injection_[node];
      const std::size_t capacity = ports.capacity(node);
      while (residents.size() < capacity && !waiting.empty()) {
        residents.push_back(waiting.front());
        waiting.pop_front();
      }
    }

    // 3. Port assignment and synchronous transmission.  A dead arc is a
    // port that is never free, so the productive-then-deflect rule routes
    // around faults by construction.
    for (NodeId node = 0; node < nodes; ++node) {
      auto& residents = resident_[node];
      if (residents.empty()) continue;
      // Oldest packets pick first.
      std::stable_sort(residents.begin(), residents.end(),
                       [](const Pkt& a, const Pkt& b) { return a.gen_time < b.gen_time; });
      const int degree = ports.degree(node);
      std::fill(port_used.begin(), port_used.begin() + degree, 0);
      ports.mark_dead_ports(node, port_used);
      for (auto& packet : residents) {
        int port = ports.productive_port(node, packet.dest, port_used, degree);
        const bool productive = port >= 0;
        if (!productive) {
          for (int k = 0; k < degree; ++k) {
            if (port_used[k] == 0) {
              port = k;
              break;
            }
          }
        }
        if (port < 0) {
          // Fault-only dead end: more packets than live ports this slot
          // (a burst arriving over live in-arcs of a nearly cut-off node).
          RS_DASSERT(ports.faulty());
          stats_.count_fault_drop(packet.gen_time);
          continue;
        }
        port_used[port] = 1;
        productive ? ++productive_ : ++deflected_;
        ++packet.hops;
        const NodeId next = ports.next(node, port);
        if (productive && next == packet.dest) {
          const double stretch =
              packet.min_hops > 0
                  ? static_cast<double>(packet.hops) / packet.min_hops
                  : 0.0;
          stats_.record_delivery(now + 1.0, packet.gen_time,
                                 static_cast<double>(packet.hops), stretch);
        } else if (ports.expired(packet.hops)) {
          stats_.count_fault_drop(packet.gen_time);
        } else {
          incoming[next].push_back(packet);
        }
      }
      residents.clear();
    }
    for (NodeId node = 0; node < nodes; ++node) {
      resident_[node].swap(incoming[node]);
      incoming[node].clear();
    }
  }

  stats_.finalize(warmup_time, static_cast<double>(num_slots),
                  /*pending_reset=*/false);
  backlog_ = 0;
  for (const auto& queue : injection_) backlog_ += queue.size();
  for (const auto& residents : resident_) backlog_ += residents.size();
}

// ------------------------------------------------------------- hypercube

/// Port k is dimension k+1; it is productive when the packet still has to
/// flip that bit.  Dead arcs are ports that are never free.
struct DeflectionSim::Ports {
  explicit Ports(DeflectionSim& owner)
      : sim(owner), d(owner.config_.d), fault_active(owner.fault_active_) {}

  DeflectionSim& sim;
  int d;              ///< the port count of every node
  bool fault_active;  ///< any fault source configured

  NodeId num_nodes() const { return sim.cube_.num_nodes(); }
  int max_degree() const { return d; }
  int degree(NodeId) const { return d; }

  void begin_slot(double now) const {
    if (fault_active && sim.fault_model_.dynamic()) {
      sim.fault_model_.advance_to(now);
    }
  }
  bool node_dead(NodeId node) const {
    return fault_active && sim.fault_model_.is_node_faulty(node);
  }
  NodeId destination(Rng& rng, NodeId node) const {
    return sim.config_.fixed_destinations != nullptr
               ? (*sim.config_.fixed_destinations)[node]
               : sim.config_.destinations.sample(rng, node);
  }
  std::uint16_t min_hops(NodeId node, NodeId dest) const {
    return static_cast<std::uint16_t>(hamming_distance(node, dest));
  }
  std::size_t capacity(NodeId node) const {
    if (!fault_active) return static_cast<std::size_t>(d);
    if (!sim.live_ports_.empty()) return sim.live_ports_[node];
    std::size_t live = 0;
    for (int dim = 1; dim <= d; ++dim) {
      if (!sim.fault_model_.is_faulty(sim.cube_.arc_index(node, dim))) ++live;
    }
    return live;
  }
  void mark_dead_ports(NodeId node, std::vector<int>& used) const {
    if (!fault_active) return;
    if (!sim.dead_ports_.empty()) {
      for (std::uint32_t mask = sim.dead_ports_[node]; mask != 0;
           mask &= mask - 1u) {
        used[lowest_dimension(mask) - 1] = 1;
      }
      return;
    }
    for (int dim = 1; dim <= d; ++dim) {
      if (sim.fault_model_.is_faulty(sim.cube_.arc_index(node, dim))) {
        used[dim - 1] = 1;
      }
    }
  }
  int productive_port(NodeId node, NodeId dest, const std::vector<int>& used,
                      int degree) const {
    const NodeId needed = node ^ dest;
    for (int k = 0; k < degree; ++k) {
      if (has_dimension(needed, k + 1) && used[k] == 0) return k;
    }
    return -1;
  }
  NodeId next(NodeId node, int port) const {
    return flip_dimension(node, port + 1);
  }
  bool expired(int hops) const { return fault_active && hops >= sim.ttl_; }
  bool faulty() const { return fault_active; }
};

DeflectionSim::DeflectionSim(DeflectionConfig config) { reset(std::move(config)); }

void DeflectionSim::reset(DeflectionConfig config) {
  config_ = std::move(config);
  RS_EXPECTS(config_.lambda > 0.0);
  RS_EXPECTS(config_.destinations.dimension() == config_.d);
  cube_ = Hypercube(config_.d);
  RS_EXPECTS_MSG(config_.fixed_destinations == nullptr ||
                     config_.fixed_destinations->size() == cube_.num_nodes(),
                 "fixed-destination table must have 2^d entries");
  reset_slots(cube_.num_nodes(), config_.seed, 0xDEF1, config_.d);

  ttl_ = config_.ttl > 0 ? config_.ttl : 64 * config_.d;
  // Hop counters are 16-bit; a larger TTL could never fire (wraparound).
  ttl_ = std::min(ttl_, 65535);
  fault_model_.configure(
      make_fault_model_config(config_, cube_.num_arcs(), cube_.num_nodes()),
      [this](std::uint32_t node, std::vector<ArcId>& out) {
        cube_.append_incident_arcs(node, out);
      });
  fault_active_ = fault_model_.active();

  // With a static fault set, per-node port liveness never changes: cache
  // it once instead of querying every arc every slot.
  live_ports_.clear();
  dead_ports_.clear();
  if (fault_active_ && !fault_model_.dynamic()) {
    live_ports_.assign(cube_.num_nodes(), 0);
    dead_ports_.assign(cube_.num_nodes(), 0);
    for (NodeId node = 0; node < cube_.num_nodes(); ++node) {
      for (int dim = 1; dim <= config_.d; ++dim) {
        if (fault_model_.is_faulty(cube_.arc_index(node, dim))) {
          dead_ports_[node] |= std::uint32_t{1} << (dim - 1);
        } else {
          ++live_ports_[node];
        }
      }
    }
  }
}

void DeflectionSim::run(std::uint64_t warmup_slots, std::uint64_t num_slots) {
  run_slots(Ports(*this), config_.lambda, warmup_slots, num_slots);
}

// -------------------------------------------------------- generic topology

/// Port k is out_arc(node, k); it is productive when it lowers the hop
/// metric to the destination.  No faults: every port is live.
struct TopologyDeflectionSim::Ports {
  const Topology& topo;
  const std::vector<NodeId>* fixed_destinations;
  int widest;  ///< the largest out-degree

  NodeId num_nodes() const { return topo.num_nodes(); }
  int max_degree() const { return widest; }
  int degree(NodeId node) const { return topo.out_degree(node); }

  void begin_slot(double) const {}
  bool node_dead(NodeId) const { return false; }
  NodeId destination(Rng& rng, NodeId node) const {
    return fixed_destinations != nullptr
               ? (*fixed_destinations)[node]
               : static_cast<NodeId>(rng.uniform_below(topo.num_nodes()));
  }
  std::uint16_t min_hops(NodeId node, NodeId dest) const {
    return static_cast<std::uint16_t>(topo.metric(node, dest));
  }
  std::size_t capacity(NodeId node) const {
    return static_cast<std::size_t>(topo.out_degree(node));
  }
  void mark_dead_ports(NodeId, std::vector<int>&) const {}
  int productive_port(NodeId node, NodeId dest, const std::vector<int>& used,
                      int degree) const {
    const int here = topo.metric(node, dest);
    for (int k = 0; k < degree; ++k) {
      if (used[k] == 0 &&
          topo.metric(topo.arc_target(topo.out_arc(node, k)), dest) < here) {
        return k;
      }
    }
    return -1;
  }
  NodeId next(NodeId node, int port) const {
    return topo.arc_target(topo.out_arc(node, port));
  }
  bool expired(int) const { return false; }
  bool faulty() const { return false; }
};

TopologyDeflectionSim::TopologyDeflectionSim(TopologyRoutingConfig config) {
  reset(std::move(config));
}

void TopologyDeflectionSim::reset(TopologyRoutingConfig config) {
  config_ = std::move(config);
  topo_ = make_topology(config_.spec);
  RS_EXPECTS(config_.lambda > 0.0);
  RS_EXPECTS_MSG(config_.fixed_destinations == nullptr ||
                     config_.fixed_destinations->size() == topo_->num_nodes(),
                 "fixed-destination table must have num_nodes entries");
  reset_slots(topo_->num_nodes(), config_.seed, 0xDEF2,
              std::max(1, topo_->diameter()));
}

void TopologyDeflectionSim::run(std::uint64_t warmup_slots,
                                std::uint64_t num_slots) {
  int widest = 0;
  for (NodeId node = 0; node < topo_->num_nodes(); ++node) {
    widest = std::max(widest, topo_->out_degree(node));
  }
  run_slots(Ports{*topo_, config_.fixed_destinations, widest},
            config_.lambda, warmup_slots, num_slots);
}

void register_deflection_scheme(SchemeRegistry& registry) {
  registry.add(
      {"deflection",
       "bufferless hot-potato routing on the d-cube ([GrH89]; window in "
       "slots, lambda in packets per node per slot)",
       [](const Scenario& s) {
         // Non-native topologies run the same slot loop under the
         // metric-descent port rule (TopologyDeflectionSim).
         if (s.resolved_topology({"hypercube", "ring", "torus", "mesh"}) !=
             "hypercube") {
           return compile_topology_deflection(s);
         }
         CompiledScenario compiled;
         // Validated before the worker fan-out (see below for faults).
         const auto perm = s.shared_permutation_table();
         const Window window = s.resolved_window();
         // Deflection is natively fault-aware (dead arcs are permanently
         // busy ports): any fault_policy is accepted and ignored, but the
         // knob combination is still validated before the worker fan-out.
         const FaultPolicy fault_policy = s.resolved_fault_policy(
             {FaultPolicy::kDrop, FaultPolicy::kSkipDim, FaultPolicy::kDeflect,
              FaultPolicy::kTwinDetour});
         if (s.storm_rate > 0.0 || s.storm_duration > 0.0) {
           throw ScenarioError(
               "scheme 'deflection' does not support fault storms "
               "(clear storm_rate/storm_duration; storms are available on "
               "hypercube_greedy and valiant_mixing)");
         }
         // Natively slotted: both backend names are accepted and run the
         // one slot loop.
         (void)s.resolved_backend(
             {KernelBackend::kScalar, KernelBackend::kSoaBatch});
         compiled.replicate = [s, window, fault_policy, perm,
                               dist = s.make_destinations()](
                                  std::uint64_t seed, int) {
           DeflectionConfig config;
           config.d = s.d;
           config.lambda = s.lambda;
           config.destinations = dist;
           config.fixed_destinations = perm ? perm.get() : nullptr;
           config.seed = seed;
           if (fault_policy != FaultPolicy::kNone) {
             config.arc_fault_rate = s.fault_rate;
             config.node_fault_rate = s.node_fault_rate;
             config.fault_mtbf = s.fault_mtbf;
             config.fault_mttr = s.fault_mttr;
             config.ttl = s.ttl;
           }
           DeflectionSim& sim = reusable_sim<DeflectionSim>(std::move(config));
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
       }});
}

}  // namespace routesim
