#include "queueing/levelled_network.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

LevelledNetwork::LevelledNetwork(LevelledNetworkConfig config)
    : config_(std::move(config)), events_(2 * config_.servers.size()) {
  const auto n = config_.servers.size();
  RS_EXPECTS_MSG(n > 0, "network must have at least one server");
  servers_.resize(n);
  server_stats_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto& spec = config_.servers[s];
    RS_EXPECTS_MSG(spec.service_rate > 0.0, "service rate must be positive");
    RS_EXPECTS_MSG(spec.external_rate >= 0.0, "external rate must be non-negative");
    double total_prob = 0.0;
    for (const auto& choice : spec.routing) {
      RS_EXPECTS_MSG(choice.target > s && choice.target < n,
                     "routing must go to a strictly higher-indexed server "
                     "(levelled-network property B)");
      RS_EXPECTS(choice.probability >= 0.0);
      total_prob += choice.probability;
    }
    RS_EXPECTS_MSG(total_prob <= 1.0 + 1e-9, "routing probabilities exceed 1");
    servers_[s].arrival_rng.reseed(derive_stream(config_.seed, s));
  }
  KernelStats::Config stats;
  if (config_.track_per_server) stats.occupancy_trackers = n;
  stats_.configure(stats);
}

void LevelledNetwork::set_checkpoints(std::vector<double> times) {
  for (std::size_t i = 1; i < times.size(); ++i) RS_EXPECTS(times[i] >= times[i - 1]);
  checkpoints_ = std::move(times);
  checkpoint_counts_.assign(checkpoints_.size(), 0);
  next_checkpoint_ = 0;
}

void LevelledNetwork::schedule_next_external(double now, std::uint32_t server) {
  const double rate = config_.servers[server].external_rate;
  RS_DASSERT(rate > 0.0);
  const double gap = sample_exponential(servers_[server].arrival_rng, rate);
  events_.schedule(arrival_slot(server), now + gap);
}

void LevelledNetwork::enter_server(double now, std::uint32_t server,
                                   std::uint32_t customer) {
  auto& state = servers_[server];
  if (now >= warmup_) ++server_stats_[server].total_arrivals;
  stats_.occupancy_add(server, now, +1.0);
  if (config_.discipline == Discipline::kFifo) {
    state.fifo.push_back(customer);
    if (state.fifo.size() == 1) {
      events_.schedule(service_slot(server),
                       now + 1.0 / config_.servers[server].service_rate);
    }
  } else {
    ps_update_virtual(now, server);
    state.ps_active.insert_sorted(
        PsEntry{state.virtual_time + 1.0, customer},
        [](const PsEntry& a, const PsEntry& b) { return a.finish_vt < b.finish_vt; });
    ps_reschedule(now, server);
  }
}

void LevelledNetwork::ps_update_virtual(double now, std::uint32_t server) {
  auto& state = servers_[server];
  if (!state.ps_active.empty()) {
    state.virtual_time += (now - state.last_update) *
                          config_.servers[server].service_rate /
                          static_cast<double>(state.ps_active.size());
  }
  state.last_update = now;
}

void LevelledNetwork::ps_reschedule(double now, std::uint32_t server) {
  auto& state = servers_[server];
  if (state.ps_active.empty()) {
    events_.cancel(service_slot(server));
    return;
  }
  const double gap = (state.ps_active.front().finish_vt - state.virtual_time) *
                     static_cast<double>(state.ps_active.size()) /
                     config_.servers[server].service_rate;
  events_.schedule(service_slot(server), now + (gap > 0.0 ? gap : 0.0));
}

void LevelledNetwork::on_network_departure(double now, std::uint32_t customer) {
  ++departures_total_;
  if (now >= warmup_) {
    stats_.count_delivery();
    if (customers_[customer].arrival_time >= warmup_) {
      stats_.delay().add(now - customers_[customer].arrival_time);
    }
  }
  stats_.population().add(now, -1.0);
  customers_.release(customer);
}

void LevelledNetwork::complete_service(double now, std::uint32_t server,
                                       std::uint32_t customer) {
  auto& state = servers_[server];
  if (now >= warmup_) ++server_stats_[server].departures;
  stats_.occupancy_add(server, now, -1.0);

  // Routing decision k at server s is the *stateless* coupled uniform, so
  // FIFO and PS runs with the same seed make identical decisions (Lemma 10).
  const double u = coupled_uniform(config_.seed, server, state.completions++);
  double cumulative = 0.0;
  for (const auto& choice : config_.servers[server].routing) {
    cumulative += choice.probability;
    if (u < cumulative) {
      enter_server(now, choice.target, customer);
      return;
    }
  }
  on_network_departure(now, customer);
}

void LevelledNetwork::run(double warmup, double horizon) {
  RS_EXPECTS(warmup >= 0.0 && warmup <= horizon);
  warmup_ = warmup;
  now_ = 0.0;
  stats_.begin(warmup, horizon);

  for (std::uint32_t s = 0; s < servers_.size(); ++s) {
    if (config_.servers[s].external_rate > 0.0) schedule_next_external(0.0, s);
  }

  bool stats_reset = warmup == 0.0;
  while (!events_.empty() && events_.top().time <= horizon) {
    const auto event = events_.pop();
    const double t = event.time;

    // Checkpoints record B(t-) at times strictly before the next event.
    while (next_checkpoint_ < checkpoints_.size() &&
           checkpoints_[next_checkpoint_] < t) {
      checkpoint_counts_[next_checkpoint_++] = departures_total_;
    }
    if (!stats_reset && t >= warmup) {
      stats_.reset_at_warmup(warmup);
      stats_reset = true;
    }
    now_ = t;

    const std::uint32_t server = event.slot / 2;
    if (event.slot == arrival_slot(server)) {
      schedule_next_external(t, server);
      const std::uint32_t customer = customers_.allocate();
      customers_[customer].arrival_time = t;
      if (t >= warmup) ++server_stats_[server].external_arrivals;
      stats_.count_arrival(t);
      enter_server(t, server, customer);
    } else if (config_.discipline == Discipline::kFifo) {
      auto& state = servers_[server];
      RS_DASSERT(!state.fifo.empty());
      const std::uint32_t customer = state.fifo.pop_front();
      if (!state.fifo.empty()) {
        events_.schedule(service_slot(server),
                         t + 1.0 / config_.servers[server].service_rate);
      }
      complete_service(t, server, customer);
    } else {
      auto& state = servers_[server];
      RS_DASSERT(!state.ps_active.empty());
      ps_update_virtual(t, server);
      const PsEntry done = state.ps_active.pop_front();
      state.virtual_time = done.finish_vt;  // absorb rounding drift
      ps_reschedule(t, server);
      complete_service(t, server, done.customer);
    }
  }

  while (next_checkpoint_ < checkpoints_.size() &&
         checkpoints_[next_checkpoint_] <= horizon) {
    checkpoint_counts_[next_checkpoint_++] = departures_total_;
  }

  stats_.finalize(warmup, horizon, !stats_reset);
  if (config_.track_per_server) {
    for (std::uint32_t s = 0; s < servers_.size(); ++s) {
      server_stats_[s].mean_occupancy = stats_.occupancy_mean(s);
    }
  }
}

}  // namespace routesim
