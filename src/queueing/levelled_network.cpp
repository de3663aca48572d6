#include "queueing/levelled_network.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

LevelledNetwork::LevelledNetwork(LevelledNetworkConfig config)
    : config_(std::move(config)) {
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
    servers_[s].ps = PsVirtualClock(spec.service_rate);
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
  events_.push(now + gap, Ev{EventKind::kExternalArrival, server, 0});
}

void LevelledNetwork::enter_server(double now, std::uint32_t server,
                                   std::uint32_t customer) {
  auto& state = servers_[server];
  if (now >= warmup_) ++server_stats_[server].total_arrivals;
  stats_.occupancy_add(server, now, +1.0);
  if (config_.discipline == Discipline::kFifo) {
    state.fifo.push_back(customer);
    if (state.fifo.size() == 1) {
      events_.push(now + 1.0 / config_.servers[server].service_rate,
                   Ev{EventKind::kFifoDone, server, 0});
    }
  } else {
    state.ps.advance(now);
    state.ps.admit(customer);
    ps_reschedule(now, server);
  }
}

void LevelledNetwork::ps_reschedule(double now, std::uint32_t server) {
  auto& state = servers_[server];
  ++state.ps_stamp;
  if (state.ps.empty()) return;
  events_.push(now + state.ps.gap_to_completion(),
               Ev{EventKind::kPsDone, server, state.ps_stamp});
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

    const auto& payload = event.payload;
    switch (payload.kind) {
      case EventKind::kExternalArrival: {
        schedule_next_external(t, payload.server);
        const std::uint32_t customer = customers_.allocate();
        customers_[customer].arrival_time = t;
        if (t >= warmup) ++server_stats_[payload.server].external_arrivals;
        stats_.count_arrival(t);
        enter_server(t, payload.server, customer);
        break;
      }
      case EventKind::kFifoDone: {
        auto& state = servers_[payload.server];
        RS_DASSERT(!state.fifo.empty());
        const std::uint32_t customer = state.fifo.pop_front();
        if (!state.fifo.empty()) {
          events_.push(t + 1.0 / config_.servers[payload.server].service_rate,
                       Ev{EventKind::kFifoDone, payload.server, 0});
        }
        complete_service(t, payload.server, customer);
        break;
      }
      case EventKind::kPsDone: {
        auto& state = servers_[payload.server];
        if (payload.stamp != state.ps_stamp) break;  // superseded schedule
        RS_DASSERT(!state.ps.empty());
        state.ps.advance(t);
        const std::uint32_t customer = state.ps.complete();
        ps_reschedule(t, payload.server);
        complete_service(t, payload.server, customer);
        break;
      }
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
