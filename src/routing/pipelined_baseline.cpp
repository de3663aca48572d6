#include "routing/pipelined_baseline.hpp"

#include "core/registry.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/distributions.hpp"

namespace routesim {

PipelinedBaselineSim::PipelinedBaselineSim(PipelinedBaselineConfig config) {
  reset(std::move(config));
}

void PipelinedBaselineSim::reset(PipelinedBaselineConfig config) {
  config_ = std::move(config);
  RS_EXPECTS(config_.lambda > 0.0);
  RS_EXPECTS(config_.destinations.dimension() == config_.d);
  cube_ = HypercubeTopology(config_.d);
  RS_EXPECTS_MSG(config_.fixed_destinations == nullptr ||
                     config_.fixed_destinations->size() == cube_.num_nodes(),
                 "fixed-destination table must have 2^d entries");
  rng_.reseed(derive_stream(config_.seed, 0xBA5E));
  node_queue_.resize(cube_.num_nodes());
  for (auto& queue : node_queue_) queue.clear();
  round_length_ = backlog_samples_ = Summary{};
  backlog_ = 0;
  next_birth_ = sample_exponential(
      rng_, config_.lambda * static_cast<double>(cube_.num_nodes()));
}

void PipelinedBaselineSim::generate_until(double t) {
  const double total_rate = config_.lambda * static_cast<double>(cube_.num_nodes());
  while (next_birth_ <= t) {
    const auto origin = static_cast<NodeId>(rng_.uniform_below(cube_.num_nodes()));
    const NodeId dest = config_.fixed_destinations != nullptr
                            ? (*config_.fixed_destinations)[origin]
                            : config_.destinations.sample(rng_, origin);
    node_queue_[origin].push_back(Waiting{next_birth_, dest});
    next_birth_ += sample_exponential(rng_, total_rate);
  }
}

void PipelinedBaselineSim::run(double warmup, double horizon) {
  RS_EXPECTS(warmup >= 0.0 && warmup <= horizon);
  // One kernel.drive span for the whole replication, as every other
  // scheme records; the rounds drive with no ambient session, so a traced
  // run's size does not grow with its round count.
  obs::TraceSpan drive_span(obs::thread_trace(), "kernel.drive", "kernel");
  const obs::ThreadTraceScope untraced_rounds(nullptr);
  stats_.begin(warmup, horizon);
  double now = 0.0;
  std::vector<BatchPacket> batch;
  std::vector<double> gen_times;

  while (now < horizon) {
    generate_until(now);

    // Select one waiting packet per node (§2.3); record who waits.
    batch.clear();
    gen_times.clear();
    for (NodeId node = 0; node < cube_.num_nodes(); ++node) {
      auto& queue = node_queue_[node];
      if (queue.empty()) continue;
      const Waiting packet = queue.front();
      queue.pop_front();
      batch.push_back(BatchPacket{node, packet.destination});
      gen_times.push_back(packet.gen_time);
    }

    if (batch.empty()) {
      now = next_birth_;  // idle until the next packet appears anywhere
      continue;
    }

    const BatchRoutingResult& routed = round_.route(cube_, batch, now);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (routed.completion_times[i] <= horizon) {
        stats_.record_delivery(routed.completion_times[i], gen_times[i], 0.0);
      }
    }
    if (routed.makespan > now) round_length_.add(routed.makespan - now);
    now = routed.makespan > now ? routed.makespan : now + 1.0;

    if (now >= warmup) {
      std::uint64_t waiting = 0;
      for (const auto& queue : node_queue_) waiting += queue.size();
      backlog_samples_.add(static_cast<double>(waiting));
    }
  }

  stats_.finalize(warmup, horizon, /*pending_reset=*/false);
  backlog_ = 0;
  for (const auto& queue : node_queue_) backlog_ += queue.size();
}

void register_pipelined_baseline_scheme(SchemeRegistry& registry) {
  registry.add(
      {.name = "pipelined_baseline",
       .summary = "non-greedy pipelined rounds of the Valiant-Brebner first "
                  "phase (§2.3; stable only for lambda*R*d < 1)",
       .compile = [](const Scenario& s) {
         CompiledScenario compiled;
         const auto perm = s.shared_permutation_table();
         const Window window = s.resolved_window();
         compiled.replicate = [s, window, perm, dist = s.make_destinations()](
                                  std::uint64_t seed, int) {
           PipelinedBaselineConfig config;
           config.d = s.d;
           config.lambda = s.lambda;
           config.destinations = dist;
           config.fixed_destinations = perm ? perm.get() : nullptr;
           config.seed = seed;
           PipelinedBaselineSim& sim =
               reusable_sim<PipelinedBaselineSim>(std::move(config));
           sim.run(window.warmup, window.horizon);
           return std::vector<double>{
               sim.delay().mean(), sim.backlog_at_rounds().mean(),
               sim.throughput(), 0.0, 0.0,
               static_cast<double>(sim.backlog()),
               sim.round_length().mean() / static_cast<double>(s.d)};
         };
         compiled.extra_metrics = {"round_over_d"};
         return compiled;
       },
       .workloads = {"bit_flip", "uniform", "general", "permutation"}});
}

}  // namespace routesim
