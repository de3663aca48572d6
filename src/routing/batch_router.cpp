#include "routing/batch_router.hpp"

#include "core/registry.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace routesim {

const BatchRoutingResult& GreedyRound::route(const HypercubeTopology& cube,
                                             std::span<const BatchPacket> batch,
                                             double start_time) {
  cube_ = &cube;
  result_.completion_times.assign(batch.size(), start_time);
  result_.makespan = start_time;
  next_index_ = 0;
  in_flight_ = 0;
  trace_.packets.clear();
  for (const BatchPacket& packet : batch) {
    RS_EXPECTS(packet.origin < cube.num_nodes() &&
               packet.destination < cube.num_nodes());
    trace_.packets.push_back({start_time, packet.origin, packet.destination});
  }

  PacketKernelConfig config;
  config.num_arcs = cube.num_arcs();
  config.trace = &trace_;
  kernel_.configure(config);
  // Work bound: until the last delivery some arc is busy in every unit, and
  // the batch needs at most batch.size() * diameter() arc services.
  const double horizon =
      start_time + static_cast<double>(batch.size()) * cube.diameter() + 1.0;
  kernel_.drive(*this, start_time, horizon);
  RS_ENSURES(in_flight_ == 0);
  return result_;
}

void GreedyRound::on_traced(double now, NodeId origin, NodeId destination) {
  const std::uint32_t index = next_index_++;
  if (origin == destination) return;  // completes at start_time
  const std::uint32_t id = kernel_.allocate_packet();
  kernel_.packet(id) = Pkt{origin, destination, index};
  ++in_flight_;
  kernel_.enqueue(now, cube_->greedy_next_arc(origin, destination), id,
                  /*external=*/true);
}

void GreedyRound::on_arc_done(double now, ArcId arc) {
  const std::uint32_t id = kernel_.finish_arc(now, arc);
  Pkt& packet = kernel_.packet(id);
  packet.cur = cube_->arc_target(arc);
  if (packet.cur != packet.dest) {
    kernel_.enqueue(now, cube_->greedy_next_arc(packet.cur, packet.dest), id,
                    /*external=*/false);
    return;
  }
  // A round's packet ids are never recycled: the next configure() clears
  // the pool.
  result_.completion_times[packet.index] = now;
  if (now > result_.makespan) result_.makespan = now;
  --in_flight_;
}

void register_batch_greedy_scheme(SchemeRegistry& registry) {
  registry.add(
      {.name = "batch_greedy",
       .summary = "one synchronous greedy round: fanout packets per node, all "
                  "present at t = 0 (the §2.3 round primitive)",
       .compile = [](const Scenario& s) {
         CompiledScenario compiled;
         // Permutation workload: all fanout packets of source x target
         // pi(x) — one synchronous greedy round of the permutation.
         const auto perm = s.shared_permutation_table();
         compiled.replicate = [s, perm, destinations = s.make_destinations()](
                                  std::uint64_t seed, int) {
           const HypercubeTopology cube(s.d);
           Rng rng(seed);
           std::vector<BatchPacket> batch;
           batch.reserve(cube.num_nodes() * static_cast<std::size_t>(s.fanout));
           double hops_total = 0.0;
           for (NodeId origin = 0; origin < cube.num_nodes(); ++origin) {
             for (int k = 0; k < s.fanout; ++k) {
               const NodeId dest = perm != nullptr
                                       ? (*perm)[origin]
                                       : destinations.sample(rng, origin);
               batch.push_back({origin, dest});
               hops_total += static_cast<double>(hamming_distance(origin, dest));
             }
           }
           GreedyRound round;
           const BatchRoutingResult& result = round.route(cube, batch, 0.0);
           double completion_total = 0.0;
           for (const double t : result.completion_times) completion_total += t;
           const double n = static_cast<double>(batch.size());
           return std::vector<double>{
               n > 0.0 ? completion_total / n : 0.0,
               0.0,
               result.makespan > 0.0 ? n / result.makespan : 0.0,
               n > 0.0 ? hops_total / n : 0.0,
               0.0,
               0.0,
               result.makespan};
         };
         compiled.extra_metrics = {"makespan"};
         return compiled;
       },
       .workloads = {"bit_flip", "uniform", "general", "permutation"},
       .keys = {"fanout"}});
}

}  // namespace routesim
