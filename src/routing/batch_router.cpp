#include "routing/batch_router.hpp"

#include "core/registry.hpp"
#include "util/bits.hpp"

#include "des/event_queue.hpp"
#include "util/assert.hpp"

namespace routesim {

namespace {

struct BatchEv {
  ArcId arc = 0;
};

}  // namespace

BatchRoutingResult route_batch_greedy(const Hypercube& cube,
                                      std::span<const BatchPacket> batch,
                                      double start_time) {
  BatchRoutingResult result;
  result.completion_times.assign(batch.size(), start_time);
  result.makespan = start_time;

  struct Flight {
    NodeId cur;
    NodeId dest;
  };
  std::vector<Flight> flights(batch.size());
  std::vector<std::vector<std::uint32_t>> arc_queue(cube.num_arcs());
  std::vector<std::size_t> arc_head(cube.num_arcs(), 0);
  EventQueue<BatchEv> events;

  const auto enqueue = [&](double now, std::uint32_t idx) {
    const auto& flight = flights[idx];
    const int dim = lowest_dimension(flight.cur ^ flight.dest);
    const ArcId arc = cube.arc_index(flight.cur, dim);
    arc_queue[arc].push_back(idx);
    if (arc_queue[arc].size() - arc_head[arc] == 1) {
      events.push(now + 1.0, BatchEv{arc});
    }
  };

  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    RS_EXPECTS(cube.valid_node(batch[i].origin) && cube.valid_node(batch[i].destination));
    flights[i] = Flight{batch[i].origin, batch[i].destination};
    if (batch[i].origin != batch[i].destination) enqueue(start_time, i);
  }

  while (!events.empty()) {
    const auto event = events.pop();
    const double t = event.time;
    const ArcId arc = event.payload.arc;
    const std::uint32_t idx = arc_queue[arc][arc_head[arc]++];
    if (arc_queue[arc].size() > arc_head[arc]) {
      events.push(t + 1.0, BatchEv{arc});
    }
    Flight& flight = flights[idx];
    flight.cur = flip_dimension(flight.cur, cube.arc_dimension(arc));
    if (flight.cur == flight.dest) {
      result.completion_times[idx] = t;
      if (t > result.makespan) result.makespan = t;
    } else {
      enqueue(t, idx);
    }
  }
  return result;
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
           const Hypercube cube(s.d);
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
           const auto result = route_batch_greedy(cube, batch, 0.0);
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
