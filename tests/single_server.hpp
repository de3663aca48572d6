#pragma once
// Departure times of one deterministic server fed by a given arrival
// sequence, shared by the server tests:
//   - fifo_departure_times: the Lindley recursion D_1 = t_1 + s,
//     D_i = max(D_{i-1}, t_i) + s, an oracle of Lemmas 7 and 8;
//   - ps_departure_times: a one-server arrival loop around PsVirtualClock,
//     the virtual time LevelledNetwork's PS servers run on.

#include <cstdint>
#include <limits>
#include <vector>

#include "queueing/levelled_network.hpp"

namespace routesim {

/// FIFO departures for non-decreasing arrivals and service time `service`.
inline std::vector<double> fifo_departure_times(const std::vector<double>& arrivals,
                                                double service) {
  std::vector<double> departures;
  departures.reserve(arrivals.size());
  double previous = -std::numeric_limits<double>::infinity();
  for (const double t : arrivals) {
    previous = (t > previous ? t : previous) + service;
    departures.push_back(previous);
  }
  return departures;
}

/// PS departures (indexed like the input) of unit-work customers arriving
/// at the non-decreasing times `arrivals` to a server of rate `rate`.  A
/// completion at the instant of an arrival happens first.
inline std::vector<double> ps_departure_times(const std::vector<double>& arrivals,
                                              double rate) {
  PsVirtualClock clock(rate);
  std::vector<double> departures(arrivals.size(), 0.0);
  double now = 0.0;
  std::size_t next = 0;
  while (next < arrivals.size() || !clock.empty()) {
    const double completion = clock.empty() ? std::numeric_limits<double>::infinity()
                                            : now + clock.gap_to_completion();
    if (next < arrivals.size() && arrivals[next] < completion) {
      now = arrivals[next];
      clock.advance(now);
      clock.admit(static_cast<std::uint32_t>(next++));
    } else {
      now = completion;
      clock.advance(now);
      departures[clock.complete()] = now;
    }
  }
  return departures;
}

}  // namespace routesim
