#pragma once
/// \file routesim.hpp
/// \brief Umbrella header: the full public API of the greedy-routing
///        reproduction library.
///
/// The primary entry point is core/scenario.hpp: describe an experiment as
/// a declarative `Scenario` ({scheme, d, lambda, p, workload, window,
/// plan, ...}), then `run(scenario)` returns delay/population/throughput
/// intervals next to the paper's bounds.  Schemes are resolved by name in
/// the `SchemeRegistry` (core/registry.hpp) — greedy hypercube/butterfly,
/// the equivalent networks Q/Q~, and the baseline/related-work comparators
/// all go through the same engine, so new sweeps and workloads are a data
/// change, not new wiring.  core/bounds.hpp has every proposition as a
/// directly callable closed form.  This header pulls in everything for
/// explorative use.

#include "core/bounds.hpp"           // every proposition as a function
#include "core/campaign.hpp"         // batched campaigns: Engine, sinks, cache
#include "core/equivalence.hpp"      // networks Q, R, G builders
#include "core/experiment.hpp"       // replication plan + aggregation
#include "core/registry.hpp"         // scheme name -> factory registry
#include "core/scenario.hpp"         // declarative Scenario + run() engine

#include "des/event_queue.hpp"

#include "queueing/analytic.hpp"
#include "queueing/levelled_network.hpp"
#include "queueing/product_form.hpp"

#include "routing/batch_router.hpp"
#include "routing/deflection.hpp"
#include "routing/multicast.hpp"
#include "routing/pipelined_baseline.hpp"
#include "routing/topology_greedy.hpp"

#include "stats/ci.hpp"
#include "stats/histogram.hpp"
#include "stats/little.hpp"
#include "stats/summary.hpp"
#include "stats/timeavg.hpp"

#include "topology/ring.hpp"
#include "topology/topology.hpp"     // the concept, the paper's cube and butterfly
#include "topology/torus.hpp"

#include "util/bits.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

#include "workload/destination.hpp"
#include "workload/trace.hpp"
#include "workload/traffic.hpp"
