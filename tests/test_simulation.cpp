// Integration tests for run(Scenario): replicated delay estimates land
// inside the paper's brackets with calibrated confidence intervals.

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

Scenario point(const char* scheme, int d, double lambda, double p,
               const Window& window, ReplicationPlan plan) {
  Scenario scenario;
  scenario.scheme = scheme;
  scenario.d = d;
  scenario.lambda = lambda;
  scenario.p = p;
  scenario.window = window;
  scenario.plan = plan;
  return scenario;
}

TEST(Simulation, WindowHeuristicScalesWithLoadAndDimension) {
  const auto light = Window::for_load(4, 0.2, 1000.0);
  const auto heavy = Window::for_load(4, 0.95, 1000.0);
  const auto big = Window::for_load(12, 0.2, 1000.0);
  EXPECT_LT(light.warmup, heavy.warmup);
  EXPECT_LT(light.warmup, big.warmup);
  EXPECT_DOUBLE_EQ(light.horizon - light.warmup, 1000.0);
  EXPECT_THROW((void)Window::for_load(4, 1.0, 100.0), ContractViolation);
}

TEST(Simulation, HypercubeEstimateWithinBrackets) {
  const bounds::HypercubeParams params{6, 1.2, 0.5};  // rho = 0.6
  const auto window = Window::for_load(params.d, 0.6, 8000.0);
  const RunResult result =
      run(point("hypercube_greedy", 6, 1.2, 0.5, window, {8, 2024}));
  EXPECT_GE(result.delay.mean, result.lower_bound * 0.97);
  EXPECT_LE(result.delay.mean, result.upper_bound * 1.03);
  EXPECT_DOUBLE_EQ(result.lower_bound, bounds::greedy_delay_lower_bound(params));
  EXPECT_DOUBLE_EQ(result.upper_bound, bounds::greedy_delay_upper_bound(params));
  EXPECT_LT(result.max_little_error, 0.05);
  EXPECT_NEAR(result.mean_hops, 3.0, 0.05);
  EXPECT_GT(result.delay.half_width, 0.0);
}

TEST(Simulation, HypercubeThroughputMatchesOfferedLoad) {
  const auto window = Window::for_load(5, 0.5, 5000.0);
  const RunResult result =
      run(point("hypercube_greedy", 5, 1.0, 0.5, window, {6, 7}));
  EXPECT_NEAR(result.throughput.mean / (1.0 * 32.0), 1.0, 0.03);
}

TEST(Simulation, ButterflyEstimateWithinBrackets) {
  const auto window = Window::for_load(5, 0.5, 8000.0);  // rho = 0.5
  const RunResult result =
      run(point("butterfly_greedy", 5, 1.0, 0.5, window, {8, 99}));
  EXPECT_GE(result.delay.mean, result.lower_bound * 0.97);
  EXPECT_LE(result.delay.mean, result.upper_bound * 1.03);
  EXPECT_LT(result.max_little_error, 0.05);
}

TEST(Simulation, SlottedEstimateRespectsSlottedBound) {
  const bounds::HypercubeParams params{5, 1.0, 0.5};
  Scenario scenario = point("hypercube_greedy", 5, 1.0, 0.5,
                            Window::for_load(5, 0.5, 6000.0), {6, 11});
  scenario.tau = 0.5;
  const RunResult result = run(scenario);
  EXPECT_DOUBLE_EQ(result.upper_bound,
                   bounds::slotted_delay_upper_bound(params, 0.5));
  EXPECT_LE(result.delay.mean, result.upper_bound * 1.03);
}

TEST(Simulation, NetworkQEstimateMatchesPacketLevel) {
  const auto window = Window::for_load(5, 0.5, 8000.0);
  const RunResult direct =
      run(point("hypercube_greedy", 5, 1.0, 0.5, window, {6, 31}));
  const RunResult via_q =
      run(point("network_q_fifo", 5, 1.0, 0.5, window, {6, 31}));
  EXPECT_NEAR(via_q.delay.mean / direct.delay.mean, 1.0, 0.05);
}

TEST(Simulation, PsNetworkDelayNearProductFormPrediction) {
  // Under PS the network is product-form: T~ = dp/(1-rho) exactly (within
  // simulation noise) — the Prop. 12 upper bound is tight for Q~.
  const bounds::HypercubeParams params{5, 1.0, 0.5};  // dp/(1-rho) = 5
  const RunResult result = run(point("network_q_ps", 5, 1.0, 0.5,
                                     Window::for_load(5, 0.5, 12000.0), {8, 47}));
  EXPECT_NEAR(result.delay.mean, bounds::greedy_delay_upper_bound(params), 0.15);
}

TEST(Simulation, DeterministicForPlanSeedAcrossThreadCounts) {
  const auto window = Window::for_load(4, 0.4, 1000.0);
  const Scenario scenario = point("hypercube_greedy", 4, 0.8, 0.5, window, {4, 5});
  const RunResult a = Engine(EngineOptions{.threads = 1}).run_one(scenario);
  const RunResult b = Engine(EngineOptions{.threads = 4}).run_one(scenario);
  EXPECT_DOUBLE_EQ(a.delay.mean, b.delay.mean);
  EXPECT_DOUBLE_EQ(a.population.mean, b.population.mean);
}

}  // namespace
}  // namespace routesim
