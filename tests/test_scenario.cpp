// Scenario API tests: the key table, the textual round trip through the
// CLI parser, sweep specs and derived quantities.

#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/registry.hpp"
#include "store/result_store.hpp"
#include "util/assert.hpp"

namespace routesim {
namespace {

TEST(Scenario, DefaultsRoundTripThroughTextualForm) {
  const Scenario original;
  std::vector<std::string> args{original.scheme};
  for (const auto& [key, value] : original.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  EXPECT_EQ(Scenario::parse(args), original);
}

TEST(Scenario, NonDefaultRoundTripThroughTextualForm) {
  Scenario original;
  original.scheme = "network_q";
  original.d = 9;
  original.lambda = 1.7342;
  original.p = 0.3125;
  original.tau = 0.25;
  original.discipline = "ps";
  original.workload = "uniform";
  original.fanout = 7;
  original.unicast_baseline = true;
  original.buffer_capacity = 12;
  original.window = {123.5, 4567.25};
  original.measure = 777.125;
  original.plan = {11, 987654321};

  std::vector<std::string> args{original.scheme};
  for (const auto& [key, value] : original.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  const Scenario parsed = Scenario::parse(args);
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(parsed.to_string(), original.to_string());
}

TEST(Scenario, FaultKeysRoundTripThroughTextualForm) {
  Scenario original;
  original.scheme = "hypercube_greedy";
  original.d = 6;
  original.faults.arc_fault_rate = 0.125;
  original.faults.node_fault_rate = 0.0625;
  original.faults.mtbf = 100.5;
  original.faults.mttr = 12.25;
  original.fault_policy = "skip_dim";
  original.ttl = 512;
  EXPECT_TRUE(original.faults_active());

  std::vector<std::string> args{original.scheme};
  for (const auto& [key, value] : original.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  EXPECT_EQ(Scenario::parse(args), original);

  Scenario scenario;
  EXPECT_FALSE(scenario.faults_active());
  EXPECT_THROW(scenario.set("fault_rate", "1.5"), ScenarioError);
  EXPECT_THROW(scenario.set("node_fault_rate", "-0.1"), ScenarioError);
  EXPECT_THROW(scenario.set("fault_policy", "teleport"), ScenarioError);
  EXPECT_THROW(scenario.set("ttl", "-3"), ScenarioError);
  EXPECT_NO_THROW(scenario.set("fault_policy", "twin_detour"));
}

TEST(Scenario, UnknownKeySuggestsNearestValidKeys) {
  Scenario scenario;
  try {
    scenario.set("fault_rat", "0.1");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("fault_rate"), std::string::npos) << message;
  }
  try {
    scenario.set("lamda", "1.0");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("lambda"), std::string::npos);
  }
  // The worker-pool width is the engine's (EngineOptions::threads), not a
  // scenario key: it never changes results.
  try {
    scenario.set("threads", "2");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown scenario key 'threads'"), std::string::npos)
        << message;
  }
}

TEST(Scenario, MaskPmfParsesInlineAndFromFileWithRoundTrip) {
  // Inline CSV, unnormalised on purpose: 1,1,1,1 -> 0.25 each.
  Scenario scenario;
  scenario.set("d", "2");
  scenario.set("workload", "general");
  scenario.set("mask_pmf", "1,1,1,1");
  ASSERT_EQ(scenario.mask_pmf.size(), 4u);
  for (const double probability : scenario.mask_pmf) {
    EXPECT_DOUBLE_EQ(probability, 0.25);
  }

  // Whitespace/CSV mix from a file via @path.
  const std::string path = ::testing::TempDir() + "mask_pmf_roundtrip.txt";
  {
    std::ofstream out(path);
    out << "0.5, 0.25\n0.125\t0.125\n";
  }
  Scenario from_file;
  from_file.set("d", "2");
  from_file.set("workload", "general");
  from_file.set("mask_pmf", "@" + path);
  ASSERT_EQ(from_file.mask_pmf.size(), 4u);
  EXPECT_DOUBLE_EQ(from_file.mask_pmf[0], 0.5);
  EXPECT_DOUBLE_EQ(from_file.mask_pmf[3], 0.125);
  EXPECT_EQ(from_file.make_destinations().dimension(), 2);

  // Full textual round trip: to_key_values() emits the inline CSV form.
  std::vector<std::string> args{from_file.scheme};
  for (const auto& [key, value] : from_file.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  EXPECT_EQ(Scenario::parse(args), from_file);
  std::remove(path.c_str());
}

TEST(Scenario, MaskPmfRejectsMalformedInput) {
  Scenario scenario;
  scenario.set("d", "2");
  // Wrong entry count (needs 2^d = 4).
  EXPECT_THROW(scenario.set("mask_pmf", "0.5,0.5"), ScenarioError);
  // Non-numeric entry.
  EXPECT_THROW(scenario.set("mask_pmf", "0.25,0.25,abc,0.25"), ScenarioError);
  // Negative entry / zero sum.
  EXPECT_THROW(scenario.set("mask_pmf", "0.5,0.5,0.5,-0.5"), ScenarioError);
  EXPECT_THROW(scenario.set("mask_pmf", "0,0,0,0"), ScenarioError);
  // Missing file.
  EXPECT_THROW(scenario.set("mask_pmf", "@/no/such/file.txt"), ScenarioError);
  // Nothing was committed by the failed attempts.
  EXPECT_TRUE(scenario.mask_pmf.empty());
}

TEST(Scenario, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Scenario::parse({}), ScenarioError);
  EXPECT_THROW((void)Scenario::parse({"d=4"}), ScenarioError);
  EXPECT_THROW((void)Scenario::parse({"hypercube_greedy", "bogus"}),
               ScenarioError);
  EXPECT_THROW((void)Scenario::parse({"hypercube_greedy", "nope=1"}),
               ScenarioError);
  EXPECT_THROW((void)Scenario::parse({"hypercube_greedy", "d=abc"}),
               ScenarioError);
  EXPECT_THROW((void)Scenario::parse({"hypercube_greedy", "d=4.5"}),
               ScenarioError);
  EXPECT_THROW((void)Scenario::parse({"hypercube_greedy", "discipline=lifo"}),
               ScenarioError);
}

TEST(Scenario, UnknownTopologySuggestsNearestFamily) {
  Scenario scenario;
  try {
    scenario.set("topology", "trous");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown topology"), std::string::npos) << message;
    EXPECT_NE(message.find("torus"), std::string::npos) << message;
  }
  EXPECT_THROW(scenario.set("topology", ""), ScenarioError);
}

TEST(Scenario, TopologyKeysValidateAtSetTime) {
  Scenario scenario;
  // ring_chords: strides must be distinct integers in [2, n/2 - 1], or the
  // 'papillon' keyword; torus_dims: 'AxB' / 'AxBxC' with extents in [2, 256].
  EXPECT_NO_THROW(scenario.set("ring_chords", "4,16"));
  EXPECT_NO_THROW(scenario.set("ring_chords", "papillon"));
  EXPECT_NO_THROW(scenario.set("ring_chords", ""));
  EXPECT_THROW(scenario.set("ring_chords", "1"), ScenarioError);
  EXPECT_THROW(scenario.set("ring_chords", "4,4"), ScenarioError);
  EXPECT_THROW(scenario.set("ring_chords", "4,abc"), ScenarioError);

  EXPECT_NO_THROW(scenario.set("torus_dims", "4x4x4"));
  EXPECT_NO_THROW(scenario.set("torus_dims", "3x5"));
  EXPECT_THROW(scenario.set("torus_dims", "4"), ScenarioError);
  EXPECT_THROW(scenario.set("torus_dims", "4x1"), ScenarioError);
  EXPECT_THROW(scenario.set("torus_dims", "4x300"), ScenarioError);
  EXPECT_THROW(scenario.set("torus_dims", "4xx4"), ScenarioError);
}

TEST(Scenario, TopologyKeysRoundTripThroughTextualForm) {
  Scenario original;
  original.scheme = "hypercube_greedy";
  original.set("topology", "ring");
  original.set("ring_chords", "4,16");
  original.set("workload", "uniform");
  original.d = 6;
  std::vector<std::string> args{original.scheme};
  for (const auto& [key, value] : original.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  const Scenario parsed = Scenario::parse(args);
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(parsed.topology, "ring");
  EXPECT_EQ(parsed.ring_chords, "4,16");

  Scenario torus;
  torus.set("topology", "torus");
  torus.set("torus_dims", "4x4x4");
  torus.set("workload", "uniform");
  args = {torus.scheme};
  for (const auto& [key, value] : torus.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  EXPECT_EQ(Scenario::parse(args), torus);
}

TEST(Scenario, SchemeCheckResolvesAndRejectsTopologies) {
  Scenario scenario;
  scenario.scheme = "butterfly_greedy";
  scenario.set("topology", "torus");
  // butterfly_greedy is butterfly-native: a torus scenario must fail loudly.
  try {
    SchemeRegistry::instance().find("butterfly_greedy")->check(scenario);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("does not support topology"), std::string::npos)
        << message;
    EXPECT_NE(message.find("butterfly"), std::string::npos) << message;
  }
  // 'native' resolves to the scheme's first supported family: the same
  // run as naming that family explicitly.
  for (const auto& [scheme, first] :
       {std::pair<std::string, std::string>{"hypercube_greedy", "hypercube"},
        {"butterfly_greedy", "butterfly"}}) {
    EXPECT_EQ(SchemeRegistry::instance().find(scheme)->topologies.front(),
              first);
    Scenario native;
    native.scheme = scheme;
    native.d = 3;
    native.window = {10.0, 60.0};
    native.plan = {1, 5};
    Scenario named = native;
    named.set("topology", first);
    EXPECT_EQ(run(native).delay.mean, run(named).delay.mean) << scheme;
  }
}

TEST(Scenario, GenericTopologyRunsRejectUnsupportedFeatures) {
  const auto compile = [](const Scenario& scenario) { return run(scenario); };

  Scenario faulty;
  faulty.scheme = "hypercube_greedy";
  faulty.set("topology", "ring");
  faulty.set("workload", "uniform");
  faulty.set("fault_rate", "0.01");
  faulty.measure = 50.0;
  EXPECT_THROW((void)compile(faulty), ScenarioError);

  // The default bit_flip workload has no meaning off the hypercube.
  Scenario bitflip;
  bitflip.scheme = "hypercube_greedy";
  bitflip.set("topology", "torus");
  bitflip.measure = 50.0;
  EXPECT_THROW((void)compile(bitflip), ScenarioError);

  // workload=permutation needs 2^d nodes: fine on a ring, not on a 3x5 mesh.
  Scenario meshperm;
  meshperm.scheme = "hypercube_greedy";
  meshperm.set("topology", "mesh");
  meshperm.set("torus_dims", "3x5");
  meshperm.set("workload", "permutation");
  meshperm.measure = 50.0;
  EXPECT_THROW((void)compile(meshperm), ScenarioError);

  // A knob the scheme does not honour fails on every topology, naming the
  // key and the scheme, instead of being silently ignored.
  struct Ignored {
    std::string scheme;
    std::string topology;
    std::string key;
    std::string value;
  };
  // A d outside [1, 20] fails the same way, on every scheme, before any
  // load rule runs — not as an internal precondition failure, and not by
  // starting a 2^21-row butterfly.
  std::vector<Ignored> out_of_range;
  for (const std::string& scheme : SchemeRegistry::instance().names()) {
    out_of_range.push_back({scheme, "native", "d", "0"});
  }
  out_of_range.push_back({"butterfly_greedy", "native", "d", "21"});
  out_of_range.push_back({"butterfly_greedy", "native", "d", "26"});
  std::vector<Ignored> cases{
      {"valiant_mixing", "native", "tau", "1"},
      {"valiant_mixing", "native", "buffers", "2"},
      {"valiant_mixing", "torus", "tau", "1"},
      {"valiant_mixing", "ring", "buffers", "2"},
      {"deflection", "native", "tau", "1"},
      {"deflection", "native", "buffers", "2"},
      {"deflection", "ring", "tau", "1"},
      {"deflection", "torus", "buffers", "2"},
      {"butterfly_greedy", "native", "buffers", "1"},
      {"network_q", "native", "tau", "1"},
      {"network_q", "native", "buffers", "2"},
      {"pipelined_baseline", "native", "tau", "1"},
      {"pipelined_baseline", "native", "buffers", "2"},
      {"batch_greedy", "native", "tau", "1"},
      {"batch_greedy", "native", "buffers", "2"},
      {"multicast", "native", "tau", "1"},
      {"multicast", "native", "buffers", "2"},
      // A tau that is not a slot length (1/tau an integer, tau <= 1).
      {"hypercube_greedy", "native", "tau", "0.3"},
      {"hypercube_greedy", "native", "tau", "2"},
      {"butterfly_greedy", "native", "tau", "0.3"},
      // Knobs no scheme-specific code reads on these schemes.
      {"hypercube_greedy", "native", "fanout", "2"},
      {"network_q_ps", "native", "fanout", "2"},
      {"butterfly_greedy", "native", "ttl", "8"},
      {"network_q_fifo", "native", "discipline", "ps"},
      {"deflection", "native", "fault_policy", "skip_dim"},
      {"deflection", "native", "workload", "trace"},
      {"multicast", "native", "workload", "general"},
      {"multicast", "native", "workload", "trace"},
      {"pipelined_baseline", "native", "workload", "trace"},
      {"batch_greedy", "native", "workload", "trace"},
      {"hypercube_greedy", "native", "ring_chords", "papillon"},
      {"hypercube_greedy", "torus", "ring_chords", "papillon"},
      {"hypercube_greedy", "native", "torus_dims", "8x8"},
      {"hypercube_greedy", "ring", "torus_dims", "8x8"}};
  cases.insert(cases.end(), out_of_range.begin(), out_of_range.end());
  for (const Ignored& c : cases) {
    Scenario ignored;
    ignored.scheme = c.scheme;
    ignored.set("topology", c.topology);
    ignored.set("workload", "uniform");
    ignored.set(c.key, c.value);
    ignored.measure = 50.0;
    try {
      (void)compile(ignored);
      FAIL() << c.scheme << " on " << c.topology << " accepted " << c.key;
    } catch (const ScenarioError& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(c.key == "d" ? "d=" + c.value : c.key),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(c.scheme), std::string::npos) << message;
    }
  }
}

TEST(Scenario, UniformWorkloadOverridesPEverywhere) {
  Scenario scenario;
  scenario.workload = "uniform";
  scenario.p = 0.9;  // ignored by the uniform law
  scenario.lambda = 1.2;
  EXPECT_DOUBLE_EQ(scenario.effective_p(), 0.5);
  EXPECT_DOUBLE_EQ(scenario.rho(), 0.6);
  scenario.set("rho", "0.5");
  EXPECT_DOUBLE_EQ(scenario.rho(), 0.5);
  EXPECT_DOUBLE_EQ(scenario.resolved().lambda, 1.0);
}

TEST(Scenario, SeedRoundTripsFull64Bits) {
  Scenario scenario;
  scenario.set("seed", "12345678901234567890");  // > 2^53
  EXPECT_EQ(scenario.plan.base_seed, 12345678901234567890ull);
  EXPECT_THROW(scenario.set("seed", "-1"), ScenarioError);
  EXPECT_THROW(scenario.set("seed", "12x"), ScenarioError);
}

TEST(Scenario, ResolvedWindowRejectsInvalidWindows) {
  Scenario inverted;
  inverted.window = {500.0, 100.0};  // horizon < warmup
  EXPECT_THROW((void)inverted.resolved_window(), ScenarioError);

  Scenario unstable;
  unstable.lambda = 3.0;  // rho = 1.5: the auto window cannot be derived
  EXPECT_THROW((void)unstable.resolved_window(), ScenarioError);
  unstable.window = {0.0, 1000.0};  // explicit window is fine
  EXPECT_NO_THROW((void)unstable.resolved_window());
}

TEST(Scenario, RhoKeyResolvesLambdaAtResolveTime) {
  Scenario scenario;
  scenario.set("p", "0.25");
  scenario.set("rho", "0.5");
  EXPECT_DOUBLE_EQ(scenario.resolved().lambda, 2.0);
  EXPECT_DOUBLE_EQ(scenario.rho(), 0.5);

  Scenario butterfly;
  butterfly.scheme = "butterfly_greedy";
  butterfly.set("p", "0.3");
  butterfly.set("rho", "0.7");
  // rho = lambda * max{p, 1-p}
  EXPECT_DOUBLE_EQ(butterfly.resolved().lambda, 1.0);
  EXPECT_DOUBLE_EQ(butterfly.rho(), 0.7);

  // resolved() is the identity when no target is pending.
  Scenario plain;
  plain.lambda = 1.25;
  EXPECT_EQ(plain.resolved(), plain);
}

// The order-dependence fix: rho is a deferred target, so `--set rho=0.6
// --set p=0.7` and the reverse order give the same scenario — today and
// across d/workload/scheme changes applied after rho.
TEST(Scenario, RhoKeyIsOrderIndependent) {
  Scenario rho_first;
  rho_first.set("rho", "0.6");
  rho_first.set("p", "0.7");
  Scenario p_first;
  p_first.set("p", "0.7");
  p_first.set("rho", "0.6");
  EXPECT_EQ(rho_first, p_first);
  EXPECT_EQ(rho_first.resolved(), p_first.resolved());
  EXPECT_DOUBLE_EQ(rho_first.resolved().lambda, 0.6 / 0.7);
  EXPECT_DOUBLE_EQ(rho_first.rho(), 0.6);

  // Workload changes after rho also participate in the deferred solve.
  Scenario uniform_later;
  uniform_later.set("rho", "0.5");
  uniform_later.set("p", "0.9");
  uniform_later.set("workload", "uniform");  // effective p = 0.5
  EXPECT_DOUBLE_EQ(uniform_later.resolved().lambda, 1.0);

  // An explicit lambda after rho wins (and clears the target).
  Scenario lambda_wins;
  lambda_wins.set("rho", "0.5");
  lambda_wins.set("lambda", "2.0");
  EXPECT_FALSE(lambda_wins.rho_target.has_value());
  EXPECT_DOUBLE_EQ(lambda_wins.lambda, 2.0);

  // The pending target round-trips through the textual form.
  Scenario pending;
  pending.set("rho", "0.35");
  std::vector<std::string> args{pending.scheme};
  for (const auto& [key, value] : pending.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  EXPECT_EQ(Scenario::parse(args), pending);

  // A degenerate load factor surfaces at resolve time, catchably.
  Scenario degenerate;
  degenerate.set("rho", "0.5");
  degenerate.set("p", "0");
  EXPECT_THROW((void)degenerate.resolved(), ScenarioError);
  EXPECT_THROW(degenerate.set("rho", "-0.1"), ScenarioError);
}

TEST(Scenario, ResolvedWindowDerivesFromLoadWhenAuto) {
  Scenario scenario;
  scenario.d = 6;
  scenario.lambda = 1.2;
  scenario.p = 0.5;
  scenario.measure = 1000.0;
  const Window window = scenario.resolved_window();
  EXPECT_EQ(window, Window::for_load(6, 0.6, 1000.0));

  scenario.window = {5.0, 50.0};
  EXPECT_EQ(scenario.resolved_window(), (Window{5.0, 50.0}));
}

TEST(Scenario, GeneralWorkloadUsesBottleneckLoadFactor) {
  Scenario scenario;
  scenario.d = 2;
  scenario.lambda = 1.0;
  scenario.workload = "general";
  scenario.mask_pmf = {0.2, 0.5, 0.3, 0.0};  // flip_1 = 0.5, flip_2 = 0.3
  EXPECT_DOUBLE_EQ(scenario.rho(), 0.5);
  EXPECT_EQ(scenario.make_destinations().dimension(), 2);

  Scenario missing_pmf;
  missing_pmf.workload = "general";
  EXPECT_THROW((void)missing_pmf.make_destinations(), ScenarioError);
}

TEST(SweepSpec, ParsesRangesAndDefaultStep) {
  const auto sweep = SweepSpec::parse("rho=0.1:0.9");
  EXPECT_EQ(sweep.key, "rho");
  EXPECT_DOUBLE_EQ(sweep.start, 0.1);
  EXPECT_DOUBLE_EQ(sweep.stop, 0.9);
  EXPECT_DOUBLE_EQ(sweep.step, 0.1);
  EXPECT_EQ(sweep.values().size(), 9u);

  const auto stepped = SweepSpec::parse("d=2:10:2");
  EXPECT_EQ(stepped.values().size(), 5u);

  EXPECT_THROW((void)SweepSpec::parse("rho"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.5"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.9:0.1"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.1:0.9:0"), ScenarioError);
}

// Every malformed sweep must fail loudly with a ScenarioError, never
// degenerate into a silent empty (or endless) sweep.
TEST(SweepSpec, ParseRejectsEdgeCases) {
  // start > stop — would otherwise run zero points.
  EXPECT_THROW((void)SweepSpec::parse("lambda=1.0:0.5"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("d=10:2:2"), ScenarioError);
  // zero / negative step — zero never advances, negative walks away.
  EXPECT_THROW((void)SweepSpec::parse("p=0.1:0.9:0.0"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("p=0.1:0.9:-0.1"), ScenarioError);
  // missing colon (or missing '='/key entirely).
  EXPECT_THROW((void)SweepSpec::parse("tau=0.25"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("0.1:0.9"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("=0.1:0.9"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse(""), ScenarioError);
  // non-numeric pieces.
  EXPECT_THROW((void)SweepSpec::parse("rho=a:b"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.1:0.9:x"), ScenarioError);
  // non-finite values: NaN comparisons are all false (a *silent* empty
  // sweep) and an infinite step never passes stop (an endless one).
  EXPECT_THROW((void)SweepSpec::parse("rho=nan:0.9"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.1:nan"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.1:0.9:nan"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.1:inf"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("rho=0.1:0.9:inf"), ScenarioError);
}

TEST(SweepSpec, SinglePointAndInclusiveStopSweeps) {
  // start == stop is a valid one-point sweep.
  const auto single = SweepSpec::parse("rho=0.5:0.5");
  EXPECT_EQ(single.values().size(), 1u);
  EXPECT_DOUBLE_EQ(single.values().front(), 0.5);
  // The stop value is included despite floating-point accumulation.
  const auto inclusive = SweepSpec::parse("rho=0.1:0.9:0.1");
  ASSERT_EQ(inclusive.values().size(), 9u);
  EXPECT_DOUBLE_EQ(inclusive.values().back(), 0.9);
  // A step larger than the range still yields the start point.
  const auto coarse = SweepSpec::parse("rho=0.2:0.4:5");
  ASSERT_EQ(coarse.values().size(), 1u);
  EXPECT_DOUBLE_EQ(coarse.values().front(), 0.2);
}

TEST(SweepSpec, ApplySweepValueRoundsIntegerKeys) {
  Scenario scenario;
  apply_sweep_value(scenario, "d", 8.0);
  EXPECT_EQ(scenario.d, 8);
  apply_sweep_value(scenario, "rho", 0.6);
  EXPECT_DOUBLE_EQ(scenario.resolved().lambda, 1.2);
}

// values() generates by index (start + i*step), so later points carry no
// accumulated rounding error.
TEST(SweepSpec, ValuesGeneratedByIndexNotAccumulation) {
  const auto sweep = SweepSpec::parse("rho=0.1:0.7:0.2");
  const auto values = sweep.values();
  ASSERT_EQ(values.size(), 4u);
  // Accumulation gives 0.1 + 0.2 + 0.2 = 0.5000000000000001; the index
  // form 0.1 + 2*0.2 hits 0.5 exactly.
  EXPECT_DOUBLE_EQ(values[2], 0.5);
  EXPECT_DOUBLE_EQ(values[3], 0.7);

  // Direct construction goes through the same validation as parse().
  SweepSpec negative{"rho", 0.1, 0.9, -0.1};
  EXPECT_THROW((void)negative.values(), ScenarioError);
  SweepSpec zero_step{"rho", 0.1, 0.9, 0.0};
  EXPECT_THROW((void)zero_step.values(), ScenarioError);
  SweepSpec backwards{"rho", 0.9, 0.1, 0.1};
  EXPECT_THROW((void)backwards.values(), ScenarioError);
  SweepSpec non_finite{"rho", 0.0, 1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)non_finite.values(), ScenarioError);

  // start == stop is a one-point sweep even when constructed directly.
  SweepSpec point{"rho", 0.5, 0.5, 0.1};
  ASSERT_EQ(point.values().size(), 1u);
  EXPECT_DOUBLE_EQ(point.values().front(), 0.5);
  // A step larger than the whole range still yields the start point.
  SweepSpec coarse{"rho", 0.2, 0.4, 5.0};
  ASSERT_EQ(coarse.values().size(), 1u);
  EXPECT_DOUBLE_EQ(coarse.values().front(), 0.2);
}

TEST(RunResult, BracketAndExtraLookup) {
  RunResult result;
  result.extras.emplace_back("makespan", ConfidenceInterval{7.0, 0.5, 0.95});
  ASSERT_NE(result.extra("makespan"), nullptr);
  EXPECT_DOUBLE_EQ(result.extra("makespan")->mean, 7.0);
  EXPECT_EQ(result.extra("absent"), nullptr);

  EXPECT_TRUE(result.within_bracket());  // no bounds => trivially inside
  result.has_bounds = true;
  result.lower_bound = 2.0;
  result.upper_bound = 4.0;
  result.delay = {3.0, 0.1, 0.95};
  EXPECT_TRUE(result.within_bracket());
  result.delay.mean = 5.0;
  EXPECT_FALSE(result.within_bracket());
  EXPECT_TRUE(result.within_bracket(1.0));

  // The paper's bracket on the cube: topology=native and topology=hypercube
  // run the one greedy simulator, so they agree on the whole result, the
  // bracket included — continuous (Props. 12/13) and slotted (§3.4).
  std::vector<double> upper_bounds;
  for (const char* tau : {"0", "0.5"}) {
    std::string native_json;
    for (const char* topology : {"native", "hypercube"}) {
      const Scenario cube = Scenario::parse_text(
          std::string("hypercube_greedy d=4 rho=0.5 reps=2 measure=200 "
                      "workload=uniform topology=") +
          topology + " tau=" + tau);
      const RunResult greedy = run(cube);
      EXPECT_TRUE(greedy.has_bounds) << topology << " tau=" << tau;
      EXPECT_LT(greedy.lower_bound, greedy.upper_bound);
      const std::string json = result_to_json(greedy);
      if (native_json.empty()) {
        native_json = json;
        upper_bounds.push_back(greedy.upper_bound);
      } else {
        EXPECT_EQ(json, native_json) << "tau=" << tau;
      }
    }
  }
  // The slotted case uses slotted_delay_upper_bound, not the continuous one.
  ASSERT_EQ(upper_bounds.size(), 2u);
  EXPECT_NE(upper_bounds[0], upper_bounds[1]);
}

TEST(Scenario, RunRejectsUnknownScheme) {
  Scenario scenario;
  scenario.scheme = "no_such_scheme";
  EXPECT_THROW((void)run(scenario), ScenarioError);
}

TEST(Scenario, StormAndTraceKeysRoundTripThroughTextualForm) {
  Scenario original;
  original.scheme = "hypercube_greedy";
  original.d = 6;
  original.set("fault_policy", "adaptive");
  original.set("fault_rate", "0.05");
  original.set("storm_rate", "0.04");
  original.set("storm_radius", "2");
  original.set("storm_duration", "17.5");
  original.set("workload", "trace");
  original.set("trace_file", "/tmp/replay.jsonl");

  std::vector<std::string> args{original.scheme};
  for (const auto& [key, value] : original.to_key_values()) {
    args.push_back(key + "=" + value);
  }
  const Scenario parsed = Scenario::parse(args);
  EXPECT_EQ(parsed, original);
  EXPECT_DOUBLE_EQ(parsed.faults.storm_rate, 0.04);
  EXPECT_EQ(parsed.faults.storm_radius, 2);
  EXPECT_DOUBLE_EQ(parsed.faults.storm_duration, 17.5);
  EXPECT_EQ(parsed.trace_file, "/tmp/replay.jsonl");
  EXPECT_EQ(parsed.to_string(), original.to_string());
  EXPECT_TRUE(parsed.faults_active());
}

TEST(Scenario, StormKeysValidateAtSetTime) {
  Scenario scenario;
  EXPECT_THROW(scenario.set("storm_rate", "-0.1"), ScenarioError);
  EXPECT_THROW(scenario.set("storm_rate", "nan"), ScenarioError);
  EXPECT_THROW(scenario.set("storm_radius", "-1"), ScenarioError);
  EXPECT_THROW(scenario.set("storm_duration", "-5"), ScenarioError);
  EXPECT_THROW(scenario.set("storm_duration", "inf"), ScenarioError);
  EXPECT_NO_THROW(scenario.set("storm_rate", "0.1"));
  EXPECT_NO_THROW(scenario.set("storm_duration", "10"));
}

TEST(Scenario, HalfConfiguredStormIsRejectedWithDidYouMean) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 5;
  scenario.set("fault_policy", "skip_dim");
  scenario.set("storm_rate", "0.1");  // no storm_duration
  scenario.measure = 50.0;
  try {
    (void)run(scenario);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("did you mean"), std::string::npos) << message;
    EXPECT_NE(message.find("storm_duration"), std::string::npos) << message;
  }
}

TEST(Scenario, TraceFileRequiresTraceWorkload) {
  Scenario scenario;
  scenario.set("trace_file", "/tmp/replay.jsonl");  // workload still bit_flip
  try {
    (void)scenario.shared_trace();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("requires workload=trace"),
              std::string::npos)
        << error.what();
  }
  // No trace file => no replay, whatever the workload.
  Scenario plain;
  EXPECT_EQ(plain.shared_trace(), nullptr);
}

TEST(Scenario, TraceFilePathRejectsWhitespace) {
  Scenario scenario;
  EXPECT_THROW(scenario.set("trace_file", "has space.jsonl"), ScenarioError);
  EXPECT_THROW(scenario.set("trace_file", "tab\there.jsonl"), ScenarioError);
  EXPECT_TRUE(scenario.trace_file.empty());
}

TEST(Scenario, TraceLoaderErrorsSurfaceAsScenarioError) {
  // A missing file is a catchable ScenarioError, not a crash.
  Scenario missing;
  missing.set("workload", "trace");
  missing.set("trace_file", "/nonexistent/replay.jsonl");
  try {
    (void)missing.shared_trace();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot open"), std::string::npos)
        << error.what();
  }

  // Validation failures carry the offending line number through.
  const std::string path = ::testing::TempDir() + "scenario_bad_trace.jsonl";
  {
    std::ofstream out(path);
    out << "{\"t\":2.0,\"src\":0,\"dst\":1}\n"
        << "{\"t\":1.0,\"src\":2,\"dst\":3}\n";
  }
  Scenario unsorted;
  unsorted.set("workload", "trace");
  unsorted.set("trace_file", path);
  try {
    (void)unsorted.shared_trace();
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

TEST(SweepSpec, StormRateIsSweepable) {
  const auto sweep = SweepSpec::parse("storm_rate=0:0.1:0.05");
  EXPECT_EQ(sweep.key, "storm_rate");
  EXPECT_EQ(sweep.values().size(), 3u);
  Scenario scenario;
  apply_sweep_value(scenario, "storm_rate", 0.05);
  EXPECT_DOUBLE_EQ(scenario.faults.storm_rate, 0.05);
}

// The textual form is the persistent store's key format: pin it byte for
// byte so a key-table change cannot silently orphan stored results.
TEST(Scenario, ParseTextSplitsOnTabsAndLineEnds) {
  const Scenario want =
      Scenario::parse_text("hypercube_greedy d=5 rho=0.6 reps=4 seed=7");
  for (const char* text :
       {"hypercube_greedy\td=5\trho=0.6\treps=4\tseed=7",
        "hypercube_greedy d=5 rho=0.6 reps=4 seed=7\r\n",
        "\r\n hypercube_greedy \t d=5\r\nrho=0.6\nreps=4\r seed=7 \r\n",
        "  hypercube_greedy\vd=5\frho=0.6  reps=4\t\tseed=7\n\n"}) {
    EXPECT_EQ(Scenario::parse_text(text), want) << text;
  }
  // A byte outside the six stays inside its token.
  EXPECT_THROW((void)Scenario::parse_text("hypercube_greedy d=5\x01"), ScenarioError);
  EXPECT_THROW((void)Scenario::parse_text(" \t\r\n"), ScenarioError);
}

TEST(Scenario, TextualFormIsPinned) {
  EXPECT_EQ(Scenario().to_string(),
            "hypercube_greedy d=4 topology=native torus_dims=4x4 lambda=0.1 "
            "p=0.5 tau=0 discipline=fifo workload=bit_flip "
            "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
            "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
            "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
            "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
            "measure=4e+03 reps=8 seed=1 backend=scalar");
  Scenario optional;
  optional.set("ring_chords", "papillon");
  optional.set("rho", "0.5");
  optional.set("workload", "trace");
  optional.set("trace_file", "replay.jsonl");
  const std::string text = optional.to_string();
  EXPECT_NE(text.find(" topology=native ring_chords=papillon torus_dims=4x4 "
                      "lambda=0.1 rho=0.5 p=0.5 "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(" workload=trace trace_file=replay.jsonl permutation="),
            std::string::npos)
      << text;
}

TEST(Scenario, EveryKeyRowIsCompleteAndRoundTripsItsDefault) {
  std::set<std::string> names;
  for (const ScenarioKey& key : Scenario::keys()) {
    EXPECT_TRUE(names.insert(key.name).second) << "duplicate key " << key.name;
    EXPECT_FALSE(key.doc.empty()) << key.name;
    EXPECT_FALSE(key.type.empty()) << key.name;
    ASSERT_NE(key.set, nullptr) << key.name;
    ASSERT_NE(key.append, nullptr) << key.name;
    Scenario scenario;
    if (const auto value = key.get(scenario)) {
      key.set(scenario, *value);
      EXPECT_EQ(scenario, Scenario()) << key.name << "=" << *value;
    }
  }
}

TEST(Scenario, BadValueNamesKeyValueAndReason) {
  Scenario scenario;
  try {
    scenario.set("fault_rate", "1.5");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    EXPECT_STREQ(error.what(),
                 "bad value '1.5' for key 'fault_rate': must be in [0, 1]");
  }
  EXPECT_DOUBLE_EQ(scenario.faults.arc_fault_rate, 0.0);  // nothing committed
  EXPECT_THROW(scenario.set("buffers", "-1"), ScenarioError);
  EXPECT_THROW(scenario.set("rho", "nan"), ScenarioError);

  // Out-of-range values fail at set(), naming the key, before any cell
  // compiles or any worker starts.
  for (const auto& [key, value, reason] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"reps", "0", "must be >= 1"},
           {"measure", "0", "must be > 0"},
           {"lambda", "-0.1", "must be > 0"},
           {"lambda", "0", "must be > 0"},
           {"rho", "0", "must be > 0"},
           {"p", "-0.2", "must be in [0, 1]"},
           {"p", "1.5", "must be in [0, 1]"},
           {"tau", "-1", "must be >= 0"}}) {
    const Scenario before = scenario;
    try {
      scenario.set(key, value);
      ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const ScenarioError& error) {
      EXPECT_EQ(std::string(error.what()),
                "bad value '" + value + "' for key '" + key + "': " + reason);
    }
    EXPECT_EQ(scenario, before) << key;
  }
}

TEST(SweepSpec, RejectsKeysThatAreNotSweepable) {
  EXPECT_THROW((void)SweepSpec::parse("topology=1:2"), ScenarioError);
  EXPECT_THROW((void)SweepSpec::parse("warmup=0:100:50"), ScenarioError);
  try {
    (void)SweepSpec::parse("rh=0.1:0.9");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("did you mean: rho"), std::string::npos) << message;
  }
  for (const ScenarioKey& key : Scenario::keys()) {
    if (!key.sweepable) continue;
    EXPECT_EQ(SweepSpec::parse(key.name + "=1:2").key, key.name);
  }
}

// ResultCache::key writes result-neutral keys at their defaults, and only
// those: every other key changes the cache key.
TEST(Scenario, CacheKeyNormalisesExactlyTheResultNeutralKeys) {
  Scenario tuned;
  tuned.set("backend", "soa_batch");
  EXPECT_EQ(ResultCache::key(tuned), ResultCache::key(Scenario()));
  for (const ScenarioKey& key : Scenario::keys()) {
    EXPECT_EQ(key.result_neutral, key.name == "backend") << key.name;
  }
  Scenario seeded;
  seeded.set("seed", "2");
  EXPECT_NE(ResultCache::key(seeded), ResultCache::key(Scenario()));
}

// --- the value parsers against their stod / stoull definitions ----------

/// The reference number(): stod over the whole text, else "not a number".
std::optional<double> reference_number(const std::string& text) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(text, &pos);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (pos == 0 || pos != text.size()) return std::nullopt;
  return parsed;
}

/// The reference unsigned64(): stoull over the whole text, no '-'.
std::optional<std::uint64_t> reference_unsigned64(const std::string& text) {
  if (text.find('-') != std::string::npos) return std::nullopt;
  std::size_t pos = 0;
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(text, &pos);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (pos == 0 || pos != text.size()) return std::nullopt;
  return parsed;
}

/// set(key, text)'s error message, or "" when it is accepted.
std::string set_error(Scenario& scenario, const std::string& key,
                      const std::string& text) {
  try {
    scenario.set(key, text);
  } catch (const ScenarioError& error) {
    return error.what();
  }
  return "";
}

/// Sets `text` on a double key (warmup), an int key (d) and the uint64 key
/// (seed), and checks each value bit for bit, or each error word for word,
/// against the stod / stoull reference.
void expect_parsers_match_reference(const std::string& text) {
  const auto bad = [&](const char* key, const char* reason) {
    return "bad value '" + text + "' for key '" + key + "': " + reason;
  };
  const std::optional<double> number = reference_number(text);

  Scenario warm;
  const std::string warm_error = set_error(warm, "warmup", text);
  if (number) {
    EXPECT_EQ(warm_error, "") << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.window.warmup),
              std::bit_cast<std::uint64_t>(*number))
        << text;
  } else {
    EXPECT_EQ(warm_error, bad("warmup", "not a number"));
  }

  Scenario dim;
  const std::string dim_error = set_error(dim, "d", text);
  if (!number) {
    EXPECT_EQ(dim_error, bad("d", "not a number"));
  } else if (const int rounded = static_cast<int>(std::lround(*number));
             static_cast<double>(rounded) != *number) {
    EXPECT_EQ(dim_error, bad("d", "needs an integer"));
  } else {
    EXPECT_EQ(dim_error, "") << text;
    EXPECT_EQ(dim.d, rounded) << text;
  }

  Scenario seeded;
  const std::string seed_error = set_error(seeded, "seed", text);
  if (const std::optional<std::uint64_t> seed = reference_unsigned64(text)) {
    EXPECT_EQ(seed_error, "") << text;
    EXPECT_EQ(seeded.plan.base_seed, *seed) << text;
  } else {
    EXPECT_EQ(seed_error, bad("seed", "needs an unsigned 64-bit integer"));
  }
}

TEST(Scenario, ValueParsersMatchTheStodReference) {
  for (const char* text :
       {"0", "-0", "+0", "+0.5", ".5", "5.", "00.5", "1E5", "1e5", "1e+5",
        "0x10", "0X1p3", "1e-310", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "4.9e-324", "1e-400", "0e-400", "1e999",
        "-1e999", "1.7976931348623159e308", "inf", "-inf", "INF", "infinity",
        "nan", "-nan", "nan(12)", "", " ", " 5", "5 ", "\t7", "-", "+", ".",
        "e5", "1e", "1e+", "5x", "4e+03", "0.30000000000000004",
        "9007199254740993", "18446744073709551615", "18446744073709551616",
        "-1", "-18446744073709551615", "+18446744073709551615",
        "000000000000000000000000000000007", "2147483647", "2147483648",
        "-2147483648", "12345678901234567890123"}) {
    expect_parsers_match_reference(text);
  }
  // Random texts over the characters the grammars care about.
  constexpr std::string_view kAlphabet = "0123456789012345+-.eExXpPinfaIN( )";
  std::mt19937_64 rng(0x5CE2);
  for (int i = 0; i < 20'000; ++i) {
    std::string text;
    for (std::size_t length = rng() % 14; length-- > 0;) {
      text += kAlphabet[rng() % kAlphabet.size()];
    }
    expect_parsers_match_reference(text);
  }
  // Random doubles in the shortest, %.17g and %.3g forms, and random seeds.
  for (int i = 0; i < 20'000; ++i) {
    const double value = std::bit_cast<double>(rng());
    expect_parsers_match_reference(fmt_shortest(value));
    char text[40];
    std::snprintf(text, sizeof text, "%.17g", value);
    expect_parsers_match_reference(text);
    std::snprintf(text, sizeof text, "%.3g", value);
    expect_parsers_match_reference(text);
    expect_parsers_match_reference(std::to_string(rng()));
  }
}

// --- the textual form and the key, byte for byte ------------------------

struct GoldenText {
  const char* input;  ///< parse_text() input
  const char* text;   ///< its to_string()
  const char* key;    ///< its ResultCache::key(); "" when equal to text
};

/// Captured from the build before the key table's rows appended in place:
/// every row off its default, a pending rho on each load rule, a
/// result-neutral row, a trace hash, 17-digit, huge and tiny values.
const GoldenText kGoldenTexts[] = {
      {"hypercube_greedy",
       "hypercube_greedy d=4 topology=native torus_dims=4x4 lambda=0.1 "
       "p=0.5 tau=0 discipline=fifo workload=bit_flip "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+03 reps=8 seed=1 backend=scalar",
       ""},
      {"multicast d=2 topology=ring ring_chords=4,16 torus_dims=8x4x2 "
       "lambda=0.123456789012345678 p=0.30000000000000004 tau=0.25 "
       "discipline=ps workload=general trace_file=traces/replay.jsonl "
       "mask_pmf=0.1,0.2,0.3,0.4 permutation=transpose hotspot_frac=0.25 "
       "fanout=8 unicast_baseline=1 buffers=3 fault_rate=0.05 "
       "node_fault_rate=0.01 fault_mtbf=100 fault_mttr=5 storm_rate=0.05 "
       "storm_radius=2 storm_duration=20 fault_policy=adaptive ttl=64 "
       "warmup=-0 horizon=1100 measure=2500.5 reps=3 "
       "seed=18446744073709551615 backend=soa_batch",
       "multicast d=2 topology=ring ring_chords=4,16 torus_dims=8x4x2 "
       "lambda=0.12345678901234568 p=0.30000000000000004 tau=0.25 "
       "discipline=ps workload=general trace_file=traces/replay.jsonl "
       "mask_pmf=0.1,0.2,0.3,0.4 permutation=transpose hotspot_frac=0.25 "
       "fanout=8 unicast_baseline=1 buffers=3 fault_rate=0.05 "
       "node_fault_rate=0.01 fault_mtbf=1e+02 fault_mttr=5 storm_rate=0.05 "
       "storm_radius=2 storm_duration=2e+01 fault_policy=adaptive ttl=64 "
       "warmup=-0 horizon=1.1e+03 measure=2500.5 reps=3 "
       "seed=18446744073709551615 backend=soa_batch",
       "multicast d=2 topology=ring ring_chords=4,16 torus_dims=8x4x2 "
       "lambda=0.12345678901234568 p=0.30000000000000004 tau=0.25 "
       "discipline=ps workload=general trace_file=traces/replay.jsonl "
       "mask_pmf=0.1,0.2,0.3,0.4 permutation=transpose hotspot_frac=0.25 "
       "fanout=8 unicast_baseline=1 buffers=3 fault_rate=0.05 "
       "node_fault_rate=0.01 fault_mtbf=1e+02 fault_mttr=5 storm_rate=0.05 "
       "storm_radius=2 storm_duration=2e+01 fault_policy=adaptive ttl=64 "
       "warmup=-0 horizon=1.1e+03 measure=2500.5 reps=3 "
       "seed=18446744073709551615 backend=scalar "
       "trace_hash=0000000000000000"},
      {"butterfly_greedy d=9 p=0.7 rho=0.45 seed=9007199254740993",
       "butterfly_greedy d=9 topology=native torus_dims=4x4 lambda=0.1 "
       "rho=0.45 p=0.7 tau=0 discipline=fifo workload=bit_flip "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+03 reps=8 seed=9007199254740993 backend=scalar",
       "butterfly_greedy d=9 topology=native torus_dims=4x4 "
       "lambda=0.6428571428571429 p=0.7 tau=0 discipline=fifo "
       "workload=bit_flip permutation=bit_reversal hotspot_frac=0.1 "
       "fanout=4 unicast_baseline=0 buffers=0 fault_rate=0 "
       "node_fault_rate=0 fault_mtbf=0 fault_mttr=0 storm_rate=0 "
       "storm_radius=1 storm_duration=0 fault_policy=drop ttl=0 warmup=0 "
       "horizon=0 measure=4e+03 reps=8 seed=9007199254740993 "
       "backend=scalar"},
      {"hypercube_greedy d=6 workload=permutation "
       "permutation=bit_complement rho=0.6",
       "hypercube_greedy d=6 topology=native torus_dims=4x4 lambda=0.1 "
       "rho=0.6 p=0.5 tau=0 discipline=fifo workload=permutation "
       "permutation=bit_complement hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+03 reps=8 seed=1 backend=scalar",
       "hypercube_greedy d=6 topology=native torus_dims=4x4 lambda=0.6 "
       "p=0.5 tau=0 discipline=fifo workload=permutation "
       "permutation=bit_complement hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+03 reps=8 seed=1 backend=scalar"},
      {"hypercube_greedy topology=torus torus_dims=4x8 workload=uniform "
       "rho=0.5",
       "hypercube_greedy d=4 topology=torus torus_dims=4x8 lambda=0.1 "
       "rho=0.5 p=0.5 tau=0 discipline=fifo workload=uniform "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+03 reps=8 seed=1 backend=scalar",
       "hypercube_greedy d=4 topology=torus torus_dims=4x8 lambda=0.4 "
       "p=0.5 tau=0 discipline=fifo workload=uniform "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+03 reps=8 seed=1 backend=scalar"},
      {"hypercube_greedy lambda=1e21 warmup=1e-300 horizon=1e300 "
       "measure=1e-5 tau=0.0001",
       "hypercube_greedy d=4 topology=native torus_dims=4x4 lambda=1e+21 "
       "p=0.5 tau=0.0001 discipline=fifo workload=bit_flip "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=1e-300 "
       "horizon=1e+300 measure=1e-05 reps=8 seed=1 backend=scalar",
       ""},
      {"hypercube_greedy d=4 workload=uniform rho=0.35 measure=40 reps=2 "
       "seed=3000009",
       "hypercube_greedy d=4 topology=native torus_dims=4x4 lambda=0.1 "
       "rho=0.35 p=0.5 tau=0 discipline=fifo workload=uniform "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+01 reps=2 seed=3000009 backend=scalar",
       "hypercube_greedy d=4 topology=native torus_dims=4x4 lambda=0.7 "
       "p=0.5 tau=0 discipline=fifo workload=uniform "
       "permutation=bit_reversal hotspot_frac=0.1 fanout=4 "
       "unicast_baseline=0 buffers=0 fault_rate=0 node_fault_rate=0 "
       "fault_mtbf=0 fault_mttr=0 storm_rate=0 storm_radius=1 "
       "storm_duration=0 fault_policy=drop ttl=0 warmup=0 horizon=0 "
       "measure=4e+01 reps=2 seed=3000009 backend=scalar"},
};

TEST(Scenario, TextAndKeyMatchTheGoldenCorpus) {
  for (const GoldenText& golden : kGoldenTexts) {
    const Scenario scenario = Scenario::parse_text(golden.input);
    EXPECT_EQ(scenario.to_string(), golden.text) << golden.input;
    EXPECT_EQ(ResultCache::key(scenario),
              *golden.key != '\0' ? golden.key : golden.text)
        << golden.input;
    EXPECT_EQ(Scenario::parse_text(scenario.to_string()), scenario);
  }
  // Values no parse yields: signed zeros, subnormals, the smallest normal,
  // 17 digits, the largest finite and infinities.
  Scenario edges;
  edges.tau = -0.0;
  edges.window.warmup = -0.0;
  edges.window.horizon = std::numeric_limits<double>::denorm_min();
  edges.faults.arc_fault_rate = 1e-310;
  edges.hotspot_frac = std::numeric_limits<double>::min();
  edges.lambda = 0.1 + 0.2;
  edges.p = 1.0 / 3.0;
  edges.measure = std::numeric_limits<double>::max();
  edges.faults.storm_rate = std::numeric_limits<double>::infinity();
  edges.faults.mtbf = -std::numeric_limits<double>::infinity();
  edges.mask_pmf = {-0.0, 5e-324, 0.1 + 0.2, 2.0 / 3.0};
  EXPECT_EQ(edges.to_string(),
            "hypercube_greedy d=4 topology=native torus_dims=4x4 "
            "lambda=0.30000000000000004 p=0.33333333333333331 tau=-0 "
            "discipline=fifo workload=bit_flip "
            "mask_pmf=-0,5e-324,0.30000000000000004,0.66666666666666663 "
            "permutation=bit_reversal hotspot_frac=2.2250738585072014e-308 "
            "fanout=4 unicast_baseline=0 buffers=0 fault_rate=1e-310 "
            "node_fault_rate=0 fault_mtbf=-inf fault_mttr=0 storm_rate=inf "
            "storm_radius=1 storm_duration=0 fault_policy=drop ttl=0 "
            "warmup=-0 horizon=5e-324 measure=1.7976931348623157e+308 reps=8 "
            "seed=1 backend=scalar");
  // get() is the row's one formatter into a fresh string.
  for (const ScenarioKey& key : Scenario::keys()) {
    if (const auto value = key.get(edges)) {
      EXPECT_NE(edges.to_string().find(' ' + key.name + '=' + *value),
                std::string::npos)
          << key.name;
    }
  }
}

}  // namespace
}  // namespace routesim
