// SchemeRegistry tests: every built-in scheme is constructible and runnable
// by name, metric layouts are consistent, and downstream schemes can be
// plugged in at runtime.

#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace routesim {
namespace {

const std::vector<std::string> kBuiltInSchemes{
    "hypercube_greedy", "butterfly_greedy", "network_q",
    "network_q_fifo",   "network_q_ps",     "pipelined_baseline",
    "valiant_mixing",   "deflection",       "batch_greedy",
    "multicast"};

/// A small, fast scenario valid for every built-in scheme.
Scenario tiny_scenario(const std::string& scheme) {
  Scenario scenario;
  scenario.scheme = scheme;
  scenario.d = 3;
  scenario.lambda = 0.4;  // rho = 0.2 for the packet-level schemes
  scenario.p = 0.5;
  if (scheme == "multicast" || scheme == "batch_greedy") scenario.fanout = 2;
  scenario.window = {20.0, 120.0};
  scenario.plan = {2, 42};
  if (scheme == "pipelined_baseline") scenario.lambda = 0.02;  // inside 1/(Rd)
  return scenario;
}

TEST(SchemeRegistry, AllBuiltInSchemesAreRegistered) {
  const auto names = SchemeRegistry::instance().names();
  for (const std::string& expected : kBuiltInSchemes) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing scheme: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SchemeRegistry, EverySchemeHasASummaryAndCompiles) {
  const auto& registry = SchemeRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->summary.empty()) << name;
    const CompiledScenario compiled = info->compile(tiny_scenario(name));
    EXPECT_TRUE(static_cast<bool>(compiled.replicate)) << name;
  }
}

TEST(SchemeRegistry, EverySchemeRunsByNameWithConsistentMetricLayout) {
  const auto& registry = SchemeRegistry::instance();
  for (const auto& name : registry.names()) {
    const Scenario scenario = tiny_scenario(name);
    const CompiledScenario compiled = registry.find(name)->compile(scenario);
    const auto metrics = compiled.replicate(1, 0);
    EXPECT_EQ(metrics.size(), metric::kCount + compiled.extra_metrics.size())
        << name;

    const RunResult result = run(scenario);
    EXPECT_EQ(result.extras.size(), compiled.extra_metrics.size()) << name;
    EXPECT_GE(result.delay.mean, 0.0) << name;
    if (compiled.has_bounds) {
      EXPECT_LT(result.lower_bound, result.upper_bound) << name;
    }
  }
}

bool lists(const std::vector<std::string>& column, const std::string& value) {
  return std::find(column.begin(), column.end(), value) != column.end();
}

// The capability matrix claims no support the compile hook lacks, and
// misses none it has: one column at a time against a valid tiny base,
// every listed value runs, and every other value is a ScenarioError naming
// the key and the scheme.
TEST(SchemeRegistry, CapabilityMatrixMatchesCompile) {
  struct Variant {
    std::string value;
    Scenario scenario;
    std::string key;  // the key the rejection must name
  };
  for (const std::string& name : kBuiltInSchemes) {
    const auto& info = *SchemeRegistry::instance().find(name);
    std::vector<std::pair<Variant, bool>> variants;  // (variant, listed)

    for (const std::string& topology : topology_names()) {
      Scenario s = tiny_scenario(name);
      s.set("workload", "uniform");
      s.set("topology", topology);
      variants.push_back({{topology, s, "topology"},
                          lists(info.topologies, topology)});
    }
    for (const char* workload :
         {"bit_flip", "uniform", "general", "trace", "permutation"}) {
      Scenario s = tiny_scenario(name);
      s.set("workload", workload);
      if (s.workload == "general") s.set("mask_pmf", "1,1,1,1,1,1,1,1");
      variants.push_back({{workload, s, "workload"},
                          lists(info.workloads, workload)});
    }
    for (const char* policy :
         {"drop", "skip_dim", "deflect", "twin_detour", "adaptive"}) {
      Scenario s = tiny_scenario(name);
      s.set("fault_rate", "0.05");
      s.set("fault_policy", policy);
      variants.push_back(
          {{policy, s, info.fault_policies.empty() ? "fault_rate" : "fault_policy"},
           lists(info.fault_policies, policy)});
    }
    for (const std::string& key : SchemeRegistry::scheme_keys()) {
      Scenario s = tiny_scenario(name);
      if (key == "storm_rate" || key == "storm_duration") {
        s.set("storm_rate", "0.01");
        s.set("storm_duration", "5");
      } else if (key == "fault_policy") {
        s.set(key, info.fault_policies.size() > 1 ? info.fault_policies.back()
                                                  : "skip_dim");
      } else {
        const std::map<std::string, std::string> values{
            {"tau", "0.5"},       {"buffers", "4"},
            {"fanout", "3"},      {"unicast_baseline", "1"},
            {"discipline", "ps"}, {"ttl", "8"},
            {"storm_radius", "2"}};
        s.set(key, values.at(key));
      }
      variants.push_back({{key, s, key}, lists(info.keys, key)});
    }

    for (const auto& [variant, listed] : variants) {
      const std::string label = name + " " + variant.key + "=" + variant.value;
      if (listed) {
        EXPECT_NO_THROW((void)run(variant.scenario)) << label;
        continue;
      }
      try {
        (void)run(variant.scenario);
        ADD_FAILURE() << label << " was accepted but is not in the matrix";
      } catch (const ScenarioError& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find(variant.key), std::string::npos) << message;
        EXPECT_NE(message.find(name), std::string::npos) << message;
      }
    }
  }
}

TEST(SchemeRegistry, FanoutOutOfRangeIsAScenarioError) {
  // A bad fanout is rejected as a ScenarioError naming the key, before any
  // replication runs (not a contract failure or a std::length_error from a
  // worker).
  for (const std::string name : {"batch_greedy", "multicast"}) {
    for (const char* value : {"0", "-1"}) {
      Scenario s = tiny_scenario(name);
      EXPECT_THROW(s.set("fanout", value), ScenarioError) << name << value;
    }
  }
  Scenario wide = tiny_scenario("multicast");
  wide.set("fanout", "9");  // d = 3: at most 8 distinct destinations
  try {
    (void)run(wide);
    ADD_FAILURE() << "multicast fanout=9 at d=3 was accepted";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("fanout"), std::string::npos)
        << error.what();
  }
  Scenario full = tiny_scenario("multicast");
  full.set("fanout", "8");
  EXPECT_NO_THROW((void)run(full));
}

TEST(SchemeRegistry, FindReturnsNullForUnknownName) {
  EXPECT_EQ(SchemeRegistry::instance().find("no_such_scheme"), nullptr);
  EXPECT_FALSE(SchemeRegistry::instance().contains("no_such_scheme"));
}

TEST(SchemeRegistry, DownstreamSchemesCanBePluggedIn) {
  SchemeRegistry::instance().add(
      {"test_constant_delay", "fixed-delay toy scheme for this test",
       [](const Scenario& s) {
         CompiledScenario compiled;
         compiled.replicate = [d = s.d](std::uint64_t, int) {
           return std::vector<double>{static_cast<double>(d), 0.0, 1.0,
                                      0.0,                    0.0, 0.0, 2.5};
         };
         compiled.extra_metrics = {"toy_metric"};
         return compiled;
       }});

  Scenario scenario;
  scenario.scheme = "test_constant_delay";
  scenario.d = 6;
  scenario.plan = {3, 1};
  const RunResult result = run(scenario);
  EXPECT_DOUBLE_EQ(result.delay.mean, 6.0);
  EXPECT_DOUBLE_EQ(result.delay.half_width, 0.0);
  ASSERT_NE(result.extra("toy_metric"), nullptr);
  EXPECT_DOUBLE_EQ(result.extra("toy_metric")->mean, 2.5);
  EXPECT_FALSE(result.has_bounds);
}

}  // namespace
}  // namespace routesim
