// Arc-queue tests and the legacy `backend=` spelling.
//
// The KernelArcQueue tests drive a bare kernel's arc queues through the
// public enqueue / finish_arc API: FIFO order over interleaved arcs, the
// LIFO and random service-order ablations, finite buffers and
// reconfiguration.  The LegacyBackend tests pin that `backend=` still
// parses, accepts only its two values and never changes a result: both
// values run the kernel's one drive loop.

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/scenario.hpp"
#include "des/packet_kernel.hpp"
#include "store/result_store.hpp"
#include "util/rng.hpp"

namespace routesim {
namespace {

// --- arc queues through the public enqueue / finish_arc API -------------

struct BarePkt {
  double gen_time = 0.0;
};
using BareKernel = PacketKernel<BarePkt>;

PacketKernelConfig bare_config(std::uint32_t num_arcs, ArcServiceOrder order,
                               std::uint32_t buffer_capacity = 0) {
  PacketKernelConfig config;
  config.num_arcs = num_arcs;
  config.seed = 9;
  config.stream_salt = 4;
  config.service_order = order;
  config.buffer_capacity = buffer_capacity;
  return config;
}

std::vector<std::uint32_t> allocate(BareKernel& kernel, int n) {
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < n; ++i) ids.push_back(kernel.allocate_packet());
  return ids;
}

// Pops n packets at `now`; the kernel's service ring needs nondecreasing
// completion times, so a test passes times that never go back.
std::vector<std::uint32_t> drain(BareKernel& kernel, std::uint32_t arc, int n,
                                 double now) {
  std::vector<std::uint32_t> served;
  for (int i = 0; i < n; ++i) served.push_back(kernel.finish_arc(now, arc));
  return served;
}

TEST(KernelArcQueue, FifoOrderPerArcOverInterleavedArcs) {
  BareKernel kernel;
  kernel.configure(bare_config(3, ArcServiceOrder::kFifo));
  const auto p = allocate(kernel, 7);
  // Arc 0: p0 p3 p5; arc 1: p1 p4; arc 2: p2 p6 — enqueued interleaved.
  const std::uint32_t arcs[] = {0, 1, 2, 0, 1, 0, 2};
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(kernel.enqueue(0.0, arcs[i], p[i], true));
  EXPECT_EQ(kernel.finish_arc(1.0, 0), p[0]);
  ASSERT_TRUE(kernel.enqueue(1.0, 0, p[0], false));  // re-queued at the tail
  EXPECT_EQ(drain(kernel, 0, 3, 1.0),
            (std::vector<std::uint32_t>{p[3], p[5], p[0]}));
  EXPECT_EQ(drain(kernel, 1, 2, 1.0), (std::vector<std::uint32_t>{p[1], p[4]}));
  EXPECT_EQ(drain(kernel, 2, 2, 1.0), (std::vector<std::uint32_t>{p[2], p[6]}));
}

// LIFO moves the tail to the head; the packet before it must become the
// new tail, or the next arrival would be linked behind the head.
TEST(KernelArcQueue, LifoMovesTailToHeadAndFixesTail) {
  BareKernel kernel;
  kernel.configure(bare_config(1, ArcServiceOrder::kLifo));
  const auto p = allocate(kernel, 5);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(kernel.enqueue(0.0, 0, p[i], true));
  EXPECT_EQ(kernel.finish_arc(1.0, 0), p[0]);  // queue now p3 | p1 p2
  ASSERT_TRUE(kernel.enqueue(1.0, 0, p[4], true));  // p3 | p1 p2 p4
  EXPECT_EQ(drain(kernel, 0, 4, 1.0),
            (std::vector<std::uint32_t>{p[3], p[4], p[2], p[1]}));
}

// Random order against a reference deque (the pick drawn from the kernel's
// own stream, after the pop), over a long mixed run that moves packets
// from the head, the middle and the tail, and recycles packet ids.
TEST(KernelArcQueue, RandomOrderMatchesReferenceAtHeadMiddleAndTail) {
  const PacketKernelConfig config = bare_config(3, ArcServiceOrder::kRandom);
  BareKernel kernel;
  kernel.configure(config);
  Rng model_rng(derive_stream(config.seed, config.stream_salt));
  Rng ops(123);
  std::vector<std::deque<std::uint32_t>> model(3);
  int head_picks = 0, middle_picks = 0, tail_picks = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto arc = static_cast<std::uint32_t>(ops.uniform_below(3));
    auto& queue = model[arc];
    if (queue.size() < 6 && (queue.empty() || ops.uniform_below(2) == 0)) {
      const std::uint32_t pkt = kernel.allocate_packet();
      ASSERT_TRUE(kernel.enqueue(1.0, arc, pkt, true));
      queue.push_back(pkt);
      continue;
    }
    const std::uint32_t expected = queue.front();
    queue.pop_front();
    if (!queue.empty()) {
      const std::uint64_t pick = model_rng.uniform_below(queue.size());
      if (queue.size() > 2) {
        ++(pick == 0 ? head_picks : pick + 1 == queue.size() ? tail_picks
                                                              : middle_picks);
      }
      const std::uint32_t chosen = queue[pick];
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
      queue.push_front(chosen);
    }
    ASSERT_EQ(kernel.finish_arc(1.0, arc), expected) << "step " << step;
    kernel.retire(1.0, expected);
  }
  EXPECT_GT(head_picks, 0);
  EXPECT_GT(middle_picks, 0);
  EXPECT_GT(tail_picks, 0);
}

TEST(KernelArcQueue, DropsExactlyAtBufferCapacity) {
  BareKernel kernel;
  kernel.configure(bare_config(2, ArcServiceOrder::kFifo, 3));
  const auto p = allocate(kernel, 6);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(kernel.enqueue(1.0, 0, p[i], true));
  EXPECT_FALSE(kernel.enqueue(1.0, 0, p[3], true));  // size == capacity
  EXPECT_EQ(kernel.stats().drops_in_window(), 1u);
  EXPECT_TRUE(kernel.enqueue(1.0, 1, p[4], true));  // other arcs unaffected
  EXPECT_EQ(kernel.finish_arc(2.0, 0), p[0]);
  EXPECT_TRUE(kernel.enqueue(2.0, 0, p[5], true));  // room for one again
  EXPECT_EQ(kernel.stats().drops_in_window(), 1u);
  EXPECT_EQ(drain(kernel, 0, 3, 2.0),
            (std::vector<std::uint32_t>{p[1], p[2], p[5]}));
}

// Reconfiguring with fewer arcs (and a one-packet buffer) must start from
// empty queues: a stale size would drop the first packet of every arc.
TEST(KernelArcQueue, ReconfigureWithFewerArcsStartsEmpty) {
  BareKernel kernel;
  kernel.configure(bare_config(8, ArcServiceOrder::kFifo));
  for (std::uint32_t arc = 0; arc < 8; ++arc) {
    for (const std::uint32_t pkt : allocate(kernel, 2)) {
      ASSERT_TRUE(kernel.enqueue(0.0, arc, pkt, true));
    }
  }
  kernel.configure(bare_config(4, ArcServiceOrder::kFifo, 1));
  for (std::uint32_t arc = 0; arc < 4; ++arc) {
    const auto p = allocate(kernel, 2);
    EXPECT_TRUE(kernel.enqueue(0.0, arc, p[0], true)) << "arc " << arc;
    EXPECT_FALSE(kernel.enqueue(0.0, arc, p[1], true)) << "arc " << arc;
    EXPECT_EQ(kernel.finish_arc(1.0, arc), p[0]);
  }
  EXPECT_EQ(kernel.stats().drops_in_window(), 4u);
}

// The backend spelling never changes a result, so it is normalized out of
// the result-cache key: a soa_batch run can be served from a cached scalar
// result and vice versa.
TEST(LegacyBackend, ResultCacheKeyNormalizesBackend) {
  Scenario scenario;
  scenario.scheme = "hypercube_greedy";
  scenario.d = 6;
  scenario.tau = 1.0;
  scenario.backend = "scalar";
  const std::string scalar_key = ResultCache::key(scenario);
  scenario.backend = "soa_batch";
  EXPECT_EQ(ResultCache::key(scenario), scalar_key);

  // The knob must still be a real axis everywhere else: distinct values
  // round-trip through the textual form.
  EXPECT_NE(scenario.to_string().find("backend=soa_batch"), std::string::npos);
}

TEST(LegacyBackend, UnknownBackendValueNamesTheValidOnes) {
  Scenario scenario;
  try {
    scenario.set("backend", "vectorised");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("scalar"), std::string::npos) << message;
    EXPECT_NE(message.find("soa_batch"), std::string::npos) << message;
  }
}

// Both spellings run the one drive loop, on every scheme and in either
// time model: the replicated results serialise to the same bytes.
TEST(LegacyBackend, SoaBatchSpellingIsResultNeutral) {
  for (const char* text :
       {"hypercube_greedy d=5 rho=0.8 tau=1", "hypercube_greedy d=5 rho=0.8",
        "butterfly_greedy d=4 rho=0.6 tau=0.5", "deflection d=4 rho=0.3"}) {
    Scenario scenario =
        Scenario::parse_text(std::string(text) + " measure=200 reps=2 seed=5");
    const std::string scalar = result_to_json(run(scenario));
    scenario.set("backend", "soa_batch");
    EXPECT_EQ(result_to_json(run(scenario)), scalar) << text;
  }
}

}  // namespace
}  // namespace routesim
