// Tests for the engine extensions beyond the paper's minimum: worker
// exception handling (§V.C), the exact fixed-point sum fold,
// dispatcher-side message combining, and the additional vertex programs
// (multi-source reachability, in-degree).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/degree_count.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "core/engine.hpp"
#include "core/sum_fold.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;

EngineOptions small_options() {
  EngineOptions eo;
  eo.num_dispatchers = 2;
  eo.num_computers = 2;
  eo.scheduler_workers = 2;
  eo.message_batch = 8;
  return eo;
}

// --- Worker exception handling (§V.C) ----------------------------------------

/// Throws from compute() when a poisoned message value arrives.
class PoisonedComputeProgram final : public Program {
 public:
  std::string name() const override { return "poisoned-compute"; }
  InitialState init(VertexId v, VertexId /*n*/) const override {
    return {v, true};
  }
  Payload gen_msg(VertexId /*s*/, VertexId /*d*/, Payload value,
                  std::uint32_t /*deg*/) const override {
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }
  Payload compute(Payload accumulator, Payload message) const override {
    if (message == 3) {  // label of vertex 3 propagating
      throw std::runtime_error("poisoned message");
    }
    return std::min(accumulator, message);
  }
};

/// Throws from gen_msg() for one source vertex.
class PoisonedDispatchProgram final : public Program {
 public:
  std::string name() const override { return "poisoned-dispatch"; }
  InitialState init(VertexId v, VertexId /*n*/) const override {
    return {v, true};
  }
  Payload gen_msg(VertexId src, VertexId /*d*/, Payload value,
                  std::uint32_t /*deg*/) const override {
    if (src == 2) {
      throw std::runtime_error("poisoned source");
    }
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload stored) const override {
    return stored;
  }
  Payload compute(Payload accumulator, Payload message) const override {
    return std::min(accumulator, message);
  }
};

TEST(WorkerFailure, ComputeExceptionSurfacesAsStatus) {
  const EdgeList graph = diamond_graph();
  const PoisonedComputeProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("poisoned message"),
            std::string::npos);
}

TEST(WorkerFailure, DispatchExceptionSurfacesAsStatus) {
  const EdgeList graph = diamond_graph();
  const PoisonedDispatchProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("poisoned source"),
            std::string::npos);
}

TEST(WorkerFailure, EngineRemainsUsableAfterFailure) {
  const EdgeList graph = diamond_graph();
  const PoisonedComputeProgram bad;
  ASSERT_FALSE(Engine::run(graph, bad, small_options()).is_ok());
  // A clean run right after must succeed with correct results.
  const BfsProgram good(0);
  const auto result = Engine::run(graph, good, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  expect_payloads_equal(result.value().values,
                        oracle_bfs_levels(Csr::from_edges(graph), 0));
}

// --- Exact sum fold (core/sum_fold.hpp) ---------------------------------------

TEST(SumFold, ConvertsExactlyDownToTwoToTheMinus33) {
  EXPECT_EQ(payload_to_fixed(float_to_payload(1.0F)), FixedSum{1} << 56);
  EXPECT_EQ(payload_to_fixed(float_to_payload(0x1p-33F)), FixedSum{1} << 23);
  EXPECT_EQ(payload_to_fixed(float_to_payload(0.0F)), 0);
  // Below the 2^-56 resolution: round half up, then nothing.
  EXPECT_EQ(payload_to_fixed(float_to_payload(0x1p-57F)), 1);
  EXPECT_EQ(payload_to_fixed(float_to_payload(0x1.8p-58F)), 0);
  // Every float in [2^-33, 2^7) survives the round trip bit for bit.
  for (const float x : {0x1p-33F, 0x1.fffffep-20F, 1e-6F, 0.15F / 21.0F,
                        0.333333F, 1.0F, 0x1.fffffep6F}) {
    EXPECT_EQ(fixed_to_payload(payload_to_fixed(float_to_payload(x))),
              float_to_payload(x))
        << x;
  }
}

TEST(SumFold, TotalIsIndependentOfOrderAndCorrectlyRounded) {
  Rng rng(11);
  std::vector<Payload> messages;
  double exact = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const float m = static_cast<float>(rng.next_double()) * 1e-3F;
    messages.push_back(float_to_payload(m));
    exact += m;  // double: error far below the float ulp checked below
  }
  FixedSum forward = 0;
  for (const Payload m : messages) {
    fixed_sum_add(forward, payload_to_fixed(m));
  }
  std::reverse(messages.begin(), messages.end());
  FixedSum backward = 0;
  for (const Payload m : messages) {
    fixed_sum_add(backward, payload_to_fixed(m));
  }
  EXPECT_EQ(forward, backward);
  const float total = payload_to_float(fixed_to_payload(forward));
  // One rounding: within half a float ulp (2^-24 relative), plus slack
  // for the double reference sum's own error.
  EXPECT_LE(std::fabs(total - exact), std::ldexp(exact, -24) * 1.001);
}

TEST(SumFold, OverflowThrowsInsteadOfWrapping) {
  EXPECT_THROW((void)payload_to_fixed(float_to_payload(128.0F)),
               std::overflow_error);
  EXPECT_THROW(
      (void)payload_to_fixed(float_to_payload(
          std::numeric_limits<float>::infinity())),
      std::overflow_error);
  FixedSum sum = payload_to_fixed(float_to_payload(100.0F));
  EXPECT_THROW(fixed_sum_add(sum, payload_to_fixed(float_to_payload(100.0F))),
               std::overflow_error);
}

/// A float-sum program whose per-vertex totals reach 2^7: every vertex
/// starts at 100 and sends it whole along each out-edge.
class HeavySumProgram final : public Program {
 public:
  std::string name() const override { return "heavy-sum"; }
  InitialState init(VertexId /*v*/, VertexId /*n*/) const override {
    return {float_to_payload(100.0F), true};
  }
  Payload gen_msg(VertexId /*s*/, VertexId /*d*/, Payload value,
                  std::uint32_t /*deg*/) const override {
    return value;
  }
  Payload first_update(VertexId /*v*/, Payload /*stored*/) const override {
    return float_to_payload(0.0F);
  }
  Payload compute(Payload accumulator, Payload message) const override {
    return float_to_payload(payload_to_float(accumulator) +
                            payload_to_float(message));
  }
  bool float_sum_fold() const override { return true; }
};

TEST(WorkerFailure, SumFoldOverflowSurfacesAsStatus) {
  const EdgeList graph = diamond_graph();  // vertex 3 has two in-edges
  const HeavySumProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("overflow"), std::string::npos);
}

// --- Message combining --------------------------------------------------------

TEST(Combiner, PreservesResultsAndReducesMessages) {
  // star graph: every leaf sends its label to the hub — maximally
  // combinable traffic.
  const EdgeList graph = star(256);
  const ConnectedComponentsProgram program;

  EngineOptions plain = small_options();
  const auto without = Engine::run(graph, program, plain);
  ASSERT_TRUE(without.is_ok());

  EngineOptions combined = small_options();
  combined.enable_combiner = true;
  const auto with = Engine::run(graph, program, combined);
  ASSERT_TRUE(with.is_ok());

  expect_payloads_equal(with.value().values, without.value().values);
  EXPECT_LT(with.value().total_messages, without.value().total_messages);
}

TEST(Combiner, PageRankSumsCombineExactlyEnough) {
  const EdgeList graph = rmat(8, 3000, 31);
  const PageRankProgram program(5);
  EngineOptions combined = small_options();
  combined.enable_combiner = true;
  const auto with = Engine::run(graph, program, combined);
  ASSERT_TRUE(with.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_float_payloads_near(with.value().values, ref.values);
}

TEST(Combiner, MonotoneAppsMatchReferenceWithCombining) {
  const EdgeList graph = rmat(8, 2500, 37);
  EngineOptions combined = small_options();
  combined.enable_combiner = true;
  {
    const BfsProgram program(0);
    const auto r = Engine::run(graph, program, combined);
    ASSERT_TRUE(r.is_ok());
    expect_payloads_equal(r.value().values,
                          reference_run(Csr::from_edges(graph), program).values);
  }
  {
    const ConnectedComponentsProgram program;
    const auto r = Engine::run(graph, program, combined);
    ASSERT_TRUE(r.is_ok());
    expect_payloads_equal(r.value().values,
                          reference_run(Csr::from_edges(graph), program).values);
  }
}

// --- Multi-source reachability ------------------------------------------------

TEST(MultiBfs, MatchesPerSourceOracles) {
  const EdgeList graph = rmat(8, 1500, 41);
  const Csr csr = Csr::from_edges(graph);
  const std::vector<VertexId> sources = {0, 7, 100, 200};
  const MultiSourceReachabilityProgram program(sources);
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // Expected mask: OR over per-source BFS reachability.
  std::vector<Payload> expected(csr.num_vertices(), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto levels = oracle_bfs_levels(csr, sources[i]);
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (levels[v] != kPayloadInfinity) {
        expected[v] |= Payload{1} << i;
      }
    }
  }
  expect_payloads_equal(result.value().values, expected);
}

TEST(MultiBfs, AgreesWithReferenceExecutor) {
  const EdgeList graph = grid(12, 13);
  const MultiSourceReachabilityProgram program({0, 50, 155});
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  const ReferenceResult ref = reference_run(Csr::from_edges(graph), program);
  expect_payloads_equal(result.value().values, ref.values);
}

TEST(MultiBfs, SingleSourceEqualsBfsReachability) {
  const EdgeList graph = binary_tree(127);
  const MultiSourceReachabilityProgram program({0});
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  const auto levels = oracle_bfs_levels(Csr::from_edges(graph), 0);
  for (VertexId v = 0; v < levels.size(); ++v) {
    EXPECT_EQ(result.value().values[v] != 0, levels[v] != kPayloadInfinity)
        << "vertex " << v;
  }
}

// --- In-degree ----------------------------------------------------------------

TEST(InDegree, MatchesTransposeDegrees) {
  const EdgeList graph = rmat(8, 2000, 43);
  const InDegreeProgram program;
  const auto result = Engine::run(graph, program, small_options());
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().supersteps, 1U);
  const Csr transpose = Csr::from_edges(graph).transpose();
  for (VertexId v = 0; v < transpose.num_vertices(); ++v) {
    ASSERT_EQ(result.value().values[v], transpose.out_degree(v))
        << "vertex " << v;
  }
}

TEST(InDegree, CombinerStillCountsExactly) {
  const EdgeList graph = star(64);
  const InDegreeProgram program;
  EngineOptions combined = small_options();
  combined.enable_combiner = true;
  const auto result = Engine::run(graph, program, combined);
  ASSERT_TRUE(result.is_ok());
  // Hub receives one edge from each leaf.
  EXPECT_EQ(result.value().values[0], 63U);
  for (VertexId v = 1; v < 64; ++v) {
    ASSERT_EQ(result.value().values[v], 1U);
  }
}

}  // namespace
}  // namespace gpsa
