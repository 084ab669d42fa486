// Message-plane configuration matrix (DESIGN.md §11): the batch-buffer
// pool, the vertex->computer ownership map, and the cache-ordered apply
// path must be pure performance knobs — every application's payloads are
// identical no matter how the plane is configured.
//
// Coverage:
//   - MessageBatchPool unit contract: lease/recycle reuse, warm-up
//     accounting (steady_misses), the disabled (ablation) mode, and
//     recycled-byte tracking.
//   - OwnerMap unit contract: mod and range owner/local-index/local-size
//     arithmetic, interval-derived boundaries, name round-trips.
//   - Engine equality across the full pooling x routing x combiner cube:
//     bit-identical for the monotone apps (BFS/CC/SSSP fold with min, so
//     arrival order cannot matter); PageRank bit-identical at a single
//     dispatcher with the combiner fixed, and float-near across the
//     combiner crossings. Arrival order does not matter for PageRank
//     either — its sum fold is exact fixed point (core/sum_fold.hpp) — but
//     the dispatcher-side combiner sums in float per staged batch, so
//     combining changes result bits.
//   - RunResult surfacing: pool stats (zero steady-state misses), the
//     resolved routing, per-computer busy seconds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "core/message_pool.hpp"
#include "core/ownership.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::diamond_graph;
using testing::expect_float_payloads_near;
using testing::expect_payloads_equal;

// --- MessageBatchPool --------------------------------------------------------

TEST(MessagePool, LeaseRecycleReusesCapacity) {
  MessageBatchPool pool(64);
  auto first = pool.lease();
  EXPECT_TRUE(first.empty());
  EXPECT_GE(first.capacity(), 64u);
  first.push_back(VertexMessage{});
  pool.recycle(std::move(first));

  auto second = pool.lease();
  EXPECT_TRUE(second.empty());  // recycle() must clear
  EXPECT_GE(second.capacity(), 64u);

  const MessagePoolStats stats = pool.stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.leases, 2u);
  EXPECT_EQ(stats.misses, 1u);  // only the first lease allocated
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.steady_misses, 0u);
}

TEST(MessagePool, SteadyMissesCountOnlyAfterWarmup) {
  MessageBatchPool pool(16);
  // Warm-up: two supersteps' worth of misses are expected and free.
  auto a = pool.lease();
  auto b = pool.lease();
  pool.mark_superstep();
  pool.recycle(std::move(a));
  pool.mark_superstep();
  EXPECT_EQ(pool.stats().steady_misses, 0u);

  // Steady state: a hit stays clean, a fresh allocation is a violation.
  auto hit = pool.lease();  // served from the recycled buffer
  EXPECT_EQ(pool.stats().steady_misses, 0u);
  auto miss = pool.lease();  // free list empty -> allocates
  const MessagePoolStats stats = pool.stats();
  EXPECT_EQ(stats.steady_misses, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  pool.recycle(std::move(b));
  pool.recycle(std::move(hit));
  pool.recycle(std::move(miss));
}

TEST(MessagePool, DisabledModeAllocatesAndDrops) {
  MessageBatchPool pool(32, /*enabled=*/false);
  auto buffer = pool.lease();
  EXPECT_GE(buffer.capacity(), 32u);
  pool.recycle(std::move(buffer));
  auto again = pool.lease();
  EXPECT_GE(again.capacity(), 32u);

  // The ablation baseline reports nothing but its disabled flag: the
  // bench must not be able to mistake it for a pooled run.
  const MessagePoolStats stats = pool.stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.leases, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.recycled_bytes, 0u);
}

TEST(MessagePool, RecycledBytesTrackCapacity) {
  MessageBatchPool pool(128);
  auto buffer = pool.lease();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(buffer.capacity()) * sizeof(VertexMessage);
  pool.recycle(std::move(buffer));
  EXPECT_EQ(pool.stats().recycled_bytes, expected);
}

// --- OwnerMap ----------------------------------------------------------------

TEST(OwnerMap, ModInterleavesAndPacksLocalIndices) {
  const OwnerMap map = OwnerMap::make_mod(/*num_vertices=*/10, /*parts=*/3);
  EXPECT_EQ(map.routing(), MessageRouting::kMod);
  EXPECT_EQ(map.parts(), 3u);
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_EQ(map.owner_of(v), v % 3) << "vertex " << v;
    EXPECT_EQ(map.local_index(v, map.owner_of(v)), v / 3) << "vertex " << v;
  }
  // Vertices 0,3,6,9 / 1,4,7 / 2,5,8.
  EXPECT_EQ(map.local_size(0), 4u);
  EXPECT_EQ(map.local_size(1), 3u);
  EXPECT_EQ(map.local_size(2), 3u);
}

TEST(OwnerMap, RangeOwnsContiguousSlices) {
  const OwnerMap map = OwnerMap::make_range({0, 4, 7, 10});
  EXPECT_EQ(map.routing(), MessageRouting::kRange);
  EXPECT_EQ(map.parts(), 3u);
  EXPECT_EQ(map.num_vertices(), 10u);
  for (VertexId v = 0; v < 10; ++v) {
    const unsigned owner = v < 4 ? 0 : (v < 7 ? 1 : 2);
    EXPECT_EQ(map.owner_of(v), owner) << "vertex " << v;
    EXPECT_EQ(map.local_index(v, owner), v - map.range_begin(owner))
        << "vertex " << v;
  }
  EXPECT_EQ(map.local_size(0), 4u);
  EXPECT_EQ(map.local_size(1), 3u);
  EXPECT_EQ(map.local_size(2), 3u);
  EXPECT_EQ(map.range_begin(1), 4u);
  EXPECT_EQ(map.range_end(1), 7u);
}

TEST(OwnerMap, RangeFromIntervalsUsesIntervalBoundaries) {
  std::vector<Interval> intervals(2);
  intervals[0].begin_vertex = 0;
  intervals[0].end_vertex = 5;
  intervals[1].begin_vertex = 5;
  intervals[1].end_vertex = 9;
  const OwnerMap map = OwnerMap::make_range_from_intervals(intervals);
  EXPECT_EQ(map.parts(), 2u);
  EXPECT_EQ(map.num_vertices(), 9u);
  EXPECT_EQ(map.owner_of(4), 0u);
  EXPECT_EQ(map.owner_of(5), 1u);
  EXPECT_EQ(map.local_index(8, 1), 3u);
}

TEST(OwnerMap, RoutingNamesRoundTrip) {
  for (const auto routing : {MessageRouting::kMod, MessageRouting::kRange}) {
    const auto parsed = parse_message_routing(message_routing_name(routing));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), routing);
  }
  EXPECT_FALSE(parse_message_routing("hash").is_ok());
  EXPECT_FALSE(parse_message_routing("").is_ok());
}

TEST(OwnerMap, ResolveFollowsEnvAndDefaultsToRange) {
  ASSERT_EQ(::setenv("GPSA_ROUTING", "mod", 1), 0);
  EXPECT_EQ(resolve_message_routing(std::nullopt), MessageRouting::kMod);
  // Explicit request beats the environment.
  EXPECT_EQ(resolve_message_routing(MessageRouting::kRange),
            MessageRouting::kRange);
  ASSERT_EQ(::setenv("GPSA_ROUTING", "bogus", 1), 0);
  EXPECT_EQ(resolve_message_routing(std::nullopt), MessageRouting::kRange);
  ASSERT_EQ(::unsetenv("GPSA_ROUTING"), 0);
  EXPECT_EQ(resolve_message_routing(std::nullopt), MessageRouting::kRange);
}

TEST(MessagePool, ResolveFollowsEnvAndDefaultsToOn) {
  ASSERT_EQ(::setenv("GPSA_MSG_POOL", "0", 1), 0);
  EXPECT_FALSE(resolve_message_pool_enabled(std::nullopt));
  EXPECT_TRUE(resolve_message_pool_enabled(true));  // explicit beats env
  ASSERT_EQ(::unsetenv("GPSA_MSG_POOL"), 0);
  EXPECT_TRUE(resolve_message_pool_enabled(std::nullopt));
}

// --- Engine equality across the configuration cube ---------------------------

EngineOptions plane_options(bool pool, MessageRouting routing, bool combine,
                            unsigned dispatchers = 2, unsigned computers = 3) {
  EngineOptions eo;
  eo.num_dispatchers = dispatchers;
  eo.num_computers = computers;
  eo.message_batch = 256;  // small batches: plenty of lease/recycle traffic
  eo.message_pool = pool;
  eo.routing = routing;
  eo.enable_combiner = combine;
  return eo;
}

class MessagePlaneEquality : public ::testing::Test {
 protected:
  static EdgeList test_graph() {
    return generate_paper_graph(PaperGraph::kGoogle, 0.05, 11);
  }
};

TEST_F(MessagePlaneEquality, MonotoneAppsBitIdenticalAcrossFullCube) {
  const EdgeList graph = test_graph();
  const BfsProgram bfs(0);
  const ConnectedComponentsProgram cc;
  const SsspProgram sssp(0);
  for (const Program* program :
       std::initializer_list<const Program*>{&bfs, &cc, &sssp}) {
    SCOPED_TRACE(program->name());
    // Baseline is the legacy plane: allocate-per-flush, interleaved mod
    // routing, no combiner.
    const auto baseline = Engine::run(
        graph, *program,
        plane_options(false, MessageRouting::kMod, false));
    ASSERT_TRUE(baseline.is_ok());
    for (const bool pool : {false, true}) {
      for (const auto routing :
           {MessageRouting::kMod, MessageRouting::kRange}) {
        for (const bool combine : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "pool=" << pool << " routing="
                       << message_routing_name(routing)
                       << " combine=" << combine);
          const auto result =
              Engine::run(graph, *program, plane_options(pool, routing, combine));
          ASSERT_TRUE(result.is_ok());
          EXPECT_EQ(result.value().routing, routing);
          EXPECT_EQ(result.value().pool.enabled, pool);
          expect_payloads_equal(result.value().values,
                                baseline.value().values);
        }
      }
    }
  }
}

TEST_F(MessagePlaneEquality, PageRankBitIdenticalWhereFoldOrderIsFixed) {
  // PageRank's sum fold is exact fixed point, so no arrival order shows
  // in the result; with a single dispatcher the arrival order is fixed
  // as well (the dispatch scan order under mod routing, and the same
  // order under range routing's stable radix scatter). Pooling never
  // reorders anything. So this 2x2 must be bit-identical.
  const EdgeList graph = test_graph();
  const PageRankProgram program(4);
  const auto baseline = Engine::run(
      graph, program,
      plane_options(false, MessageRouting::kMod, false, /*dispatchers=*/1));
  ASSERT_TRUE(baseline.is_ok());
  for (const bool pool : {false, true}) {
    for (const auto routing : {MessageRouting::kMod, MessageRouting::kRange}) {
      SCOPED_TRACE(::testing::Message()
                   << "pool=" << pool << " routing="
                   << message_routing_name(routing));
      const auto result = Engine::run(
          graph, program,
          plane_options(pool, routing, false, /*dispatchers=*/1));
      ASSERT_TRUE(result.is_ok());
      EXPECT_EQ(result.value().total_messages,
                baseline.value().total_messages);
      expect_payloads_equal(result.value().values, baseline.value().values);
    }
  }
}

TEST_F(MessagePlaneEquality, PageRankNearEqualAcrossOrderChangingConfigs) {
  // Combining re-associates the sum: the dispatcher adds same-destination
  // messages in float before sending, and which messages meet in a
  // staging buffer depends on routing and batch boundaries. So the
  // combiner crossings are near-equal, not bit-equal. (Without the
  // combiner, multiple dispatchers' interleaved arrival order changes no
  // bit: the computers' sum fold is exact.)
  const EdgeList graph = test_graph();
  const PageRankProgram program(4);
  const auto baseline = Engine::run(
      graph, program, plane_options(false, MessageRouting::kMod, false));
  ASSERT_TRUE(baseline.is_ok());
  for (const bool pool : {false, true}) {
    for (const auto routing : {MessageRouting::kMod, MessageRouting::kRange}) {
      for (const bool combine : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "pool=" << pool << " routing="
                     << message_routing_name(routing)
                     << " combine=" << combine);
        const auto result =
            Engine::run(graph, program, plane_options(pool, routing, combine));
        ASSERT_TRUE(result.is_ok());
        expect_float_payloads_near(result.value().values,
                                   baseline.value().values);
      }
    }
  }
}

// --- RunResult surfacing ------------------------------------------------------

TEST_F(MessagePlaneEquality, PooledRunReportsZeroSteadyMisses) {
  const EdgeList graph = test_graph();
  const PageRankProgram program(6);  // enough supersteps to leave warm-up
  const auto result = Engine::run(
      graph, program, plane_options(true, MessageRouting::kRange, false));
  ASSERT_TRUE(result.is_ok());
  const MessagePoolStats& pool = result.value().pool;
  EXPECT_TRUE(pool.enabled);
  EXPECT_GT(pool.leases, 0u);
  EXPECT_GT(pool.hits, 0u);
  EXPECT_GT(pool.recycled_bytes, 0u);
  // The pool's whole point: once warm, the plane allocates nothing.
  EXPECT_EQ(pool.steady_misses, 0u);

  // The compute-side busy clock is populated per spawned computer.
  ASSERT_FALSE(result.value().computer_busy_seconds.empty());
  for (const double busy : result.value().computer_busy_seconds) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, result.value().elapsed_seconds);
  }
}

TEST_F(MessagePlaneEquality, UnpooledRunReportsDisabledStats) {
  const EdgeList graph = test_graph();
  const PageRankProgram program(3);
  const auto result = Engine::run(
      graph, program, plane_options(false, MessageRouting::kRange, false));
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().pool.enabled);
  EXPECT_EQ(result.value().pool.hits, 0u);
  EXPECT_EQ(result.value().pool.recycled_bytes, 0u);
}

TEST(MessagePlaneEdge, MoreComputersThanVerticesShrinksToNonEmptySlices) {
  // Six vertices, eight requested computers: range routing spawns one
  // computer per non-empty interval slice and must still be correct.
  const EdgeList graph = diamond_graph();
  const BfsProgram program(0);
  EngineOptions one = plane_options(true, MessageRouting::kRange, false,
                                    /*dispatchers=*/1, /*computers=*/1);
  EngineOptions many = plane_options(true, MessageRouting::kRange, false,
                                     /*dispatchers=*/2, /*computers=*/8);
  const auto a = Engine::run(graph, program, one);
  const auto b = Engine::run(graph, program, many);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_LE(b.value().computer_busy_seconds.size(), 6u);
  expect_payloads_equal(b.value().values, a.value().values);
}

}  // namespace
}  // namespace gpsa
