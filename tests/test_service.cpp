// GraphService integration tests: concurrent jobs over one shared CSR
// must produce bit-identical results to sequential Engine runs, keep
// per-job RunResults isolated, honor cooperative cancel at superstep
// boundaries, reject submissions past the admission limit, and keep a
// resident job progressing under a burst of short queries (fair share).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/multi_bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "service/graph_service.hpp"
#include "test_support.hpp"

namespace gpsa {
namespace {

using testing::expect_payloads_equal;

// One dispatcher + one computer per job. PageRank's sum fold is exact
// fixed point (core/sum_fold.hpp), so its result is bit-identical to a
// sequential engine run whatever the arrival order; this small shape keeps
// each job cheap (test_engine.cpp SingleDispatcherSingleComputer
// precedent). Job-level concurrency still exercises the shared scheduler:
// multiple jobs' actors interleave on the same workers.
ServiceOptions small_service_options() {
  ServiceOptions so;
  so.num_dispatchers = 1;
  so.num_computers = 1;
  so.scheduler_workers = 4;
  so.max_concurrent_jobs = 4;
  so.message_batch = 64;  // small batches exercise flush paths
  return so;
}

EngineOptions matching_engine_options(const ServiceOptions& so) {
  EngineOptions eo;
  eo.num_dispatchers = so.num_dispatchers;
  eo.num_computers = so.num_computers;
  eo.scheduler_workers = 1;
  eo.message_batch = so.message_batch;
  eo.partition = so.partition;
  return eo;
}

std::unique_ptr<GraphService> open_service(const EdgeList& graph,
                                           const ServiceOptions& so) {
  auto service = GraphService::open_from_edges(graph, so);
  EXPECT_TRUE(service.is_ok()) << service.status().to_string();
  return std::move(service).value();
}

std::vector<Payload> engine_baseline(const GraphService& service,
                                     const Program& program,
                                     const EngineOptions& eo) {
  auto result = Engine::run_from_csr(service.csr_path(), program, eo);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value().values;
}

// Polls `pred` (which sees a fresh JobStatus) until it holds or the
// deadline passes. Terminal-state waits use wait() instead.
template <typename Pred>
bool poll_until(GraphService& service, JobId id, Pred pred,
                std::chrono::seconds deadline = std::chrono::seconds(60)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    auto status = service.poll(id);
    if (!status.is_ok()) {
      return false;
    }
    if (pred(status.value())) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(GraphService, SingleJobMatchesEngineBaseline) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  const ServiceOptions so = small_service_options();
  auto service = open_service(graph, so);

  auto id = service->submit(std::make_shared<const BfsProgram>(0));
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  auto status = service->wait(id.value());
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  ASSERT_EQ(status.value().state, JobState::kDone);
  ASSERT_NE(status.value().result, nullptr);
  const RunResult& run = *status.value().result;
  EXPECT_TRUE(run.converged);
  EXPECT_FALSE(run.cancelled);

  const auto baseline =
      engine_baseline(*service, BfsProgram(0), matching_engine_options(so));
  expect_payloads_equal(run.values, baseline);

  // Service-side latency metrics are populated and ordered sensibly.
  EXPECT_GE(run.queue_wait_seconds, 0.0);
  EXPECT_GE(run.end_to_end_seconds, run.elapsed_seconds);
}

TEST(GraphService, ConcurrentJobsBitIdenticalToSequential) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  const ServiceOptions so = small_service_options();
  auto service = open_service(graph, so);
  const EngineOptions eo = matching_engine_options(so);

  // A mixed tenant population, all in flight at once: a longer PageRank
  // plus short BFS/SSSP/multi-BFS queries from arbitrary roots.
  std::vector<std::shared_ptr<const Program>> programs;
  programs.push_back(std::make_shared<const PageRankProgram>(10));
  for (const VertexId root : {0U, 1U, 5U, 17U, 63U, 200U}) {
    programs.push_back(std::make_shared<const BfsProgram>(root));
  }
  programs.push_back(std::make_shared<const SsspProgram>(2));
  programs.push_back(std::make_shared<const MultiSourceReachabilityProgram>(
      std::vector<VertexId>{1, 2, 3}));

  std::vector<JobId> ids;
  for (const auto& program : programs) {
    auto id = service->submit(program);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    ids.push_back(id.value());
  }

  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto status = service->wait(ids[i]);
    ASSERT_TRUE(status.is_ok()) << status.status().to_string();
    ASSERT_EQ(status.value().state, JobState::kDone)
        << "job " << i << ": " << status.value().error.to_string();
    ASSERT_NE(status.value().result, nullptr);
    const auto baseline = engine_baseline(*service, *programs[i], eo);
    expect_payloads_equal(status.value().result->values, baseline);
  }

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, ids.size());
  EXPECT_EQ(stats.completed, ids.size());
  EXPECT_EQ(stats.failed, 0U);
  EXPECT_EQ(stats.queued, 0U);
  EXPECT_EQ(stats.running, 0U);
}

TEST(GraphService, PerJobResultsAreIsolated) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  const ServiceOptions so = small_service_options();
  auto service = open_service(graph, so);
  const EngineOptions eo = matching_engine_options(so);

  auto a = service->submit(std::make_shared<const BfsProgram>(0));
  auto b = service->submit(std::make_shared<const BfsProgram>(200));
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  auto sa = service->wait(a.value());
  auto sb = service->wait(b.value());
  ASSERT_TRUE(sa.is_ok() && sb.is_ok());
  ASSERT_EQ(sa.value().state, JobState::kDone);
  ASSERT_EQ(sb.value().state, JobState::kDone);

  // Distinct result objects, each matching its own sequential baseline —
  // nothing leaked across the two jobs' value files or mailboxes.
  ASSERT_NE(sa.value().result, sb.value().result);
  expect_payloads_equal(sa.value().result->values,
                        engine_baseline(*service, BfsProgram(0), eo));
  expect_payloads_equal(sb.value().result->values,
                        engine_baseline(*service, BfsProgram(200), eo));
}

TEST(GraphService, RetainValuesOffDropsPayloadsKeepsMetrics) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  auto service = open_service(graph, small_service_options());

  JobOptions jo;
  jo.retain_values = false;
  auto id = service->submit(std::make_shared<const BfsProgram>(0), jo);
  ASSERT_TRUE(id.is_ok());
  auto status = service->wait(id.value());
  ASSERT_TRUE(status.is_ok());
  ASSERT_EQ(status.value().state, JobState::kDone);
  ASSERT_NE(status.value().result, nullptr);
  EXPECT_TRUE(status.value().result->values.empty());
  EXPECT_GT(status.value().result->supersteps, 0U);
  EXPECT_GT(status.value().result->end_to_end_seconds, 0.0);
}

TEST(GraphService, CancelStopsRunningJobAtSuperstepBoundary) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  auto service = open_service(graph, small_service_options());

  // Effectively unbounded PageRank: only cancel can end it promptly.
  auto id =
      service->submit(std::make_shared<const PageRankProgram>(1000000));
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(poll_until(*service, id.value(), [](const JobStatus& s) {
    return s.supersteps_completed >= 2;
  })) << "resident job made no progress";

  ASSERT_TRUE(service->cancel(id.value()));
  auto status = service->wait(id.value());
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().state, JobState::kCancelled);
  ASSERT_NE(status.value().result, nullptr);
  EXPECT_TRUE(status.value().result->cancelled);
  EXPECT_FALSE(status.value().result->converged);
  // Stopped at a boundary long before the budget.
  EXPECT_LT(status.value().result->supersteps, 1000000U);
  // The partial values are still harvested (retain_values default).
  EXPECT_EQ(status.value().result->values.size(), service->num_vertices());

  // A second cancel of a terminal job is a no-op.
  EXPECT_FALSE(service->cancel(id.value()));
}

TEST(GraphService, CancelQueuedJobNeverRuns) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  ServiceOptions so = small_service_options();
  so.max_concurrent_jobs = 1;  // one runner: the second job must queue
  auto service = open_service(graph, so);

  auto blocker =
      service->submit(std::make_shared<const PageRankProgram>(1000000));
  ASSERT_TRUE(blocker.is_ok());
  ASSERT_TRUE(poll_until(*service, blocker.value(), [](const JobStatus& s) {
    return s.state == JobState::kRunning;
  }));

  auto queued = service->submit(std::make_shared<const BfsProgram>(0));
  ASSERT_TRUE(queued.is_ok());
  ASSERT_TRUE(service->cancel(queued.value()));
  auto status = service->poll(queued.value());
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().state, JobState::kCancelled);
  EXPECT_EQ(status.value().result, nullptr);  // never reached a runner

  ASSERT_TRUE(service->cancel(blocker.value()));
  auto bstatus = service->wait(blocker.value());
  ASSERT_TRUE(bstatus.is_ok());
  EXPECT_EQ(bstatus.value().state, JobState::kCancelled);
  EXPECT_EQ(service->stats().cancelled, 2U);
}

TEST(GraphService, AdmissionControlRejectsWhenQueueFull) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  ServiceOptions so = small_service_options();
  so.max_concurrent_jobs = 1;
  so.max_queued_jobs = 1;
  auto service = open_service(graph, so);

  auto blocker =
      service->submit(std::make_shared<const PageRankProgram>(1000000));
  ASSERT_TRUE(blocker.is_ok());
  ASSERT_TRUE(poll_until(*service, blocker.value(), [](const JobStatus& s) {
    return s.state == JobState::kRunning;
  }));

  // One slot in the queue, then admission control pushes back.
  auto queued = service->submit(std::make_shared<const BfsProgram>(0));
  ASSERT_TRUE(queued.is_ok());
  auto rejected = service->submit(std::make_shared<const BfsProgram>(1));
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service->stats().rejected, 1U);

  // The admitted jobs are unaffected: cancel the blocker, the queued BFS
  // runs to completion.
  ASSERT_TRUE(service->cancel(blocker.value()));
  auto status = service->wait(queued.value());
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status.value().state, JobState::kDone);
}

TEST(GraphService, ResidentJobProgressesDuringQueryBurst) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  ServiceOptions so = small_service_options();
  so.scheduler_workers = 2;  // oversubscribed: 4 jobs x 3 actors on 2 threads
  auto service = open_service(graph, so);

  auto resident =
      service->submit(std::make_shared<const PageRankProgram>(1000000));
  ASSERT_TRUE(resident.is_ok());
  ASSERT_TRUE(poll_until(*service, resident.value(), [](const JobStatus& s) {
    return s.supersteps_completed >= 1;
  }));
  const std::uint64_t before =
      service->poll(resident.value()).value().supersteps_completed;

  // Burst of short queries. The fair-share budget keeps the resident
  // job's actors scheduled while the burst drains.
  JobOptions jo;
  jo.retain_values = false;
  std::vector<JobId> burst;
  for (VertexId root = 0; root < 8; ++root) {
    auto id =
        service->submit(std::make_shared<const BfsProgram>(root * 31U), jo);
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    burst.push_back(id.value());
  }
  for (const JobId id : burst) {
    auto status = service->wait(id);
    ASSERT_TRUE(status.is_ok());
    EXPECT_EQ(status.value().state, JobState::kDone)
        << status.value().error.to_string();
  }

  // No starvation: the resident job advanced while the burst ran. (It is
  // still running here; the service destructor cancels it.)
  ASSERT_TRUE(poll_until(*service, resident.value(),
                         [before](const JobStatus& s) {
                           return s.supersteps_completed > before;
                         }))
      << "resident job starved during query burst";
}

TEST(GraphService, ForgetDropsTerminalJobsAndValueFilesAreCleaned) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);
  auto service = open_service(graph, small_service_options());

  auto id = service->submit(std::make_shared<const BfsProgram>(0));
  ASSERT_TRUE(id.is_ok());
  // Still queued or running: forget must refuse.
  auto status = service->wait(id.value());
  ASSERT_TRUE(status.is_ok());
  ASSERT_EQ(status.value().state, JobState::kDone);

  // Per-job scratch value files are removed once the run is harvested.
  std::size_t value_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(service->work_dir())) {
    if (entry.path().filename().string().find(".values") !=
        std::string::npos) {
      ++value_files;
    }
  }
  EXPECT_EQ(value_files, 0U);

  EXPECT_TRUE(service->forget(id.value()));
  EXPECT_FALSE(service->forget(id.value()));  // already gone
  auto gone = service->poll(id.value());
  ASSERT_FALSE(gone.is_ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(GraphService, RejectsColdStartAndNullProgram) {
  const EdgeList graph = rmat(8, 1500, /*seed=*/3);

  ServiceOptions cold = small_service_options();
  cold.io.cold_start = true;
  auto rejected = GraphService::open_from_edges(graph, cold);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  auto service = open_service(graph, small_service_options());
  auto null_submit = service->submit(nullptr);
  ASSERT_FALSE(null_submit.is_ok());
  EXPECT_EQ(null_submit.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(service->cancel(9999));
  auto unknown = service->poll(9999);
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace gpsa
