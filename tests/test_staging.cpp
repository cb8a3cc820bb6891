// External-submission staging suite (and a TSan/ASan CI target): the steal
// scheduler holds external pushes back on the submitter side and publishes
// them a chunk at a time. These tests pin its liveness and exactly-once
// guarantees — a staged task reaches a worker without any taskwait (parked
// worker, and a worker busy in a long task that must publish it before it
// parks), shutdown right after external pushes runs each of them once, a
// submitter that polls try_pop itself gets its staged tasks back, and
// waves smaller than one inbox's share of a chunk all finish.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/scheduler.hpp"

namespace atm::rt {
namespace {

/// Spin (yielding) until `flag` reads true, for at most ten seconds: a lost
/// staged task shows as a failed wait, not as a hung test binary.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The submitter never calls taskwait and spin-waits on its task's side
// effect while the only worker is parked: the submitter sees the sleeper
// right after staging and publishes the task itself.
TEST(Staging, UnwaitedTaskReachesParkedWorker) {
  Runtime rt({.num_threads = 1});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  int cell_a = 0;
  int cell_b = 0;
  std::atomic<bool> a_done{false};
  std::atomic<bool> b_done{false};
  // The first task fills a one-task chunk and grows the next chunk to two,
  // so the second task is staged, not published, when it is submitted.
  rt.submit(type, [&] { a_done.store(true); }, {inout(&cell_a, 1)});
  ASSERT_TRUE(wait_for(a_done));
  // Let the worker run out of spin rounds and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rt.submit(type, [&] { b_done.store(true); }, {inout(&cell_b, 1)});
  EXPECT_TRUE(wait_for(b_done)) << "staged task never ran";
}

// Same, with the only worker busy in a long task when the second task is
// staged: nobody is parked, so the task stays staged until the worker
// finishes, runs dry and publishes the staging before it parks.
TEST(Staging, UnwaitedTaskPublishedByPreParkFlush) {
  Runtime rt({.num_threads = 1});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  int cell_a = 0;
  int cell_b = 0;
  std::atomic<bool> a_started{false};
  std::atomic<bool> a_release{false};
  std::atomic<bool> b_done{false};
  rt.submit(type,
            [&] {
              a_started.store(true);
              while (!a_release.load()) std::this_thread::yield();
            },
            {inout(&cell_a, 1)});
  ASSERT_TRUE(wait_for(a_started));
  rt.submit(type, [&] { b_done.store(true); }, {inout(&cell_b, 1)});
  // Staged tasks are not counted in the published depth.
  EXPECT_EQ(rt.sched_stats().depth, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(b_done.load()) << "the only worker is still inside the long task";
  a_release.store(true);
  EXPECT_TRUE(wait_for(b_done)) << "staged task never ran after the worker went idle";
}

// External pushes followed at once by shutdown(): shutdown publishes the
// staging before the drain, so every task is consumed exactly once.
TEST(Staging, ShutdownRightAfterExternalPushesRunsEachOnce) {
  std::mt19937 rng(7);
  for (const unsigned workers : {1u, 3u}) {
    for (int iter = 0; iter < 100; ++iter) {
      const int n = 1 + static_cast<int>(rng() % 60);
      auto sched = Scheduler::make(SchedPolicy::Steal, workers, nullptr);
      std::vector<Task> tasks(static_cast<std::size_t>(n));
      std::vector<std::atomic<int>> taken(tasks.size());
      std::vector<std::thread> threads;
      for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          while (Task* t = sched->pop_blocking(w)) {
            taken[static_cast<std::size_t>(t - tasks.data())].fetch_add(1);
          }
        });
      }
      for (auto& t : tasks) sched->push(&t, /*lane=*/workers + 1);
      sched->shutdown();
      for (auto& t : threads) t.join();
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        ASSERT_EQ(taken[i].load(), 1)
            << "task " << i << " of " << n << " at " << workers << " workers";
      }
      EXPECT_EQ(sched->depth(), 0u);
    }
  }
}

// A thread that pushes externally and then polls try_pop itself (no worker
// threads, no parking) must get back every task it pushed, whatever share
// of them its last, unfilled chunk still holds.
TEST(Staging, SubmitterPollingTryPopGetsItsOwnStagedTasks) {
  for (const unsigned workers : {1u, 3u}) {
    auto sched = Scheduler::make(SchedPolicy::Steal, workers, nullptr);
    std::vector<Task> tasks(100);
    std::size_t pushed = 0;
    for (const std::size_t burst : {1, 2, 5, 30, 62}) {
      for (std::size_t i = 0; i < burst; ++i) sched->push(&tasks[pushed++], workers + 1);
      std::size_t got = 0;
      for (int spin = 0; spin < 1'000'000 && got < burst; ++spin) {
        if (sched->try_pop(0) != nullptr) ++got;
      }
      ASSERT_EQ(got, burst) << "burst of " << burst << " at " << workers << " workers";
    }
    sched->shutdown();
  }
}

// Many waves of 1 to 5 tasks, so the final chunk of a wave is smaller than
// one inbox's share: every task runs exactly once and every taskwait
// returns, helping or parking, at 1 and 3 workers.
class SmallWaves : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(SmallWaves, EveryTaskRunsOnceAndEveryTaskwaitReturns) {
  const auto [workers, help] = GetParam();
  constexpr int kWaves = 400;
  Runtime rt({.num_threads = workers, .help_taskwait = help});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  std::mt19937 rng(workers * 2 + (help ? 1 : 0));
  std::vector<int> cells(5);
  std::vector<std::atomic<int>> runs(cells.size());
  for (int w = 0; w < kWaves; ++w) {
    const std::size_t n = 1 + rng() % cells.size();
    for (std::size_t i = 0; i < n; ++i) {
      rt.submit(type, [&runs, &cells, i] { runs[i].fetch_add(1); ++cells[i]; },
                {inout(&cells[i], 1)});
    }
    rt.taskwait();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ASSERT_EQ(runs[i].exchange(0), i < n ? 1 : 0) << "wave " << w << " task " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkersAndBarrier, SmallWaves,
                         ::testing::Combine(::testing::Values(1u, 3u),
                                            ::testing::Bool()));

}  // namespace
}  // namespace atm::rt
