// Helping-taskwait suite (and a TSan CI target): at a barrier the master
// claims the scheduler's helper lane and drains/steals tasks instead of
// parking. These tests pin the protocol's guarantees — exactly-once
// execution under helping, correct termination of every wave (the final
// completion's notify_helpers wakeup), nested submission from helped tasks,
// identical results against the parking barrier, and both scheduler
// policies — under thread counts small enough that the master actually
// executes work.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace atm::rt {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// The master must actually execute tasks while helping: pin the single
// worker inside a long task, then submit quick tasks that record their
// executing thread — the taskwait caller's id must appear among them
// (whichever side takes the sleeper, the other side owns the rest).
TEST(TaskwaitHelp, MasterExecutesTasksWhileWorkerBusy) {
  Runtime rt({.num_threads = 1, .help_taskwait = true});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  const std::thread::id master_id = std::this_thread::get_id();

  std::mutex mu;
  std::set<std::thread::id> executors;
  std::atomic<bool> blocker_started{false};
  int blocker_cell = 0;
  rt.submit(type,
            [&] {
              {
                std::lock_guard<std::mutex> lock(mu);
                executors.insert(std::this_thread::get_id());
              }
              blocker_started.store(true);
              std::this_thread::sleep_for(std::chrono::milliseconds(100));
            },
            {inout(&blocker_cell, 1)});
  // Let the worker commit to the blocker before the quick tasks exist, so
  // the master cannot take the blocker itself: the quick tasks then sit in
  // the worker's inbox until the helping master (the only runnable lane)
  // steals them.
  while (!blocker_started.load()) std::this_thread::yield();

  constexpr int kQuick = 64;
  std::vector<int> cells(kQuick);
  for (int i = 0; i < kQuick; ++i) {
    rt.submit(type,
              [&, i] {
                cells[i] = 1;
                std::lock_guard<std::mutex> lock(mu);
                executors.insert(std::this_thread::get_id());
              },
              {inout(&cells[i], 1)});
  }
  rt.taskwait();

  for (int i = 0; i < kQuick; ++i) ASSERT_EQ(cells[i], 1) << "task " << i;
  EXPECT_EQ(rt.counters().executed, static_cast<std::uint64_t>(kQuick) + 1);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(executors.count(master_id) != 0)
      << "the taskwait caller never executed a task while the worker slept";
}

// Many short waves: every wave must terminate (no lost wakeup when the last
// completion happens on either side) and every task runs exactly once.
TEST(TaskwaitHelp, ManyWavesTerminateExactlyOnce) {
  constexpr int kWaves = kSanitized ? 100 : 400;
  constexpr int kTasksPerWave = 16;
  Runtime rt({.num_threads = 2, .help_taskwait = true});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  std::vector<std::atomic<int>> runs(kWaves * kTasksPerWave);
  std::vector<int> cells(kTasksPerWave);
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kTasksPerWave; ++i) {
      const int slot = w * kTasksPerWave + i;
      rt.submit(type, [&, slot, i] { runs[slot].fetch_add(1); cells[i] += 1; },
                {inout(&cells[i], 1)});
    }
    rt.taskwait();
  }
  for (int s = 0; s < kWaves * kTasksPerWave; ++s) {
    ASSERT_EQ(runs[s].load(), 1) << "task " << s << " ran != once";
  }
  for (int i = 0; i < kTasksPerWave; ++i) EXPECT_EQ(cells[i], kWaves);
  EXPECT_EQ(rt.counters().executed,
            static_cast<std::uint64_t>(kWaves) * kTasksPerWave);
}

// Tasks executed by the helping master may submit subtasks: those pushes go
// through the helper lane (and must be drainable by master and workers
// alike), and the barrier must not return before the nested work finished.
TEST(TaskwaitHelp, NestedSubmissionFromHelpedTasks) {
  Runtime rt({.num_threads = 1, .help_taskwait = true});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  constexpr int kOuter = 16;
  constexpr int kInner = 32;
  std::atomic<int> inner_runs{0};
  std::vector<int> outer_cells(kOuter);
  std::vector<int> inner_cells(kOuter * kInner);
  for (int o = 0; o < kOuter; ++o) {
    rt.submit(type,
              [&, o] {
                outer_cells[o] = 1;
                for (int i = 0; i < kInner; ++i) {
                  int* cell = &inner_cells[o * kInner + i];
                  rt.submit(type, [&, cell] { *cell = 1; inner_runs.fetch_add(1); },
                            {inout(cell, 1)});
                }
              },
              {inout(&outer_cells[o], 1)});
  }
  rt.taskwait();
  EXPECT_EQ(inner_runs.load(), kOuter * kInner);
  for (int v : outer_cells) ASSERT_EQ(v, 1);
  for (int v : inner_cells) ASSERT_EQ(v, 1);
  EXPECT_EQ(rt.arena_stats().live_slots(), 0u);
}

// The helping and parking barriers must produce identical program results:
// run the same serialized chains under both and compare the write logs.
TEST(TaskwaitHelp, HelpAndParkProduceIdenticalResults) {
  constexpr int kBuffers = 4;
  constexpr int kTasks = 2'000;
  auto run = [&](bool help) {
    Runtime rt({.num_threads = 2, .help_taskwait = help});
    const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
    int buffers[kBuffers] = {};
    std::vector<std::vector<int>> logs(kBuffers);
    std::mutex log_mutex[kBuffers];
    std::mt19937_64 rng(7);
    for (int i = 0; i < kTasks; ++i) {
      const int b = static_cast<int>(rng() % kBuffers);
      rt.submit(type,
                [&, i, b] {
                  std::lock_guard<std::mutex> lock(log_mutex[b]);
                  logs[b].push_back(i);
                },
                {inout(&buffers[b], 1)});
    }
    rt.taskwait();
    return logs;
  };
  EXPECT_EQ(run(true), run(false));
}

// help_taskwait = false must keep the PR-4 parking behavior intact.
TEST(TaskwaitHelp, ParkingFallbackStillDrains) {
  Runtime rt({.num_threads = 2, .help_taskwait = false});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  std::vector<int> cells(512);
  for (int wave = 0; wave < 5; ++wave) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      rt.submit(type, [&, i] { cells[i] += 1; }, {inout(&cells[i], 1)});
    }
    rt.taskwait();
    EXPECT_EQ(rt.arena_stats().live_slots(), 0u);
  }
  for (int v : cells) ASSERT_EQ(v, 5);
}

// The helping path must work under the central scheduler too (the helper
// pops through ReadyQueue::pop_for_helper, woken by notify_all).
TEST(TaskwaitHelp, CentralSchedulerHelping) {
  Runtime rt({.num_threads = 1, .sched = SchedPolicy::Central, .help_taskwait = true});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
  constexpr int kWaves = 50;
  std::vector<int> cells(64);
  for (int wave = 0; wave < kWaves; ++wave) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      rt.submit(type, [&, i] { cells[i] += 1; }, {inout(&cells[i], 1)});
    }
    rt.taskwait();
  }
  for (int v : cells) ASSERT_EQ(v, kWaves);
  EXPECT_EQ(rt.counters().executed, static_cast<std::uint64_t>(kWaves) * cells.size());
}

// Construct/destroy runtimes in a loop with helping barriers in between:
// the shutdown handshake (helper inactive, workers drain, exactly-once
// joins) must hold every time.
TEST(TaskwaitHelp, RepeatedRuntimeTeardownTerminates) {
  constexpr int kRuntimes = kSanitized ? 10 : 40;
  for (int r = 0; r < kRuntimes; ++r) {
    Runtime rt({.num_threads = static_cast<unsigned>(r % 3) + 1, .help_taskwait = true});
    const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});
    std::atomic<int> runs{0};
    int cell = 0;
    for (int i = 0; i < 64; ++i) {
      rt.submit(type, [&] { runs.fetch_add(1); ++cell; }, {inout(&cell, 1)});
    }
    rt.taskwait();
    ASSERT_EQ(runs.load(), 64);
    ASSERT_EQ(cell, 64);
    // Destructor taskwait on an empty region + shutdown must also be clean.
  }
}

// Randomized DAG stress under helping (the TSan target): dependences must
// serialize conflicting writers even when the master executes part of the
// graph, across many waves.
class HelpDagStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HelpDagStress, ConflictingWritersSerializedWhileHelping) {
  std::mt19937_64 rng(GetParam());
  constexpr int kBuffers = 8;
  const int kWaves = kSanitized ? 10 : 40;
  const int kTasksPerWave = 250;

  Runtime rt({.num_threads = 2, .help_taskwait = true});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});

  int buffers[kBuffers] = {};
  std::vector<std::vector<int>> logs(kBuffers);
  std::mutex log_mutex[kBuffers];
  std::vector<int> expected[kBuffers];

  int id = 0;
  for (int w = 0; w < kWaves; ++w) {
    for (int i = 0; i < kTasksPerWave; ++i, ++id) {
      const int b = static_cast<int>(rng() % kBuffers);
      expected[b].push_back(id);
      rt.submit(type,
                [&, id, b] {
                  std::lock_guard<std::mutex> lock(log_mutex[b]);
                  logs[b].push_back(id);
                },
                {inout(&buffers[b], 1)});
    }
    rt.taskwait();
  }
  for (int b = 0; b < kBuffers; ++b) {
    EXPECT_EQ(logs[b], expected[b]) << "buffer " << b;
  }
  EXPECT_EQ(rt.counters().executed,
            static_cast<std::uint64_t>(kWaves) * kTasksPerWave);
  EXPECT_EQ(rt.arena_stats().live_slots(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HelpDagStress, ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace atm::rt
