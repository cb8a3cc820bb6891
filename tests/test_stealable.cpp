// Stealability suite (and a TSan/ASan CI target): every ready task of the
// steal scheduler sits in a structure an idle lane can take it from. A lane
// that drains an inbox chain or wins a batch steal keeps only the task it
// runs; the rest go onto its deque. These tests pin that: once at the
// scheduler seam with one lane that stops acquiring after one pop, and once
// through the runtime with one executor blocked inside a task of its wave.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/scheduler.hpp"

namespace atm::rt {
namespace {

/// Spin (yielding) until `done()` holds, for at most ten seconds: a
/// stranded task shows as a failed wait, not as a hung test binary.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Lane 0 drains its inbox chain with one try_pop and then never acquires
// again (a worker stuck in a long task). Lane 1 and the helper lane must
// still reach every other task, lane 0's drained chain included. The test
// is single-threaded, so the outcome does not depend on timing.
TEST(StealScheduler, DrainedInboxChainStaysStealable) {
  constexpr unsigned kWorkers = 2;
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kExternalLane = ~std::size_t{0};
  auto sched = Scheduler::make(SchedPolicy::Steal, kWorkers, nullptr);
  std::vector<Task> tasks(kTasks);
  for (Task& t : tasks) sched->push(&t, kExternalLane);
  sched->flush();

  Task* first = sched->try_pop(0);
  ASSERT_NE(first, nullptr);
  std::set<Task*> taken{first};
  // Lane 1, then the helper lane (index kWorkers). A lane that misses a
  // sweep backs off for at most kBackoffMaxSkips calls, so the bound on
  // rounds is loose.
  for (int round = 0; round < 1000 && taken.size() < kTasks; ++round) {
    for (unsigned lane : {1U, kWorkers}) {
      if (Task* t = sched->try_pop(lane)) {
        EXPECT_TRUE(taken.insert(t).second) << "task acquired twice";
      }
    }
  }
  EXPECT_EQ(taken.size(), kTasks)
      << "lane 1 and the helper lane reached " << taken.size() - 1 << " of the "
      << kTasks - 1 << " tasks lane 0 did not run";
  // Lane 0 comes back and finds nothing: every task is accounted for.
  EXPECT_EQ(sched->try_pop(0), nullptr);
  EXPECT_EQ(sched->depth(), 0U);
  sched->shutdown();
}

// Two workers plus the helping master. The first task of the wave to start
// blocks its executor until every other task of the wave has run, so the
// other two executors must reach all of them — including the ones that
// arrived on the blocked lane together with it. Both workers are held in
// gate tasks while the wave is submitted, so each inbox collects a long
// chain that one drain takes whole.
TEST(StealableWave, BlockedTaskDoesNotStrandItsWave) {
  Runtime rt({.num_threads = 2, .help_taskwait = true});
  const auto* type = rt.register_type({.name = "t", .memoizable = false, .atm = {}});

  std::atomic<int> gates_started{0};
  std::atomic<bool> gates_open{false};
  int gate_cells[2] = {0, 0};
  for (int& cell : gate_cells) {
    rt.submit(type,
              [&] {
                gates_started.fetch_add(1);
                while (!gates_open.load()) std::this_thread::yield();
              },
              {inout(&cell, 1)});
  }
  ASSERT_TRUE(wait_until([&] { return gates_started.load() == 2; }));

  constexpr int kWave = 64;
  std::vector<int> cells(kWave, 0);
  std::atomic<bool> waiter_claimed{false};
  std::atomic<int> others_done{0};
  std::atomic<int> ran_while_blocked{kWave - 1};
  for (int i = 0; i < kWave; ++i) {
    rt.submit(type,
              [&, i] {
                cells[i] = 1;
                if (!waiter_claimed.exchange(true)) {
                  if (!wait_until([&] { return others_done.load() == kWave - 1; })) {
                    ran_while_blocked.store(others_done.load());
                  }
                } else {
                  others_done.fetch_add(1);
                }
              },
              {inout(&cells[i], 1)});
  }
  gates_open.store(true);
  rt.taskwait();

  EXPECT_EQ(ran_while_blocked.load(), kWave - 1)
      << "tasks that ran while one executor was blocked in the wave";
  for (int i = 0; i < kWave; ++i) ASSERT_EQ(cells[i], 1) << "task " << i;
  EXPECT_EQ(rt.counters().executed, static_cast<std::uint64_t>(kWave) + 2);
}

}  // namespace
}  // namespace atm::rt
