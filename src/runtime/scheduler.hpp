// Ready-task scheduling policies behind one seam (the paper's RQ box in
// Figure 1). Two implementations:
//
//  * CentralScheduler — the paper's literal design: one mutex+condvar FIFO
//    (ReadyQueue). Every push and pop crosses the same lock; kept as the
//    A/B baseline (`--sched central`).
//  * StealScheduler — per-worker Chase-Lev deques (LIFO local push/pop,
//    FIFO steals) + per-worker inboxes for external submissions (staged by
//    the submitter and dealt across them a chunk at a time), with a
//    spin-then-steal-then-park idle protocol. This is the default: it
//    removes the central lock from the task hot path.
//
// PR 5 adds the helper lane: a transient extra slot through which the
// master drains and steals tasks while it sits at a taskwait (helping
// barrier) instead of parking — see Runtime::taskwait. The helper shares
// the workers' parking lot, so push wakeups, shutdown, and the
// all-tasks-done notification use one protocol.
//
// Depth tracking and trace sampling work identically under both policies so
// Figures 7-8 reproduce regardless of `--sched`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "obs/metrics.hpp"
#include "runtime/ready_queue.hpp"
#include "runtime/task.hpp"
#include "runtime/trace.hpp"
#include "runtime/work_steal_deque.hpp"

namespace atm::rt {

/// Which ready-task scheduler a runtime uses.
enum class SchedPolicy : std::uint8_t {
  Central,  ///< one shared FIFO behind a mutex (the paper's RQ)
  Steal,    ///< per-worker Chase-Lev deques with work stealing
};

[[nodiscard]] constexpr const char* sched_policy_name(SchedPolicy s) noexcept {
  switch (s) {
    case SchedPolicy::Central: return "central";
    case SchedPolicy::Steal: return "steal";
  }
  return "?";
}

/// Point-in-time scheduler observability (gauges + monotonic counters).
struct SchedulerStats {
  std::size_t depth = 0;                ///< tasks queued across all structures
  std::uint64_t steal_attempts = 0;     ///< full steal sweeps started (steal only)
  std::uint64_t steal_fails = 0;        ///< sweeps that returned empty-handed
  std::uint64_t inbox_drains = 0;       ///< wholesale inbox-chain drains
  std::uint64_t inbox_drained_tasks = 0;///< tasks moved by those drains
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Enqueue a ready task. `lane` is the calling thread's lane id: a worker
  /// lane (< worker count) pushes into its own local structure; the helper
  /// lane (== worker count, valid only while the master is helping at a
  /// taskwait) pushes into the helper's structure; any other lane (the
  /// master outside taskwait, test threads) submits externally.
  virtual void push(Task* task, std::size_t lane) = 0;

  /// Worker `worker` blocks until a task is available or shutdown() was
  /// called and no task could be acquired; nullptr means "exit".
  virtual Task* pop_blocking(unsigned worker) = 0;

  /// Non-blocking acquire for lane `worker` (a worker lane or the helper
  /// lane); nullptr when nothing was found (possibly transiently, under
  /// steal races).
  virtual Task* try_pop(unsigned worker) = 0;

  /// Helping-barrier acquire for the (single) helper lane: returns a task,
  /// or nullptr once `quit()` is true (or shutdown). Parks in the
  /// scheduler's lot between attempts; a caller whose quit condition
  /// changes asynchronously must arrange a notify_helpers() call.
  virtual Task* helper_pop(const std::function<bool()>& quit) = 0;

  /// Wake any helper parked inside helper_pop (the runtime calls this when
  /// the helper's quit condition — "all tasks done" — flips).
  virtual void notify_helpers() = 0;

  /// Publish every external push still held back by the submitter side, so
  /// that acquirers can see it. The runtime calls this before a taskwait
  /// helps or parks. A scheduler that publishes on push has nothing to do.
  virtual void flush() {}

  /// Release all blocked workers; subsequent pops drain remaining tasks
  /// (staged ones included) and then return nullptr.
  virtual void shutdown() = 0;

  /// Re-arm after shutdown (used by tests that restart a pool).
  virtual void reset() = 0;

  /// Tasks currently queued across all structures (racy; monitoring only).
  [[nodiscard]] virtual std::size_t depth() const noexcept = 0;

  /// Observability snapshot (racy; monitoring only).
  [[nodiscard]] virtual SchedulerStats stats() const noexcept = 0;

  /// Factory for a policy. `workers` is the worker-thread count; `tracer`
  /// (nullable) receives ready-depth samples when tracing is enabled;
  /// `metrics` (nullable) receives the steal histograms
  /// (sched.steal_batch_size, sched.victim_distance).
  [[nodiscard]] static std::unique_ptr<Scheduler> make(
      SchedPolicy policy, unsigned workers, TraceRecorder* tracer,
      obs::MetricsRegistry* metrics = nullptr);
};

/// The paper's central RQ wrapped in the Scheduler seam.
class CentralScheduler final : public Scheduler {
 public:
  explicit CentralScheduler(TraceRecorder* tracer) : queue_(tracer) {}

  void push(Task* task, std::size_t lane) override {
    (void)lane;
    queue_.push(task);
  }
  Task* pop_blocking(unsigned worker) override {
    (void)worker;
    return queue_.pop_blocking();
  }
  Task* try_pop(unsigned worker) override {
    (void)worker;
    return queue_.try_pop();
  }
  Task* helper_pop(const std::function<bool()>& quit) override {
    return queue_.pop_for_helper(quit);
  }
  void notify_helpers() override { queue_.notify_all(); }
  void shutdown() override { queue_.shutdown(); }
  void reset() override { queue_.reset(); }
  [[nodiscard]] std::size_t depth() const noexcept override { return queue_.depth(); }
  [[nodiscard]] SchedulerStats stats() const noexcept override {
    SchedulerStats s;
    s.depth = queue_.depth();
    return s;
  }

 private:
  ReadyQueue queue_;
};

/// Work-stealing scheduler: per-worker Chase-Lev deque + external inbox.
///
/// The inbox is a lock-free intrusive MPSC stack (Treiber push through
/// Task::inbox_next, wholesale exchange-drain, reversed to submission
/// order). External submissions do not touch it one by one: push() stages
/// them on a submitter-side chain under an uncontended spinlock, and a
/// whole chunk is published at once — one items_ add, the chunk dealt in
/// contiguous sub-chains round-robin across the worker inboxes (one CAS
/// per inbox), one wake-up round. Per-task cross-core traffic on the
/// submit path drops to the staging lock's own line. A chunk holds one
/// task per worker after every flush and doubles on each full publish up
/// to kStageMaxPerLane per worker (slow start: a few tasks reach idle
/// workers at once, a long stream travels in large chunks). Dealing, not
/// handing a chunk to one inbox, spreads the first drains across the pool.
///
/// Liveness: no staged task waits on a thread that sleeps. The staging is
/// published (1) when a chunk fills; (2) by flush(), which
/// Runtime::taskwait calls before helping or parking; (3) by shutdown()
/// before it raises the flag (the shutdown drain never parks); (4) by a
/// lane that has just registered as a sleeper (pop_blocking/helper_pop);
/// (5) by the submitter right after staging whenever its seq_cst sleepers_
/// load reads > 0; (6) by a thread that staged tasks itself when it next
/// calls try_pop (a submitter that also polls for work never waits on its
/// own staging). Points 4 and 5 pair up: a sleeper registers (seq_cst) and
/// then takes the staging lock; the submitter stages under that lock and
/// then loads sleepers_. Either the sleeper's critical section comes after
/// the submitter's and it publishes the task itself, or it came before,
/// and then its registration happens-before the submitter's load, which
/// sees it. A staged task thus waits at most one spin phase of an idle lane.
///
/// Slot layout: `workers` worker slots plus one helper slot (index ==
/// workers) owned by the master while it helps at a taskwait. The helper
/// slot's deque is part of every worker's steal sweep, so work the helping
/// master spawns (successor pushes, nested submissions) never strands if
/// the master blocks inside a long task.
///
/// Acquire order for lane w (try_pop):
///   1. own deque (LIFO while long, FIFO through the top CAS when short —
///      see WorkStealDeque::pop),
///   2. own inbox, drained wholesale in one exchange (a burst of master
///      submissions costs one exchange here, not one acquire per task):
///      the first task runs, the rest go onto the own deque,
///   3. steal: sweep the other lanes in the lane's locality ring order,
///      first their deque tops (steal-half: up to kMaxSteal tasks in one
///      CAS), then their inboxes, so a victim stuck in a long task cannot
///      strand external submissions. A stolen batch or chain is kept the
///      same way: first task run, the rest onto the thief's deque.
///
/// Every ready task therefore sits in a structure an idle lane can steal
/// from: a deque, an inbox, or the submitter's staging (which any parking
/// lane publishes). No lane holds tasks that no other lane can reach, so a
/// coarse wave spreads over every executor down to its last tasks. All of
/// those deque and inbox tasks are counted in items_, and a lane parks only
/// when items_ reads zero, so no lane sleeps while stealable work exists.
///
/// Victim selection walks a per-lane precomputed ring order — nearest lane
/// ids first, then widening rings, direction alternating by lane parity —
/// so thieves prefer neighbors (same core complex / NUMA node under any
/// sane thread layout) and never herd onto lane 0 the way a flat sweep
/// seeded at zero does. A productive victim is remembered (the next sweep
/// starts there); a full miss resets to the nearest ring AND bumps the
/// lane's exponential steal backoff — the next backoff_skip try_pop calls
/// skip the sweep entirely, so at high worker counts idle lanes stop
/// hammering every deque's top cacheline while one producer works.
/// Backoff resets the moment any acquire succeeds.
///
/// Idle protocol (pop_blocking): spin a bounded number of acquire rounds
/// (yielding, so oversubscribed containers do not burn the core), then park
/// on the lot. Pushers bump the item count first and only take the lot lock
/// when a sleeper is registered; the seq_cst item/sleeper pair makes the
/// sleep/wake race lose-proof (one side always sees the other). The helper
/// parks on the same lot with an extra quit predicate.
class StealScheduler final : public Scheduler {
 public:
  StealScheduler(unsigned workers, TraceRecorder* tracer,
                 obs::MetricsRegistry* metrics = nullptr);
  ~StealScheduler() override = default;

  void push(Task* task, std::size_t lane) override;
  Task* pop_blocking(unsigned worker) override;
  Task* try_pop(unsigned worker) override;
  Task* helper_pop(const std::function<bool()>& quit) override;
  void notify_helpers() override;
  void flush() override;
  void shutdown() override;
  void reset() override;
  /// Published tasks only: staged external pushes are not counted, and
  /// tasks a lane acquired while its deque still held work count until
  /// that deque runs empty.
  [[nodiscard]] std::size_t depth() const noexcept override {
    // mo: relaxed — racy monitoring gauge by contract.
    return items_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] SchedulerStats stats() const noexcept override;

  /// Largest external chunk, in tasks per worker inbox.
  static constexpr std::uint32_t kStageMaxPerLane = 16;
  /// Steal-backoff ceiling: after this many consecutive full-miss sweeps'
  /// worth of doubling, a lane skips at most this many sweeps per miss.
  /// Bounded so a lane re-probes within tens of microseconds — liveness
  /// additionally holds because local work is never skipped and pushers
  /// wake parked lanes through the lot.
  static constexpr std::uint32_t kBackoffMaxSkips = 32;

 private:
  struct alignas(64) WorkerSlot {
    WorkStealDeque deque;
    /// MPSC inbox head: producers CAS-push (LIFO); a drainer exchanges the
    /// whole chain out and reverses it back to submission order. Idle
    /// sweeps skip empty inboxes with one relaxed load of this pointer.
    std::atomic<Task*> inbox_head{nullptr};
    /// Tasks this lane acquired that items_ still counts (owner-private):
    /// settled in one subtraction once the lane's deque runs empty, when a
    /// local pop fails, or when the helper leaves its slot.
    std::size_t unsettled = 0;
    /// Index into victim_order where the next sweep starts: the position of
    /// the last productive victim (keep milking it), reset to 0 (nearest
    /// ring) on a full miss.
    std::uint32_t victim_cursor = 0;
    /// Locality-ordered victim lanes: nearest ring distance first, widening
    /// outward, probe direction alternating by lane parity (the per-lane
    /// seed that stops thieves herding). Built once at construction.
    std::vector<std::uint32_t> victim_order;
    /// Exponential steal backoff (owner-private): current skip budget and
    /// the doubling width it refills from on each consecutive full miss.
    std::uint32_t backoff_skip = 0;
    std::uint32_t backoff_width = 0;
    /// Observability counters, written only by the lane that owns this slot
    /// (the thief/drainer writes its OWN slot, never the victim's), racily
    /// summed by stats(). Same cache line the owner already dirties.
    AtomicCell<std::uint64_t> steal_attempts{0};
    AtomicCell<std::uint64_t> steal_fails{0};
    AtomicCell<std::uint64_t> inbox_drains{0};
    AtomicCell<std::uint64_t> inbox_drained_tasks{0};
  };

  /// A chain of staged tasks taken out for publication: newest first
  /// through inbox_next, `n` long, dealt starting at inbox `first_inbox`.
  struct Chunk {
    Task* head = nullptr;
    std::uint32_t n = 0;
    unsigned first_inbox = 0;
  };

  /// Wake up to `woken` parked lanes if any lane is registered as a sleeper.
  void note_push(std::size_t woken);
  /// Stage one external push; publishes the chunk when it is full.
  void stage(Task* task);
  /// Take the whole staging out (caller holds staging_lock_).
  Chunk take_staged() ATM_REQUIRES(staging_lock_);
  /// Count, deal and announce a chunk taken out of the staging.
  void publish(const Chunk& chunk);
  /// Count `task` as acquired by `me`; settles when `me`'s deque is empty.
  Task* acquired(WorkerSlot& me, Task* task);
  /// Subtract `me`'s unsettled acquisitions from items_.
  void settle(WorkerSlot& me);
  /// Exchange `victim`'s inbox chain out and return it in submission order
  /// (count in *n). nullptr when empty (or a producer is mid-publish).
  static Task* take_inbox_chain(WorkerSlot& victim, std::size_t* n);
  /// Take a drained inbox chain (submission order, `n` long, exclusively
  /// owned) into `me`: count the drain, push all but the first task onto
  /// `me`'s deque, where every other lane can steal them, and return the
  /// first.
  Task* adopt_chain(WorkerSlot& me, Task* chain, std::size_t n);
  [[nodiscard]] Task* acquire_local(unsigned lane);
  [[nodiscard]] Task* acquire_steal(unsigned lane);

  [[nodiscard]] unsigned lane_count() const noexcept { return workers_ + 1; }

  const unsigned workers_;
  /// workers_ worker slots + the helper slot at index workers_.
  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  /// External-push staging (see the class comment), on its own cache line:
  /// only external submitters touch it, plus a lane about to park.
  alignas(64) TaskSpinLock staging_lock_;
  /// Staged tasks, newest first through inbox_next.
  Task* staged_head_ ATM_GUARDED_BY(staging_lock_) = nullptr;
  std::uint32_t staged_n_ ATM_GUARDED_BY(staging_lock_) = 0;
  /// Chunk size in tasks per worker inbox (slow start: 1 after a flush).
  std::uint32_t stage_per_lane_ ATM_GUARDED_BY(staging_lock_) = 1;
  /// Inbox the next chunk's first sub-chain goes to (per-chunk round robin).
  unsigned next_inbox_ ATM_GUARDED_BY(staging_lock_) = 0;

  /// Tasks across all deques + inboxes, plus acquired tasks not yet settled
  /// (WorkerSlot::unsettled), so it never reads below the queued count;
  /// also the Figure-8 depth signal. (Staged external pushes are excluded:
  /// they are counted when published.)
  alignas(64) std::atomic<std::size_t> items_{0};
  std::atomic<bool> shutdown_{false};

  /// Lanes registered to park. The submitter loads it after every staged
  /// push, so it sits apart from items_, which every acquire writes.
  alignas(64) std::atomic<int> sleepers_{0};
  /// Parking lot only — never on the task hot path: pushers touch it solely
  /// when a registered sleeper exists (see note_push).
  Mutex park_mutex_;
  CondVar park_cv_;

  TraceRecorder* tracer_;
  /// Steal observability (nullable; owned by the registry). Recording is
  /// one relaxed increment on a thread-owned shard, and only on successful
  /// steals — amortized over the whole stolen batch.
  obs::LatencyHistogram* steal_batch_hist_ = nullptr;
  obs::LatencyHistogram* victim_distance_hist_ = nullptr;
};

}  // namespace atm::rt
