#include "runtime/scheduler.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/spin_lock.hpp"
#include "common/timing.hpp"

namespace atm::rt {

namespace {
/// Acquire rounds a worker attempts (yielding between rounds) before it
/// parks. Each round sweeps every victim, so even a short budget gives the
/// whole pool several chances to hand work over without a futex round trip;
/// keeping it small matters on oversubscribed machines where spinning steals
/// cycles from the thread that would produce the work.
constexpr int kSpinRounds = 64;
/// The helper (master at a taskwait) spins far less before parking: it is
/// an opportunistic extra lane, and on few-core hosts every cycle it burns
/// spinning is a cycle the workers — who own the backlog — do not get.
constexpr int kHelperSpinRounds = 8;
/// The scheduler the calling thread has staged external pushes into since
/// it last flushed one: such a thread publishes before it acquires, so a
/// thread that both submits externally and polls try_pop never waits on
/// its own staged tasks. Workers never stage, so their pops skip this.
thread_local const Scheduler* tls_staged_into = nullptr;
}  // namespace

std::unique_ptr<Scheduler> Scheduler::make(SchedPolicy policy, unsigned workers,
                                           TraceRecorder* tracer,
                                           obs::MetricsRegistry* metrics) {
  switch (policy) {
    case SchedPolicy::Central: return std::make_unique<CentralScheduler>(tracer);
    case SchedPolicy::Steal:
      return std::make_unique<StealScheduler>(workers, tracer, metrics);
  }
  return std::make_unique<CentralScheduler>(tracer);
}

namespace {
/// Ring distance between two lane ids on a `total`-lane ring (>= 1 for
/// distinct lanes); the victim-distance histogram's sample value.
[[nodiscard]] unsigned ring_distance(unsigned a, unsigned b, unsigned total) noexcept {
  const unsigned d = a > b ? a - b : b - a;
  return d < total - d ? d : total - d;
}
}  // namespace

StealScheduler::StealScheduler(unsigned workers, TraceRecorder* tracer,
                               obs::MetricsRegistry* metrics)
    : workers_(workers > 0 ? workers : 1), tracer_(tracer) {
  const unsigned total = lane_count();
  slots_.reserve(total);
  for (unsigned w = 0; w < total; ++w) {
    auto slot = std::make_unique<WorkerSlot>();
    // Locality-ordered victim ring: nearest lane ids first, widening
    // outward, probe direction alternating by lane parity. Every lane gets
    // a distinct order (its own ring) so idle thieves fan out across the
    // pool instead of mobbing one victim.
    slot->victim_order.reserve(total - 1);
    for (unsigned d = 1; d <= total / 2; ++d) {
      unsigned first = (w + d) % total;
      unsigned second = (w + total - d) % total;
      if ((w & 1U) != 0) std::swap(first, second);
      slot->victim_order.push_back(first);
      if (second != first) slot->victim_order.push_back(second);
    }
    slots_.push_back(std::move(slot));
  }
  if (metrics != nullptr) {
    steal_batch_hist_ = metrics->histogram("sched.steal_batch_size", "tasks", "sched");
    victim_distance_hist_ = metrics->histogram("sched.victim_distance", "lanes", "sched");
  }
}

void StealScheduler::note_push(std::size_t woken) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    // mo: relaxed — depth sample is monitoring only.
    tracer_->sample_depth(now_ns(), items_.load(std::memory_order_relaxed));
  }
  // seq_cst pairs with the sleeper registration in pop_blocking/helper_pop:
  // either this load sees the registered sleeper (and we wake it), or the
  // sleeper's predicate load sees the item increment made before the
  // publish (so it never sleeps).
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // The lock orders the notify against a sleeper that passed its predicate
    // check but has not yet suspended.
    MutexLock lock(park_mutex_);
    for (std::size_t i = 0; i < woken; ++i) park_cv_.notify_one();
  }
}

Task* StealScheduler::acquired(WorkerSlot& me, Task* task) {
  // One items_ subtraction per task would be a read-modify-write of a line
  // every lane and the submitter share. While the deque still holds work
  // the count is deferred instead: items_ then reads high, never low, so no
  // lane parks while stealable work exists.
  ++me.unsettled;
  if (me.deque.empty_estimate()) settle(me);
  return task;
}

void StealScheduler::settle(WorkerSlot& me) {
  if (me.unsettled == 0) return;
  // mo: relaxed — items_ is a conservatively-ordered gauge; the push side
  // (seq_cst fetch_add before publish) provides the never-underflow bound.
  items_.fetch_sub(me.unsettled, std::memory_order_relaxed);
  me.unsettled = 0;
  if (tracer_ != nullptr && tracer_->enabled()) {
    // mo: relaxed — depth sample is monitoring only.
    tracer_->sample_depth(now_ns(), items_.load(std::memory_order_relaxed));
  }
}

void StealScheduler::push(Task* task, std::size_t lane) {
  if (lane >= lane_count()) {
    // External submission (master outside taskwait or any non-worker
    // thread): staged, published a chunk at a time.
    stage(task);
    return;
  }
  // Count the task BEFORE publishing it: a thief can steal it (and run the
  // fetch_sub in settle()) the instant it lands in a deque, and the
  // counter must never transiently underflow — it feeds depth() and the
  // Figure-8 ready-depth samples.
  items_.fetch_add(1, std::memory_order_seq_cst);
  // Owner push: the lane making a successor ready keeps it local (LIFO,
  // still warm in its cache); thieves pick it up from the top if not.
  // Lane workers_ is the helper — the master acting as a transient worker
  // during a taskwait; its deque is in every worker's steal sweep.
  slots_[lane]->deque.push(task);
  note_push(1);
}

void StealScheduler::stage(Task* task) {
  tls_staged_into = this;
  Chunk full;
  {
    SpinLockGuard guard(staging_lock_);
    // mo: relaxed — the chain is private to the staging lock until publish.
    task->inbox_next.store(staged_head_, std::memory_order_relaxed);
    staged_head_ = task;
    if (++staged_n_ >= stage_per_lane_ * workers_) {
      full = take_staged();
      // Slow start: a full chunk means the stream is long; grow the next.
      stage_per_lane_ = std::min(stage_per_lane_ * 2, kStageMaxPerLane);
    }
  }
  if (full.head != nullptr) {
    publish(full);
    return;
  }
  // seq_cst pairs with the sleeper registration (see the class comment): a
  // lane that parked before this task was staged is seen here, and the
  // staged task goes out now instead of waiting for the chunk to fill.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) flush();
}

StealScheduler::Chunk StealScheduler::take_staged() {
  Chunk chunk{staged_head_, staged_n_, next_inbox_};
  next_inbox_ = (next_inbox_ + std::min(staged_n_, workers_)) % workers_;
  staged_head_ = nullptr;
  staged_n_ = 0;
  return chunk;
}

void StealScheduler::publish(const Chunk& chunk) {
  // Count the whole chunk before any of it is visible (see push()).
  items_.fetch_add(chunk.n, std::memory_order_seq_cst);
  // Deal contiguous sub-chains, one per inbox: a chunk smaller than the
  // pool fills only chunk.n inboxes with one task each.
  const std::uint32_t inboxes = std::min(chunk.n, workers_);
  const std::uint32_t share = chunk.n / inboxes;
  const std::uint32_t extra = chunk.n % inboxes;
  Task* rest = chunk.head;
  for (std::uint32_t i = 0; i < inboxes; ++i) {
    Task* first = rest;
    Task* last = first;
    for (std::uint32_t k = 1; k < share + (i < extra ? 1 : 0); ++k) {
      // mo: relaxed — the chunk is exclusively owned until its CAS below.
      last = last->inbox_next.load(std::memory_order_relaxed);
    }
    // mo: relaxed — exclusively-owned chain walk.
    rest = last->inbox_next.load(std::memory_order_relaxed);
    // The staging chain is newest first, like an inbox stack, so the
    // sub-chain splices onto the head as is and the drainer's reversal
    // restores submission order.
    WorkerSlot& slot = *slots_[(chunk.first_inbox + i) % workers_];
    // mo: relaxed — head is only a CAS expected value; the CAS re-validates.
    Task* head = slot.inbox_head.load(std::memory_order_relaxed);
    do {
      // mo: relaxed — the publishing CAS below releases the link write.
      last->inbox_next.store(head, std::memory_order_relaxed);
      // mo: release publishes every link of the sub-chain to the acquiring
      // drainer; relaxed on failure (retry rereads head).
    } while (!slot.inbox_head.compare_exchange_weak(
        head, first, std::memory_order_release, std::memory_order_relaxed));
  }
  note_push(inboxes);
}

void StealScheduler::flush() {
  if (tls_staged_into == this) tls_staged_into = nullptr;
  Chunk chunk;
  {
    SpinLockGuard guard(staging_lock_);
    stage_per_lane_ = 1;
    if (staged_n_ == 0) return;
    chunk = take_staged();
  }
  publish(chunk);
}

Task* StealScheduler::take_inbox_chain(WorkerSlot& victim, std::size_t* n) {
  *n = 0;
  // mo: relaxed peek — empty inboxes are skipped without a fence; the
  // exchange below is the synchronizing read.
  if (victim.inbox_head.load(std::memory_order_relaxed) == nullptr) return nullptr;
  // mo: acquire pairs with the producers' release CAS so every inbox_next
  // link in the chain is visible.
  Task* chain = victim.inbox_head.exchange(nullptr, std::memory_order_acquire);
  if (chain == nullptr) return nullptr;
  // Reverse the LIFO chain back to submission order.
  Task* ordered = nullptr;
  std::size_t count = 0;
  while (chain != nullptr) {
    // mo: relaxed — the chain is exclusively owned after the exchange.
    Task* next = chain->inbox_next.load(std::memory_order_relaxed);
    // mo: relaxed — exclusively-owned chain rewrite.
    chain->inbox_next.store(ordered, std::memory_order_relaxed);
    ordered = chain;
    chain = next;
    ++count;
  }
  *n = count;
  return ordered;
}

Task* StealScheduler::adopt_chain(WorkerSlot& me, Task* chain, std::size_t n) {
  me.inbox_drains.store(me.inbox_drains.load() + 1);
  me.inbox_drained_tasks.store(me.inbox_drained_tasks.load() + n);
  // mo: relaxed — the chain is exclusively owned after its drain; each
  // deque.push publishes its task to thieves.
  Task* rest = chain->inbox_next.load(std::memory_order_relaxed);
  chain->inbox_next.store(nullptr, std::memory_order_relaxed);
  while (rest != nullptr) {
    // mo: relaxed — exclusively-owned chain walk, as above.
    Task* next = rest->inbox_next.load(std::memory_order_relaxed);
    rest->inbox_next.store(nullptr, std::memory_order_relaxed);
    me.deque.push(rest);
    rest = next;
  }
  return acquired(me, chain);
}

Task* StealScheduler::acquire_local(unsigned lane) {
  WorkerSlot& slot = *slots_[lane];
  if (Task* task = slot.deque.pop()) return acquired(slot, task);
  settle(slot);  // the deque ran dry behind a stale emptiness check
  // Drain the inbox wholesale: a k-task submission burst costs one exchange
  // here, not k acquires, and all but the first task stay stealable.
  std::size_t n = 0;
  Task* chain = take_inbox_chain(slot, &n);
  return chain != nullptr ? adopt_chain(slot, chain, n) : nullptr;
}

Task* StealScheduler::acquire_steal(unsigned lane) {
  WorkerSlot& me = *slots_[lane];
  // One full sweep over the other lanes (workers + the helper slot) in this
  // lane's locality ring order, starting at the last productive victim:
  // deque top first (steal-half — up to kMaxSteal of the victim's backlog
  // in one CAS), then the victim's inbox so a long-running victim cannot
  // strand external submissions behind its back.
  me.steal_attempts.store(me.steal_attempts.load() + 1);
  Task* batch[WorkStealDeque::kMaxSteal];
  const auto order_n = static_cast<std::uint32_t>(me.victim_order.size());
  const std::uint32_t start = me.victim_cursor < order_n ? me.victim_cursor : 0;
  for (std::uint32_t i = 0; i < order_n; ++i) {
    const std::uint32_t idx = start + i < order_n ? start + i : start + i - order_n;
    const std::uint32_t v = me.victim_order[idx];
    WorkerSlot& victim = *slots_[v];
    const std::size_t got = victim.deque.steal_many(batch, WorkStealDeque::kMaxSteal);
    std::size_t n = 0;
    Task* chain = got == 0 ? take_inbox_chain(victim, &n) : nullptr;
    if (got == 0 && chain == nullptr) continue;
    me.victim_cursor = idx;  // keep milking a productive victim
    me.backoff_skip = 0;
    me.backoff_width = 0;
    if (victim_distance_hist_ != nullptr) {
      victim_distance_hist_->record(ring_distance(lane, v, lane_count()));
    }
    // The victim's stranded inbox: a whole burst moves in one exchange.
    if (chain != nullptr) return adopt_chain(me, chain, n);
    if (steal_batch_hist_ != nullptr) steal_batch_hist_->record(got);
    // The winning top-CAS made the batch ours; all but its oldest task go
    // onto this lane's deque, oldest at the top, stealable in turn.
    for (std::size_t k = 1; k < got; ++k) me.deque.push(batch[k]);
    return acquired(me, batch[0]);
  }
  me.victim_cursor = 0;  // full miss: restart at the nearest ring next time
  me.steal_fails.store(me.steal_fails.load() + 1);
  // Exponential steal backoff: consecutive full misses double the number of
  // sweeps this lane sits out (local acquires are never skipped), capped so
  // the lane keeps re-probing. Any successful acquire resets it.
  me.backoff_width = me.backoff_width == 0
                         ? 1
                         : (me.backoff_width * 2 < kBackoffMaxSkips
                                ? me.backoff_width * 2
                                : kBackoffMaxSkips);
  me.backoff_skip = me.backoff_width;
  return nullptr;
}

SchedulerStats StealScheduler::stats() const noexcept {
  SchedulerStats s;
  // mo: relaxed — racy monitoring snapshot by contract.
  s.depth = items_.load(std::memory_order_relaxed);
  for (const auto& slot : slots_) {
    s.steal_attempts += slot->steal_attempts.load();
    s.steal_fails += slot->steal_fails.load();
    s.inbox_drains += slot->inbox_drains.load();
    s.inbox_drained_tasks += slot->inbox_drained_tasks.load();
  }
  return s;
}

Task* StealScheduler::try_pop(unsigned lane) {
  if (tls_staged_into == this) flush();
  WorkerSlot& me = *slots_[lane];
  if (Task* task = acquire_local(lane)) {
    // Work arrived locally: stop sitting out steal sweeps.
    me.backoff_skip = 0;
    me.backoff_width = 0;
    return task;
  }
  if (me.backoff_skip > 0) {
    // Steal backoff: sit this sweep out (the caller yields between rounds),
    // so an idle lane stops hammering every victim's top cacheline. The
    // budget is finite and local work was just checked, so no task is ever
    // stranded behind the skip.
    --me.backoff_skip;
    return nullptr;
  }
  return acquire_steal(lane);
}

Task* StealScheduler::pop_blocking(unsigned worker) {
  for (;;) {
    // Spin phase: bounded acquire rounds with yields between them.
    for (int round = 0; round < kSpinRounds; ++round) {
      if (Task* task = try_pop(worker)) return task;
      // mo: acquire pairs with shutdown()'s release store.
      if (shutdown_.load(std::memory_order_acquire)) {
        // Drain semantics: after shutdown keep acquiring until the system
        // is globally empty, then exit. taskwait() ran before shutdown in
        // the runtime, so this terminates immediately in practice.
        if (items_.load(std::memory_order_seq_cst) == 0) return nullptr;
      }
      std::this_thread::yield();
    }
    // mo: acquire pairs with shutdown()'s release store.
    if (shutdown_.load(std::memory_order_acquire)) continue;  // drain, never park

    // Park. Register as a sleeper first (seq_cst, pairing with note_push),
    // then re-check for work under the lock: a push that raced our
    // registration is seen either here or by its sleeper check.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    // Publish the external staging before sleeping: a submitter that staged
    // a task before seeing this registration relies on it (class comment).
    flush();
    {
      MutexLock lock(park_mutex_);
      // mo: acquire on shutdown_ pairs with shutdown()'s release store;
      // items_ stays seq_cst to close the sleep/wake race with note_push.
      while (!shutdown_.load(std::memory_order_acquire) &&
             items_.load(std::memory_order_seq_cst) == 0) {
        park_cv_.wait(park_mutex_);
      }
    }
    // mo: relaxed — deregistering needs no ordering; a spurious notify to a
    // lane that just woke is harmless.
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

Task* StealScheduler::helper_pop(const std::function<bool()>& quit) {
  const unsigned lane = workers_;  // the helper slot
  // The helper settles its acquisitions before it leaves the slot: a
  // worker's shutdown drain waits for items_ to read zero.
  const auto done = [&] {
    // mo: acquire pairs with shutdown()'s release store.
    if (!quit() && !shutdown_.load(std::memory_order_acquire)) return false;
    settle(*slots_[lane]);
    return true;
  };
  for (;;) {
    if (done()) return nullptr;
    if (Task* task = try_pop(lane)) return task;
    // Short spin only: the helper is a bonus lane; on few-core hosts the
    // workers own the backlog and need the cycles more.
    for (int round = 0; round < kHelperSpinRounds; ++round) {
      if (done()) return nullptr;
      if (Task* task = try_pop(lane)) return task;
      std::this_thread::yield();
    }
    // Park on the shared lot. Same seq_cst sleeper/item pairing as the
    // workers, with the quit condition folded into the wait loop — the
    // runtime calls notify_helpers() when it flips, so the wakeup is
    // exactly the push/quit/shutdown union, never a timeout poll.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    flush();  // as in pop_blocking: nothing staged waits on a sleeper
    {
      MutexLock lock(park_mutex_);
      // mo: acquire on shutdown_ pairs with shutdown()'s release store;
      // items_ stays seq_cst to close the sleep/wake race with note_push.
      while (!shutdown_.load(std::memory_order_acquire) &&
             items_.load(std::memory_order_seq_cst) == 0 && !quit()) {
        park_cv_.wait(park_mutex_);
      }
    }
    // mo: relaxed — deregistering needs no ordering.
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void StealScheduler::notify_helpers() {
  // notify_all, not notify_one: the lot is shared with the workers and the
  // wakeup must reach the helper specifically.
  MutexLock lock(park_mutex_);
  park_cv_.notify_all();
}

void StealScheduler::shutdown() {
  // The drain after shutdown spins on items_ and never parks, so nothing
  // else would publish what is still staged.
  flush();
  // mo: release pairs with the acquire loads in the pop paths so a worker
  // that observes shutdown also observes everything queued before it.
  shutdown_.store(true, std::memory_order_release);
  MutexLock lock(park_mutex_);
  park_cv_.notify_all();
}

void StealScheduler::reset() {
  // mo: release mirrors shutdown(); pairs with the pop-side acquire loads.
  shutdown_.store(false, std::memory_order_release);
}

}  // namespace atm::rt
