// Chase-Lev work-stealing deque (Chase & Lev, SPAA'05) with the C11
// memory-order discipline of Lê et al., "Correct and Efficient Work-Stealing
// for Weak Memory Models" (PPoPP'13).
//
// One owner thread pushes and pops at the bottom (LIFO — the task it just
// made ready is the hottest in cache); any number of thief threads steal from
// the top (FIFO — thieves take the oldest task, which tends to root the
// largest untouched subtree). All operations are lock-free.
//
// Steal-half extension (PR 10): steal_many() lets a thief claim up to half
// the deque — bounded by kMaxSteal — with ONE top CAS, amortizing the
// fence/CAS round trip over a batch. Batch claims change the owner/thief
// race: in the classic protocol the owner takes the bottom slot without a
// CAS whenever more than one element remains, because a thief can only claim
// the single top slot. With batch claims of up to kMaxSteal slots, the
// owner's free bottom-take is only safe while the deque holds at least
// kMaxSteal elements (no thief claim, which always starts at top and spans
// at most kMaxSteal slots, can reach the bottom slot). Once the deque is
// shorter than that, pop() switches to consuming from the TOP via the same
// CAS the thieves use, racing them slot-for-slot; it needs no bottom
// reservation and no fence then, since top-side claims are serialized by
// the CAS alone. The last kMaxSteal tasks of a run are therefore popped FIFO
// instead of LIFO — a cache-warmth trade, not a correctness one — while
// long deques keep the CAS-free owner path.
//
// The circular buffer grows geometrically and never shrinks. Retired buffers
// are kept alive until the deque is destroyed: a thief may still be reading a
// stale buffer pointer, and parking the garbage is far cheaper than hazard
// pointers for the handful of growths a run performs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

// ThreadSanitizer does not model standalone atomic_thread_fence precisely,
// which makes the canonical fence-based Chase-Lev protocol report false
// races. Under TSan every operation is promoted to seq_cst (correct, merely
// slower) so the stress suite runs clean; production builds keep the precise
// weak orders.
#if defined(__SANITIZE_THREAD__)
#define ATM_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ATM_TSAN_BUILD 1
#endif
#endif

namespace atm::rt {

class Task;

namespace detail {
constexpr std::memory_order relax_unless_tsan(std::memory_order order) noexcept {
#ifdef ATM_TSAN_BUILD
  (void)order;
  return std::memory_order_seq_cst;
#else
  return order;
#endif
}

/// Standalone fences are both unsupported by TSan (GCC -Wtsan) and redundant
/// under the seq_cst promotion above, so they compile away in TSan builds.
inline void deque_fence(std::memory_order order) noexcept {
#ifdef ATM_TSAN_BUILD
  (void)order;
#else
  std::atomic_thread_fence(order);
#endif
}
}  // namespace detail

class WorkStealDeque {
 public:
  /// Hard per-steal batch bound. The owner's CAS-free bottom path (see the
  /// file comment) requires b - t >= kMaxSteal, so raising this makes the
  /// owner pay a top-CAS on longer tails; 32 already amortizes the steal
  /// fence 32x while keeping the owner's CAS tail short.
  static constexpr std::size_t kMaxSteal = 32;

  explicit WorkStealDeque(std::size_t initial_capacity = 256)
      : buffer_(new Buffer(round_up_pow2(initial_capacity))) {}

  ~WorkStealDeque() {
    // mo: relaxed — single-threaded teardown; no concurrent access remains.
    delete buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
  }

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only: push one task at the bottom.
  void push(Task* task) {
    // mo: relaxed bottom/buffer — owner-private variables (only the owner
    // writes them); mo: acquire top — synchronizes with the thieves' CAS so
    // the owner's capacity check sees freed slots.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    const std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    if (b - t >= static_cast<std::int64_t>(buf->capacity)) {
      buf = grow(buf, t, b);
    }
    // mo: relaxed slot store — the release fence below orders it before the
    // bottom store that publishes the slot to thieves (Lê et al. Fig. 1).
    buf->slot(b).store(task, detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: release fence — publish the slot before the new bottom becomes
    // visible to thieves; mo: relaxed bottom store — the fence carries the
    // ordering.
    detail::deque_fence(std::memory_order_release);
    bottom_.store(b + 1, detail::relax_unless_tsan(std::memory_order_relaxed));
  }

  /// Owner only: pop a task; nullptr when empty. LIFO (bottom) while at
  /// least kMaxSteal elements remain, FIFO (top, via CAS) below that — see
  /// the file comment for why batch steals force the switch.
  Task* pop() {
    // mo: relaxed — bottom/buffer are owner-private; the seq_cst fence below
    // provides the only cross-thread ordering pop needs.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_relaxed)) - 1;
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: relaxed — a stale top only understates it (top never decreases),
    // which sends a short deque down the fenced path below; correct, just
    // slower.
    std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    if (b - t < static_cast<std::int64_t>(kMaxSteal)) {
      // Short deque: take from the top through the claiming CAS right away.
      // No bottom reservation or fence is needed — the owner's own bottom
      // cannot move under it, and every top slot goes to one winning CAS.
      return pop_top(buf, t, b);
    }
    // mo: relaxed — reserve slot b; bottom is owner-private and the fence
    // below orders this store before the top reload.
    bottom_.store(b, detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: seq_cst fence — the bottom store must be ordered before the top
    // load (store-load), mirroring the fence in steal_many(): either the
    // owner sees a fresh-enough top, or the thief sees the reserved bottom
    // and caps its claim below slot b. mo: relaxed top load — the fence
    // carries the ordering.
    detail::deque_fence(std::memory_order_seq_cst);
    t = top_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    if (t > b) {
      // mo: relaxed — deque was empty; undo the owner-private reservation.
      bottom_.store(b + 1, detail::relax_unless_tsan(std::memory_order_relaxed));
      return nullptr;
    }
    if (b - t >= static_cast<std::int64_t>(kMaxSteal)) {
      // Long deque: every batch claim spans [t', t'+k) with k <= kMaxSteal
      // and t' <= t (the fence pair above makes this top read at least as
      // fresh as that of any thief whose bottom read predates our
      // reservation), so no live claim can reach slot b. Take it CAS-free.
      // mo: relaxed slot load — the owner published this slot itself.
      return buf->slot(b).load(detail::relax_unless_tsan(std::memory_order_relaxed));
    }
    // Thieves shortened the deque meanwhile: slot b may sit inside a
    // thief's batch claim. Give the bottom reservation back and consume
    // from the top instead.
    // mo: relaxed — bottom is owner-private.
    bottom_.store(b + 1, detail::relax_unless_tsan(std::memory_order_relaxed));
    return pop_top(buf, t, b);
  }

  /// Thieves: steal the oldest task; nullptr when empty or lost a race.
  Task* steal() {
    // mo: acquire top — pairs with the winning CAS of other thieves.
    std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    // mo: seq_cst fence — order the top load before the bottom load (the
    // load-load mirror of the fence in pop()).
    detail::deque_fence(std::memory_order_seq_cst);
    // mo: acquire bottom/buffer — pair with push()'s release so the slot
    // contents (and a grown buffer) are visible before we read the slot.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    if (t >= b) return nullptr;
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    // mo: relaxed slot load — ordered by the acquires above.
    Task* task = buf->slot(t).load(detail::relax_unless_tsan(std::memory_order_relaxed));
    // mo: seq_cst CAS — claims the element against the owner and other
    // thieves; relaxed on failure (the value is discarded).
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      detail::relax_unless_tsan(std::memory_order_relaxed))) {
      return nullptr;  // another thief or the owner won; caller retries
    }
    return task;
  }

  /// Thieves: steal up to half the deque (at most min(max_n, kMaxSteal)
  /// tasks, oldest first) with one top CAS. Writes the claimed tasks to
  /// out[0..k) in age order and returns k; 0 when empty or a race was lost.
  /// Claims are all-or-nothing: a lost CAS claims no slots.
  std::size_t steal_many(Task** out, std::size_t max_n) {
    // mo: acquire top — pairs with the winning CAS of other thieves.
    std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    // mo: seq_cst fence — order the top load before the bottom load (the
    // load-load mirror of the fence in pop()); this pairing is what lets
    // the owner's long-deque guard bound every batch claim (see pop()).
    detail::deque_fence(std::memory_order_seq_cst);
    // mo: acquire bottom/buffer — pair with push()'s release so the slot
    // contents (and a grown buffer) are visible before we read the slots.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    const std::int64_t n = b - t;
    if (n <= 0) return 0;
    // Take half (rounded up, so a 1-element deque is still stealable),
    // bounded by the caller's cap and the protocol bound kMaxSteal that the
    // owner's pop() relies on.
    std::int64_t k = (n + 1) / 2;
    if (k > static_cast<std::int64_t>(max_n)) k = static_cast<std::int64_t>(max_n);
    if (k > static_cast<std::int64_t>(kMaxSteal)) k = static_cast<std::int64_t>(kMaxSteal);
    if (k <= 0) return 0;
    // mo: acquire buffer — pair with grow()'s release store so a just-grown
    // buffer's slot array is fully visible before the relaxed slot reads.
    Buffer* buf = buffer_.load(detail::relax_unless_tsan(std::memory_order_acquire));
    for (std::int64_t i = 0; i < k; ++i) {
      // mo: relaxed slot loads — read before the claiming CAS (same idiom
      // as steal()): while top == t none of [t, t+k) can be overwritten
      // (push bounds b - top below capacity), and a failed CAS discards
      // everything read here.
      out[i] = buf->slot(t + i).load(detail::relax_unless_tsan(std::memory_order_relaxed));
    }
    // mo: seq_cst CAS — claims all k slots against the owner and other
    // thieves in one shot; relaxed on failure (the reads are discarded —
    // no partial claim).
    if (!top_.compare_exchange_strong(t, t + k, std::memory_order_seq_cst,
                                      detail::relax_unless_tsan(std::memory_order_relaxed))) {
      return 0;
    }
    return static_cast<std::size_t>(k);
  }

  /// Racy size estimate (monitoring/backoff only, never for correctness).
  [[nodiscard]] std::size_t size_estimate() const noexcept {
    // mo: relaxed — racy estimate by contract.
    const std::int64_t b = bottom_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    const std::int64_t t = top_.load(detail::relax_unless_tsan(std::memory_order_relaxed));
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] bool empty_estimate() const noexcept { return size_estimate() == 0; }

  [[nodiscard]] std::size_t capacity() const noexcept {
    // mo: relaxed — monitoring read; capacity is immutable per buffer.
    return buffer_.load(detail::relax_unless_tsan(std::memory_order_relaxed))->capacity;
  }

  /// Resident bytes (buffer + retired garbage), for memory accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t n = capacity() * sizeof(std::atomic<Task*>);
    for (const auto& r : retired_) n += r->capacity * sizeof(std::atomic<Task*>);
    return n;
  }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<Task*>[]>(cap)) {}
    [[nodiscard]] std::atomic<Task*>& slot(std::int64_t i) noexcept {
      return slots[static_cast<std::size_t>(i) & mask];
    }
    const std::size_t capacity;
    const std::size_t mask;
    std::unique_ptr<std::atomic<Task*>[]> slots;
  };

  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  /// Owner only (called from pop, bottom not reserved): claim the top slot
  /// with the same CAS the thieves use, so every slot is handed out by
  /// exactly one winning top-CAS. `t` is a top read, `b` the last slot.
  Task* pop_top(Buffer* buf, std::int64_t t, std::int64_t b) {
    while (t <= b) {
      // mo: relaxed slot load — read before the claiming CAS, the same
      // idiom as steal(): the slot cannot be overwritten while top == t
      // (push bounds b - top below capacity), and a failed CAS discards it.
      Task* task = buf->slot(t).load(detail::relax_unless_tsan(std::memory_order_relaxed));
      // mo: seq_cst CAS — claims slot t against the thieves; relaxed on
      // failure (the reloaded expected value restarts the loop).
      if (top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                       detail::relax_unless_tsan(std::memory_order_relaxed))) {
        return task;
      }
    }
    return nullptr;  // empty, or thieves drained the tail
  }

  /// Owner only (called from push): double the buffer, copy live slots.
  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    // mo: relaxed copy — the old slots were published before this call and
    // the release store below republishes them through the new buffer.
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(detail::relax_unless_tsan(std::memory_order_relaxed)),
                            detail::relax_unless_tsan(std::memory_order_relaxed));
    }
    // mo: release — thieves acquiring buffer_ must see the copied slots.
    buffer_.store(bigger, detail::relax_unless_tsan(std::memory_order_release));
    retired_.emplace_back(old);  // thieves may still hold the old pointer
    return bigger;
  }

  // top_ and bottom_ on separate cache lines: thieves hammer top_, the owner
  // hammers bottom_.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  std::vector<std::unique_ptr<Buffer>> retired_;  // owner-only, freed with the deque
};

}  // namespace atm::rt
