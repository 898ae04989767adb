// Dense thread ids.
//
// Hazard-pointer domains, sharded counters, Anderson locks, and flat
// combining all want a small dense integer per participating thread rather
// than std::thread::id.  The registry hands out ids 0..kMaxThreads-1 and
// recycles them when threads exit, so long-running programs that churn
// threads do not exhaust the space.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/arch.hpp"
#include "core/padded.hpp"

namespace ccds {

// Upper bound on simultaneously-registered threads.  Fixed at compile time so
// per-thread slot arrays in lock-free structures can be flat and allocation
// free.  96 comfortably covers a large host while keeping slot scans cheap.
inline constexpr std::size_t kMaxThreads = 96;

namespace detail {

class ThreadRegistry {
 public:
  static ThreadRegistry& instance() noexcept {
    static ThreadRegistry reg;
    return reg;
  }

  std::size_t acquire() noexcept {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      // acq_rel: pairs with the release in release() so slot reuse
      // happens-after the previous owner's teardown.
      if (in_use_[i]->compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed)) {  // relaxed: failure -> try next slot
        raise_ceiling(i + 1);
        return i;
      }
    }
    assert_fail("thread registry exhausted (raise ccds::kMaxThreads)",
                __FILE__, __LINE__);
  }

  void release(std::size_t id) noexcept {
    in_use_[id]->store(false, std::memory_order_release);
  }

  // Registration high-water mark: every id ever handed out is < ceiling().
  // Monotone (released slots stay counted), so per-thread-slot sweeps in the
  // reclamation domains can bound their loops by it instead of kMaxThreads:
  // slots at or above the ceiling have never been written by anyone.
  //
  // Ordering contract for sweepers: a thread obtains its id (and thus
  // raises the ceiling, seq_cst) BEFORE its first store to any per-thread
  // slot array indexed by that id.
  //
  // The load below is seq_cst so the classic protocol's (CCDS_TSAN_SOUND)
  // sweep-bound argument runs entirely inside the seq_cst total order S: if a
  // sweep's ceiling load misses a registration (load <_S raise-CAS), then
  // every slot publication of that thread is also later in S, so by coherence
  // no sweep load could have returned it anyway — the skipped slot is exactly
  // the "empty slot" case the classic protocol's proof already covers (the
  // reader's seq_cst validating load then observes the pre-sweep unlink and
  // retries).  An acquire load would not participate in S and that argument
  // would not hold.  The asymmetric protocol gets the same guarantee from the
  // membarrier pairwise property instead ("all earlier stores of every thread
  // are visible after the heavy barrier"), provided the scanner reads the
  // ceiling after its asymmetric_heavy() call; the stronger load is harmless
  // there — ceiling() is only called on amortized reclamation paths, never
  // per-operation.
  std::size_t ceiling() const noexcept {
    return ceiling_.value.load(std::memory_order_seq_cst);
  }

#if defined(CCDS_MODEL)
  // Between model executions, with every model thread joined: lower the
  // mark to the ids still held, as in a fresh process.  A mark carried over
  // from the previous execution would widen sweeps that ran before a
  // registration there, so a replayed schedule would not repeat.
  void reset_ceiling() noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      // acquire: pairs with release(), like acquire()'s CAS.
      if (in_use_[i]->load(std::memory_order_acquire)) n = i + 1;
    }
    ceiling_.value.store(n, std::memory_order_seq_cst);
  }
#endif

 private:
  ThreadRegistry() = default;

  void raise_ceiling(std::size_t n) noexcept {
    std::size_t cur = ceiling_.value.load(std::memory_order_relaxed);  // relaxed: CAS below carries the ordering
    while (cur < n &&
           !ceiling_.value.compare_exchange_weak(cur, n,
                                                 std::memory_order_seq_cst)) {
      // seq_cst success order above: registration is cold, and the strong
      // order keeps the sweep-bound argument a one-liner (see ceiling()).
    }
  }

  Padded<std::atomic<bool>> in_use_[kMaxThreads];
  Padded<std::atomic<std::size_t>> ceiling_{};
};

struct ThreadIdSlot {
  std::size_t id;
  ThreadIdSlot() : id(ThreadRegistry::instance().acquire()) {}
  ~ThreadIdSlot() { ThreadRegistry::instance().release(id); }
};

}  // namespace detail

// Dense id of the calling thread, assigned on first use, recycled at thread
// exit.  Always < kMaxThreads.
inline std::size_t thread_id() noexcept {
  thread_local detail::ThreadIdSlot slot;
  return slot.id;
}

// Upper bound (exclusive) on every thread id handed out so far; monotone,
// always <= kMaxThreads.  Lets per-thread-slot sweeps skip the untouched
// tail of their arrays — see ThreadRegistry::ceiling() for the ordering
// contract sweepers must follow.
inline std::size_t registered_ceiling() noexcept {
  return detail::ThreadRegistry::instance().ceiling();
}

}  // namespace ccds
