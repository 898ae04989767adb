// The grace-period core shared by epoch-based reclamation (reclaim/epoch.hpp)
// and quiescent-state-based reclamation (reclaim/qsbr.hpp).
//
// EBR and QSBR are one scheme that differs only in WHEN a thread announces
// (Hart et al., "Performance of memory reclamation for lockless
// synchronization", JPDC 2007).  Both keep a global epoch and one
// announcement slot per thread; both stamp each retired node with the
// epoch at retirement and free it once the epoch is three advances past
// the stamp; both advance only when every announced thread has observed
// the current epoch.  EBR announces at every guard's start and clears the
// slot at its end (a pin); QSBR announces once when a thread comes online
// and thereafter at operation boundaries, so its read path does nothing at
// all.  This core is everything the two share — the global epoch, the
// announcement slots, the validated announce, try_advance(), Lease, the
// stamped retire(), collect(), collect_all() and epoch() — and the two
// domains are thin guard policies over it.
//
// The validated announce is a store-load Dekker against try_advance():
// the announcement must be advancer-visible before the validating re-read
// of the global epoch.  The classic protocol pays a seq_cst store (a full
// fence on x86) per announcement.  A default build runs the ASYMMETRIC
// protocol (liburcu's sys_membarrier flavor): a release store plus
// asymmetric_light() — compiler-only where membarrier backs the heavy
// side; a real fence on fallback platforms, where the pair degrades to the
// classic symmetric protocol (core/asymmetric_fence.hpp) — while
// try_advance(), the rare side amortized over a retirement batch, issues
// one process-wide heavy barrier before sweeping the slots.  Correctness
// (the same Dekker resolution as hazard.hpp): after asymmetric_heavy()
// either an announcement is visible to the sweep (the advance is blocked,
// or the announcer is counted at the current epoch), or it comes after the
// barrier — and since the validating re-read of `global_epoch_` stays
// seq_cst (free on the hot path: a seq_cst LOAD is a plain load on x86 and
// ldar on ARM; only the seq_cst STORE was expensive), such a late
// announcer validates against the true current epoch.  So the advancer can
// never get more than one step ahead of any announced thread, which is
// exactly what the grace-period arithmetic below assumes.  The Dekker's
// two halves are core/asymmetric_fence.hpp's dekker_* helpers, so a
// CCDS_TSAN_SOUND build runs the classic protocol instead — E11's before
// side.
//
// Grace-period arithmetic (`stamp + 3 <= epoch`): a retiring thread reads
// its stamp s seq_cst, yet s may lag the instantaneous epoch by one while
// that thread is itself announced; a reader that still holds the node is
// announced at most at s+1, and the epoch can never reach s+3 while it
// stays announced.  The textbook +2 rule assumes a stamp taken at the
// instantaneous epoch; the extra +1 covers that lag.  (QSBR's version of
// the argument, in terms of boundary announcements, is in qsbr.hpp.)
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/arch.hpp"
#include "core/asymmetric_fence.hpp"
#include "core/atomic.hpp"
#include "core/padded.hpp"
#include "core/thread_registry.hpp"
#include "reclaim/reclaim.hpp"
#include "reclaim/retired.hpp"

namespace ccds {

class EpochCore {
  // The pass predicate: stamp + 3 <= E, E read once per pass under the
  // pass latch (header comment has the arithmetic).  Defined above its
  // callers, which need its deduced return type.
  auto grace_passed() const {
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    return [e](const RetiredBags::Retired& r) { return r.stamp + 3 <= e; };
  }

 public:
  static constexpr std::size_t kSlots = 8;  // ignored; API parity with HP

  // Amortized read path.  A Lease announces the current epoch exactly like
  // a validated pin or onlining, but LEAVES the announcement standing at
  // scope exit (no unpin, no boundary): the next lease on this thread
  // skips the publication entirely unless the global epoch moved in
  // between, collapsing the per-operation cost to two cached loads.
  //
  // Safety: while this thread stays announced at e the global epoch cannot
  // pass e+1, so anything it loads after announcing can only have been
  // retired with stamp >= e — never reclaimable before it re-announces.  A
  // lease is taken at operation start, when the thread holds no
  // references, so re-announcing there is itself a legal quiescent state.
  //
  // Trade-off: between operations the thread still counts as announced,
  // so the epoch cannot move past e+1 until EVERY leasing thread leases
  // again after an advance, and a thread that leased once and went quiet
  // freezes it (the domain's destruction still frees everything).  Use
  // only on a domain whose retired garbage is rare, and never on one shared
  // with latency-sensitive reclaimers.  SwissHashMap leases by default but
  // its garbage is NOT bounded this way: every same-size tombstone purge
  // retires a whole table, and a standing lease can keep those tables
  // unfreed for as long as the map serves (an open defect).
  class Lease : public BlanketGuard {
   public:
    explicit Lease(EpochCore& d) {
      auto& slot = d.my_slot();
      // acquire: pairs with the advance CAS so post-lease loads see the
      // unlinks of every epoch this announcement retires.
      const std::uint64_t e = d.global_epoch_.load(std::memory_order_acquire);
      // relaxed: own slot — only this thread stores meaningful values here,
      // and a stale/foreign read merely falls through to the full announce.
      if (slot.load(std::memory_order_relaxed) != e) d.announce(slot);
    }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
  };

  Lease lease() { return Lease(*this); }

  // Hand over a detached node; freed once the epoch is three advances past
  // its stamp.  May be called inside or outside a guard or lease.
  template <typename T>
  void retire(T* p) {
    // seq_cst: the freshest stamp we can get; still one step of lag the
    // +3 grace covers (header comment).
    auto& bag = bags_.push(p, global_epoch_.load(std::memory_order_seq_cst));
    // One advance attempt per kCollectThreshold retires, not one per retire
    // once the bag is full: while a pinned thread holds the epoch, every
    // attempt fails, and under the asymmetric protocol each one is a
    // process-wide membarrier.
    if (bag.size() % kCollectThreshold == 0) {
      try_advance();
      // Scan the bag only if the epoch moved since our last scan: while a
      // stalled thread freezes the epoch, nothing new can become freeable,
      // and rescanning an ever-growing bag every threshold retires would
      // be quadratic (the bag still grows — that unbounded-garbage window
      // is the scheme's inherent cost; this just avoids burning CPU on it).
      const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
      auto& last = last_scan_epoch_[thread_id()].value;
      if (e != last) {
        last = e;
        reclaim(bag);
      }
    }
  }

  // Attempt an epoch advance and reclaim what the calling thread can.
  void collect() {
    try_advance();
    reclaim(bags_.mine());
  }

  // Advance repeatedly and reclaim EVERY thread's bag.  Only safe at
  // quiescence (no live guards or leases, no concurrent retires, by any
  // thread).  Announcements are force-reset first: a standing lease, an
  // online-but-idle QSBR thread or a stale slot left by an exited thread
  // would otherwise freeze the epoch and make the drain contract
  // (retired_count() == 0 after) unreachable.  This is the one place the
  // domain writes another thread's slot; threads re-announce on their next
  // guard or lease.
  void collect_all() {
    const std::size_t nthreads = registered_ceiling();
    for (std::size_t t = 0; t < nthreads; ++t) {
      // release: quiescent contract — nothing concurrent pairs with this;
      // ordering matters only against our own try_advance below.
      announce_[t]->store(kInactive, std::memory_order_release);
    }
    for (int i = 0; i < 4; ++i) try_advance();
    bags_.reclaim_all([this] { return grace_passed(); });
  }

  std::size_t retired_count() const { return bags_.count(); }

  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_relaxed);  // relaxed: observational read
  }

  EpochCore(const EpochCore&) = delete;
  EpochCore& operator=(const EpochCore&) = delete;

 protected:
  // Slot value of a thread that is not announced: unpinned (EBR) or
  // offline (QSBR).  An inactive slot never blocks an advance.
  static constexpr std::uint64_t kInactive = ~0ull;

  EpochCore() = default;
  // Quiescent teardown frees unconditionally (deleters may still retire).
  ~EpochCore() { bags_.drain(); }

  Atomic<std::uint64_t>& my_slot() noexcept {
    return announce_[thread_id()].value;
  }

  // The validated announcement (EBR's pin, QSBR's onlining, every lease
  // refresh).  Claiming a FRESH epoch without proof the sweep can see the
  // claim would let an advancer pass a thread that is about to start
  // reading (the seeded missed-quiescence bug the model tests replay).
  void announce(Atomic<std::uint64_t>& slot) {
    for (;;) {
      const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
      // Advancer-visible before the re-read below, by its own fence or by
      // try_advance()'s sweep barrier (header comment).
      dekker_publish(slot, e);
      // seq_cst: the validate must read the CURRENT epoch (not a stale
      // one), or an announcer could believe itself announced at e while
      // the epoch had already left e behind — one step of lag the
      // grace-period arithmetic does not budget for.  A seq_cst load is
      // free on the architectures we target; only the seq_cst STORE was
      // the hot-path cost the asymmetric protocol removes.
      if (global_epoch_.load(std::memory_order_seq_cst) == e) return;
    }
  }

  // Advance the global epoch iff every announced thread has observed it.
  void try_advance() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    // Every announcement made before the barrier is visible to the sweep
    // below; one made after it validated against the current epoch
    // (seq_cst re-read in announce()), so missing it here is benign — the
    // announcer is at e, and advancing to e+1 keeps it within one step.
    dekker_sweep_barrier();
    // Ceiling read after the barrier: see thread_registry.hpp for why any
    // announcement visible to this sweep is covered by the bound.
    const std::size_t nthreads = registered_ceiling();
    for (std::size_t t = 0; t < nthreads; ++t) {
      const std::uint64_t l = dekker_load(announce_[t].value);
      if (l != kInactive && l != e) return;  // straggler: cannot advance
    }
    std::uint64_t expected = e;
    global_epoch_.compare_exchange_strong(expected, e + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed);  // relaxed: failure means someone advanced
  }

  CCDS_CACHELINE_ALIGNED Atomic<std::uint64_t> global_epoch_{2};
  Padded<Atomic<std::uint64_t>> announce_[kMaxThreads] = {};

 private:
  static constexpr std::size_t kCollectThreshold = 256;

  void reclaim(RetiredBags::Bag& bag) {
    bags_.reclaim(bag, [this] { return grace_passed(); });
  }

  RetiredBags bags_;
  // Epoch at each thread's last bag scan (owner-thread access only).
  Padded<std::uint64_t> last_scan_epoch_[kMaxThreads] = {};

  // announce_ default-initializes atomics to 0, which must mean inactive;
  // fix them up here.
  struct Init {
    explicit Init(Padded<Atomic<std::uint64_t>>* slots) {
      for (std::size_t i = 0; i < kMaxThreads; ++i) {
        slots[i].value.store(kInactive, std::memory_order_relaxed);  // relaxed: startup, before any sharing
      }
    }
  } init_{announce_};
};

}  // namespace ccds
