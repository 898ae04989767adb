// Quiescent-state-based reclamation (QSBR; the scheme behind liburcu's
// urcu-qsbr flavor and DEBRA, Brown PODC 2015), with the same asymmetric-
// fence announcement path as reclaim/epoch.hpp.
//
// The third point in the design space next to hazard pointers (per-pointer
// protection, bounded garbage, a publication per protected read) and epochs
// (per-operation pin/unpin, a validated announcement per operation):
// QSBR's read path does NOTHING AT ALL.  No slot publication, no pin — a
// protected read is a plain acquire load.  Instead, each thread announces
// at its OPERATION BOUNDARIES (guard destruction) that it holds no
// structure references — a quiescent state — by copying the global epoch
// into its per-thread slot with a single release store to an otherwise
// thread-private cache line.  The advance, the leases, the stamped retire
// and the drain are the grace-period core shared with EBR
// (reclaim/epoch_core.hpp); QSBR is the guard policy "online once,
// announce at the boundary":
//
//   * Onlining (first guard on a thread, and any lease after the epoch
//     moved): the core's VALIDATED announcement, exactly epoch's pin —
//     publish the observed epoch (dekker_publish()), then re-read the
//     global epoch seq_cst and loop until it matched.  Without the
//     validating re-read a sweep could miss the announcement and advance
//     twice past a thread that believes itself online (the seeded
//     missed-quiescence bug in tests/model/test_model_qsbr.cpp).
//
//   * Boundary (guard destructor, collect()): load the global epoch
//     (acquire), store it to the own slot (release) if it moved.  NO
//     validation and no fence: a boundary announcement only RELEASES the
//     past — if the sweep reads a stale older value the advance is merely
//     blocked (conservative), never unsafe.  This is why the read path can
//     be free: the expensive validated publication happens once per thread
//     (plus once per epoch change on the lease path), not per operation.
//
// Safety sketch (the grace-period arithmetic): while a thread stays
// announced at e the epoch cannot pass e+1, so the core's `stamp + 3 <= E`
// condition implies stamp <= e_T - 2 for every online thread T.  The
// advance chain to e_T acquired a post-retire boundary announcement from
// the retiring thread (its pre-retire boundary can only announce <= stamp),
// and that boundary release-store is sequenced after the unlink — so by the
// time T's boundary acquire-load observes e_T, the unlink is visible and T
// can never load a link to the freed node.  The +3 (not the textbook +2)
// buys exactly the "pre-retire boundary may announce the stamp itself"
// step of lag, mirroring epoch's reasoning.
//
// Trade-offs vs. the siblings (docs/algorithms.md has the table): the
// fastest possible read path, but reclamation stalls whenever ANY online
// thread stops passing boundaries (a blocked thread freezes the epoch
// forever — strictly worse than epoch, where only a thread blocked INSIDE
// a guard freezes it), and garbage is unbounded in the interim.  Threads
// never go offline on their own; collect_all() (quiescent-only) force-
// resets every announcement, and threads re-online on their next guard.
#pragma once

#include <cstdint>

#include "core/atomic.hpp"
#include "reclaim/epoch_core.hpp"
#include "reclaim/reclaim.hpp"

namespace ccds {

class QsbrDomain : public EpochCore {
 public:
  class Guard : public BlanketGuard {
   public:
    explicit Guard(QsbrDomain& d)
        : dom_(&d), slot_(&d.my_slot()) {
      // relaxed: own slot — only this thread writes it outside quiescent
      // collect_all, and a racy offline read just re-runs the onlining.
      announced_ = slot_->load(std::memory_order_relaxed);
      if (announced_ == kInactive) {
        d.announce(*slot_);
        announced_ = slot_->load(std::memory_order_relaxed);
      }
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // Operation boundary: the quiescent-state announcement QSBR is named
    // for.  This is the entire per-operation overhead of the scheme —
    // the slot pointer and its announced value are carried from the ctor,
    // so the boundary is one epoch load plus (only when it moved) one
    // release store, with no TLS re-resolution.
    ~Guard() {
      // acquire: pairs with the advance CAS chain; the ops after this
      // boundary must see every unlink this announcement lets age out.
      const std::uint64_t e =
          dom_->global_epoch_.load(std::memory_order_acquire);
      if (announced_ != e) {
        // release: reads of the finished operation complete before the
        // announcement that lets their referents be freed.
        slot_->store(e, std::memory_order_release);
      }
    }

   private:
    QsbrDomain* dom_;
    Atomic<std::uint64_t>* slot_;
    std::uint64_t announced_;
  };

  Guard guard() { return Guard(*this); }

  // Pass a boundary for the calling thread (it must hold no guard/lease on
  // this domain), then the core's advance-and-reclaim.  The explicit-
  // checkpoint shape matches liburcu's rcu_quiescent_state(): without it a
  // thread that retires but never opens another guard could never see its
  // own garbage age out.
  void collect() {
    auto& slot = my_slot();
    // acquire: pairs with the advance CAS chain (see ~Guard).
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    // relaxed: own slot; the offline check keeps a guard-less collect()
    // from onlining an otherwise idle thread (offline never blocks
    // advances).
    const std::uint64_t a = slot.load(std::memory_order_relaxed);
    if (a != kInactive && a != e) {
      // release: as at the guard's boundary.
      slot.store(e, std::memory_order_release);
    }
    EpochCore::collect();
  }
};

// Lease-amortized flavor: guard() hands out leases (no boundary at scope
// exit), mirroring EpochLeaseDomain.
using QsbrLeaseDomain = LeasedDomain<QsbrDomain>;

static_assert(reclaimer<QsbrDomain>);
static_assert(reclaimer<LeasedDomain<QsbrDomain>>);
static_assert(!reclaimer_traits<QsbrDomain>::pointer_based);
static_assert(reclaimer_traits<QsbrDomain>::has_lease);

}  // namespace ccds
