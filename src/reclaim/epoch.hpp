// Epoch-based reclamation (Fraser 2004; the scheme behind crossbeam-epoch)
// with an asymmetric-fence announcement path (liburcu's sys_membarrier
// flavor).
//
// Readers "pin" the current global epoch for the duration of an operation;
// retired nodes are stamped with the epoch at retirement and freed once the
// global epoch has advanced three steps past the stamp, which implies no
// pinned thread can still hold a reference.  Reads inside a pinned region
// cost a plain acquire load (no per-pointer publication) — the flip side is
// that one stalled pinned thread blocks all reclamation.
//
// Everything but the guard lives in the shared grace-period core
// (reclaim/epoch_core.hpp: the announcement Dekker, try_advance(), Lease,
// the grace arithmetic, the retired bags).  EBR is the guard policy "pin
// for the guard's scope": the Guard makes the core's validated
// announcement at construction and clears the slot at destruction, so a
// thread blocks advances only while it is inside a guard.
#pragma once

#include <cstdint>

#include "core/atomic.hpp"
#include "reclaim/epoch_core.hpp"
#include "reclaim/reclaim.hpp"

namespace ccds {

class EpochDomain : public EpochCore {
 public:
  class Guard : public BlanketGuard {
   public:
    // Pin: the core's validated announcement.
    explicit Guard(EpochDomain& d) : slot_(&d.my_slot()) {
      d.announce(*slot_);
    }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // Unpin.  release: reads made inside the pinned region complete before
    // the announcement clears.
    ~Guard() { slot_->store(kInactive, std::memory_order_release); }

   private:
    Atomic<std::uint64_t>* slot_;
  };

  Guard guard() { return Guard(*this); }
};

// "Epoch+Lease" ablation policy: every guard() is a standing lease, so the
// per-operation read path collapses to two cached loads (reclaim.hpp's
// LeasedDomain has the trade-off discussion).
using EpochLeaseDomain = LeasedDomain<EpochDomain>;

static_assert(reclaimer<EpochDomain>);
static_assert(reclaimer<EpochLeaseDomain>);
static_assert(!reclaimer_traits<EpochDomain>::pointer_based);
static_assert(reclaimer_traits<EpochDomain>::has_lease);

}  // namespace ccds
