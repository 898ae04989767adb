// Hazard pointers (Michael 2004) with asymmetric-fence read paths.
//
// A reader publishes the pointer it is about to dereference in a per-thread
// hazard slot and re-validates the source; a reclaimer only frees a retired
// node if no thread's hazard slots contain it.  Gives per-object, bounded
// memory overhead.
//
// The classic algorithm pays a store+FULL-FENCE+reload on every protected
// read (the store-load Dekker between publication and the reclaimer's scan).
// A default build runs the ASYMMETRIC protocol (folly/hazptr technique): the
// reader publishes with a release store plus asymmetric_light() — a
// compiler-only barrier, i.e. a plain store on x86/ARM, wherever membarrier
// backs the heavy side; on fallback platforms the light barrier is a real
// seq_cst fence and the pair degrades to the classic symmetric protocol
// (core/asymmetric_fence.hpp) — and scan() pays the whole ordering cost
// once per reclamation batch with a process-wide heavy barrier.
// Correctness on the membarrier path: after asymmetric_heavy()
// returns, for every reader either (a) its hazard publication is visible to
// this scan, so the node is kept, or (b) the reader's publication comes
// after the barrier, in which case the reclaimer's earlier unlink is
// visible to the reader's program-order-later validating re-read, which
// therefore fails and the reader never dereferences the retired node.
// The domain runs its Dekker through core/asymmetric_fence.hpp's dekker_*
// helpers, so a CCDS_TSAN_SOUND build runs the classic fully-fenced
// protocol instead — E11's before side.
//
// Usage discipline: one live Guard per thread per domain at a time (ccds
// structures create exactly one per operation); the guard's slot indices are
// the structure's to manage (e.g. Harris-Michael lists use 3 slots for
// prev/curr/next).
//
// Retired nodes wait in the shared RetiredBags (reclaim/retired.hpp); what
// is hazard-specific is only the pass predicate — the heavy barrier, the
// slot sweep and the sorted lookup in unhazarded().
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/arch.hpp"
#include "core/asymmetric_fence.hpp"
#include "core/atomic.hpp"
#include "core/padded.hpp"
#include "core/thread_registry.hpp"
#include "reclaim/reclaim.hpp"
#include "reclaim/retired.hpp"

namespace ccds {

template <std::size_t ScanThreshold = 256, std::size_t Slots = 8>
class BasicHazardDomain {
  static_assert(Slots >= 1 && Slots <= 64,
                "the guard's dirty mask is a single 64-bit word");

 public:
  // Hazard slots per thread.  The default 8 covers the flat structures
  // (Harris-Michael traversal peaks at 3 live protections); skip lists
  // need a preds/succs pair per level plus scratch — see WideHazardDomain.
  static constexpr std::size_t kSlots = Slots;

  // Pointer-based protection (reclaim/reclaim.hpp): ONLY the pointers
  // published in guard slots are safe to dereference; structures must run
  // their hand-over-hand protect-and-validate traversals against this
  // domain.
  static constexpr bool kPointerBased = true;

  class Guard {
   public:
    explicit Guard(BasicHazardDomain& d) noexcept
        : hp_(d.hazards_[thread_id()].value.slot) {}

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    // Only slots this guard actually published are cleared: short read-side
    // sections touch 1-3 of the 8 slots, and unconditional clearing would
    // charge them 8 stores of fixed overhead per operation.
    ~Guard() {
      std::uint64_t used = used_;
      while (used != 0) {
        const auto i = static_cast<std::size_t>(std::countr_zero(used));
        hp_[i].store(nullptr, std::memory_order_release);
        used &= used - 1;
      }
    }

    // Protect the pointer currently stored in `src`: publish-and-validate
    // loop.  On return the referent cannot be freed while this slot holds it.
    // always_inline here and in protect_raw(): a protection costs a plain
    // store only if it and its light barrier inline into the traversal.
    // Left to GCC's translation-unit-wide inline budget, a unit that
    // instantiates many structures (bench_reclaim.cpp) gets them as calls
    // inside the Harris–Michael search, and its hazard rows lost 25-40%.
    template <typename Atom>
    [[gnu::always_inline]] auto protect(std::size_t slot, const Atom& src) {
      CCDS_ASSERT(slot < kSlots);
      used_ |= 1ull << slot;
      auto p = src.load(std::memory_order_acquire);
      for (;;) {
        // If the validating re-read sees a stale (pre-unlink) value, the
        // publication preceded scan()'s sweep barrier and the scan keeps
        // the node.
        dekker_publish(hp_[slot], p);
        auto q = dekker_load(src);
        if (q == p) return p;
        p = q;
      }
    }

    // Assert protection of an already-read pointer WITHOUT validation.
    // Sound only when the caller re-validates its source afterwards (that
    // re-check is the validating load of the same Dekker as protect()) or
    // when `p` is already protected by another slot of this guard
    // (slot-to-slot handover).
    template <typename T>
    [[gnu::always_inline]] void protect_raw(std::size_t slot, T* p) {
      CCDS_ASSERT(slot < kSlots);
      used_ |= 1ull << slot;
      dekker_publish(hp_[slot], p);
    }

    void clear(std::size_t slot) {
      CCDS_ASSERT(slot < kSlots);
      // release: the clearing must not float above the last dereference.
      hp_[slot].store(nullptr, std::memory_order_release);
      used_ &= ~(1ull << slot);
    }

   private:
    Atomic<void*>* hp_;
    std::uint64_t used_ = 0;  // bitmask of slots published by this guard
  };

  Guard guard() noexcept { return Guard(*this); }

  // Hand over a detached node; freed by some later scan() once unhazarded.
  template <typename T>
  void retire(T* p) {
    auto& bag = bags_.push(p);
    if (bag.size() >= kScanThreshold) scan(bag);
  }

  // Force a reclamation pass over the calling thread's retired bag.
  void collect() { scan(bags_.mine()); }

  // Reclamation pass over EVERY thread's bag.  Only safe at quiescence (no
  // concurrent retire calls) — e.g. after joining workers in tests, or in a
  // structure's maintenance path while externally synchronized.
  void collect_all() {
    bags_.reclaim_all([this] { return unhazarded(); });
  }

  // Retired-but-not-yet-freed node count (accurate only at quiescence).
  std::size_t retired_count() const { return bags_.count(); }

  // Caller guarantees quiescence at destruction; free everything left.
  ~BasicHazardDomain() { bags_.drain(); }

  BasicHazardDomain() = default;
  BasicHazardDomain(const BasicHazardDomain&) = delete;
  BasicHazardDomain& operator=(const BasicHazardDomain&) = delete;

 private:
  struct HpRecord {
    Atomic<void*> slot[kSlots]{};
  };

  // Scan threshold: amortizes the O(H) hazard sweep — and, in the
  // asymmetric protocol, the process-wide heavy barrier — over many
  // retirements (Michael recommends >= 2*H).  Template parameter so the
  // ablation bench can sweep it; the 256 default keeps peak garbage modest
  // while still amortizing well.
  static constexpr std::size_t kScanThreshold = ScanThreshold;

  void scan(RetiredBags::Bag& bag) {
    bags_.reclaim(bag, [this] { return unhazarded(); });
  }

  // The pass predicate: snapshot every published hazard, then free exactly
  // the records no slot names.  Runs under the pass latch, so a deleter
  // that re-enters scan() never reaches this sweep or its scratch vector.
  auto unhazarded() {
    // All hazard publications made before the barrier are visible to the
    // sweep below, and our earlier unlinks are visible to the validating
    // re-read of any reader publishing after it.
    dekker_sweep_barrier();
    // Read the ceiling AFTER the barrier: a publication visible to the
    // sweep implies the publisher's earlier registration (and its ceiling
    // raise) is visible too, so the sweep bound always covers every slot
    // the sweep needs to see (core/thread_registry.hpp).
    const std::size_t nthreads = registered_ceiling();
    std::vector<void*>& hazards = hazard_scratch_[thread_id()].value;
    hazards.clear();
    for (std::size_t t = 0; t < nthreads; ++t) {
      for (auto& s : hazards_[t]->slot) {
        void* p = dekker_load(s);
        if (p != nullptr) hazards.push_back(p);
      }
    }
    std::sort(hazards.begin(), hazards.end());
    return [&hazards](const RetiredBags::Retired& r) {
      return !std::binary_search(hazards.begin(), hazards.end(), r.ptr);
    };
  }

  Padded<HpRecord> hazards_[kMaxThreads];
  RetiredBags bags_;
  // Per-thread sweep buffer for unhazarded() (indexed by the scanning
  // thread's id), reused across passes so steady-state reclamation
  // performs no allocation.
  Padded<std::vector<void*>> hazard_scratch_[kMaxThreads];
};

// Default domain used across the library.
using HazardDomain = BasicHazardDomain<>;

// Wide variant for deep-window structures: skip lists protect a
// preds/succs pair per level (2 * kSkipListMaxLevel = 32) plus traversal
// scratch, so they require kSlots >= 35 (they static_assert it).
using WideHazardDomain = BasicHazardDomain<256, /*Slots=*/40>;

static_assert(reclaimer<HazardDomain>);
static_assert(reclaimer<WideHazardDomain>);
static_assert(reclaimer_traits<HazardDomain>::pointer_based);
static_assert(!reclaimer_traits<HazardDomain>::has_lease);

}  // namespace ccds
