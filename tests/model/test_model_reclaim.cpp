// Bounded model checking of the asymmetric-fence reclamation protocols
// (core/asymmetric_fence.hpp, reclaim/hazard.hpp, reclaim/epoch.hpp).
//
// The heavy barrier is modeled as a seq_cst fence on behalf of ALL threads
// (ExecutionContext::heavy_fence), so the explorer can both (a) verify the
// fence-free read paths against every bounded schedule, including the
// weak-memory stale-read executions that make the naive version unsafe, and
// (b) catch the canonical seeded bug — a reclaimer that uses the LIGHT
// (compiler-only) barrier where it must use the heavy one — with a
// replayable schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/asymmetric_fence.hpp"
#include "core/atomic.hpp"
#include "model/scheduler.hpp"
#include "model/shim.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"

namespace ccds {
namespace {

using model::Options;
using model::Result;

// ---------------------------------------------------------------------------
// Inline protocol skeletons.  These distill the hazard-pointer Dekker to its
// four moves so the whole space is exhaustible and the seeded bug needs only
// a couple of stale-read branches:
//
//   reader:     hp.store(p, release); light; q = src.load(acquire);
//               if (q == p) dereference(p)
//   reclaimer:  src.exchange(null); HEAVY-or-light; h = hp.load(acquire);
//               if (h != p) free(p)
//
// `freed` stands in for the dereference-after-free: the reclaimer publishes
// the free with seq_cst and the reader asserts it has not happened.
// ---------------------------------------------------------------------------

void hazard_dekker(bool reclaimer_uses_heavy) {
  Atomic<int*> src;
  Atomic<int*> hp;
  Atomic<int> freed{0};
  static int node = 42;
  src.store(&node, std::memory_order_relaxed);  // relaxed: pre-spawn init, ordered by the spawn edge
  hp.store(nullptr, std::memory_order_relaxed);  // relaxed: pre-spawn init

  model::thread reclaimer([&] {
    // Unlink, then make the unlink visible / readers' hazards visible.
    src.exchange(nullptr, std::memory_order_acq_rel);
    if (reclaimer_uses_heavy) {
      asymmetric_heavy();
    } else {
      asymmetric_light();  // SEEDED BUG: no store-load ordering either side
    }
    if (hp.load(std::memory_order_acquire) != &node) {
      freed.store(1, std::memory_order_seq_cst);  // seq_cst: UAF witness must be schedule-ordered
    }
  });

  // Reader: publish-and-validate, then "dereference".
  int* p = src.load(std::memory_order_acquire);
  if (p != nullptr) {
    hp.store(p, std::memory_order_release);
    asymmetric_light();
    int* q = src.load(std::memory_order_acquire);
    if (q == p) {
      // Validated: the node must not have been freed in ANY schedule.
      CCDS_MODEL_ASSERT(freed.load(std::memory_order_seq_cst) == 0);
    }
  }
  reclaimer.join();
}

TEST(ModelReclaim, HazardAsymmetricProtocolSafeAllSchedules) {
  Options opts;
  Result res = model::explore(opts, [] { hazard_dekker(true); });
  EXPECT_TRUE(res.ok) << res.error << "\nschedule: " << res.schedule << "\n"
                      << res.trace;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GE(res.executions, 10);
}

TEST(ModelReclaim, HazardReclaimerLightBarrierBugCaught) {
  Options opts;
  Result res = model::explore(opts, [] { hazard_dekker(false); });
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("CCDS_MODEL_ASSERT"), std::string::npos)
      << res.error;
  EXPECT_FALSE(res.schedule.empty());

  // The recorded schedule replays the exact failing interleaving.
  Options replay;
  replay.replay = res.schedule;
  Result again = model::explore(replay, [] { hazard_dekker(false); });
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.executions, 1);
  EXPECT_EQ(again.error, res.error);
}

// ---------------------------------------------------------------------------
// Epoch announcement Dekker.  The invariant the grace-period arithmetic
// rests on: the global epoch never advances more than ONE step past an
// epoch a thread is validly announced at.  The advancer's heavy barrier is
// what makes a pre-barrier announcement visible to its sweep; with the
// seeded light barrier the sweep can stale-read the slot as inactive and
// advance twice past a pinned reader.
// ---------------------------------------------------------------------------

void epoch_dekker(bool advancer_uses_heavy) {
  Atomic<std::uint64_t> global{2};
  constexpr std::uint64_t kInactive = ~0ull;
  Atomic<std::uint64_t> slot{kInactive};
  Atomic<int> done{0};

  model::thread advancer([&] {
    for (int round = 0; round < 2; ++round) {
      const std::uint64_t e = global.load(std::memory_order_acquire);
      if (advancer_uses_heavy) {
        asymmetric_heavy();
      } else {
        asymmetric_light();  // SEEDED BUG: sweep may miss announcements
      }
      const std::uint64_t l = slot.load(std::memory_order_acquire);
      if (l == kInactive || l == e) {
        std::uint64_t expected = e;
        global.compare_exchange_strong(expected, e + 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed);  // relaxed: failure = raced, fine
      }
    }
    done.store(1, std::memory_order_release);
  });

  // Pinner: announce + validate (the validating load stays seq_cst — free
  // on the hot path; only the announcement STORE is downgraded).
  std::uint64_t e;
  for (;;) {
    e = global.load(std::memory_order_acquire);
    slot.store(e, std::memory_order_release);
    asymmetric_light();
    if (global.load(std::memory_order_seq_cst) == e) break;
  }
  // While announced at e, the epoch may advance to e+1 but never further.
  const std::uint64_t g1 = global.load(std::memory_order_seq_cst);
  CCDS_MODEL_ASSERT(g1 <= e + 1);
  const std::uint64_t g2 = global.load(std::memory_order_seq_cst);
  CCDS_MODEL_ASSERT(g2 <= e + 1);
  slot.store(kInactive, std::memory_order_release);
  advancer.join();
}

TEST(ModelReclaim, EpochAsymmetricAdvanceInvariantAllSchedules) {
  Options opts;
  Result res = model::explore(opts, [] { epoch_dekker(true); });
  EXPECT_TRUE(res.ok) << res.error << "\nschedule: " << res.schedule << "\n"
                      << res.trace;
  EXPECT_TRUE(res.exhausted);
  EXPECT_GE(res.executions, 10);
}

TEST(ModelReclaim, EpochAdvancerLightBarrierBugCaught) {
  Options opts;
  Result res = model::explore(opts, [] { epoch_dekker(false); });
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("CCDS_MODEL_ASSERT"), std::string::npos)
      << res.error;
  EXPECT_FALSE(res.schedule.empty());

  Options replay;
  replay.replay = res.schedule;
  Result again = model::explore(replay, [] { epoch_dekker(false); });
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.executions, 1);
  EXPECT_EQ(again.error, res.error);
}

// ---------------------------------------------------------------------------
// The REAL domains under the model: the shipped BasicHazardDomain /
// EpochDomain code — including scan()'s / try_advance()'s sweep barrier,
// the registration-ceiling sweep bound, and the scratch buffers — explored
// end-to-end, in each build's protocol (tests/model/CMakeLists.txt builds
// this suite twice).  A node's destructor records its address; a
// protected/pinned reader asserts its pointer was never freed.
// ---------------------------------------------------------------------------

struct FreeLog {
  Atomic<void*> last{nullptr};
};

struct TrackedNode {
  FreeLog* log;
  explicit TrackedNode(FreeLog* l) : log(l) {}
  ~TrackedNode() {
    log->last.store(this, std::memory_order_seq_cst);  // seq_cst: free witness must be schedule-ordered
  }
};

TEST(ModelReclaim, RealHazardDomainNoUseAfterFreeAllSchedules) {
  Options opts;
  opts.stale_read_bound = 2;  // domain code has many schedule points
  Result res = model::explore(opts, [] {
    // Log before domain: the domain destructor frees nodes, whose
    // destructors write the log — it must still be alive then.
    FreeLog log;
    // Threshold 1: every retire triggers a real scan (heavy barrier path).
    BasicHazardDomain<1> dom;
    Atomic<TrackedNode*> src{new TrackedNode(&log)};

    model::thread reader([&] {
      auto g = dom.guard();
      TrackedNode* p = g.protect(0, src);
      CCDS_MODEL_ASSERT(p != nullptr);
      CCDS_MODEL_ASSERT(log.last.load(std::memory_order_seq_cst) != p);
    });

    TrackedNode* old =
        src.exchange(new TrackedNode(&log), std::memory_order_acq_rel);
    dom.retire(old);  // triggers scan(): asymmetric_heavy + bounded sweep
    reader.join();
    dom.retire(src.load(std::memory_order_acquire));
    // Domain destructor frees the remainder after the reader is done.
  });
  EXPECT_TRUE(res.ok) << res.error << "\nschedule: " << res.schedule << "\n"
                      << res.trace;
  EXPECT_GE(res.executions, 20);
}

TEST(ModelReclaim, RealEpochDomainNoUseAfterFreeAllSchedules) {
  Options opts;
  opts.stale_read_bound = 2;
  Result res = model::explore(opts, [] {
    FreeLog log;  // before the domain: freed nodes' destructors write it
    EpochDomain dom;
    Atomic<TrackedNode*> src{new TrackedNode(&log)};

    model::thread reader([&] {
      auto g = dom.guard();  // pin: release announce + light + seq_cst check
      TrackedNode* p = g.protect(0, src);
      CCDS_MODEL_ASSERT(p != nullptr);
      CCDS_MODEL_ASSERT(log.last.load(std::memory_order_seq_cst) != p);
    });

    TrackedNode* old =
        src.exchange(new TrackedNode(&log), std::memory_order_acq_rel);
    dom.retire(old);
    // collect(): try_advance (heavy + bounded sweep) + bag scan.  While the
    // reader stays pinned the stamp can never age out (advance is capped at
    // one step past its announcement), so the node must survive.
    dom.collect();
    dom.collect();
    reader.join();
    dom.retire(src.load(std::memory_order_acquire));
  });
  EXPECT_TRUE(res.ok) << res.error << "\nschedule: " << res.schedule << "\n"
                      << res.trace;
  EXPECT_GE(res.executions, 20);
}

// A pinned thread holds the epoch, so every advance attempt after the
// first fails, and in the asymmetric domain each attempt is a process-wide
// barrier.  The retiring thread must try once per full bag's worth of
// retires (256), not on every retire once its bag is full.  The step
// budget counts the attempts without a clock: 1024 retires cost about
// 1100 schedule points when they try 4 times, and several thousand when
// every retire past the 256th tries.
TEST(ModelReclaim, PinnedEpochRetireTriesAdvanceOncePerFullBag) {
  Options opts;
  opts.stale_read_bound = 0;  // the budget counts attempts, not orders
  opts.max_steps = 2000;
  Result res = model::explore(opts, [] {
    EpochDomain dom;
    Atomic<int> pinned{0};
    Atomic<int> release{0};

    model::thread holder([&] {
      auto g = dom.guard();
      pinned.store(1, std::memory_order_release);
      pinned.notify_one();
      release.wait(0, std::memory_order_acquire);  // blocked: no steps
    });

    pinned.wait(0, std::memory_order_acquire);
    for (int i = 0; i < 4 * 256; ++i) dom.retire(new int(i));
    CCDS_MODEL_ASSERT(dom.retired_count() == 4 * 256);  // the pin held
    release.store(1, std::memory_order_release);
    release.notify_one();
    holder.join();
  });
  EXPECT_TRUE(res.ok) << res.error << "\nschedule: " << res.schedule;
  EXPECT_TRUE(res.exhausted);
}

// With the epoch pinned, every collect() is a failed advance attempt, so an
// endless collect() loop runs into the step budget inside the epoch core
// (try_advance(), grace_passed()).  That must fail the execution with a
// replayable schedule: with a noexcept frame on the way, the unwind would
// call std::terminate instead.  The state is shared so the holder, which
// unwinds from its wait beside the main thread, never outlives it.
void pinned_collect_loop() {
  struct Pinned {
    EpochDomain dom;
    Atomic<int> pinned{0};
    Atomic<int> release{0};
  };
  auto s = std::make_shared<Pinned>();
  model::thread holder([s] {
    auto g = s->dom.guard();
    s->pinned.store(1, std::memory_order_release);
    s->pinned.notify_one();
    s->release.wait(0, std::memory_order_acquire);  // never released
  });
  s->pinned.wait(0, std::memory_order_acquire);
  for (;;) s->dom.collect();
}

TEST(ModelReclaim, BudgetBreachInsideEpochCoreFailsWithReplayableSchedule) {
  Options opts;
  opts.stale_read_bound = 0;
  opts.max_steps = 500;
  Result res = model::explore(opts, pinned_collect_loop);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("step budget exceeded"), std::string::npos)
      << res.error;
  EXPECT_FALSE(res.schedule.empty());

  Options replay = opts;
  replay.replay = res.schedule;
  Result again = model::explore(replay, pinned_collect_loop);
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(again.executions, 1);
  EXPECT_EQ(again.error, res.error);
}

}  // namespace
}  // namespace ccds
