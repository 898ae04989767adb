// Tests for the memory-reclamation domains.  Destruction counting via a
// canary type observes exactly when the domain frees nodes: protected nodes
// must survive, unprotected retired nodes must eventually be freed, and
// domain destruction must free everything.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/asymmetric_fence.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/reclaim.hpp"
#include "structures.hpp"
#include "test_util.hpp"

namespace ccds {
namespace {

std::atomic<std::int64_t> g_live{0};

struct Canary {
  std::uint64_t payload = 0xdeadbeef;
  Canary() { g_live.fetch_add(1, std::memory_order_relaxed); }
  ~Canary() {
    payload = 0;  // poison so use-after-free is more likely to be seen
    g_live.fetch_sub(1, std::memory_order_relaxed);
  }
};

class ReclaimTest : public ::testing::Test {
 protected:
  void SetUp() override { g_live.store(0); }
};

// ---------- leaky ----------

TEST_F(ReclaimTest, LeakyHoldsEverythingUntilDestruction) {
  {
    LeakyDomain dom;
    for (int i = 0; i < 100; ++i) dom.retire(new Canary);
    EXPECT_EQ(dom.retired_count(), 100u);
    EXPECT_EQ(g_live.load(), 100);
  }
  EXPECT_EQ(g_live.load(), 0);  // destructor freed the graveyard
}

TEST_F(ReclaimTest, LeakyGuardReadsThrough) {
  LeakyDomain dom;
  std::atomic<Canary*> src{new Canary};
  auto g = dom.guard();
  Canary* p = g.protect(0, src);
  EXPECT_EQ(p->payload, 0xdeadbeefu);
  delete p;
}

// ---------- hazard pointers ----------

TEST_F(ReclaimTest, HazardFreesUnprotectedNodes) {
  HazardDomain dom;
  // Exceed the scan threshold so scans actually run.
  for (int i = 0; i < 2000; ++i) dom.retire(new Canary);
  dom.collect();
  EXPECT_LT(g_live.load(), 300);  // nearly everything freed
}

TEST_F(ReclaimTest, HazardProtectedNodeSurvivesScans) {
  HazardDomain dom;
  std::atomic<Canary*> src{new Canary};
  Canary* target = src.load();

  std::atomic<bool> protected_flag{false};
  std::atomic<bool> release{false};

  std::thread holder([&] {
    auto g = dom.guard();
    Canary* p = g.protect(0, src);
    EXPECT_EQ(p, target);
    protected_flag.store(true);
    while (!release.load()) std::this_thread::yield();
    // Node must still be intact: scans on the other thread ran meanwhile.
    EXPECT_EQ(p->payload, 0xdeadbeefu);
  });

  while (!protected_flag.load()) std::this_thread::yield();
  src.store(nullptr);
  dom.retire(target);
  for (int i = 0; i < 2000; ++i) dom.retire(new Canary);  // force scans
  dom.collect();
  EXPECT_GE(g_live.load(), 1);  // the protected canary is alive

  release.store(true);
  holder.join();
  dom.collect();
  EXPECT_EQ(g_live.load() >= 0, true);
}

TEST_F(ReclaimTest, HazardDestructorFreesRemainder) {
  {
    HazardDomain dom;
    for (int i = 0; i < 50; ++i) dom.retire(new Canary);  // below threshold
    EXPECT_EQ(g_live.load(), 50);
  }
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, HazardProtectTracksMovingSource) {
  HazardDomain dom;
  std::atomic<Canary*> src{new Canary};
  std::atomic<bool> stop{false};

  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Canary* old = src.exchange(new Canary);
      dom.retire(old);
    }
  });

  // Reader does a fixed amount of work so the test is scheduling-independent
  // (on a single-core host the mutator may otherwise finish before the
  // reader runs at all).
  for (int i = 0; i < 20000; ++i) {
    auto g = dom.guard();
    Canary* p = g.protect(0, src);
    // Use-after-free here would read poisoned payload (or crash under ASan).
    ASSERT_EQ(p->payload, 0xdeadbeefu);
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  dom.retire(src.load());
}

TEST_F(ReclaimTest, HazardMultipleSlots) {
  HazardDomain dom;
  std::atomic<Canary*> a{new Canary}, b{new Canary}, c{new Canary};
  auto g = dom.guard();
  Canary* pa = g.protect(0, a);
  Canary* pb = g.protect(1, b);
  Canary* pc = g.protect(2, c);
  a.store(nullptr);
  b.store(nullptr);
  c.store(nullptr);
  dom.retire(pa);
  dom.retire(pb);
  dom.retire(pc);
  for (int i = 0; i < 2000; ++i) dom.retire(new Canary);
  dom.collect();
  EXPECT_EQ(pa->payload, 0xdeadbeefu);
  EXPECT_EQ(pb->payload, 0xdeadbeefu);
  EXPECT_EQ(pc->payload, 0xdeadbeefu);
}

// ---------- epochs ----------

TEST_F(ReclaimTest, EpochFreesAfterAdvances) {
  EpochDomain dom;
  for (int i = 0; i < 300; ++i) dom.retire(new Canary);
  // No pinned threads: repeated collects advance the epoch and free.
  for (int i = 0; i < 6; ++i) dom.collect();
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, EpochPinBlocksReclamation) {
  EpochDomain dom;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::atomic<Canary*> src{new Canary};
  Canary* target = src.load();

  std::thread holder([&] {
    auto g = dom.guard();  // pin
    Canary* p = g.protect(0, src);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
    EXPECT_EQ(p->payload, 0xdeadbeefu);
  });

  while (!pinned.load()) std::this_thread::yield();
  src.store(nullptr);
  dom.retire(target);
  for (int i = 0; i < 6; ++i) dom.collect();
  // The pinned thread froze the epoch before our retire stamp could age out.
  EXPECT_GE(g_live.load(), 1);
  EXPECT_EQ(target->payload, 0xdeadbeefu);

  release.store(true);
  holder.join();
  for (int i = 0; i < 6; ++i) dom.collect();
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, EpochAdvancesWithActiveReaders) {
  // Readers that repeatedly re-pin must not block reclamation forever.
  EpochDomain dom;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto g = dom.guard();
      (void)g;
    }
  });

  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 300; ++i) dom.retire(new Canary);
    dom.collect();
  }
  stop.store(true);
  reader.join();
  for (int i = 0; i < 8; ++i) dom.collect();
  EXPECT_EQ(g_live.load(), 0);
}

// ---------- QSBR ----------

TEST_F(ReclaimTest, QsbrFreesAfterCollects) {
  QsbrDomain dom;
  for (int i = 0; i < 300; ++i) dom.retire(new Canary);
  // The retiring thread never onlined (no guard), so its slot is kOffline
  // and every collect() can advance the epoch; three advances age the
  // stamps out (stamp + 3 <= E).
  for (int i = 0; i < 8; ++i) dom.collect();
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, QsbrGuardedReaderBlocksReclamation) {
  QsbrDomain dom;
  std::atomic<bool> onlined{false};
  std::atomic<bool> release{false};
  std::atomic<Canary*> src{new Canary};
  Canary* target = src.load();

  std::thread holder([&] {
    auto g = dom.guard();  // onlines this thread; no boundary until dtor
    Canary* p = g.protect(0, src);
    onlined.store(true);
    while (!release.load()) std::this_thread::yield();
    EXPECT_EQ(p->payload, 0xdeadbeefu);
  });

  while (!onlined.load()) std::this_thread::yield();
  src.store(nullptr);
  dom.retire(target);
  for (int i = 0; i < 6; ++i) dom.collect();
  // The holder is announced at its onlining epoch: the global epoch cannot
  // move more than one past it, so the retire stamp cannot age out.
  EXPECT_GE(g_live.load(), 1);
  EXPECT_EQ(target->payload, 0xdeadbeefu);
  release.store(true);
  holder.join();
  dom.collect_all();
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, QsbrIdleOnlineThreadFreezesReclamationUntilCollectAll) {
  // THE defining QSBR hazard (docs/algorithms.md): a LIVE thread that
  // onlined once and then stopped passing operation boundaries freezes the
  // epoch — even with its guard long closed, since threads never
  // self-offline.  (A thread that EXITS is different: its registry id is
  // recycled, and the next owner of the id adopts — and keeps refreshing —
  // the announcement slot.)
  QsbrDomain dom;
  std::atomic<bool> idle{false};
  std::atomic<bool> release{false};
  std::thread idler([&] {
    {
      auto g = dom.guard();  // online + one boundary at guard death
      (void)g;
    }
    idle.store(true);
    while (!release.load()) std::this_thread::yield();  // alive, no boundaries
  });
  while (!idle.load()) std::this_thread::yield();

  std::atomic<Canary*> src{new Canary};
  Canary* target = src.exchange(nullptr);
  dom.retire(target);
  for (int i = 0; i < 8; ++i) dom.collect();
  // One advance past the idler's last announcement is possible; the +3
  // grace can never be met, so the garbage sticks.
  EXPECT_GE(g_live.load(), 1);
  EXPECT_EQ(target->payload, 0xdeadbeefu);

  // collect_all (quiescent-only: the idler holds no guard) force-offlines
  // every slot and drains.  The idler would re-online on its next guard.
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
  EXPECT_EQ(g_live.load(), 0);

  release.store(true);
  idler.join();
}

TEST_F(ReclaimTest, QsbrBoundariesKeepEpochAdvancing) {
  // A reader that keeps passing boundaries (guard per operation) must not
  // block reclamation: the mirror of EpochAdvancesWithActiveReaders.
  QsbrDomain dom;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto g = dom.guard();
      (void)g;
    }
  });

  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 300; ++i) dom.retire(new Canary);
    dom.collect();
  }
  stop.store(true);
  reader.join();
  dom.collect_all();  // the exited reader's slot needs the force-offline
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, QsbrLeaseAmortizedReadPath) {
  QsbrDomain dom;
  std::atomic<Canary*> src{new Canary};
  {
    auto l = dom.lease();
    Canary* p = l.protect(0, src);
    EXPECT_EQ(p->payload, 0xdeadbeefu);
  }
  // A lease leaves the announcement standing (no boundary at scope exit):
  // collects alone cannot advance past it...
  std::atomic<Canary*> next{new Canary};
  Canary* old = src.exchange(next.load());
  dom.retire(old);
  for (int i = 0; i < 6; ++i) dom.collect();
  // ...but this thread's own collect() passes a checkpoint, which counts
  // as the boundary, so reclamation does proceed here.  The lease contract
  // only delays OTHER threads' reclamation until this thread leases again.
  EXPECT_EQ(g_live.load(), 1);
  dom.retire(src.load());
  dom.collect_all();
  EXPECT_EQ(g_live.load(), 0);
}

// ---------- cross-domain drain contract ----------
//
// Every domain promises: at quiescence (no guards, no leases, no
// concurrent retires), collect_all() frees EVERYTHING retired so far and
// leaves retired_count() == 0.  The ablation harness and the structure
// destructors lean on this being uniform across policies.

template <typename D>
class DrainContractTest : public ::testing::Test {
 protected:
  void SetUp() override { g_live.store(0); }
};

// The policy list, plus the default 8-slot hazard domain.
using AllDomains = test::Concat<test::Reclaimers, test::List<HazardDomain>>;
TYPED_TEST_SUITE(DrainContractTest, test::Types<AllDomains>);

TYPED_TEST(DrainContractTest, CollectAllDrainsEverythingAtQuiescence) {
  static_assert(reclaimer<TypeParam>);
  TypeParam dom;
  {
    auto g = dom.guard();
    std::atomic<Canary*> src{new Canary};
    Canary* p = g.protect(0, src);
    EXPECT_EQ(p->payload, 0xdeadbeefu);
    dom.retire(src.load());
  }
  for (int i = 0; i < 500; ++i) dom.retire(new Canary);
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
  EXPECT_EQ(g_live.load(), 0);
}

TYPED_TEST(DrainContractTest, RetiredCountTracksBacklog) {
  TypeParam dom;
  for (int i = 0; i < 100; ++i) dom.retire(new Canary);
  EXPECT_EQ(dom.retired_count(), 100u);  // below every domain's threshold
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
}

// ---------- asymmetric fence ----------

TEST_F(ReclaimTest, AsymmetricHeavyUsesMembarrierWhereAvailable) {
  // Exercise the heavy barrier directly (first call performs the one-time
  // registration; later calls hit the fast path).
  for (int i = 0; i < 4; ++i) asymmetric_heavy();
  const AsymmetricHeavyBackend backend = asymmetric_heavy_backend();
#ifdef __linux__
  if (backend == AsymmetricHeavyBackend::kSeqCstFence) {
    // Kernel lacks (or seccomp blocks) PRIVATE_EXPEDITED.  A local fence
    // on the reclaimer alone cannot drain a reader's store buffer, so on
    // this configuration the reader side MUST pay a real fence too (the
    // symmetric fallback).  This is the exact configuration that would
    // ship a use-after-free if the coupling ever broke — so it FAILS, not
    // skips, if asymmetric_light() is still compiler-only here.
    EXPECT_TRUE(asymmetric_light_is_fence())
        << "UNSOUND: heavy barrier degraded to a local fence but "
           "asymmetric_light() is compiler-only; the Dekker store-load "
           "conflict needs a StoreLoad fence on BOTH sides";
  } else {
    // On any Linux kernel >= 4.14 — including CI runners — the expedited
    // membarrier fast path must be what protected reads rely on, and the
    // reader side must be fence-free (the whole point of the protocol).
    EXPECT_EQ(backend, AsymmetricHeavyBackend::kMembarrier);
    EXPECT_FALSE(asymmetric_light_is_fence());
  }
#else
  EXPECT_EQ(backend, AsymmetricHeavyBackend::kSeqCstFence);
  EXPECT_TRUE(asymmetric_light_is_fence());
#endif
}

// ---------- reentrant deleters ----------
//
// A node's destructor may retire() further nodes on the SAME domain from
// the same thread (e.g. a tree node releasing children).  If such a nested
// retire crosses the scan threshold mid-scan, the nested pass must be
// deferred — not run against the scratch buffers and bag the outer pass is
// iterating (which double-frees or leaks).  ASan turns any such corruption
// into a hard failure; the canary count checks nothing is leaked or freed
// twice.  Typed over every policy plus a threshold-8 hazard domain, where
// every handful of retires runs a scan whose deleters push fresh garbage
// into the bag being collected.  Every hundredth node releases 300
// children — more than any domain's threshold — so nested retires cross
// it while the outer pass still has records to visit; without the pass
// latch that nested pass double-frees the outer pass's records or
// reallocates the vector it is iterating.

template <typename D>
class ReentrantRetireTest : public ::testing::Test {
 protected:
  void SetUp() override { g_live.store(0); }
};

// Plus a threshold-8 hazard domain, whose scans run every few retires.
using ReentrantDomains =
    test::Concat<AllDomains, test::List<BasicHazardDomain<8>>>;
TYPED_TEST_SUITE(ReentrantRetireTest, test::Types<ReentrantDomains>);

TYPED_TEST(ReentrantRetireTest, RetireFromDeleter) {
  struct Node {
    TypeParam* dom;
    int children;
    Canary canary;
    Node(TypeParam* d, int c) : dom(d), children(c) {}
    ~Node() {  // reenters retire() mid-pass
      for (int i = 0; i < children; ++i) dom->retire(new Canary);
    }
  };
  {
    TypeParam dom;
    for (int i = 0; i < 600; ++i) {
      dom.retire(new Node(&dom, i % 100 == 0 ? 300 : 1));
    }
    for (int i = 0; i < 12; ++i) dom.collect();
  }  // destructor drains nested retires to a fixpoint
  EXPECT_EQ(g_live.load(), 0);
}

// ---------- retire/collect vs readers stress (ASan-backed) ----------
//
// Hammers retire()/collect() concurrently with protected readers and
// asserts (a) live garbage stays bounded while the storm runs — sampled via
// the canary counter, which is safe to read concurrently — and (b) no
// use-after-free: readers check the canary payload on every access, and the
// whole file runs under scripts/run_asan_ubsan.sh where any stale
// dereference aborts.

TEST_F(ReclaimTest, HazardRetireCollectStressBoundedGarbage) {
  HazardDomain dom;
  std::atomic<Canary*> src{new Canary};
  std::atomic<std::int64_t> peak{0};
  constexpr int kThreads = 6;
  constexpr int kOps = 30000;
  // Bound: 1 in-structure + one un-scanned bag (threshold 256) + one
  // protected node per slot per thread, with generous slack for nodes
  // between exchange and retire.
  constexpr std::int64_t kBound = 1 + 256 + kThreads * 8 + 64;
  test::run_threads(kThreads, [&](std::size_t idx) {
    if (idx == 0) {  // mutator: retire storm (scans trigger at threshold)
      for (int i = 0; i < kOps; ++i) {
        Canary* old = src.exchange(new Canary, std::memory_order_acq_rel);
        dom.retire(old);
      }
    } else if (idx == 1) {  // collector: extra scans + bound sampling
      for (int i = 0; i < kOps / 10; ++i) {
        dom.collect();
        const std::int64_t live = g_live.load(std::memory_order_relaxed);
        std::int64_t p = peak.load(std::memory_order_relaxed);
        while (live > p &&
               !peak.compare_exchange_weak(p, live, std::memory_order_relaxed)) {
        }
      }
    } else {  // readers: protected access must never see a freed canary
      for (int i = 0; i < kOps; ++i) {
        auto g = dom.guard();
        Canary* p = g.protect(0, src);
        ASSERT_EQ(p->payload, 0xdeadbeefu);
      }
    }
  });
  EXPECT_LE(peak.load(), kBound) << "hazard-pointer garbage not bounded";
  dom.retire(src.load());
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
  EXPECT_EQ(g_live.load(), 0);
}

TEST_F(ReclaimTest, EpochRetireCollectStressBoundedReclamation) {
  EpochDomain dom;
  std::atomic<Canary*> src{new Canary};
  constexpr int kThreads = 6;
  constexpr int kOps = 30000;
  test::run_threads(kThreads, [&](std::size_t idx) {
    if (idx == 0) {  // mutator
      for (int i = 0; i < kOps; ++i) {
        Canary* old = src.exchange(new Canary, std::memory_order_acq_rel);
        dom.retire(old);
      }
    } else if (idx == 1) {  // collector
      for (int i = 0; i < kOps / 10; ++i) dom.collect();
    } else {  // readers pin/unpin continuously
      for (int i = 0; i < kOps; ++i) {
        auto g = dom.guard();
        Canary* p = g.protect(0, src);
        ASSERT_EQ(p->payload, 0xdeadbeefu);
      }
    }
  });
  // Readers pin transiently, so epoch advances kept happening and the
  // retire storm cannot have accumulated unboundedly: after the storm the
  // surviving garbage must be a small multiple of the collect threshold,
  // not a constant fraction of the 30k retired nodes.
  EXPECT_LE(dom.retired_count(), 4096u) << "epoch reclamation stalled";
  dom.retire(src.load());
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
  EXPECT_EQ(g_live.load(), 0);
}

// ---------- concurrent readers vs a retiring mutator, every policy ----------
//
// One mutator retires 20k nodes while five readers protect and check the
// shared pointer; afterwards the quiescent drain must leave nothing
// retired and no canary alive (under ASan a stale read aborts).

template <typename D>
class ReclaimStressTest : public ::testing::Test {
 protected:
  void SetUp() override { g_live.store(0); }
};

TYPED_TEST_SUITE(ReclaimStressTest, test::Types<AllDomains>);

TYPED_TEST(ReclaimStressTest, ManyThreadsThenDrain) {
  TypeParam dom;
  std::atomic<Canary*> src{new Canary};
  constexpr int kThreads = 6;
  test::run_threads(kThreads, [&](std::size_t idx) {
    if (idx == 0) {  // mutator
      for (int i = 0; i < 20000; ++i) {
        Canary* old = src.exchange(new Canary, std::memory_order_acq_rel);
        dom.retire(old);
      }
    } else {  // readers
      for (int i = 0; i < 20000; ++i) {
        auto g = dom.guard();
        Canary* p = g.protect(0, src);
        ASSERT_EQ(p->payload, 0xdeadbeefu);
      }
    }
  });
  dom.retire(src.load());
  dom.collect_all();
  EXPECT_EQ(dom.retired_count(), 0u);
  EXPECT_EQ(g_live.load(), 0);
}

}  // namespace
}  // namespace ccds
