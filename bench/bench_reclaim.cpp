// E11 — the cost of safe memory reclamation, swept structure x policy.
//
// Survey claim: hazard pointers tax every protected read with a
// store+fence+re-load; epochs amortize protection over a whole operation
// (one pin/unpin) and get close to the unprotected (leaky) baseline; QSBR
// moves the announcement to operation BOUNDARIES and makes the read path
// itself indistinguishable from leaky.  The flip side — epochs/QSBR can't
// bound memory under a stalled reader — is a space property benchmarks
// can't show; tests cover it instead.
//
// Every node-based structure is a template over ccds::reclaimer, so the
// sweep below is a true cross-product: one workload per structure, every
// policy plugged into the same code.  CI checks BENCH_reclaim.json keeps a
// row for each pair.
//
// The asymmetric-fence before/after is this binary built twice: by default
// and with -DCCDS_TSAN_SOUND=ON, the classic fully-fenced protocol
// (core/asymmetric_fence.hpp).  The rows keep their names; the artifact's
// ccds_fence_protocol stamp says which side it measured.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>

#include "bench_util.hpp"
#include "hash/split_ordered_set.hpp"
#include "hash/swiss_hash_map.hpp"
#include "list/harris_list.hpp"
#include "queue/ms_queue.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/leaky.hpp"
#include "reclaim/qsbr.hpp"
#include "reclaim/reclaim.hpp"
#include "skiplist/lockfree_skiplist.hpp"
#include "stack/treiber_stack.hpp"

namespace {

using namespace ccds;

// Whole-structure view: Treiber stack churn under each domain.
template <typename Domain>
void BM_TreiberChurn(benchmark::State& state) {
  using Stack = TreiberStack<std::uint64_t, Domain>;
  static Stack* stack = nullptr;
  if (state.thread_index() == 0) {
    stack = new Stack();
    for (std::uint64_t i = 0; i < 1024; ++i) stack->push(i);
  }
  Xoshiro256 rng = ccds::bench::make_rng(state);
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    if (rng.next() & 1) {
      stack->push(1);
    } else {
      benchmark::DoNotOptimize(stack->try_pop());
    }
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete stack;
    stack = nullptr;
  }
}

BENCHMARK(BM_TreiberChurn<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_TreiberChurn<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_TreiberChurn<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_TreiberChurn<QsbrDomain>) CCDS_BENCH_THREADS;

// Read-side microcost: protect a stable pointer repeatedly.
template <typename Domain>
void BM_ProtectedRead(benchmark::State& state) {
  static Domain* dom = nullptr;
  static std::atomic<std::uint64_t*>* src = nullptr;
  if (state.thread_index() == 0) {
    dom = new Domain();
    src = new std::atomic<std::uint64_t*>(new std::uint64_t(42));
  }
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    auto g = dom->guard();
    std::uint64_t* p = g.protect(0, *src);
    benchmark::DoNotOptimize(*p);
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete src->load();
    delete src;
    delete dom;
    src = nullptr;
    dom = nullptr;
  }
}

BENCHMARK(BM_ProtectedRead<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_ProtectedRead<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_ProtectedRead<EpochDomain>) CCDS_BENCH_THREADS;
// The headline QSBR claim: protect() is a plain load, so this row should
// sit within noise of (or beat) the leaky baseline — the per-op cost is
// the boundary checkpoint in the guard destructor.
BENCHMARK(BM_ProtectedRead<QsbrDomain>) CCDS_BENCH_THREADS;
// Lease-amortized flavors: no boundary at scope exit, re-announce only
// when the epoch moved.
BENCHMARK(BM_ProtectedRead<EpochLeaseDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_ProtectedRead<QsbrLeaseDomain>) CCDS_BENCH_THREADS;

// Same microcost at operation granularity: ONE guard covers eight
// protected reads (a short traversal; slots alternate hand-over-hand
// style).  This is where the policies' cost models separate — hazard
// pays its publish-and-validate per READ, while epoch's pin and QSBR's
// boundary are per GUARD and amortize to noise, so the per-read figure
// for both should converge on the leaky baseline.
template <typename Domain>
void BM_ProtectedReadBatch8(benchmark::State& state) {
  static Domain* dom = nullptr;
  static std::atomic<std::uint64_t*>* src = nullptr;
  if (state.thread_index() == 0) {
    dom = new Domain();
    src = new std::atomic<std::uint64_t*>(new std::uint64_t(42));
  }
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    auto g = dom->guard();
    for (int i = 0; i < 8; ++i) {
      std::uint64_t* p = g.protect(static_cast<std::size_t>(i & 1), *src);
      benchmark::DoNotOptimize(*p);
      ops.tick();
    }
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete src->load();
    delete src;
    delete dom;
    src = nullptr;
    dom = nullptr;
  }
}

BENCHMARK(BM_ProtectedReadBatch8<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_ProtectedReadBatch8<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_ProtectedReadBatch8<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_ProtectedReadBatch8<QsbrDomain>) CCDS_BENCH_THREADS;

// End-to-end effect: Harris-Michael list under a read-heavy mix
// (90% contains / 9% insert / 1% remove, keys in [0, 256)).  Here the
// per-hop protect() cost dominates contains(), so eliding the read-side
// fence moves the whole operation, not just a microbenchmark counter.
template <typename Domain>
void BM_HarrisListReadHeavy(benchmark::State& state) {
  using List = HarrisMichaelListSet<std::uint64_t, Domain>;
  static List* list = nullptr;
  constexpr std::uint64_t kKeyRange = 256;
  if (state.thread_index() == 0) {
    list = new List();
    for (std::uint64_t k = 0; k < kKeyRange; k += 2) list->insert(k);
  }
  Xoshiro256 rng = ccds::bench::make_rng(state);
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % kKeyRange;
    const std::uint64_t op = (r >> 32) % 100;
    if (op < 90) {
      benchmark::DoNotOptimize(list->contains(key));
    } else if (op < 99) {
      benchmark::DoNotOptimize(list->insert(key));
    } else {
      benchmark::DoNotOptimize(list->remove(key));
    }
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete list;
    list = nullptr;
  }
}

BENCHMARK(BM_HarrisListReadHeavy<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_HarrisListReadHeavy<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_HarrisListReadHeavy<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_HarrisListReadHeavy<EpochLeaseDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_HarrisListReadHeavy<QsbrDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_HarrisListReadHeavy<QsbrLeaseDomain>) CCDS_BENCH_THREADS;

// ---------- structure sweep ----------
//
// The same policy matrix through every other node-based shape: queue churn
// (two hot words, protect cost secondary), hash-set and skip-list
// read-heavy mixes (traversal-dominated, like the list but with different
// pointer-chase depths).  One workload per structure; domains plug in.

template <typename Domain>
void BM_MSQueueChurn(benchmark::State& state) {
  using Queue = MSQueue<std::uint64_t, Domain>;
  static Queue* queue = nullptr;
  if (state.thread_index() == 0) {
    queue = new Queue();
    for (std::uint64_t i = 0; i < 1024; ++i) queue->enqueue(i);
  }
  Xoshiro256 rng = ccds::bench::make_rng(state);
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    if (rng.next() & 1) {
      queue->enqueue(1);
    } else {
      benchmark::DoNotOptimize(queue->try_dequeue());
    }
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete queue;
    queue = nullptr;
  }
}

BENCHMARK(BM_MSQueueChurn<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_MSQueueChurn<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_MSQueueChurn<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_MSQueueChurn<QsbrDomain>) CCDS_BENCH_THREADS;

template <typename Domain>
void BM_SplitOrderedReadHeavy(benchmark::State& state) {
  using Set = SplitOrderedHashSet<std::uint64_t, MixHash<std::uint64_t>,
                                  Domain>;
  static Set* set = nullptr;
  constexpr std::uint64_t kKeyRange = 1024;
  if (state.thread_index() == 0) {
    set = new Set();
    for (std::uint64_t k = 0; k < kKeyRange; k += 2) set->insert(k);
  }
  Xoshiro256 rng = ccds::bench::make_rng(state);
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % kKeyRange;
    const std::uint64_t op = (r >> 32) % 100;
    if (op < 90) {
      benchmark::DoNotOptimize(set->contains(key));
    } else if (op < 99) {
      benchmark::DoNotOptimize(set->insert(key));
    } else {
      benchmark::DoNotOptimize(set->remove(key));
    }
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete set;
    set = nullptr;
  }
}

BENCHMARK(BM_SplitOrderedReadHeavy<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SplitOrderedReadHeavy<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SplitOrderedReadHeavy<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SplitOrderedReadHeavy<QsbrDomain>) CCDS_BENCH_THREADS;

template <typename Domain>
void BM_SwissMapReadHeavy(benchmark::State& state) {
  using Map = SwissHashMap<std::uint64_t, std::uint64_t,
                           MixHash<std::uint64_t>, Domain>;
  static Map* map = nullptr;
  constexpr std::uint64_t kKeyRange = 4096;
  if (state.thread_index() == 0) {
    map = new Map(2 * kKeyRange);
    for (std::uint64_t k = 0; k < kKeyRange; k += 2) map->insert(k, k);
  }
  Xoshiro256 rng = ccds::bench::make_rng(state);
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % kKeyRange;
    const std::uint64_t op = (r >> 32) % 100;
    if (op < 90) {
      benchmark::DoNotOptimize(map->get(key));
    } else if (op < 99) {
      benchmark::DoNotOptimize(map->insert(key, key));
    } else {
      benchmark::DoNotOptimize(map->erase(key));
    }
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete map;
    map = nullptr;
  }
}

BENCHMARK(BM_SwissMapReadHeavy<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SwissMapReadHeavy<HazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SwissMapReadHeavy<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SwissMapReadHeavy<QsbrDomain>) CCDS_BENCH_THREADS;

template <typename Domain>
void BM_SkipListReadHeavy(benchmark::State& state) {
  using Set = LockFreeSkipListSet<std::uint64_t, std::less<std::uint64_t>,
                                  Domain>;
  static Set* set = nullptr;
  constexpr std::uint64_t kKeyRange = 1024;
  if (state.thread_index() == 0) {
    set = new Set();
    for (std::uint64_t k = 0; k < kKeyRange; k += 2) set->insert(k);
  }
  Xoshiro256 rng = ccds::bench::make_rng(state);
  ccds::bench::ThreadOps ops(state);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = r % kKeyRange;
    const std::uint64_t op = (r >> 32) % 100;
    if (op < 90) {
      benchmark::DoNotOptimize(set->contains(key));
    } else if (op < 99) {
      benchmark::DoNotOptimize(set->insert(key));
    } else {
      benchmark::DoNotOptimize(set->remove(key));
    }
    ops.tick();
  }
  ops.finish();
  if (state.thread_index() == 0) {
    delete set;
    set = nullptr;
  }
}

// WideHazardDomain: the skip list's per-level hazard banks need 40 slots.
BENCHMARK(BM_SkipListReadHeavy<LeakyDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SkipListReadHeavy<WideHazardDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SkipListReadHeavy<EpochDomain>) CCDS_BENCH_THREADS;
BENCHMARK(BM_SkipListReadHeavy<QsbrDomain>) CCDS_BENCH_THREADS;

}  // namespace

BENCHMARK_MAIN();
