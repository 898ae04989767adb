// E8 — search structures: skip lists and trees across workload mixes.
//
// Survey claim: skip lists concurrentize gracefully because there is no
// rebalancing to coordinate — the lazy and lock-free variants track or beat
// the balanced-tree baselines as soon as more than one thread is involved,
// while the coarse AVL (strict rebalancing under one lock) flatlines.
//
// Key range 64k, prefilled half.  Args: {read%, insert%}.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <mutex>

#include "bench_util.hpp"
#include "skiplist/lazy_skiplist.hpp"
#include "skiplist/lockfree_skiplist.hpp"
#include "skiplist/seq_skiplist.hpp"
#include "tree/fine_bst.hpp"
#include "tree/seq_avl.hpp"
#include "tree/tombstone_bst.hpp"

namespace {

using namespace ccds;
using namespace ccds::bench;

constexpr std::uint64_t kKeyRange = 1 << 16;

template <typename Set>
void BM_SearchMix(benchmark::State& state) {
  // Magic static + call_once: see bench_lists.cpp for why (no teardown race).
  static Set& set = *new Set();
  static std::once_flag prefill_once;
  std::call_once(prefill_once, [] { prefill_set(set, kKeyRange); });
  run_set_mix(set, state, kKeyRange, static_cast<int>(state.range(0)),
              static_cast<int>(state.range(1)));
}

using CoarseSkip = CoarseSkipListSet<std::uint64_t>;
using LazySkip = LazySkipListSet<std::uint64_t>;
using LockFreeSkip = LockFreeSkipListSet<std::uint64_t>;
using CoarseAvl = CoarseAvlSet<std::uint64_t>;
using TombstoneBst = TombstoneBstSet<std::uint64_t>;
using FineBst = FineBstSet<std::uint64_t>;

BENCHMARK(BM_SearchMix<CoarseSkip>) CCDS_BENCH_MIX_ARGS CCDS_BENCH_THREADS;
BENCHMARK(BM_SearchMix<LazySkip>) CCDS_BENCH_MIX_ARGS CCDS_BENCH_THREADS;
BENCHMARK(BM_SearchMix<LockFreeSkip>) CCDS_BENCH_MIX_ARGS CCDS_BENCH_THREADS;
BENCHMARK(BM_SearchMix<CoarseAvl>) CCDS_BENCH_MIX_ARGS CCDS_BENCH_THREADS;
BENCHMARK(BM_SearchMix<TombstoneBst>) CCDS_BENCH_MIX_ARGS CCDS_BENCH_THREADS;
BENCHMARK(BM_SearchMix<FineBst>) CCDS_BENCH_MIX_ARGS CCDS_BENCH_THREADS;

}  // namespace

BENCHMARK_MAIN();
