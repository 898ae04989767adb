// E18 — batch-parallel ordered structures: the OBATCHER-style
// BatchedSkipListSet against the lock-free skip list, measured in
// comparison work per operation.
//
// Claim under test (PAPERS.md: "Concurrent Data Structures Made Easy"):
// explicit batching beats point concurrency on ordered structures because a
// SORTED batch of B operations over N keys costs O(B + B·log(N/B))
// comparisons — one head descent plus B-1 finger hops — instead of B
// independent O(log N) descents, and because disjoint key-range segments of
// the merged batch can be applied by helper threads with zero
// synchronization inside a segment.
//
// Measurand: comparisons_per_op via a process-global counting comparator
// (atomic, relaxed).  Wall-clock throughput on this repo's 1-CPU host
// (EXPERIMENTS.md methodology) measures the scheduler, not the algorithm:
// T=8 rows are preemption storms and fan-out "parallelism" is time-sliced.
// Comparison counts are schedule-independent, capture the submitter-side
// sort, the merge, the finger walk AND the helper threads' segment work
// (the global counter is exactly why: helpers are pool workers that a
// thread_local tally would miss), and every row pays the same constant
// per-comparison cost, so ratios are honest.  The fan-out rows additionally
// carry structural witnesses (fanout_subbatches_per_batch,
// worker_tasks_per_batch) proving the cross-thread path actually ran.
//
// Rows:
//   * BM_BatchedBulkLoadSeq/B   — T=1 bulk load of 32k keys, ascending
//     order, submitted in B-sized batches: the best case (gap between
//     consecutive batch keys is 1) and the cleanest reading of the
//     O(B + B·log(N/B)) claim.  B=1 honestly pays a full fresh-finger
//     descent per episode.
//   * BM_BatchedBulkLoadRandom/B — same load, keys in a pseudorandom
//     permutation: gaps are ~N/B, the amortization's stress case.
//   * BM_BatchedMixedWrite/B    — 50/50 insert/erase, uniform keys over
//     64k (prefilled half), T ∈ {1, 8}, B ∈ {1, 8, 64, 512}: batching as a
//     drop-in under a steady-state write-heavy mix.
//   * BM_BatchedMixedWriteFanout/B — the same mix through the 8-shard
//     partitioned set with a StealingExecutor attached: batches of ≥ the
//     fan-out threshold split at range boundaries and go through the bulk
//     submit + help path.
//   * BM_LfslMixedWrite<LfslLocal> — the lock-free skip list (backlink
//     recovery) under the identical mix and comparator: the
//     point-concurrency baseline the batch rows are gated against
//     (scripts/check_bench.py).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "pool/stealing_pool.hpp"
#include "reclaim/epoch.hpp"
#include "skiplist/batched_skiplist.hpp"
#include "skiplist/lockfree_skiplist.hpp"
#include "sync/engines.hpp"

namespace {

using namespace ccds;
using namespace ccds::bench;

constexpr std::uint64_t kKeyRange = 1 << 16;  // mixed-write key space
constexpr std::uint64_t kLoadKeys = 1 << 15;  // bulk-load size

// Process-global comparison tally.  Relaxed atomic instead of thread_local:
// fan-out segments run on pool worker threads whose thread_local counters
// nothing ever reads, and their comparisons are part of the batch's cost.
// The fetch_add burdens every comparison identically across ALL rows
// (batched and baseline), so it cancels out of every ratio the gate reads.
struct AtomicCountingLess {
  static inline std::atomic<std::uint64_t> comparisons{0};
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    comparisons.fetch_add(1, std::memory_order_relaxed);  // relaxed: stats
    return a < b;
  }
};

// Keyed towers throughout: every variant holding the same key set has the
// same shape, so comparison counts compare structures, not RNG luck.  The
// engine slot comes from the shared typelist (sync/engines.hpp); CcSynch
// stays the primary E18 measurand, the other engines ride the
// BM_BatchedMixedWriteEngine sweep below.
template <template <typename> class E>
using BatchedSet = BatchedSkipListSet<std::uint64_t, AtomicCountingLess, E,
                                      SkipListLevels::kKeyed>;
using BatchedCc = BatchedSet<CcSynch>;
using BatchedOp = BatchedCc::Op;
using LfslLocal =
    LockFreeSkipListSet<std::uint64_t, AtomicCountingLess, EpochDomain,
                        SkipListLevels::kKeyed>;

// Thread-0 pre-loop code runs before the start barrier and post-loop code
// after the stop barrier, so its global-counter snapshots cleanly bracket
// every thread's (and every helper's) timed work.
struct CompsPerOp {
  std::uint64_t before = 0;
  explicit CompsPerOp(const benchmark::State& state) {
    if (state.thread_index() != 0) return;
    before = AtomicCountingLess::comparisons.load(std::memory_order_relaxed);  // relaxed: stats
  }
  void report(benchmark::State& state, double total_ops) const {
    if (state.thread_index() != 0) return;
    const std::uint64_t after =
        AtomicCountingLess::comparisons.load(std::memory_order_relaxed);  // relaxed: stats
    state.counters["comparisons_per_op"] = benchmark::Counter(
        total_ops > 0.0 ? static_cast<double>(after - before) / total_ops
                        : 0.0);
  }
};

// ---------------------------------------------------------------------------
// Bulk load: T=1, fresh set per iteration, 32k inserts in B-sized batches.
// ---------------------------------------------------------------------------

template <bool Sequential>
void BM_BatchedBulkLoad(benchmark::State& state) {
  const std::uint64_t batch = static_cast<std::uint64_t>(state.range(0));
  std::vector<BatchedOp> ops(batch);
  CompsPerOp comps(state);
  for (auto _ : state) {
    BatchedCc set;
    for (std::uint64_t base = 0; base < kLoadKeys; base += batch) {
      for (std::uint64_t i = 0; i < batch; ++i) {
        // Odd multiplier mod a power of two is a bijection: the random leg
        // visits every key exactly once, just out of order.
        const std::uint64_t idx = base + i;
        const std::uint64_t key =
            Sequential ? idx : (idx * 2654435761ull) & (kLoadKeys - 1);
        ops[i] = BatchedOp::insert(key);
      }
      set.apply_batch(std::span<BatchedOp>(ops.data(), batch));
    }
    benchmark::DoNotOptimize(set.size());
  }
  const double total_ops =
      static_cast<double>(state.iterations()) * static_cast<double>(kLoadKeys);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ops));
  comps.report(state, total_ops);
  report_batch_size(state, batch);
  report_combining_front(state);
}

void BM_BatchedBulkLoadSeq(benchmark::State& state) {
  BM_BatchedBulkLoad<true>(state);
}
void BM_BatchedBulkLoadRandom(benchmark::State& state) {
  BM_BatchedBulkLoad<false>(state);
}

#define CCDS_E18_BATCH_ARGS ->Arg(1)->Arg(8)->Arg(64)->Arg(512)

BENCHMARK(BM_BatchedBulkLoadSeq)
    CCDS_E18_BATCH_ARGS->Repetitions(5)->ReportAggregatesOnly(true);
BENCHMARK(BM_BatchedBulkLoadRandom)
    CCDS_E18_BATCH_ARGS->Repetitions(5)->ReportAggregatesOnly(true);

// ---------------------------------------------------------------------------
// Mixed write: 50/50 insert/erase, uniform keys, shared prefilled set.
// ---------------------------------------------------------------------------

// Magic static + call_once: see bench_lists.cpp for why (no teardown race).
// Templated over the engine: one prefilled shared set per engine.
template <template <typename> class E>
BatchedSet<E>& mixed_set() {
  static BatchedSet<E>& s = *new BatchedSet<E>();
  static std::once_flag prefill_once;
  std::call_once(prefill_once, [] {
    const std::uint64_t half = kKeyRange / 2;
    std::vector<BatchedOp> ops;
    ops.reserve(half);
    for (std::uint64_t i = 0; i < half; ++i) {
      ops.push_back(BatchedOp::insert(prefill_perturb(i, half)));
    }
    s.apply_batch(std::span<BatchedOp>(ops.data(), ops.size()));
  });
  return s;
}

// The fan-out configuration: 8 key-range shards, a two-worker executor
// attached for the structure's lifetime.  Never destroyed (same leak
// pattern as every shared bench structure: no teardown race).
struct FanoutRig {
  StealingExecutor<EpochDomain>* exec;
  BatchedCc* set;
};

FanoutRig& fanout_rig() {
  static FanoutRig& rig = *new FanoutRig{};
  static std::once_flag once;
  std::call_once(once, [] {
    rig.exec = new StealingExecutor<EpochDomain>(2);
    std::vector<std::uint64_t> splits;
    for (std::uint64_t s = kKeyRange / 8; s < kKeyRange; s += kKeyRange / 8) {
      splits.push_back(s);
    }
    rig.set = new BatchedCc(std::move(splits));
    rig.set->attach_executor(*rig.exec);
    const std::uint64_t half = kKeyRange / 2;
    std::vector<BatchedOp> ops;
    ops.reserve(half);
    for (std::uint64_t i = 0; i < half; ++i) {
      ops.push_back(BatchedOp::insert(prefill_perturb(i, half)));
    }
    rig.set->apply_batch(std::span<BatchedOp>(ops.data(), ops.size()));
  });
  return rig;
}

template <typename Set>
void run_batched_mixed(Set& set, benchmark::State& state) {
  const std::uint64_t batch = static_cast<std::uint64_t>(state.range(0));
  std::vector<BatchedOp> ops(batch);
  Xoshiro256 rng = make_rng(state);
  CompsPerOp comps(state);
  ThreadOps tops(state);
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < batch; ++i) {
      const std::uint64_t r = rng.next();
      const std::uint64_t key = (r >> 32) % kKeyRange;
      ops[i] = (r & 1) ? BatchedOp::insert(key) : BatchedOp::erase(key);
    }
    set.apply_batch(std::span<BatchedOp>(ops.data(), batch));
    for (std::uint64_t i = 0; i < batch; ++i) tops.tick();
  }
  tops.finish();
  const double total_ops = static_cast<double>(state.iterations()) *
                           static_cast<double>(state.threads()) *
                           static_cast<double>(batch);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
  comps.report(state, total_ops);
  report_batch_size(state, batch);
  report_combining_front(state);
}

void BM_BatchedMixedWrite(benchmark::State& state) {
  run_batched_mixed(mixed_set<CcSynch>(), state);
}

// Engine cross-check: the identical mixed workload through every enrolled
// combining engine at one representative batch size, so the batched front
// is exercised (and comparable) over the whole typelist, not just the E18
// primary.  B=64 keeps the row inline (below the fan-out threshold).
template <template <typename> class E>
void BM_BatchedMixedWriteEngine(benchmark::State& state) {
  run_batched_mixed(mixed_set<E>(), state);
}

// Structural fan-out witnesses, deltas across the timed loop: sub-batches
// dispatched per batch and tasks executed by the worker crew (not by the
// helping combiner) per batch.  Both must be > 0 for the fan-out rows'
// gate — on one CPU that is the honest claim ("the cross-thread path ran
// and produced the same answers"), wall-clock parallelism is not.
void BM_BatchedMixedWriteFanout(benchmark::State& state) {
  FanoutRig& rig = fanout_rig();
  BatchedSkipListStats st0;
  std::uint64_t worker0 = 0;
  if (state.thread_index() == 0) {
    st0 = rig.set->stats();
    worker0 = rig.exec->worker_executed();
  }
  run_batched_mixed(*rig.set, state);
  if (state.thread_index() == 0) {
    const BatchedSkipListStats st1 = rig.set->stats();
    const double batches =
        static_cast<double>(st1.batches - st0.batches);
    state.counters["fanout_subbatches_per_batch"] = benchmark::Counter(
        batches > 0.0 ? static_cast<double>(st1.fanout_subbatches -
                                            st0.fanout_subbatches) /
                            batches
                      : 0.0);
    state.counters["worker_tasks_per_batch"] = benchmark::Counter(
        batches > 0.0
            ? static_cast<double>(rig.exec->worker_executed() - worker0) /
                  batches
            : 0.0);
  }
}

#define CCDS_E18_THREADS ->Threads(1)->Threads(8)->UseRealTime()

BENCHMARK(BM_BatchedMixedWrite)
    CCDS_E18_BATCH_ARGS CCDS_E18_THREADS->Repetitions(5)
    ->ReportAggregatesOnly(true);
#define CCDS_ENGINE_MIX_ROW(E) \
  BENCHMARK(BM_BatchedMixedWriteEngine<E>)->Arg(64) CCDS_E18_THREADS;
CCDS_COMBINER_ENGINES(CCDS_ENGINE_MIX_ROW)
#undef CCDS_ENGINE_MIX_ROW
// Fan-out needs total batch ≥ threshold (256): only the B=512 sweep point
// crosses it from a single submitter; B=64 rides along to show the
// below-threshold behaviour staying inline (witness counters ~0).
BENCHMARK(BM_BatchedMixedWriteFanout)
    ->Arg(64)->Arg(512) CCDS_E18_THREADS->Repetitions(5)
    ->ReportAggregatesOnly(true);

// ---------------------------------------------------------------------------
// Baseline: the lock-free skip list, identical mix and comparator.
// ---------------------------------------------------------------------------

template <typename Set>
void BM_LfslMixedWrite(benchmark::State& state) {
  // Magic static + call_once: see bench_lists.cpp for why (no teardown race).
  static Set& set = *new Set();
  static std::once_flag prefill_once;
  std::call_once(prefill_once, [] { prefill_set(set, kKeyRange); });
  CompsPerOp comps(state);
  run_set_mix(set, state, kKeyRange, 0, 50);
  comps.report(state, static_cast<double>(state.iterations()) *
                          static_cast<double>(state.threads()));
}

BENCHMARK(BM_LfslMixedWrite<LfslLocal>)
    CCDS_E18_THREADS->Repetitions(5)->ReportAggregatesOnly(true);

}  // namespace

BENCHMARK_MAIN();
