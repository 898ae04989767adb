// Shared helpers for the ccds benchmark harness.
//
// Conventions used by every bench binary:
//   * google-benchmark threaded mode (->ThreadRange): the same function body
//     runs on every thread; thread 0 constructs/destroys the shared
//     structure outside the timed loop (the framework barriers threads at
//     loop start and end);
//   * throughput is reported via items_processed, so every table prints an
//     items_per_second column — the "ops/sec vs threads" series the survey
//     figures use;
//   * workload mixes follow the survey's convention: a (read%, insert%,
//     remove%) triple over a fixed key range, prefilled to half occupancy.
//   * every table also carries per-thread fairness fields
//     (thread_ops_per_sec_min / thread_ops_per_sec_max / fairness /
//     per_thread_ops_per_sec) emitted by ThreadOps below: total throughput
//     can hide one thread starving (combining makes this failure mode
//     easy), the slowest thread's measured rate cannot.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "core/arch.hpp"
#include "core/asymmetric_fence.hpp"
#include "core/rng.hpp"

namespace ccds::bench {

// Thread counts for scaling series (value mirrored by CCDS_BENCH_THREADS
// below; kept as a constant so the context block can record it).
inline constexpr int kBenchMaxThreads = 8;

// Bench-context hygiene (ISSUE 7 satellite).  Every bench binary includes
// this header, so the static initializer below stamps every BENCH_*.json
// context block with:
//   ccds_build_type        — "release" iff this binary's own TUs were
//     compiled with NDEBUG.  The library_build_type key google-benchmark
//     emits describes the PACKAGED benchmark library (debug on distro
//     packages), not our code — scripts/run_benchmarks.sh keys its
//     debug-build refusal on ccds_build_type for exactly that reason.
//   hardware_concurrency   — what the host actually offers, next to
//   requested_max_threads  — what the scaling series asks for, and
//   oversubscribed         — requested > offered.  On small hosts the T=8
//     series is a preemption-storm measurement, not a parallelism one; the
//     flag makes every artifact self-describing instead of relying on a
//     footnote in EXPERIMENTS.md.
//   ccds_fence_protocol    — the reclaimers' Dekker protocol this build
//     runs: "asymmetric", or "classic" under CCDS_TSAN_SOUND
//     (core/asymmetric_fence.hpp).  Both builds emit rows of the same
//     names, so E11's before/after artifacts differ only in this stamp.
//   asymmetric_heavy_backend — what the reclaimer-side barrier resolved
//     to on this host: "membarrier", or "seq_cst_fence" (a local fence,
//     under which the asymmetric protocol degrades to the classic one).
inline const bool kContextRegistered = [] {
#ifdef NDEBUG
  benchmark::AddCustomContext("ccds_build_type", "release");
#else
  benchmark::AddCustomContext("ccds_build_type", "debug");
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  benchmark::AddCustomContext("hardware_concurrency", std::to_string(hw));
  benchmark::AddCustomContext("requested_max_threads",
                              std::to_string(kBenchMaxThreads));
  benchmark::AddCustomContext(
      "oversubscribed",
      static_cast<unsigned>(kBenchMaxThreads) > hw ? "true" : "false");
#if defined(CCDS_TSAN_SOUND)
  benchmark::AddCustomContext("ccds_fence_protocol", "classic");
#else
  benchmark::AddCustomContext("ccds_fence_protocol", "asymmetric");
#endif
  benchmark::AddCustomContext(
      "asymmetric_heavy_backend",
      asymmetric_heavy_backend() == AsymmetricHeavyBackend::kMembarrier
          ? "membarrier"
          : "seq_cst_fence");
  return true;
}();

// Per-thread deterministic generator, distinct per (thread, run).
inline Xoshiro256 make_rng(const benchmark::State& state) {
  return Xoshiro256(0x9e3779b97f4a7c15ull * (state.thread_index() + 1) + 1);
}

// Records how many operations each thread of a threaded benchmark completed
// and emits per-thread throughput and fairness counters.
//
// Usage inside a benchmark body:
//   ThreadOps ops(state);
//   for (auto _ : state) { ...one operation...; ops.tick(); }
//   ops.finish();   // replaces state.SetItemsProcessed(state.iterations())
//
// JSON fields added to every row (set by thread 0; google-benchmark merges
// counters across threads by summation, so thread-0-only values pass
// through):
//   thread_ops_per_sec_min / thread_ops_per_sec_max — measured throughput of
//     the slowest and fastest thread.  The framework hands every thread the
//     SAME iteration quota, so per-run op *counts* are equal by construction;
//     what differs — and what combining can skew, since the combiner does
//     everyone's work while requesters spin — is how fast each thread moves
//     through its quota.
//   fairness — thread_ops_per_sec_min / thread_ops_per_sec_max in [0, 1];
//     1.0 means all threads progressed at the same rate.
//   per_thread_ops_per_sec — average per-thread throughput (every thread
//     contributes its count; kAvgThreads|kIsRate divides by threads & time;
//     equals items_per_second / threads).
//
// Per-thread rates are derived from sampled timestamps: every tick bumps a
// thread-local counter, and every 64th tick writes (count, steady_clock now)
// to a cache-line-padded slot owned by the ticking thread — no sharing, one
// clock read per 64 ops, and the same constant cost for every structure
// under test, so relative comparisons are unaffected.  Rows too short to
// produce two samples per thread report min = max = 0 and fairness = 1.0
// (smoke runs); real artifact runs sample thousands of times.
//
// ATTRIBUTION CONTRACT (combining rows): ticks are REQUESTER-attributed.
// A thread ticks when ITS operation completes, regardless of which thread's
// CPU executed it — under a combining engine the combiner performs other
// threads' operations while they spin, and under batch fan-out helper
// threads apply segments of a batch the submitter owns.  That is the right
// attribution for a fairness metric (the question is "did every requester
// make progress", not "which CPU did the work"), but it means fairness on
// combining rows measures request-completion fairness, not CPU-time
// fairness: a combiner thread that spends its quantum serving others still
// ticks only its own requests.  Rows produced by combining/batched fronts
// carry the combining_front flag (report_combining_front below) so readers
// and gates can tell which interpretation applies.
class ThreadOps {
 public:
  static constexpr int kMaxBenchThreads = 64;
  static constexpr std::uint64_t kSampleMask = 63;  // sample every 64 ticks

  explicit ThreadOps(benchmark::State& state)
      : state_(state), tid_(state.thread_index()) {
    // Thread 0 resets the slots before the start barrier (the timed loop's
    // begin() blocks on it), so no tick can race the reset.
    if (tid_ == 0) {
      for (int t = 0; t < state.threads() && t < kMaxBenchThreads; ++t) {
        slots()[t].count.store(0, std::memory_order_relaxed);
        slots()[t].first_ns.store(0, std::memory_order_relaxed);
        slots()[t].last_ns.store(0, std::memory_order_relaxed);
      }
    }
  }

  void tick() {
    if (((++local_) & kSampleMask) == 0) sample();
  }

  void finish() {
    state_.SetItemsProcessed(state_.iterations());
    state_.counters["per_thread_ops_per_sec"] = benchmark::Counter(
        static_cast<double>(local_),
        benchmark::Counter::kIsRate | benchmark::Counter::kAvgThreads);
    if (tid_ != 0) return;
    // Post-loop code runs after the stop barrier: every thread's samples are
    // visible here (the final one is at most kSampleMask ops stale, which is
    // noise at artifact iteration counts).
    double mn = 0.0;
    double mx = 0.0;
    bool have = false;
    for (int t = 0; t < state_.threads() && t < kMaxBenchThreads; ++t) {
      const Slot& s = slots()[t];
      const std::uint64_t ops = s.count.load(std::memory_order_relaxed);
      const std::uint64_t t0 = s.first_ns.load(std::memory_order_relaxed);
      const std::uint64_t t1 = s.last_ns.load(std::memory_order_relaxed);
      // Need two distinct samples: the first fixes (kSampleMask+1, t0).
      if (ops <= kSampleMask + 1 || t1 <= t0) continue;
      const double rate = static_cast<double>(ops - (kSampleMask + 1)) *
                          1e9 / static_cast<double>(t1 - t0);
      mn = (!have || rate < mn) ? rate : mn;
      mx = (!have || rate > mx) ? rate : mx;
      have = true;
    }
    state_.counters["thread_ops_per_sec_min"] = benchmark::Counter(mn);
    state_.counters["thread_ops_per_sec_max"] = benchmark::Counter(mx);
    state_.counters["fairness"] =
        benchmark::Counter(mx > 0.0 ? mn / mx : 1.0);
  }

 private:
  struct CCDS_CACHELINE_ALIGNED Slot {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> first_ns{0};
    std::atomic<std::uint64_t> last_ns{0};
  };
  // One static slot array shared by all benchmarks in a binary: runs are
  // sequential and thread 0 resets before each, so reuse is safe.
  static Slot* slots() {
    static Slot arr[kMaxBenchThreads];
    return arr;
  }

  void sample() {
    const std::uint64_t ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    Slot& s = slots()[tid_];
    // relaxed: single-writer slot; the loop-end barrier orders the final
    // values before thread 0's reads in finish().
    if (s.first_ns.load(std::memory_order_relaxed) == 0) {
      s.first_ns.store(ns, std::memory_order_relaxed);
    }
    s.count.store(local_, std::memory_order_relaxed);
    s.last_ns.store(ns, std::memory_order_relaxed);
  }

  benchmark::State& state_;
  const int tid_;
  std::uint64_t local_ = 0;
};

// Batched-row schema (E18 + the E16 batch rows).  batch_size is a
// first-class JSON field: every row whose operations ride combining
// requests in groups reports the ops-per-request count, so cross-row
// comparisons ("B=64 vs B=1") key on a machine-readable field instead of
// parsing row names.  combining_front marks rows produced through a
// combining engine (see the ThreadOps attribution contract above).  Both
// are thread-0-only: google-benchmark sums counters across threads, which
// would multiply a flag by the thread count.
inline void report_batch_size(benchmark::State& state, std::uint64_t b) {
  if (state.thread_index() != 0) return;
  state.counters["batch_size"] = benchmark::Counter(static_cast<double>(b));
}

inline void report_combining_front(benchmark::State& state) {
  if (state.thread_index() != 0) return;
  state.counters["combining_front"] = benchmark::Counter(1.0);
}

// Mixed read/insert/remove loop over a key range for set-like structures
// (contains/insert/remove).  Returns ops performed.
template <typename Set>
void run_set_mix(Set& set, benchmark::State& state, std::uint64_t key_range,
                 int read_pct, int insert_pct) {
  Xoshiro256 rng = make_rng(state);
  ThreadOps ops(state);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = (r >> 32) % key_range;
    const int op = static_cast<int>(r % 100);
    if (op < read_pct) {
      benchmark::DoNotOptimize(set.contains(key));
    } else if (op < read_pct + insert_pct) {
      benchmark::DoNotOptimize(set.insert(key));
    } else {
      benchmark::DoNotOptimize(set.remove(key));
    }
    ops.tick();
  }
  ops.finish();
}

// Same for map-like structures (get/insert/erase).
template <typename Map>
void run_map_mix(Map& map, benchmark::State& state, std::uint64_t key_range,
                 int read_pct, int insert_pct) {
  Xoshiro256 rng = make_rng(state);
  ThreadOps ops(state);
  for (auto _ : state) {
    const std::uint64_t r = rng.next();
    const std::uint64_t key = (r >> 32) % key_range;
    const int op = static_cast<int>(r % 100);
    if (op < read_pct) {
      benchmark::DoNotOptimize(map.get(key));
    } else if (op < read_pct + insert_pct) {
      benchmark::DoNotOptimize(map.insert(key, key));
    } else {
      benchmark::DoNotOptimize(map.erase(key));
    }
    ops.tick();
  }
  ops.finish();
}

// Prefill with every other key (half occupancy), visiting keys in a
// pseudo-random permutation rather than ascending order: sorted insertion
// would degenerate unbalanced structures (the tombstone BST most of all)
// into linked lists and poison every subsequent measurement.  Multiplying
// the index by an odd constant mod a power of two is a bijection.
inline std::uint64_t prefill_perturb(std::uint64_t i, std::uint64_t half) {
  return ((i * 0x9e3779b1ull) & (half - 1)) * 2;  // half must be a power of 2
}

template <typename Set>
void prefill_set(Set& set, std::uint64_t key_range) {
  const std::uint64_t half = key_range / 2;
  for (std::uint64_t i = 0; i < half; ++i) {
    set.insert(prefill_perturb(i, half));
  }
}

template <typename Map>
void prefill_map(Map& map, std::uint64_t key_range) {
  const std::uint64_t half = key_range / 2;
  for (std::uint64_t i = 0; i < half; ++i) {
    const std::uint64_t k = prefill_perturb(i, half);
    map.insert(k, k);
  }
}

// Standard mix arguments: {read%, insert%} (remove% is the remainder).
// 90/9/1 read-heavy, 70/20/10 mixed, 50/25/25 update-heavy, 0/50/50 writes.
#define CCDS_BENCH_MIX_ARGS                    \
  ->Args({90, 9})->Args({70, 20})->Args({50, 25})->Args({0, 50})

// Thread counts for scaling series (max must match kBenchMaxThreads above).
#define CCDS_BENCH_THREADS ->ThreadRange(1, 8)->UseRealTime()

}  // namespace ccds::bench
