#!/usr/bin/env python3
"""Gate the checked-in BENCH_<suite>.json artifacts on their experiment
contracts: E7 hash tables, E8 search structures, E11 reclaim matrix,
E16/E20 combining engines, E18 sorted batches, E19 serving tier.

One skeleton, one spec per suite (SPECS).  Two layers, because CI smoke
runs (min_time ~1ms) produce real rows but meaningless timings:

  structural (always):
    - the context block proves the artifact is honest: ccds_build_type is
      "release" and the suite's context stamps are recorded;
    - every required row is present (median aggregates where the suite
      bakes repetitions into its registrations);
    - every required row carries its schema keys, lacks the keys that would
      mislabel it, and passes its witness predicates.

  performance (--perf, for real artifacts):
    - evidence predicates (the harness produced conflicts, workers ran);
    - ratio floors.  Each floor carries the reason for its value and the
      host it was pinned on.  Ratios without a floor are printed for the
      record and never gated.

A new artifact enrolls as a new SPECS entry, not a new script.  Combining
engine names come from CCDS_COMBINER_ENGINES in src/sync/engines.hpp, so
enrolling an engine there makes its rows required here with no edit.

Usage:
  check_bench.py [--perf] [suite ...]   default: every suite, each read from
                                        BENCH_<suite>.json at the repo root
  check_bench.py --self-test            the checked-in artifacts pass both
                                        layers, and each seeded mutation in
                                        tests/check_bench_mutations.json
                                        fails with its expected message

Exit status: 0 pass, 1 gate failure, 2 usage error or self-test failure.
"""
import copy
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# bench_util.hpp also stamps ccds_fence_protocol and
# asymmetric_heavy_backend; they are not required, because the checked-in
# artifacts predate them.
BASE_CONTEXT = ("hardware_concurrency", "requested_max_threads",
                "oversubscribed")


def combiner_engines():
    """Engine identifiers of the CCDS_COMBINER_ENGINES X-macro."""
    text = (ROOT / "src" / "sync" / "engines.hpp").read_text()
    m = re.search(r"#define\s+CCDS_COMBINER_ENGINES\(X\)((?:[^\n]*\\\n)*"
                  r"[^\n]*)", text)
    return re.findall(r"\bX\((\w+)\)", m.group(1)) if m else []


# ---------------------------------------------------------------------------
# Row predicates: each takes a row and returns a list of failure strings.
# ---------------------------------------------------------------------------

def need(*keys):
    """Schema: the row carries every key."""
    return lambda r: ["missing %s" % k for k in keys if k not in r]


def forbid(why, *keys):
    """Labeling: the row must not carry these keys."""
    return lambda r: ["carries %s (%s)" % (k, why) for k in keys if k in r]


def holds(key, ok, what):
    """Witness: r[key] (0 when absent) satisfies ok."""
    return lambda r: [] if ok(r.get(key, 0)) else \
        ["%s=%r: %s" % (key, r.get(key), what)]


def positive(v):
    return v > 0


# ---------------------------------------------------------------------------
# combining — E16 engine comparison, E20 engine progress
# ---------------------------------------------------------------------------

# E20 reads each engine's counter rows: T=8/T=4 retention (T=8 runs twice
# as many threads as the 4-vCPU host has, so the OS preempts combiners
# mid-episode) and T=8 fairness.  Printed for the record, never gated: see
# EXPERIMENTS.md E20 for what two invocations of the artifact support.
COMBINING_FAMILIES = (("QueueMix", "Queue"), ("QueueBatch8", "Queue"),
                      ("StackMix", "Stack"), ("CounterAdd", "Counter"))
COMBINING_BASELINES = ("BM_QueueMix<MsQueueEbr>", "BM_QueueMix<LockQueueTtas>",
                       "BM_QueueMix<LockQueueMutex>",
                       "BM_StackMix<TreiberEbr>", "BM_StackMix<LockStackTtas>",
                       "BM_CounterAdd<AtomicCounter>",
                       "BM_CounterAdd<LockCounter<TtasLock>>")
FAIRNESS_SCHEMA = ("thread_ops_per_sec_min", "thread_ops_per_sec_max",
                   "fairness", "per_thread_ops_per_sec")


def combining_row(family, engine, threads):
    front = dict(COMBINING_FAMILIES)[family]
    return "BM_%s<%s%s>/real_time/threads:%d" % (family, engine, front,
                                                 threads)


def combining_spec():
    engines = combiner_engines()
    engine_rows = [combining_row(f, e, t) for e in engines
                   for f, _ in COMBINING_FAMILIES
                   for t in ((1, 4, 8) if f == "CounterAdd" else (1, 8))]

    def ratios(rows):
        def counter(engine, threads):
            return rows[combining_row("CounterAdd", engine, threads)]

        out = []
        for e in engines:
            out.append(("E20 %s T=8/T=4 retention" % e,
                        counter(e, 8).get("items_per_second", 0.0) /
                        max(counter(e, 4).get("items_per_second", 0.0),
                            1e-9), None, None))
            out.append(("E20 %s T=8 fairness" % e,
                        counter(e, 8).get("fairness", 0.0), None, None))
        return out

    return {
        "rows": {
            "engine": engine_rows,
            "baseline": ["%s/real_time/threads:%d" % (b, t)
                         for b in COMBINING_BASELINES for t in (1, 8)],
        },
        "checks": [
            # Every row in the artifact, not only the required ones:
            # dropping ThreadOps from a loop must fail here, not in the next
            # perf-artifact run.
            ("*", need(*FAIRNESS_SCHEMA)),
            ("engine", holds("combining_front", lambda v: v == 1,
                             "combining-front flag missing")),
            ("baseline", forbid("baselines are not combining fronts",
                                "combining_front")),
        ],
        "ratios": ratios,
    }


# ---------------------------------------------------------------------------
# batched — E18 sorted-batch sweep
# ---------------------------------------------------------------------------

# Measured medians: seq bulk-load B1/B64 = 2.06x (deterministic — the
# counting comparator's tally has cv 0.0% across repetitions); mixed-write
# LfslLocal/Batched512 = 1.21-1.22x at T=8 (batched side cv 0.4%, baseline
# cv ~3%, medians-of-5 stable to ~0.1%).  BULK_FLOOR leaves the seq leg a
# 1.6x cushion; MIXED_CPO_FLOOR is the acceptance bar itself with a ~1.5%
# cushion — comparison counts, unlike wall clock, do not drift with
# scheduler noise, so the thin margin is safe for a gate that only ever
# sees checked-in artifacts.  Wall clock is recorded, never gated: on one
# CPU a T=8 combining row measures the preemption storm.  See E18.
BULK_FLOOR = 1.3
MIXED_CPO_FLOOR = 1.2

BATCHES = (1, 8, 64, 512)
FAN_BATCHES = (64, 512)
BATCH_THREADS = (1, 8)


def bulk_row(leg, batch):
    return "BM_BatchedBulkLoad%s/%d/repeats:5_median" % (leg, batch)


def mixed_row(batch, threads):
    return ("BM_BatchedMixedWrite/%d/repeats:5/real_time/threads:%d_median"
            % (batch, threads))


def fanout_row(batch, threads):
    return ("BM_BatchedMixedWriteFanout/%d/repeats:5/real_time/"
            "threads:%d_median" % (batch, threads))


def lfsl_row(threads):
    return ("BM_LfslMixedWrite<LfslLocal>/repeats:5/real_time/threads:%d_median"
            % threads)


def batch_arg(row):
    """The sweep argument B encoded in the row name."""
    return int(row["name"].split("/")[1])


def batched_spec():
    def ratios(rows):
        def cpo(name):
            return rows[name].get("comparisons_per_op", 0)

        # The O(B + B*log(N/B)) claim in its cleanest form: same keys, same
        # final structure, only the batch size moves.  Random order is
        # recorded; mid-size random batches lose (the documented boundary).
        out = [("bulk-load %s: B=1/B=64 comparisons" % leg,
                cpo(bulk_row(leg, 1)) / max(cpo(bulk_row(leg, 64)), 1e-9),
                BULK_FLOOR if leg == "Seq" else None, None)
               for leg in ("Seq", "Random")]
        out.append(("mixed-write T=8: LfslLocal/Batched512 comparisons",
                    cpo(lfsl_row(8)) /
                    max(cpo(mixed_row(512, 8)), 1e-9), MIXED_CPO_FLOOR, None))
        return out

    return {
        "rows": {
            "batched": [bulk_row(leg, b) for leg in ("Seq", "Random")
                        for b in BATCHES] +
                       [mixed_row(b, t) for b in BATCHES
                        for t in BATCH_THREADS] +
                       [fanout_row(b, t) for b in FAN_BATCHES
                        for t in BATCH_THREADS],
            "baseline": [lfsl_row(t) for t in BATCH_THREADS],
            "fanout512": [fanout_row(512, t) for t in BATCH_THREADS],
            "fanout512_t8": [fanout_row(512, 8)],
        },
        "checks": [
            ("batched", lambda r: [] if r.get("batch_size") == batch_arg(r)
             else ["batch_size=%r, want %d" % (r.get("batch_size"),
                                               batch_arg(r))]),
            ("batched", holds("combining_front", lambda v: v == 1,
                              "combining-front flag missing")),
            ("batched", need("comparisons_per_op")),
            ("baseline", need("comparisons_per_op")),
            # A point-op baseline carrying batch_size is mislabeled and
            # would poison downstream batch-size pivots.
            ("baseline", forbid("point-op baseline", "batch_size")),
            # One B=512 batch over the 64k uniform key space spans all 8
            # shards, so even a smoke run's single iteration must dispatch
            # sub-batches; zero means the executor attach or the threshold
            # plumbing broke and the rows measure the inline path.
            ("fanout512", holds("fanout_subbatches_per_batch", positive,
                                "no sub-batches dispatched, fan-out path not"
                                " exercised")),
        ],
        # Pool workers, not just the helping combiner, executed segment
        # jobs (a smoke run is too short to guarantee a worker wins a task;
        # a real run is not).
        "perf_checks": [
            ("fanout512_t8", holds("worker_tasks_per_batch", positive,
                                   "workers executed no segment tasks")),
        ],
        "ratios": ratios,
    }


# ---------------------------------------------------------------------------
# ycsb — E19 serving tier
# ---------------------------------------------------------------------------

# Structural, plus one batching check: every tier at every mix, alpha and
# client count, and the sharded tier at every shard count, so E19's
# wall-clock cells can be read from any artifact.  No throughput ratio is
# gated: E19 calls a cell a win or a loss only when two invocations agree
# beyond their spread (EXPERIMENTS.md), which one artifact cannot show.
# Routing balance: every shard owns a non-empty, roughly equal slice of
# the 2M-key population; a lopsided split means shard_of and the map hash
# disagree.
OCC_BALANCE = 1.1

YCSB_SHARED = ("SharedSwiss", "Striped")
YCSB_MIXES = (50, 95, 100)
YCSB_ALPHAS = (9, 12)
YCSB_SHARDS = (1, 2, 4)
YCSB_THREADS = (1, 2, 4, 8)
YCSB_WITNESSES = ("shard_ops_min", "shard_ops_max", "shard_occ_min",
                  "shard_occ_max", "drain_batch_avg", "drain_batch_max",
                  "fallback_ops")


def ycsb_row(tier, read_pct, alpha, threads, shards=None):
    args = "%d/%d" % (read_pct, alpha) + ("/%d" % shards if shards else "")
    return "BM_Ycsb%s/%s/repeats:3/real_time/threads:%d_median" % (
        tier, args, threads)


def occupancy(r):
    lo, hi = r.get("shard_occ_min", 0), r.get("shard_occ_max", 0)
    if lo <= 0:
        return ["empty shard (shard_occ_min=%r)" % lo]
    return ["shard occupancy imbalance %.0f..%.0f" % (lo, hi)] \
        if hi / lo > OCC_BALANCE else []


def ycsb_spec():
    def sharded(threads=YCSB_THREADS, mixes=YCSB_MIXES, alphas=YCSB_ALPHAS):
        return [ycsb_row("Sharded", m, a, t, s) for m in mixes
                for a in alphas for s in YCSB_SHARDS for t in threads]

    shared = [ycsb_row(tier, m, a, t) for tier in YCSB_SHARED
              for m in YCSB_MIXES for a in YCSB_ALPHAS for t in YCSB_THREADS]
    return {
        # The T=8 series runs more clients than ring slots ON PURPOSE and
        # the artifact must say so.
        "context": {"ycsb_key_range": None, "ycsb_ring_clients": None,
                    "ycsb_window": None,
                    "ycsb_clients_oversubscribe_rings": "true"},
        "rows": {
            "all": sharded() + shared,
            "sharded": sharded(),
            "shared": shared,
            "sharded_t8": sharded((8,)),
            "a_mix_hot_t8": sharded((8,), (50,), (12,)),
        },
        "checks": [
            ("all", holds("items_per_second", positive,
                          "no operations measured")),
            # A sharded row without its witnesses could be silently
            # measuring one hot shard.
            ("sharded", need(*YCSB_WITNESSES)),
            ("shared", forbid("shared-tier row, mislabeled",
                              *YCSB_WITNESSES)),
            ("sharded", occupancy),
            # 8 clients over 4 ring slots must exercise the MpmcQueue
            # fallback path even in a single smoke iteration.
            ("sharded_t8", holds("fallback_ops", positive,
                                 "the oversubscribed fallback path never"
                                 " ran")),
        ],
        # Episodes that always carry one request mean the mailbox window
        # never amortized anything.
        "perf_checks": [
            ("a_mix_hot_t8", holds("drain_batch_avg", lambda v: v > 1.0,
                                   "mailbox batching never amortized")),
        ],
    }


# ---------------------------------------------------------------------------
# hashmaps — E7 hash tables
# ---------------------------------------------------------------------------

# Structural only: every map and set at every mix and thread count, so
# E7's tables can be read from any artifact.  No ratio is gated: the
# striped rows' wall clock swings with lock-holder preemption.
HASH_MAPS = ("CoarseMap", "StripedMap", "SwissMap")
HASH_SETS = ("SplitOrderedHP", "SplitOrderedEBR")
# bench_util.hpp's CCDS_BENCH_MIX_ARGS {read%, insert%} and
# CCDS_BENCH_THREADS, shared with E8.
HASH_MIXES = ((90, 9), (70, 20), (50, 25), (0, 50))
HASH_THREADS = (1, 2, 4, 8)


def hash_row(kind, impl, mix, threads):
    return "BM_Hash%sMix<%s>/%d/%d/real_time/threads:%d" % (
        kind, impl, mix[0], mix[1], threads)


def hashmaps_spec():
    return {
        "rows": {
            "all": [hash_row("Map", m, x, t) for m in HASH_MAPS
                    for x in HASH_MIXES for t in HASH_THREADS] +
                   [hash_row("Set", m, x, t) for m in HASH_SETS
                    for x in HASH_MIXES for t in HASH_THREADS],
        },
        "checks": [
            ("*", need(*FAIRNESS_SCHEMA)),
            ("all", holds("items_per_second", positive,
                          "no operations measured")),
        ],
    }


# ---------------------------------------------------------------------------
# skiplists — E8 search structures
# ---------------------------------------------------------------------------

# Structural only, like E7: every skip list and tree at every mix and
# thread count, so E8's table can be read from any artifact.
SEARCH_SETS = ("CoarseSkip", "LazySkip", "LockFreeSkip", "CoarseAvl",
               "TombstoneBst", "FineBst")


def skiplists_spec():
    return {
        "rows": {
            "all": ["BM_SearchMix<%s>/%d/%d/real_time/threads:%d"
                    % (impl, mix[0], mix[1], threads) for impl in SEARCH_SETS
                    for mix in HASH_MIXES for threads in HASH_THREADS],
        },
        "checks": [
            ("all", need(*FAIRNESS_SCHEMA)),
            ("all", holds("items_per_second", positive,
                          "no operations measured")),
        ],
    }


# ---------------------------------------------------------------------------
# reclaim — E11 structure x policy matrix
# ---------------------------------------------------------------------------

# The cross-policy table is only honest if every run exercises the full
# cross-product; a template rename or a dropped
# registration must fail here, not silently lose a cell.  Rows are matched
# by prefix: each cell runs at several thread counts.
RECLAIM_MATRIX = {
    "BM_TreiberChurn": ("LeakyDomain", "HazardDomain", "EpochDomain",
                        "QsbrDomain"),
    "BM_MSQueueChurn": ("LeakyDomain", "HazardDomain", "EpochDomain",
                        "QsbrDomain"),
    "BM_HarrisListReadHeavy": ("LeakyDomain", "HazardDomain", "EpochDomain",
                               "EpochLeaseDomain", "QsbrDomain",
                               "QsbrLeaseDomain"),
    "BM_SplitOrderedReadHeavy": ("LeakyDomain", "HazardDomain", "EpochDomain",
                                 "QsbrDomain"),
    "BM_SwissMapReadHeavy": ("LeakyDomain", "HazardDomain", "EpochDomain",
                             "QsbrDomain"),
    "BM_SkipListReadHeavy": ("LeakyDomain", "WideHazardDomain", "EpochDomain",
                             "QsbrDomain"),
    "BM_ProtectedRead": ("LeakyDomain", "HazardDomain", "EpochDomain",
                         "EpochLeaseDomain", "QsbrDomain", "QsbrLeaseDomain"),
    "BM_ProtectedReadBatch8": ("LeakyDomain", "HazardDomain", "EpochDomain",
                               "QsbrDomain"),
}


def reclaim_spec():
    return {
        "prefix": True,
        "rows": {"matrix": ["%s<%s>" % (b, d)
                            for b, doms in RECLAIM_MATRIX.items()
                            for d in doms]},
    }


SPECS = {
    "hashmaps": hashmaps_spec,
    "combining": combining_spec,
    "skiplists": skiplists_spec,
    "batched": batched_spec,
    "ycsb": ycsb_spec,
    "reclaim": reclaim_spec,
}


# ---------------------------------------------------------------------------
# Skeleton
# ---------------------------------------------------------------------------

def median_rows(benchmarks):
    """Per-iteration rows plus median aggregates, keyed by name."""
    return {b["name"]: b for b in benchmarks
            if b.get("run_type") != "aggregate"
            or b.get("aggregate_name") == "median"}


def check(spec, doc, perf, report=print):
    """Gate one artifact against its spec; returns (errors, required rows)."""
    errors = []
    ctx = doc.get("context", {})
    if ctx.get("ccds_build_type") != "release":
        errors.append("context.ccds_build_type=%r, need 'release'"
                      % ctx.get("ccds_build_type"))
    stamps = dict.fromkeys(BASE_CONTEXT)
    stamps.update(spec.get("context", {}))
    for key, want in stamps.items():
        if key not in ctx:
            errors.append("context missing %r" % key)
        elif want is not None and ctx[key] != want:
            errors.append("context.%s=%r, need %r" % (key, ctx[key], want))

    rows = median_rows(doc.get("benchmarks", []))
    groups = spec["rows"]
    required = list(dict.fromkeys(n for g in groups.values() for n in g))
    if spec.get("prefix"):
        missing = [n for n in required
                   if not any(r.startswith(n) for r in rows)]
    else:
        missing = [n for n in required if n not in rows]
    if missing:
        errors.append("missing rows: %s" % ", ".join(missing))
        return errors, required

    checks = spec.get("checks", []) + (spec.get("perf_checks", [])
                                       if perf else [])
    for group, pred in checks:
        for name in rows if group == "*" else groups[group]:
            errors += ["%s: %s" % (name, e) for e in pred(rows[name])]
    if perf and "ratios" in spec:
        for label, value, lo, hi in spec["ratios"](rows):
            bounds = ", ".join(b for b in (
                "floor %.3f" % lo if lo is not None else "",
                "ceiling %.3f" % hi if hi is not None else "") if b)
            report("  %s = %.3f%s" % (label, value,
                                      " (%s)" % bounds if bounds else ""))
            if (lo is not None and value < lo) or \
                    (hi is not None and value > hi):
                errors.append("%s = %.3f outside %s" % (label, value, bounds))
    return errors, required


def load(suite):
    return json.loads((ROOT / ("BENCH_%s.json" % suite)).read_text())


def run(suites, perf):
    failed = False
    for suite in suites:
        print("check_bench: %s%s" % (suite, " (+perf)" if perf else ""))
        errors, required = check(SPECS[suite](), load(suite), perf)
        if errors:
            failed = True
            print("check_bench: %s FAIL\n  %s" % (suite, "\n  ".join(errors)))
        else:
            print("check_bench: %s: %d rows OK" % (suite, len(required)))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Self-test: every distinct failure of the gates this one replaced, seeded
# into an in-memory copy of the checked-in artifact.  Each entry of
# tests/check_bench_mutations.json sets, scales (from another row or key)
# or drops one context stamp or row key, or drops rows by name prefix.
# ---------------------------------------------------------------------------

def mutate(doc, m):
    if "drop_rows" in m:
        doc["benchmarks"] = [b for b in doc["benchmarks"]
                             if not b["name"].startswith(m["drop_rows"])]
        return
    rows = {b["name"]: b for b in doc["benchmarks"]}
    target = doc["context"] if "context" in m else rows[m["row"]]
    key = m.get("context", m.get("key"))
    if m.get("drop"):
        del target[key]
    elif "scale" in m:
        source = rows[m.get("from", m.get("row"))]
        target[key] = source[m.get("from_key", key)] * m["scale"]
    else:
        target[key] = m["set"]


def self_test():
    docs = {s: load(s) for s in SPECS}
    failures = []
    for suite, doc in docs.items():
        for perf in (False, True):
            errors, _ = check(SPECS[suite](), doc, perf, report=lambda _: 0)
            if errors:
                failures.append("%s%s: BENCH_%s.json fails; is it the"
                                " checked-in artifact? %s"
                                % (suite, " --perf" if perf else "", suite,
                                   errors))
    mutations = json.loads(
        (ROOT / "tests" / "check_bench_mutations.json").read_text())
    for m in mutations:
        doc = copy.deepcopy(docs[m["suite"]])
        mutate(doc, m)
        perf = m.get("perf", False)
        # A perf mutation must pass the structural layer: floors gate real
        # artifacts only.
        for mode in sorted({False, perf}):
            errors, _ = check(SPECS[m["suite"]](), doc, mode,
                              report=lambda _: 0)
            if mode != perf and errors:
                failures.append("%s: perf mutation %r fails structurally: %s"
                                % (m["suite"], m["expect"], errors))
            elif mode == perf and not any(m["expect"] in e for e in errors):
                failures.append("%s%s: mutation expecting %r gave %s"
                                % (m["suite"], " --perf" if perf else "",
                                   m["expect"], errors or "PASS"))
    for f in failures:
        print("check_bench self-test: " + f, file=sys.stderr)
    if failures:
        return 2
    print("check_bench: self-test ok (%d suites pass in both modes, %d seeded"
          " mutations each fail as expected)" % (len(docs), len(mutations)))
    return 0


def main(argv):
    perf = "--perf" in argv
    args = [a for a in argv if a != "--perf"]
    if args == ["--self-test"] and not perf:
        return self_test()
    unknown = [a for a in args if a not in SPECS]
    if unknown:
        print("usage: check_bench.py [--perf] [%s ...] | --self-test"
              % "|".join(SPECS), file=sys.stderr)
        return 2
    return run(args or list(SPECS), perf)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
