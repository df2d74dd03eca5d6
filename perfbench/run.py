#!/usr/bin/env python3
"""The repository benchmark: top-k, scan and update cost on trace workloads.

Run from the repository root::

    python3 perfbench/run.py --workload syn-topk --seed 1 --seconds 5 --trace 0

It generates the workload's traces (untimed), builds the MinSigTree once
untimed and ``SETUP_REPS`` times timed, then runs a closed loop with one
client for at least ``--seconds``. A query asks an entity for its top-k
with `TopKEngine.topk` and checks it against `TopKEngine.brute_force` on
a second engine; neither engine has queried that entity before, so both
pay a cold ``query_cells``. An update batch (`bulk_update`) mixes
existing entities (records at later times) with new ids, as Fig. 8
does, and is followed by a query on an updated entity.

* ``syn-topk`` reads: the loop makes whole passes over ``READ_QUERIES``
  fixed queries, k cycling through 1, 10, 50, each pass on fresh engines;
  one update batch follows the loop.
* ``syn-update`` writes: each step of the loop is one update batch,
  followed by a timed top-50 query on engines built over the updated
  tree; the loop runs whole rounds of ``UPDATE_ROUND`` batches.

Both workloads therefore report every metric, from the same SYN traces.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median of the timed builds, ``build_minsigtree`` plus the
  `TopKEngine` construction, from materialised traces; the process's
  first build, which also compiles plans and starts Spark's Python
  workers, is a warm-up and is not timed;
* ``topk_p50_s``: `topk_p50` of the timed queries; ``topk_qps``: timed
  queries over the seconds spent in ``topk`` (not over the loop's wall
  time, which also holds the scans and, on syn-update, the batches);
  ``scan_p50_s``: median ``brute_force`` time on the same entities and k;
* ``update_p50_s``: median time of the ``bulk_update`` batches;
* ``py_rss_growth_mb``: how far the peak RSS of this Python process, the
  Spark driver, rose above its peak before set-up, which already holds
  the interpreter, the imports and the generated traces (about 120 MB);
* ``spark_cached_mb``: bytes of persisted RDDs and DataFrames at the end
  of the run.

The error rate, failed over attempted operations, is not a metric: it
is zero whenever the output is right. A failed call, a top-k whose score
multiset differs from the scan's, or a failed update counts as failed;
it is reported in ``failed`` and makes the exit code 1. ``--trace 1``
runs the same workload with spans around each layer (see ``layers.py``)
and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment (``info``) and the samples (``detail``).

Scale: every run starts a JVM, and the benchmark's runs must fit a
fixed time budget, so a run lasts about a minute, of which some 35 s
are start-up, warm-up and the timed builds. The workloads therefore
index 300 entities, not the 2000 of ROADMAP's fixed workload; at this
scale top-k checks most entities (see ``query.checked`` in the traced
run), so the index loses to the scan.

Spark runs in local mode on at most four cores with the settings pinned
in `configure_environment` and `spark_session`; every file it writes
stays under ``.bench_build/perfbench`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "perfbench"
CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = CORES  # one task per core per shuffle stage
DRIVER_MEMORY = "2g"
KS = (1, 10, 50)
SETUP_REPS = 2  # timed builds per run, after an untimed one; setup_s is their median
WARMUP_QUERIES = 1  # untimed top-50 query, on an entity outside the timed set
READ_QUERIES = 6  # timed queries in one pass of syn-topk, k cycling through KS
UPDATE_EXISTING = 0.7  # share of the update batch that are existing entities
UPDATE_K = max(KS)  # k of the query after an update batch
# syn-update applies whole rounds of batches, so that every run ends with
# the same lineage length; a round is longer than --seconds.
UPDATE_ROUND = 3
SCORE_TOL = 1e-9
# The traces, the hash family and the read queries are one fixed draw,
# as ROADMAP's fixed workload is; ``--seed`` draws the update batches and
# the entity queried after each. Every run of syn-topk thus does the same
# reads: at 300 entities a top-1 query needs 1-2 scoring rounds on some
# entities and 7-10 on others, and the heavy-tailed SYN activity makes
# the trace volume of two draws differ by 10-18%, either of which would
# swamp the timing of one change.
DATA_SEED = 7

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


# ROADMAP's fixed workload (SYN, n_side=24, T=96, n_h=128, m=4) at a
# smaller entity count; at n_h=128 hashing is a large share of set-up.
N_ENTITIES = 300
N_SIDE = 24
T_MAX = 96
N_H = 128
UPDATE_N = 30  # entities per update batch, a tenth of the index
# Whether the loop's steps are update batches (each then queried) rather
# than queries. Both workloads use the same traces.
WRITES = {
    # Reads: query-cell fetch, bounds and scoring rounds do the work.
    "syn-topk": False,
    # Successive batches (Fig. 8): cell rollup, hashing, signatures and
    # node surgery do the work, and persisted relations and plan lineage
    # grow from batch to batch.
    "syn-update": True,
}


def configure_environment() -> None:
    """Pin Spark's launch settings before pyspark starts the JVM."""
    tmp = WORK / "tmp"
    local = WORK / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options -Djava.io.tmpdir={tmp}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={local}",
            f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'}",
            "pyspark-shell",
        ]
    )


def spark_session():
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM and its workers to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def same_scores(got, want) -> bool:
    """Top-k exactness: equal score multisets, within float tolerance."""
    a = sorted((s for _, s in got), reverse=True)
    b = sorted((s for _, s in want), reverse=True)
    return len(a) == len(b) and all(abs(x - y) <= SCORE_TOL for x, y in zip(a, b))


def topk_p50(samples) -> float:
    """Geometric mean, over the k queried, of the median top-k latency at k.

    ``samples`` are ``(k, seconds)``. Latency depends on k through the
    number of scoring rounds, so the samples are a mixture; a median over
    the mixture jumps between its modes from run to run, while each k's
    own median is steady.
    """
    return statistics.geometric_mean(
        median([s for kk, s in samples if kk == k]) for k in sorted({k for k, _ in samples})
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def mean(xs):
    return statistics.fmean(xs) if xs else float("nan")


class Bench:
    """One run of one workload; collects samples, spans and failures."""

    def __init__(self, spark, name: str, seed: int, seconds: float, tracer):
        from repro.core.adm import ADMParams
        from repro.eval.harness import syn_spec
        import numpy as np

        self.spark, self.sc = spark, spark.sparkContext
        self.name, self.writes, self.seed, self.seconds = name, WRITES[name], seed, seconds
        self.tracer = tracer
        self.spec = syn_spec(
            name=name,
            n_entities=N_ENTITIES,
            n_side=N_SIDE,
            t_max=T_MAX,
            seed=DATA_SEED,
        )
        self.sp = self.spec.sp_index()
        self.adm = ADMParams(m=self.spec.m)
        self.rng = np.random.default_rng([seed, 0xBE7C])  # update batches
        self.setup_s: list[float] = []
        self.samples: list[tuple] = []  # (k, topk s, scan s, rounds, checked)
        self.update_s: list[float] = []
        self.health = (float("nan"), float("nan"))  # after the last update: RDDs, plan depth
        self.attempted = 0
        self.failed = 0
        self.phases: dict[str, float] = {}  # wall seconds per phase of the run
        self.topk_records: list[tuple[object, object, list]] = []  # traced
        self.scan_records: list[tuple[object, list]] = []  # traced

    @property
    def topk_s(self) -> list[tuple[int, float]]:
        return [(k, t) for k, t, *_ in self.samples]

    @property
    def scan_s(self) -> list[float]:
        return [t for _, _, t, *_ in self.samples]

    # ----------------------------------------------------------- set-up

    def span(self, name: str):
        from contextlib import nullcontext

        return self.tracer.span(name) if self.tracer else nullcontext()

    def engine(self, tree):
        from repro.core.query import TopKEngine

        if self.tracer:
            from layers import TracedEngine

            return TracedEngine(self.spark, tree, self.adm, tracer=self.tracer)
        return TopKEngine(self.spark, tree, self.adm)

    def setup(self):
        """Generate the traces and build once (untimed), then time SETUP_REPS builds.

        The first build also pays what only a process's first build pays,
        the compilation of the plans and the start of Spark's Python
        workers, so it is a warm-up.
        """
        from repro.core.hashing import HashFamily
        from repro.core.minsigtree import build_minsigtree
        from repro.mobility.im_model import TRACE_SCHEMA, generate_traces_pdf

        t0 = time.perf_counter()
        pdf = generate_traces_pdf(
            self.sp, N_ENTITIES, self.spec.t_max, self.spec.params, self.spec.seed
        )
        traces = self.spark.createDataFrame(pdf, schema=TRACE_SCHEMA).persist()
        traces.count()
        self.phases["data"] = time.perf_counter() - t0
        self.rss_base_mb = peak_rss_mb()
        self.fam = HashFamily(n_h=N_H, r=self.spec.hash_range, seed=DATA_SEED)
        tree = None
        for i in range(1 + SETUP_REPS):
            if tree is not None:  # keep only the last build's relations
                tree.cells.unpersist(blocking=True)
                tree.level_hashes.unpersist(blocking=True)
            if i == 1 and self.tracer:
                # Warm, and with no stage output cached under the same plan.
                from layers import build_stages

                build_stages(self.spark, self.tracer, traces, self.sp, self.fam)
            t0 = time.perf_counter()
            with self.span("minsigtree.build"):
                tree = build_minsigtree(self.spark, traces, self.sp, self.fam)
            with self.span("minsigtree.engine_init"):
                eng = self.engine(tree)
            if i:
                self.setup_s.append(time.perf_counter() - t0)
        self.built = self.tree = tree
        self.topk_engine = eng
        self.scan_engine = self.engine(tree)

    # ----------------------------------------------------------- queries

    def active(self, tree, rng, among=None):
        """Entities with a non-trivial trace, in a random order."""
        import numpy as np

        sz = tree.sizes[tree.sizes.level == tree.m].set_index("entity").sz
        if among is not None:
            sz = sz[sz.index.isin(among)]
        pool = sz[sz >= max(2, sz.median() / 2)].index.to_numpy()
        return rng.permutation(np.sort(pool))

    def query(self, topk_engine, scan_engine, entity: int, k: int, timed: bool = True):
        """One checked top-k query: ``topk`` then ``brute_force``.

        Every query counts towards ``attempted``; only ``timed`` ones give
        latency samples and spans for the per-layer metrics.
        """
        self.attempted += 1
        try:
            mark = len(self.tracer.spans) if self.tracer else 0
            t0 = time.perf_counter()
            with self.span("query.topk"):
                got = topk_engine.topk(entity, k)
            t1 = time.perf_counter()
            if self.tracer and timed:
                self.topk_records.append((got, self.tracer.spans[-1], self.tracer.spans[mark:-1]))
            mark = len(self.tracer.spans) if self.tracer else 0
            t2 = time.perf_counter()
            with self.span("query.scan"):
                want = scan_engine.brute_force(entity, k)
            t3 = time.perf_counter()
            if self.tracer and timed:
                self.scan_records.append((self.tracer.spans[-1], self.tracer.spans[mark:-1]))
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        if not same_scores(got.results, want.results):
            print(f"perfbench: inexact top-{k} for entity {entity}", file=sys.stderr)
            self.failed += 1
        if timed:
            self.samples.append((k, t1 - t0, t3 - t2, got.rounds, got.checked))

    # ----------------------------------------------------------- updates

    def batch(self):
        """The next update batch: existing entities' later records + new ids.

        Batch ``b`` (from 0) holds records after every earlier batch's,
        and its new ids follow theirs.
        """
        import numpy as np

        from repro.mobility.im_model import TRACE_SCHEMA, generate_traces_pdf

        b, n = len(self.update_s), UPDATE_N
        n_exist = int(n * UPDATE_EXISTING)
        rng = np.random.default_rng([self.seed, 1, b])
        pdf = generate_traces_pdf(
            self.sp, n, self.spec.t_max, self.spec.params, seed=int(rng.integers(2**31))
        )
        existing = np.sort(self.tree.leaves.entity.to_numpy())
        ids = np.concatenate(
            [
                rng.choice(existing, n_exist, replace=False),
                np.arange(n - n_exist) + N_ENTITIES + b * n,
            ]
        )
        pdf["entity"] = ids[pdf["entity"].to_numpy()]
        pdf["t"] = (pdf["t"] + (b + 1) * self.spec.t_max).astype("int32")
        df = self.spark.createDataFrame(pdf, schema=TRACE_SCHEMA).persist()
        df.count()
        return df, np.unique(ids)

    def update(self, timed: bool) -> None:
        """Apply the next update batch, then query an updated entity."""
        from layers import persisted_rdds, plan_depth

        from repro.core.minsigtree import bulk_update

        df, ids = self.batch()
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with self.span("minsigtree.update"):
                tree, _ = bulk_update(self.spark, self.tree, df)
            self.update_s.append(time.perf_counter() - t0)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.tree = tree
        self.health = (persisted_rdds(self.sc), plan_depth(tree.cells))
        topk_engine, scan_engine = self.engine(tree), self.engine(tree)
        e = int(self.active(tree, self.rng, among=ids)[0])
        self.query(topk_engine, scan_engine, e, UPDATE_K, timed=timed)

    # ----------------------------------------------------------- the run

    def run(self) -> None:
        t0 = time.perf_counter()
        self.setup()
        self.phases["setup"] = time.perf_counter() - t0
        import numpy as np

        order = [int(e) for e in self.active(self.tree, np.random.default_rng(DATA_SEED))]
        warmup = order[:WARMUP_QUERIES]
        reads = [
            (e, KS[i % len(KS)])
            for i, e in enumerate(order[WARMUP_QUERIES : WARMUP_QUERIES + READ_QUERIES])
        ]
        for e in warmup:
            self.query(self.topk_engine, self.scan_engine, e, max(KS), timed=False)
        self.phases["warmup"] = time.perf_counter() - t0 - self.phases["setup"]
        if self.tracer:
            self.tracer.overhead_s = 0.0
        t_start = time.perf_counter()
        if self.writes:
            i = 0
            while time.perf_counter() < t_start + self.seconds or i % UPDATE_ROUND:
                self.update(timed=True)
                i += 1
        else:
            while True:  # whole passes, each on fresh engines, so query_cells is cold
                topk_engine, scan_engine = self.engine(self.tree), self.engine(self.tree)
                for e, k in reads:
                    self.query(topk_engine, scan_engine, e, k)
                if time.perf_counter() >= t_start + self.seconds:
                    break
            self.update(timed=False)
        self.window_s = time.perf_counter() - t_start

    # ----------------------------------------------------------- metrics

    def end_to_end(self) -> dict:
        from layers import cached_bytes

        topk = [s for _, s in self.topk_s]
        return {
            "setup_s": (median(self.setup_s), "s"),
            "topk_p50_s": (topk_p50(self.topk_s), "s"),
            "topk_qps": (len(topk) / sum(topk) if topk else 0.0, "queries/s"),
            "scan_p50_s": (median(self.scan_s), "s"),
            "update_p50_s": (median(self.update_s), "s"),
            "py_rss_growth_mb": (peak_rss_mb() - self.rss_base_mb, "MB"),
            "spark_cached_mb": (cached_bytes(self.sc) / 2**20, "MB"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        tr.count_jobs()
        by = {}
        for sp in tr.spans:
            by.setdefault(sp.name, []).append(sp)

        def only(name):
            return by[name][0]

        cells_first, ub, score, loop, jobs = [], [], [], [], []
        cells_jobs, rounds, checked, pe, ks = [], [], [], [], []
        score_total = 0.0
        for res, top, kids in self.topk_records:
            c = [s for s in kids if s.name == "query.cells"]
            u = [s for s in kids if s.name == "query.ub"]
            sc = [s for s in kids if s.name == "query.score"]
            cells_first.append(c[0].seconds)
            cells_jobs.append(c[0].jobs)
            ub.append(sum(s.seconds for s in u))
            score.append(sum(s.seconds for s in sc))
            score_total += score[-1]
            loop.append(top.seconds - cells_first[-1] - ub[-1] - score[-1])
            jobs.append(top.jobs + sum(s.jobs for s in kids))
            rounds.append(res.rounds)
            checked.append(res.checked)
            pe.append(res.pruning_effectiveness)
            ks.append(res.k)
        scan_jobs = [top.jobs + sum(s.jobs for s in kids) for top, kids in self.scan_records]
        builds = by["minsigtree.build"][1:]  # the first, untimed build is a warm-up
        updates = by.get("minsigtree.update", [])
        tree = self.built
        n_leaves = tree.leaves.key.nunique()
        topk = [(res.k, s.seconds) for res, s, _ in self.topk_records]
        return {
            "cells.s": (only("cells").seconds, "s"),
            "cells.rows": (only("cells").size, "count"),
            "cells.jobs": (only("cells").jobs, "count"),
            "hashing.s": (only("hashing").seconds, "s"),
            "hashing.rows": (only("hashing").size, "count"),
            "hashing.jobs": (only("hashing").jobs, "count"),
            "signatures.s": (only("signatures").seconds, "s"),
            "signatures.jobs": (only("signatures").jobs, "count"),
            "minsigtree.build_s": (median([s.seconds for s in builds]), "s"),
            "minsigtree.nodes": (len(tree.nodes), "count"),
            "minsigtree.leaves": (n_leaves, "count"),
            "minsigtree.fanout": (len(tree.leaves) / max(1, n_leaves), "entities/leaf"),
            "minsigtree.index_bytes": (tree.index_size_bytes(), "bytes"),
            "minsigtree.engine_init_s": (
                median([s.seconds for s in by["minsigtree.engine_init"][1:]]), "s"),
            "minsigtree.update_s": (median([s.seconds for s in updates]), "s"),
            "minsigtree.update_jobs": (mean([s.jobs for s in updates]), "count"),
            "minsigtree.persisted_rdds": (self.health[0], "count"),
            "minsigtree.plan_depth": (self.health[1], "count"),
            "query.cells_s": (median(cells_first), "s"),
            "query.cells_jobs": (mean(cells_jobs), "count"),
            "query.ub_s": (median(ub), "s"),
            "query.score_s": (median(score), "s"),
            "query.score_round_s": (score_total / max(1, sum(rounds)), "s"),
            "query.rounds": (mean(rounds), "count"),
            "query.jobs": (mean(jobs), "count"),
            "query.loop_s": (median(loop), "s"),
            "query.checked": (mean(checked), "count"),
            "query.pe": (mean(pe), "fraction"),
            "query.useful_ratio": (sum(ks) / max(1, sum(checked)), "fraction"),
            "query.scan_jobs": (mean(scan_jobs), "count"),
            "trace.topk_p50_s": (topk_p50(topk), "s"),
            "trace.setup_s": (median(self.setup_s), "s"),
            "trace.overhead_share": (tr.overhead_s / self.window_s, "fraction"),
        }

    def report(self, trace: bool) -> dict:
        metrics = self.per_layer() if trace else self.end_to_end()
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def detail(self) -> dict:
        by_k = {
            f"topk_p50_s_k{k}": median([s for kk, s in self.topk_s if kk == k])
            for k in sorted({k for k, _ in self.topk_s})
        }
        topk_s, scan_s = topk_p50(self.topk_s), median(self.scan_s)
        return {
            "error_rate": self.failed / max(1, self.attempted),
            "n_topk": len(self.samples),
            "n_update": len(self.update_s),
            "n_setup": len(self.setup_s),
            "rss_before_setup_mb": self.rss_base_mb,
            "window_s": self.window_s,
            "phases_s": self.phases,
            **by_k,
            "topk_slower_than_scan": topk_s > scan_s,
            "health_after_update": self.health,
            "setup_samples": self.setup_s,
            "samples": self.samples,
            "update_samples": self.update_s,
        }


def info(name: str, seed: int, trace: bool) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    return {
        "workload": name,
        "seed": seed,
        "data_seed": DATA_SEED,
        "trace": trace,
        "nproc": os.cpu_count(),
        "spark_master": f"local[{CORES}]",
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "entities": N_ENTITIES,
        "n_side": N_SIDE,
        "t_max": T_MAX,
        "n_h": N_H,
        "writes": WRITES[name],
        "update_entities": UPDATE_N,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WRITES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    configure_environment()
    from layers import Tracer

    t0 = time.perf_counter()
    spark = spark_session()
    try:
        tracer = Tracer(spark.sparkContext) if args.trace else None
        bench = Bench(spark, args.workload, args.seed, args.seconds, tracer)
        bench.phases["spark_start"] = time.perf_counter() - t0
        bench.run()
        metrics = bench.report(bool(args.trace))
        print(json.dumps({"info": info(args.workload, args.seed, bool(args.trace))}))
        print(json.dumps({"detail": bench.detail()}))
    finally:
        stop_spark(spark)
    ok = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
