"""Per-layer tracing from outside the program.

Spans are recorded around calls into the public functions of each module
of ``repro.core``: the benchmark rebuilds the index stage by stage
(``cells`` -> ``hashing`` -> ``signatures``), and `TracedEngine` times
``query_cells``, ``leaf_upper_bounds`` and ``exact_scores`` around
``super()``. Every span runs its Spark work under its own job group, so
the jobs a span issued are counted per call with ``statusTracker``.
Job counts are looked up once, after the run, so that the lookups do not
add to the timed spans.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count

from repro.core.cells import entity_level_cells
from repro.core.hashing import build_level_hashes
from repro.core.query import TopKEngine
from repro.core.signatures import entity_paths, entity_signatures


@dataclass
class Span:
    name: str
    seconds: float
    group: str
    jobs: int = 0
    size: int = 0  # rows a build stage produced


@dataclass
class Tracer:
    """Records spans in memory; `overhead_s` is the tracer's own time."""

    sc: object
    spans: list[Span] = field(default_factory=list)
    overhead_s: float = 0.0
    _ids: count = field(default_factory=count)

    @contextmanager
    def span(self, name: str):
        t_in = time.perf_counter()
        group = f"perfbench-{next(self._ids)}"
        prev = self.sc.getLocalProperty("spark.jobGroup.id")
        prev_desc = self.sc.getLocalProperty("spark.job.description")
        self.sc.setJobGroup(group, name)
        sp = Span(name, 0.0, group)
        t0 = time.perf_counter()
        try:
            yield sp
        finally:
            t1 = time.perf_counter()
            sp.seconds = t1 - t0
            self.sc.setLocalProperty("spark.jobGroup.id", prev)
            self.sc.setLocalProperty("spark.job.description", prev_desc)
            self.spans.append(sp)
            self.overhead_s += (t0 - t_in) + (time.perf_counter() - t1)

    def count_jobs(self) -> None:
        """Fill in each span's Spark job count (call once, after the run)."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for sp in self.spans:
            sp.jobs = len(tracker.getJobIdsForGroup(sp.group))


class TracedEngine(TopKEngine):
    """`TopKEngine` whose three query stages are recorded as spans."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def query_cells(self, entity):
        with self.tracer.span("query.cells"):
            return super().query_cells(entity)

    def leaf_upper_bounds(self, qc):
        with self.tracer.span("query.ub"):
            return super().leaf_upper_bounds(qc)

    def exact_scores(self, qc, candidates):
        with self.tracer.span("query.score"):
            return super().exact_scores(qc, candidates)


def build_stages(spark, tracer: Tracer, traces, sp, fam) -> None:
    """Rebuild the index relations stage by stage, timing each stage.

    Each stage's output is persisted and counted inside its span, so the
    span holds that stage's work alone; the outputs are released after.
    """
    with tracer.span("cells") as s:
        cells = entity_level_cells(spark, traces, sp).persist()
        s.size = cells.count()
    with tracer.span("hashing") as s:
        lh = build_level_hashes(spark, cells, sp, fam).persist()
        s.size = lh.count()
    with tracer.span("signatures"):
        paths = entity_paths(entity_signatures(cells, lh, fam)).persist()
        paths.count()
    for df in (paths, lh, cells):
        df.unpersist(blocking=True)


def plan_depth(df) -> int:
    """Depth of a DataFrame's analyzed logical plan (its lineage length)."""

    def depth(node) -> int:
        kids = node.children()
        return 1 + max((depth(kids.apply(i)) for i in range(kids.size())), default=0)

    return depth(df._jdf.queryExecution().analyzed())


def persisted_rdds(sc) -> int:
    return sc._jsc.getPersistentRDDs().size()


def cached_bytes(sc) -> int:
    """Bytes held by persisted RDDs and DataFrames (memory plus disk)."""
    return sum(
        int(info.memSize()) + int(info.diskSize())
        for info in sc._jsc.sc().getRDDStorageInfo()
    )
