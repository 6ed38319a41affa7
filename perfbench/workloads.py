"""The benchmark's three workloads: paper_1d, view_churn and serve_closed.

Each workload is a function ``(seed, seconds, size, ledger, passes,
probe) -> Outcome``.  It generates its inputs from ``seed``, runs its set-up
``SETUP_REPS`` times (``setup_s`` is the median), runs its timed phase
and checks every output it produced.

The read part of each timed phase runs whole *passes* over identical
inputs until it has been measured for ``seconds`` (view_churn spreads the
time over its rounds), or exactly ``passes`` times when that is given.
Wall-clock rates are taken over all measured passes.  Simulated-clock
metrics come from the first pass, and every later pass must reproduce the
first one's simulated results exactly.

With a :class:`~ledger.Ledger` the layer wrappers are installed for the
whole run and the timed phase's per-layer self time and counts are
collected.  Calls into the program go through its package attributes
(``acetree.build_ace_tree``, ``baselines.build_permuted_file``, ...), so
the wrappers, which replace every binding of a function, are seen.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.acetree as acetree
import repro.baselines as baselines
import repro.obs as obs
import repro.view as view
import repro.workloads as workloads
from repro.acetree.query import SampleStream
from repro.acetree.storage import LeafStore
from repro.acetree.tree import AceTree
from repro.baselines.bplustree import RankedBPlusTree
from repro.baselines.permuted import PermutedFile
from repro.bench import race as race_module
from repro.bench.figures import FIGURES, SCALES
from repro.obs.context import CONTEXT
from repro.obs.metrics import METRICS
from repro.obs.quality import QualitySession, StreamQualityMonitor
from repro.obs.recorder import TraceRecorder
from repro.serve.scheduler import ServeConfig, ServeScheduler, percentile
from repro.serve.workload import Workload, WorkloadSpec
from repro.storage.cost import CostModel
from repro.storage.disk import DiskStats, SimulatedDisk
from repro.view.sampleview import MaterializedSampleView

from ledger import Ledger, instrument
from speed import SpeedProbe

# ``repro.storage.external_sort`` the attribute is the function; the module
# is only reachable through importlib.
_SORT = importlib.import_module("repro.storage.external_sort")

__all__ = ["Outcome", "SIZES", "WORKLOADS", "peak_rss_mb"]

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Figures of the 1-D evaluation that paper_1d's race phase re-runs.
FIGURES_1D = ("fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b")

#: Seed of every query set.  ``--seed`` draws the data, the inserts and
#: the sample-stream seeds; the queries stay fixed, as the figure suite's
#: do, so that query placement does not dominate the run-to-run spread.
QUERY_SEED = 1

#: Selectivities of paper_1d's first-sample queries (those of the figures).
FIRST_SAMPLE_SELECTIVITIES = (0.0025, 0.025, 0.25)

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` runs
#: the same code in a few seconds, for the self-tests.
SIZES = {
    "full": {
        "paper_scale": "medium",
        "first_sample_queries": 1200,
        "first_sample_records": 100,
        "view_records": 2**17,
        "view_rounds": 3,
        "view_inserts": 8192,
        "view_queries": 40,
        "view_samples": 1000,
        "serve_records": 2**17,
        "serve_tenants": 100,
        "serve_queries": 10,
    },
    "tiny": {
        "paper_scale": "small",
        "first_sample_queries": 30,
        "first_sample_records": 20,
        "view_records": 2**12,
        "view_rounds": 2,
        "view_inserts": 256,
        "view_queries": 4,
        "view_samples": 50,
        "serve_records": 2**12,
        "serve_tenants": 6,
        "serve_queries": 2,
    },
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: float
    timed_s: float
    metrics: dict
    layers: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Recorder:
    """Phase timing, operation accounting and per-layer deltas of one run.

    ``wall`` holds each phase's reference seconds (see :mod:`speed`; plain
    wall seconds when the probe is not running) and ``raw`` its wall
    seconds net of probing, which the ledger's self times add up to.
    """

    def __init__(self, ledger: Ledger | None, probe: SpeedProbe | None) -> None:
        self.ledger = ledger
        self.probe = probe if probe is not None else SpeedProbe()
        self.wall: defaultdict[str, float] = defaultdict(float)
        self.raw: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.setup_self_s: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _marks(self):
        ledger = self.ledger
        if ledger is None:
            return None
        return dict(ledger.self_s), Counter(ledger.calls), Counter(ledger.counts)

    @contextmanager
    def phase(self, name: str):
        """A measured part of the timed phase: wall time and layer deltas."""
        before = self._marks()
        mark = self.probe.mark()
        try:
            yield
        finally:
            measured = self.probe.since(mark)
            self.wall[name] += measured.seconds
            self.raw[name] += measured.wall - measured.probe_time
            if before is not None:
                self_s, calls, counts = self._marks()
                for layer, value in self_s.items():
                    self.self_s[layer] += value - before[0].get(layer, 0.0)
                self.calls.update(calls - before[1])
                self.counts.update(counts - before[2])

    def setup(self, build):
        """Run ``build()`` SETUP_REPS times; return (last result, times).

        Each repetition's result is dropped before the next starts.  The
        layer self time of the last one is kept as the set-up split.
        """
        times = []
        for _ in range(SETUP_REPS):
            result = None  # free the previous repetition's structures first
            before = self._marks()
            mark = self.probe.mark()
            result = build()
            times.append(self.probe.since(mark).seconds)
            if before is not None:
                self.setup_self_s = {
                    layer: value - before[0].get(layer, 0.0)
                    for layer, value in self.ledger.self_s.items()
                }
        return result, times

    def repeat(self, phase: str, one_pass, seconds: float, passes: int | None,
               signature, reference=None, what: str = "pass"):
        """Run ``one_pass`` under ``phase`` until measured long enough.

        Returns (first result, passes run).  Every pass's ``signature``
        must equal ``reference`` (default: the first pass's).
        """
        first = None
        done = 0
        spent = 0.0
        while done < passes if passes is not None else (
                done == 0 or spent < seconds):
            before = self.raw[phase]
            with self.phase(phase):
                result = one_pass()
            spent += self.raw[phase] - before
            done += 1
            if first is None:
                first = result
                if reference is None:
                    reference = signature(result)
                    continue
            self.check(signature(result) == reference,
                       f"{what}: a repeated pass diverged on the simulated clock")
        return first, done

    def op(self, what: str, fn, *args):
        """One attempted operation; an exception counts it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failed operation is counted; the run goes on
            self.failed += 1
            self.problems.append(f"{what}: raised")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, what: str) -> bool:
        """Count a failed output check."""
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _add_stats(a: DiskStats, b: DiskStats) -> DiskStats:
    return DiskStats(**{name: getattr(a, name) + getattr(b, name)
                        for name in vars(a)})


class DiskTally:
    """A disk's counters summed across ``reset_clock`` calls.

    Every read pass starts from a reset clock, so its simulated times and
    counters do not depend on how many passes ran before it (clock values
    are floats, and a delta taken at a larger absolute clock rounds
    differently).
    """

    def __init__(self, disk: SimulatedDisk) -> None:
        self.disk = disk
        self._base = disk.stats.snapshot()
        self._done = DiskStats()

    def reset_clock(self) -> None:
        self._done = _add_stats(self._done, self.disk.stats - self._base)
        self.disk.reset_clock()
        self._base = DiskStats()

    def total(self) -> DiskStats:
        return _add_stats(self._done, self.disk.stats - self._base)


def _new_disk(page_size: int, seek_to_transfer: float = 10.0) -> SimulatedDisk:
    return SimulatedDisk(
        page_size=page_size, cost=CostModel.scaled(page_size, seek_to_transfer)
    )


def _relation_keys(relation, field_name: str = "day") -> np.ndarray:
    """Every key of ``relation``, read without moving the simulated clock."""
    index = relation.schema.field_index(field_name)
    with relation.disk.unmetered():
        return np.fromiter((record[index] for record in relation.scan()),
                           dtype=np.float64, count=relation.num_records)


def _in_box(keys: np.ndarray, query) -> np.ndarray:
    side = query.sides[0]
    return (keys >= side.lo) & (keys < side.hi)


# ---------------------------------------------------------------------------
# Layer wrappers
# ---------------------------------------------------------------------------


def _patches(ledger: Ledger) -> list:
    """Every wrapper a traced run installs, as ``instrument`` patches."""
    counts = ledger.counts
    wrap = ledger.wrap
    call = ledger.call

    def layer(name):
        return lambda fn: wrap(name, fn)

    def sort(fn):
        def count_records(args, result):
            counts["storage.external_sort.records"] += args[0].num_records
            return result
        return wrap("storage.external_sort", fn, count_records)

    def stream_next(fn):
        def __next__(stream):
            stats = stream.stats
            stabs, leaves = stats.stabs, stats.leaves_read
            batch = call("acetree.query", fn, stream)
            counts["acetree.query.batches"] += 1
            counts["acetree.query.records"] += batch.count
            counts["acetree.query.stabs"] += stats.stabs - stabs
            counts["acetree.query.leaves_read"] += stats.leaves_read - leaves
            return batch
        return __next__

    def baseline_sample(fn):
        def on_item(batch):
            counts["baselines.sample.records"] += len(batch.records)
        return wrap("baselines.sample", fn, lambda args, it: ledger.iterate(
            "baselines.sample", it, on_item))

    def view_sample(fn):
        return wrap("view.sample", fn,
                    lambda args, it: ledger.iterate("view.sample", it))

    return [
        (workloads, "generate_sale_1d", layer("workloads.generate")),
        (_SORT, "external_sort", sort),
        (_SORT, "external_sort_to_sink", sort),
        (acetree, "build_ace_tree", layer("acetree.build")),
        (baselines, "build_permuted_file", layer("baselines.build")),
        (baselines, "build_bplus_tree", layer("baselines.build")),
        (PermutedFile, "sample", baseline_sample),
        (RankedBPlusTree, "sample", baseline_sample),
        (RankedBPlusTree, "reset_caches", layer("baselines.sample")),
        (AceTree, "sample", layer("acetree.query")),
        (SampleStream, "__next__", stream_next),
        (LeafStore, "read_leaf_view", layer("acetree.storage")),
        (MaterializedSampleView, "insert", layer("view.insert")),
        (MaterializedSampleView, "sample", view_sample),
        (MaterializedSampleView, "refresh", layer("view.refresh")),
        (ServeScheduler, "run", layer("serve.run")),
        (TraceRecorder, "on_span", layer("obs.recorder")),
        (TraceRecorder, "uninstall", layer("obs.recorder")),
        (StreamQualityMonitor, "observe_batch", layer("obs.quality")),
        (QualitySession, "records", layer("obs.quality")),
        (obs, "evaluate_slos", layer("obs.slo")),
        (race_module, "run_race", layer("bench.race")),
    ]


def _instrumented(ledger: Ledger | None):
    return nullcontext() if ledger is None else instrument(_patches(ledger))


#: Per-layer metrics: name -> (unit, better).  Every run with a ledger
#: reports all of them; a layer a workload does not use reads 0.
LAYER_METRICS = {
    "workloads.generate.self_s": ("s", "lower"),
    "setup.storage.external_sort.self_s": ("s", "lower"),
    "setup.acetree.build.self_s": ("s", "lower"),
    "storage.external_sort.calls": ("count", "lower"),
    "storage.external_sort.self_s": ("s", "lower"),
    "storage.external_sort.records": ("count", "lower"),
    "acetree.build.calls": ("count", "lower"),
    "acetree.build.self_s": ("s", "lower"),
    "baselines.build.self_s": ("s", "lower"),
    "baselines.sample.self_s": ("s", "lower"),
    "baselines.sample.records": ("count", "higher"),
    "acetree.query.batches": ("count", "lower"),
    "acetree.query.self_s": ("s", "lower"),
    "acetree.query.records": ("count", "higher"),
    "acetree.query.stabs": ("count", "lower"),
    "acetree.query.leaves_read": ("count", "lower"),
    "acetree.query.records_per_leaf": ("ratio", "higher"),
    "acetree.storage.leaf_reads": ("count", "lower"),
    "acetree.storage.self_s": ("s", "lower"),
    "storage.disk.page_reads": ("count", "lower"),
    "storage.disk.page_writes": ("count", "lower"),
    "storage.disk.seeks": ("count", "lower"),
    "storage.disk.reads_per_sampled_record": ("ratio", "lower"),
    "storage.disk.bytes_written_per_user_byte": ("ratio", "lower"),
    "view.insert.self_s": ("s", "lower"),
    "view.sample.self_s": ("s", "lower"),
    "view.refresh.self_s": ("s", "lower"),
    "serve.run.self_s": ("s", "lower"),
    "serve.steps": ("count", "lower"),
    "serve.turns": ("count", "lower"),
    "serve.max_waiting": ("count", "lower"),
    "serve.pages_per_query": ("ratio", "lower"),
    "serve.rejected": ("count", "lower"),
    "obs.recorder.self_s": ("s", "lower"),
    "obs.recorder.spans": ("count", "lower"),
    "obs.quality.self_s": ("s", "lower"),
    "obs.slo.self_s": ("s", "lower"),
    "bench.race.self_s": ("s", "lower"),
    "trace.timed_s": ("s", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Layers whose self time the ledger measures (``<layer>.self_s``).
_TIMED_LAYERS = (
    "storage.external_sort", "acetree.build", "baselines.build",
    "baselines.sample", "acetree.query", "acetree.storage", "view.insert",
    "view.sample", "view.refresh", "serve.run", "obs.recorder",
    "obs.quality", "obs.slo", "bench.race",
)


def _layer_metrics(rec: Recorder, io: DiskStats, *, read_reads: int,
                   sampled: int, built_bytes: int, timed_s: float) -> dict:
    """The ledger's view of the timed phase, plus the disk's counters."""
    out = {name: 0 for name in LAYER_METRICS}
    for layer in _TIMED_LAYERS:
        out[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
    out["workloads.generate.self_s"] = rec.setup_self_s.get("workloads.generate", 0.0)
    out["setup.storage.external_sort.self_s"] = rec.setup_self_s.get(
        "storage.external_sort", 0.0)
    out["setup.acetree.build.self_s"] = rec.setup_self_s.get("acetree.build", 0.0)
    out["storage.external_sort.calls"] = rec.calls["storage.external_sort"]
    out["acetree.build.calls"] = rec.calls["acetree.build"]
    out["acetree.storage.leaf_reads"] = rec.calls["acetree.storage"]
    for name in ("storage.external_sort.records", "baselines.sample.records",
                 "acetree.query.batches", "acetree.query.records",
                 "acetree.query.stabs", "acetree.query.leaves_read"):
        out[name] = rec.counts[name]
    leaves = rec.counts["acetree.query.leaves_read"]
    out["acetree.query.records_per_leaf"] = (
        rec.counts["acetree.query.records"] / leaves if leaves else 0.0)
    out["storage.disk.page_reads"] = io.page_reads
    out["storage.disk.page_writes"] = io.page_writes
    out["storage.disk.seeks"] = io.seeks
    out["storage.disk.reads_per_sampled_record"] = (
        read_reads / sampled if sampled else 0.0)
    out["storage.disk.bytes_written_per_user_byte"] = (
        io.bytes_written / built_bytes if built_bytes else 0.0)
    attributed = sum(rec.self_s.get(layer, 0.0) for layer in _TIMED_LAYERS)
    out["trace.timed_s"] = timed_s
    out["trace.unattributed_share"] = (timed_s - attributed) / timed_s
    return out


# ---------------------------------------------------------------------------
# paper_1d
# ---------------------------------------------------------------------------


def paper_1d(seed: int, seconds: float, size: str = "full",
             ledger: Ledger | None = None, passes: int | None = None,
             probe: SpeedProbe | None = None) -> Outcome:
    """SALE 1-D at the medium preset: the paper's builds and fig11-fig15b."""
    cfg = SIZES[size]
    scale = SCALES[cfg["paper_scale"]]
    rec = Recorder(ledger, probe)
    with _instrumented(ledger):
        def make_relation():
            disk = _new_disk(scale.page_size, scale.seek_to_transfer)
            return workloads.generate_sale_1d(
                disk, scale.num_records, seed=seed,
                record_size=scale.record_size)

        relation, setup_times = rec.setup(make_relation)
        disk = relation.disk
        key_fields = ("day",)
        scan_seconds = relation.scan_seconds()

        # Timed phase, part 1: the three builds as ExperimentContext makes
        # them (same calls, parameters and order; clock reset after).
        tally = DiskTally(disk)
        clock0 = disk.clock
        with rec.phase("build"):
            tree = rec.op("build ace", acetree.build_ace_tree, relation,
                          acetree.AceBuildParams(
                              key_fields=key_fields, height=scale.height,
                              memory_pages=scale.memory_pages, seed=seed))
            permuted = rec.op("build permuted", lambda: baselines.build_permuted_file(
                relation, key_fields, seed=seed, memory_pages=scale.memory_pages))
            bplus = rec.op("build bplus", lambda: baselines.build_bplus_tree(
                relation, "day", memory_pages=scale.memory_pages,
                leaf_cache_pages=scale.leaf_cache_pages))
        sim_build_s = disk.clock - clock0
        build_io = tally.total()
        tally.reset_clock()
        if tree is None or permuted is None or bplus is None:
            raise RuntimeError("paper_1d: a build failed, so nothing can race")

        def bplus_sampler(query, s):
            bplus.reset_caches()
            return bplus.sample(query, seed=s)

        samplers = {
            "ACE Tree": lambda query, s: tree.sample(query, seed=s),
            "Randomly permuted file": lambda query, s: permuted.sample(query, seed=s),
            "B+ Tree": bplus_sampler,
        }
        plan = []
        for figure in FIGURES_1D:
            spec = FIGURES[figure]
            count = (scale.completion_queries if spec.window_fraction is None
                     else scale.num_queries)
            limit = (None if spec.window_fraction is None
                     else spec.window_fraction * scan_seconds)
            queries = workloads.queries_1d(spec.selectivity, count, seed=QUERY_SEED)
            plan.extend((figure, i, query, limit) for i, query in enumerate(queries))
        per_selectivity = cfg["first_sample_queries"] // len(FIRST_SAMPLE_SELECTIVITIES)
        first_queries = [
            query for selectivity in FIRST_SAMPLE_SELECTIVITIES
            for query in workloads.queries_1d(selectivity, per_selectivity,
                                              seed=QUERY_SEED + 1)]
        want = cfg["first_sample_records"]

        def first_sample(index, query):
            """The ACE Tree's first ``want`` records for one query."""
            start = disk.clock
            got: list = []
            for batch in tree.sample(query, seed=seed + index):
                got.extend(batch.records)
                if len(got) >= want:
                    return got[:want], batch.clock - start
            return got, disk.clock - start

        def race_pass():
            """Every (figure, query, sampler) race once, as run_figure runs
            it, then the first-sample queries."""
            tally.reset_clock()
            out = []
            for figure, index, query, limit in plan:
                for name, factory in samplers.items():
                    start = disk.clock
                    kept: list = []

                    def one_race():
                        batches = _keep(factory(query, seed + index), kept)
                        return race_module.run_race(name, batches, start,
                                                    time_limit=limit)

                    with CONTEXT.push(sampler=name, query=f"q{index}"):
                        curve = rec.op(f"{figure} q{index} {name}", one_race)
                    out.append((figure, index, query, name, curve, kept))
            firsts = [rec.op(f"first sample q{index}", first_sample, index, query)
                      for index, query in enumerate(first_queries)]
            return out, firsts

        def signature(result):
            races, firsts = result
            return [(r[0], r[1], r[3]) + (
                (tuple(r[4].times), tuple(r[4].counts), r[4].completed)
                if r[4] is not None else ()) for r in races] + [
                    f and (len(f[0]), f[1]) for f in firsts] + [vars(disk.stats)]

        # Part 2: a warm-up pass fills the decoded-leaf memo (the whole tree
        # fits it), then warm passes run until ``seconds`` are measured.
        with rec.phase("warmup"):
            first, firsts = race_pass()
        done = rec.repeat("races", race_pass, seconds, passes, signature,
                          reference=signature((first, firsts)),
                          what="paper_1d races")[1]
        io = tally.total()

        keys = _relation_keys(relation)
        for figure, index, query, name, curve, kept in first:
            if curve is None:
                continue
            got = _batch_keys(kept)
            rec.check(bool(np.all(_in_box(got, query))),
                      f"{figure} q{index} {name}: a record outside its query")
            if FIGURES[figure].window_fraction is None:
                matching = np.sort(keys[_in_box(keys, query)])
                rec.check(curve.completed and np.array_equal(np.sort(got), matching),
                          f"{figure} q{index} {name}: the run to completion did "
                          "not return exactly the matching set")
        tta = []
        for index, (query, result) in enumerate(zip(first_queries, firsts)):
            if result is None:
                continue
            got = np.array([r[0] for r in result[0]], dtype=np.float64)
            matching = int(np.count_nonzero(_in_box(keys, query)))
            rec.check(bool(np.all(_in_box(got, query)))
                      and (len(got) == want or len(got) == matching),
                      f"first sample q{index}: {len(got)} records, "
                      f"{matching} matching, or a record outside the query")
            tta.append(result[1])
        curves = [r[4] for r in first if r[4] is not None]
        ace = [r[4] for r in first if r[3] == "ACE Tree" and r[4] is not None]
        sampled = (sum(curve.total for curve in curves)
                   + sum(len(f[0]) for f in firsts if f))
        built = 3 * relation.num_records
        record_size = relation.schema.record_size
        phases = ("build", "warmup", "races")
        timed_s = sum(rec.wall[name] for name in phases)
        metrics = {
            "build_records_per_s": built / rec.wall["build"],
            "sampled_records_per_s": sampled * done / rec.wall["races"],
            "queries_per_s": (len(curves) + len(tta)) * done / rec.wall["races"],
            "sim_records_per_s": (sum(c.total for c in ace)
                                  / sum(c.end_time for c in ace)),
            "sim_build_s": sim_build_s,
            "tta_p50_sim_s": percentile(tta, 0.50),
            "tta_p99_sim_s": percentile(tta, 0.99),
            "space_amp": (tree.num_pages * disk.page_size
                          / (relation.num_records * record_size)),
        }
        layers = _layer_metrics(
            rec, io, read_reads=io.page_reads - build_io.page_reads,
            sampled=sampled * (1 + done), built_bytes=built * record_size,
            timed_s=sum(rec.raw[name] for name in phases))
    return Outcome(setup_s=statistics.median(setup_times), timed_s=timed_s,
                   metrics=metrics, layers=layers, attempted=rec.attempted,
                   failed=rec.failed, problems=rec.problems)


def _keep(batches, kept: list):
    for batch in batches:
        kept.append(batch)
        yield batch


def _batch_keys(batches) -> np.ndarray:
    return np.fromiter((record[0] for batch in batches for record in batch.records),
                       dtype=np.float64)


# ---------------------------------------------------------------------------
# view_churn
# ---------------------------------------------------------------------------


def _fresh_records(seed: int, round_index: int, count: int) -> list[tuple]:
    """``count`` new SALE records with keys uniform over the DAY domain."""
    rng = np.random.default_rng([seed, round_index, 8191])
    days = rng.integers(0, workloads.DAY_DOMAIN, size=count).tolist()
    others = rng.integers(0, 1_000_000, size=(count, 3)).tolist()
    return [(d, a, b, c, b"") for d, (a, b, c) in zip(days, others)]


def view_churn(seed: int, seconds: float, size: str = "full",
               ledger: Ledger | None = None, passes: int | None = None,
               probe: SpeedProbe | None = None) -> Outcome:
    """Rounds of inserts, base+delta sampling and refresh on one view."""
    cfg = SIZES[size]
    rounds, want = cfg["view_rounds"], cfg["view_samples"]
    rec = Recorder(ledger, probe)
    with _instrumented(ledger):
        def make_view():
            disk = _new_disk(4096)
            relation = workloads.generate_sale_1d(disk, cfg["view_records"],
                                                  seed=seed)
            return relation, view.create_sample_view(
                "sales_sample", relation, ["day"], seed=seed)

        (relation, sample_view), setup_times = rec.setup(make_view)
        disk = relation.disk
        record_size = relation.schema.record_size
        keys = _relation_keys(relation)
        tally = DiskTally(disk)
        sim_query = sim_refresh = 0.0
        sampled_first = sampled_all = queries_all = rebuilt = 0
        latencies: list[float] = []
        read_reads = 0
        for round_index in range(rounds):
            fresh = _fresh_records(seed, round_index, cfg["view_inserts"])
            with rec.phase("insert"):
                rec.op(f"round {round_index} insert", sample_view.insert, fresh)
            keys = np.concatenate([keys, np.array([r[0] for r in fresh],
                                                  dtype=np.float64)])
            queries = workloads.queries_1d(0.025, cfg["view_queries"],
                                           seed=QUERY_SEED + 1 + round_index)

            def query_pass():
                tally.reset_clock()
                out = []
                for index, query in enumerate(queries):
                    start = disk.clock

                    def take():
                        records, clock = [], start
                        for batch in sample_view.sample(query, seed=seed + index):
                            records.extend(batch.records)
                            clock = batch.clock
                            if len(records) >= want:
                                break
                        return records[:want], clock - start

                    out.append(rec.op(f"round {round_index} q{index}", take))
                return out, disk.clock, disk.stats.page_reads

            (first, pass_clock, pass_reads), done = rec.repeat(
                "query", query_pass, seconds / rounds, passes,
                lambda result: ([r and (tuple(r[0]), r[1]) for r in result[0]],
                                result[1:]),
                what=f"view_churn round {round_index}")
            sim_query += pass_clock
            read_reads += pass_reads * done
            round_sampled = sum(len(r[0]) for r in first if r)
            sampled_first += round_sampled
            sampled_all += round_sampled * done
            queries_all += len(queries) * done
            for index, (query, result) in enumerate(zip(queries, first)):
                if result is None:
                    continue
                records, latency = result
                got = np.array([r[0] for r in records], dtype=np.float64)
                matching = int(np.count_nonzero(_in_box(keys, query)))
                rec.check(bool(np.all(_in_box(got, query))),
                          f"view_churn round {round_index} q{index}: a sample "
                          "outside its query")
                rec.check(len(records) == want or matching < want,
                          f"view_churn round {round_index} q{index}: "
                          f"{len(records)} samples although {matching} match")
                latencies.append(latency)

            clock0 = disk.clock
            with rec.phase("refresh"):
                rec.op(f"round {round_index} refresh", sample_view.refresh)
            sim_refresh += disk.clock - clock0
            rebuilt += sample_view.num_records
            rec.check(sample_view.delta_size == 0
                      and sample_view.num_records == len(keys),
                      f"view_churn round {round_index}: after refresh the delta "
                      f"holds {sample_view.delta_size} and the view "
                      f"{sample_view.num_records} records, not {len(keys)}")
        io = tally.total()
        phases = ("insert", "query", "refresh")
        timed_s = sum(rec.wall[name] for name in phases)
        metrics = {
            "build_records_per_s": rebuilt / rec.wall["refresh"],
            "sampled_records_per_s": sampled_all / rec.wall["query"],
            "queries_per_s": queries_all / rec.wall["query"],
            "sim_records_per_s": sampled_first / sim_query,
            "sim_build_s": sim_refresh,
            "tta_p50_sim_s": percentile(latencies, 0.50),
            "tta_p99_sim_s": percentile(latencies, 0.99),
            "space_amp": (sample_view.tree.num_pages * disk.page_size
                          / (sample_view.num_records * record_size)),
        }
        layers = _layer_metrics(rec, io, read_reads=read_reads,
                                sampled=sampled_all,
                                built_bytes=rebuilt * record_size,
                                timed_s=sum(rec.raw[name] for name in phases))
    return Outcome(setup_s=statistics.median(setup_times), timed_s=timed_s,
                   metrics=metrics, layers=layers, attempted=rec.attempted,
                   failed=rec.failed, problems=rec.problems)


# ---------------------------------------------------------------------------
# serve_closed
# ---------------------------------------------------------------------------


def serve_closed(seed: int, seconds: float, size: str = "full",
                 ledger: Ledger | None = None, passes: int | None = None,
                 probe: SpeedProbe | None = None) -> Outcome:
    """100 closed-loop bursty tenants on one default-height tree."""
    cfg = SIZES[size]
    records = cfg["serve_records"]
    rec = Recorder(ledger, probe)
    with _instrumented(ledger):
        build_walls: list[float] = []

        def make_tree():
            # As ``repro serve`` builds its tree: default height, clock
            # zeroed after the build.
            disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
            relation = workloads.generate_sale_1d(disk, num_records=records,
                                                  seed=seed)
            clock0 = disk.clock
            mark = rec.probe.mark()
            tree = acetree.build_ace_tree(
                relation, acetree.AceBuildParams(key_fields=("day",), seed=seed))
            build_walls.append(rec.probe.since(mark).seconds)
            sim_build = disk.clock - clock0
            disk.reset_clock()
            return tree, sim_build

        (tree, sim_build_s), setup_times = rec.setup(make_tree)
        disk = tree.disk
        tally = DiskTally(disk)
        domain = tree.geometry.domain.sides[0]
        spec = WorkloadSpec(shape="bursty", tenants=cfg["serve_tenants"],
                            queries_per_tenant=cfg["serve_queries"],
                            closed_loop=True, key_lo=domain.lo,
                            key_hi=domain.hi)

        def serve_pass():
            """One serve run, armed the way ``repro serve`` arms it."""
            tally.reset_clock()
            METRICS.reset()
            recorder = TraceRecorder(metrics=METRICS)
            session = QualitySession(metrics=METRICS)
            with recorder:
                scheduler = ServeScheduler(tree, Workload(spec, seed=QUERY_SEED),
                                           ServeConfig(), session=session)
                report = scheduler.run()
            statuses = obs.evaluate_slos(quality=session.records(),
                                         metrics=METRICS.snapshot())
            report.slo = [status.as_dict() for status in statuses]
            samples = sum(run.samples for state in scheduler.tenants.values()
                          for run in state.finished_runs)
            degraded = sum(1 for monitor in session.monitors if monitor.degraded)
            return report, samples, degraded, len(recorder.spans)

        def signature(result):
            return json.dumps(result[0].as_dict(), sort_keys=True), result[1]

        first, done = rec.repeat("serve", serve_pass, seconds, passes,
                                 signature, what="serve_closed")
        report, samples, degraded, spans = first
        io = tally.total()
        data = report.as_dict()
        totals = data["totals"]
        rejected = totals["rejected_queue"] + totals["rejected_budget"]
        expected = cfg["serve_tenants"] * cfg["serve_queries"]
        rec.attempted += totals["arrived"] * done
        rec.failed += (totals["arrived"] - totals["completed"]) * done
        rec.check(totals["arrived"] == expected,
                  f"serve_closed: {totals['arrived']} of {expected} queries arrived")
        rec.check(totals["arrived"] == totals["completed"] + rejected,
                  "serve_closed: arrived != completed + rejected")
        rec.check(data["budget_audit"]["ok"] is True,
                  "serve_closed: the page-budget audit did not pass")
        rec.check(degraded == 0, f"serve_closed: {degraded} degraded streams")
        tta = report.tta_values()
        rec.check(bool(tta), "serve_closed: no query reached its target")
        wall = rec.wall["serve"]
        metrics = {
            "build_records_per_s": len(build_walls) * records / sum(build_walls),
            "sampled_records_per_s": samples * done / wall,
            "queries_per_s": totals["completed"] * done / wall,
            "sim_records_per_s": samples / report.clock,
            "sim_build_s": sim_build_s,
            "tta_p50_sim_s": data["tta_p50_sim_s"],
            "tta_p99_sim_s": data["tta_p99_sim_s"],
            "space_amp": (tree.num_pages * disk.page_size
                          / (records * tree.schema.record_size)),
        }
        layers = _layer_metrics(rec, io, read_reads=io.page_reads,
                                sampled=samples * done, built_bytes=0,
                                timed_s=rec.raw["serve"])
        layers.update({
            "serve.steps": report.steps,
            "serve.turns": report.turns,
            "serve.max_waiting": totals["max_waiting"],
            "serve.pages_per_query": totals["pages"] / max(totals["completed"], 1),
            "serve.rejected": rejected,
            "obs.recorder.spans": spans,
        })
    return Outcome(setup_s=statistics.median(setup_times), timed_s=wall,
                   metrics=metrics, layers=layers, attempted=rec.attempted,
                   failed=rec.failed, problems=rec.problems)


WORKLOADS = {
    "paper_1d": paper_1d,
    "view_churn": view_churn,
    "serve_closed": serve_closed,
}
