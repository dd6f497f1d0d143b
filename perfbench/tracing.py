"""Per-layer tracing installed from outside the program.

The tracer wraps public entry points of the freshly imported cyclolab
modules.  Each name is patched where its caller looks it up: module
attributes for functions called as `module.func`, both the defining
module and the importer for names imported with `from ... import`, and
the class for `CycNum` dunders and `SubsetSumTracker` methods.

Every wrapped call opens a frame on one stack; when it closes, its
duration is charged to the enclosing frame as child time, so
self time = duration - time covered by child frames, and the self
times of one job add up to the duration of its root `cli.main` frame.
Coarse entries also record a span (name, start, end, parent span, job)
in memory.  Hot leaves called up to millions of times per job keep
only per-name totals, and `SubsetSumTracker.conflicts` is only counted,
so that tracing stays affordable.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter_ns

# Kernel conductors the per-layer metrics report; the workloads run at
# conductors 4 (grids, lines), 12 (mann), 60 and 420 (erdos_purdy).
CONDUCTORS = (4, 12, 60, 420)
KERNEL_OPS = ("mul", "conj", "hash", "lift")
CACHE_KEY = "cyclotomic.cache_entries"


class Tracer:
    """Frames, spans and per-job counters of one traced run."""

    def __init__(self):
        self.stack = []  # open frames: [child_ns, span id of nearest recorded frame]
        self.spans = []
        self.jobs = []  # (job id, job name, stats) in run order
        self.stats = {}  # stats of the current job: key -> [calls, self_ns, total_ns]
        self.counts = {}  # extra counters of the current job: key -> number
        self.census = []  # (adjacency, source, k, paths found) per census call
        self.job = None
        self._next_span = 0

    # -- bookkeeping ---------------------------------------------------------

    def begin_job(self, job_id, name):
        self.job = job_id
        self.stats = {}
        self.counts = {}
        self.jobs.append((job_id, name, self.stats, self.counts))

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _close(self, key, t0, frame):
        """Pop `frame`, charge it to its parent and to `key`; return end time."""
        t1 = perf_counter_ns()
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][0] += dur
        st = self.stats.get(key)
        if st is None:
            self.stats[key] = [1, dur - frame[0], dur]
        else:
            st[0] += 1
            st[1] += dur - frame[0]
            st[2] += dur
        return t1

    # -- wrappers --------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span and charges `name`."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0, span_id]
            stack.append(frame)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = tracer._close(name, t0, frame)
                tracer.spans.append(
                    (span_id, name, t0, t1, parent, tracer.job, t1 - t0 - frame[0])
                )
                if after is not None:
                    after(tracer, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, key_of, fn):
        """Wrap a hot callable: totals per key, no span record.

        `key_of(args, result)` names the bucket the call is charged to.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = [0, stack[-1][1] if stack else None]
            stack.append(frame)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(key_of(args, result), t0, frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap a predicate called too often to time: count calls and hits."""
        tracer = self
        calls, hits = name + ".calls", name + ".hits"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer.counts
            counts[calls] = counts.get(calls, 0) + 1
            if result:
                counts[hits] = counts.get(hits, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the root frame of one job -------------------------------------------

    def run_root(self, main, argv):
        """Call the CLI entry point as the root span of the current job."""
        return self.span("cli.main", main)(argv)

    # -- output ------------------------------------------------------------------

    def write(self, path, header):
        doc = dict(header)
        doc["clock"] = "perf_counter_ns"
        doc["spans"] = [
            {
                "id": s[0],
                "name": s[1],
                "start_ns": s[2],
                "end_ns": s[3],
                "parent": s[4],
                "job": s[5],
                "self_ns": s[6],
            }
            for s in self.spans
        ]
        doc["jobs"] = [
            {
                "job": job_id,
                "name": name,
                "self_ns": {_key_name(k): v[1] for k, v in stats.items()},
                "calls": {_key_name(k): v[0] for k, v in stats.items()},
                "counts": dict(counts),
            }
            for job_id, name, stats, counts in self.jobs
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _key_name(key):
    if isinstance(key, tuple):
        return f"{key[0]}.n{key[1]}"
    return key


# ---------------------------------------------------------------------------
# installation on a fresh import of the package
# ---------------------------------------------------------------------------

def _kernel_key(op):
    names = {}

    def key_of(args, result):
        # the bucket is the conductor the operation produced (mul, lift,
        # conj) or read (hash); operands of other conductors are lifted first
        obj = result if op != "hash" else args[0]
        cond = getattr(obj, "conductor", None)
        key = names.get(cond)
        if key is None:
            key = names[cond] = (f"cyclotomic.{op}", cond)
        return key

    return key_of


def _const_key(name):
    return lambda args, result: name


def _after_classify(tracer, args, result):
    if result is not None:
        tracer.count("cyclotomic.classify_rational_angle.forms")


def _after_build_graph(tracer, args, result):
    n = len(args[0].points)
    tracer.count("distgraph.build_graph.pairs", n * (n - 1) // 2)
    tracer.count("distgraph.build_graph.edges", len(result.edges) if result else 0)


def _after_census(tracer, args, result):
    if result is None:
        return
    g, source, k = args[0], args[1], args[2]
    paths = sum(result.values())
    tracer.count("distgraph.census.paths", paths)
    tracer.census.append((g.adjacency, source, k, paths))


def _after_io(name):
    def after(tracer, args, result):
        try:
            size = os.path.getsize(args[0])
        except OSError:
            return
        tracer.count(f"{name}.bytes", size)

    return after


def install(tracer, lab):
    """Patch the entry points of the freshly imported package `lab`.

    Names a later version of the program no longer has are skipped; their
    metrics then read zero.
    """
    cyc, geo, pts, dg, mann, ser = (
        lab.cyclotomic, lab.geometry, lab.pointsets, lab.distgraph, lab.mann, lab.serialize
    )

    def patch(owner, attr, make):
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, make(fn))

    cls = getattr(cyc, "CycNum", None)
    if cls is not None:
        mul = cls.__dict__.get("__mul__")
        if mul is not None:
            wrapped = tracer.leaf(_kernel_key("mul"), mul)
            cls.__mul__ = wrapped
            if cls.__dict__.get("__rmul__") is mul:
                cls.__rmul__ = wrapped
        for op, attr in (("conj", "conj"), ("hash", "__hash__"), ("lift", "lift")):
            patch(cls, attr, lambda fn, op=op: tracer.leaf(_kernel_key(op), fn))

    classify = getattr(cyc, "classify_rational_angle", None)
    if classify is not None:
        wrapped = tracer.span("cyclotomic.classify_rational_angle", classify, _after_classify)
        for owner in (cyc, dg):
            if getattr(owner, "classify_rational_angle", None) is classify:
                owner.classify_rational_angle = wrapped

    for name in ("cross_matrix", "translated_union_matrix", "first_collinear_triple"):
        patch(geo, name, lambda fn, name=name: tracer.span(f"geometry.{name}", fn))
    patch(geo, "collinear", lambda fn: tracer.leaf(_const_key("geometry.collinear"), fn))

    for name in ("erdos_purdy", "parallel_lines", "square_grid"):
        patch(pts, name, lambda fn, name=name: tracer.span(f"pointsets.{name}", fn))

    patch(dg, "build_graph", lambda fn: tracer.span("distgraph.build_graph", fn, _after_build_graph))
    for name in ("analyze", "max_points_on_line", "noncollinear_two_path_stats"):
        patch(dg, name, lambda fn, name=name: tracer.span(f"distgraph.{name}", fn))
    patch(
        dg,
        "irredundant_path_census",
        lambda fn: tracer.span("distgraph.irredundant_path_census", fn, _after_census),
    )

    tracker = getattr(mann, "SubsetSumTracker", None)
    if tracker is not None:
        for name in ("push", "pop"):
            key = f"mann.SubsetSumTracker.{name}"
            patch(tracker, name, lambda fn, key=key: tracer.leaf(_const_key(key), fn))
        patch(tracker, "conflicts", lambda fn: tracer.counter("mann.SubsetSumTracker.conflicts", fn))
    for name in ("enumerate_minimal_vanishing_sums", "enumerate_target_relations", "certify_mann"):
        patch(mann, name, lambda fn, name=name: tracer.span(f"mann.{name}", fn))

    # every loader reads through one of these and every saver writes
    # through save_json, which cmd_paths also calls directly
    for name in ("load_pointset", "load_report", "load_relations"):
        patch(ser, name, lambda fn: tracer.span("serialize.load", fn, _after_io("serialize.load")))
    patch(ser, "save_json", lambda fn: tracer.span("serialize.save", fn, _after_io("serialize.save")))


def record_cache_entries(tracer):
    """Store the entries held by cyclolab's lru caches for the current job."""
    caches = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "cyclolab" or mod_name.startswith("cyclolab.")):
            for obj in vars(mod).values():
                # re-exported functions appear in several namespaces
                if callable(getattr(obj, "cache_info", None)):
                    caches[id(obj)] = obj
    tracer.counts[CACHE_KEY] = sum(f.cache_info().currsize for f in caches.values())


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _walks(adjacency, k):
    """Number of k-step walks starting at each vertex."""
    w = [1] * len(adjacency)
    for _ in range(k):
        w = [sum(w[u] for u in nbrs) for nbrs in adjacency]
    return w


def layer_metrics(tracer, passes, untraced_wall, traced_wall):
    """Per-layer figures per pass of the job list: name -> (value, unit)."""
    calls, self_ns, total_ns, counts = {}, {}, {}, {}
    for _, _, stats, job_counts in tracer.jobs:
        for key, (c, s, t) in stats.items():
            name = _key_name(key)
            calls[name] = calls.get(name, 0) + c
            self_ns[name] = self_ns.get(name, 0) + s
            total_ns[name] = total_ns.get(name, 0) + t
        for key, v in job_counts.items():
            counts[key] = counts.get(key, 0) + v
    # a fresh import starts every job with empty caches, so the largest
    # fill of one job is the figure a CLI invocation sees
    cache_fill = max((c.get(CACHE_KEY, 0) for _, _, _, c in tracer.jobs), default=0)

    def per_pass(x):
        return x / passes

    def seconds(table, name):
        return per_pass(table.get(name, 0)) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for op in KERNEL_OPS:
        for cond in CONDUCTORS:
            name = f"cyclotomic.{op}.n{cond}"
            out[f"{name}.calls"] = (per_pass(calls.get(name, 0)), "count")
            out[f"{name}.self_s"] = (seconds(self_ns, name), "s")

    name = "cyclotomic.classify_rational_angle"
    out[f"{name}.calls"] = (per_pass(calls.get(name, 0)), "count")
    out[f"{name}.self_s"] = (seconds(self_ns, name), "s")
    out[f"{name}.hit_ratio"] = (ratio(counts.get(f"{name}.forms", 0), calls.get(name, 0)), "ratio")
    out["cyclotomic.cache_entries"] = (cache_fill, "count")

    out["geometry.cross_matrix.calls"] = (per_pass(calls.get("geometry.cross_matrix", 0)), "count")
    out["geometry.cross_matrix.self_s"] = (seconds(self_ns, "geometry.cross_matrix"), "s")
    for name in ("translated_union_matrix", "first_collinear_triple"):
        out[f"geometry.{name}.self_s"] = (seconds(self_ns, f"geometry.{name}"), "s")
    out["geometry.collinear.calls"] = (per_pass(calls.get("geometry.collinear", 0)), "count")
    out["geometry.collinear.self_s"] = (seconds(self_ns, "geometry.collinear"), "s")

    for name in ("erdos_purdy", "parallel_lines", "square_grid"):
        out[f"pointsets.{name}.self_s"] = (seconds(self_ns, f"pointsets.{name}"), "s")
        out[f"pointsets.{name}.total_s"] = (seconds(total_ns, f"pointsets.{name}"), "s")

    out["distgraph.build_graph.self_s"] = (seconds(self_ns, "distgraph.build_graph"), "s")
    out["distgraph.build_graph.pairs"] = (per_pass(counts.get("distgraph.build_graph.pairs", 0)), "count")
    out["distgraph.build_graph.edges"] = (per_pass(counts.get("distgraph.build_graph.edges", 0)), "count")
    for name in ("analyze", "max_points_on_line", "noncollinear_two_path_stats"):
        out[f"distgraph.{name}.self_s"] = (seconds(self_ns, f"distgraph.{name}"), "s")
    name = "distgraph.irredundant_path_census"
    out[f"{name}.calls"] = (per_pass(calls.get(name, 0)), "count")
    out[f"{name}.self_s"] = (seconds(self_ns, name), "s")
    paths = sum(c[3] for c in tracer.census)
    walks = 0
    walk_tables = {}
    for adjacency, source, k, _ in tracer.census:
        table = walk_tables.get((id(adjacency), k))
        if table is None:
            table = walk_tables[(id(adjacency), k)] = _walks(adjacency, k)
        walks += table[source]
    out["distgraph.census.paths"] = (per_pass(paths), "count")
    out["distgraph.census.yield"] = (ratio(paths, walks), "ratio")

    for name in ("push", "pop"):
        key = f"mann.SubsetSumTracker.{name}"
        out[f"{key}.calls"] = (per_pass(calls.get(key, 0)), "count")
        out[f"{key}.self_s"] = (seconds(self_ns, key), "s")
    checks = counts.get("mann.SubsetSumTracker.conflicts.calls", 0)
    out["mann.SubsetSumTracker.conflicts.calls"] = (per_pass(checks), "count")
    out["mann.tracker.prune_ratio"] = (
        ratio(counts.get("mann.SubsetSumTracker.conflicts.hits", 0), checks),
        "ratio",
    )
    for name in ("enumerate_minimal_vanishing_sums", "enumerate_target_relations", "certify_mann"):
        out[f"mann.{name}.calls"] = (per_pass(calls.get(f"mann.{name}", 0)), "count")
        out[f"mann.{name}.self_s"] = (seconds(self_ns, f"mann.{name}"), "s")

    for name in ("load", "save"):
        out[f"serialize.{name}.self_s"] = (seconds(self_ns, f"serialize.{name}"), "s")
        out[f"serialize.{name}.bytes"] = (per_pass(counts.get(f"serialize.{name}.bytes", 0)), "bytes")

    out["cli.main.self_s"] = (seconds(self_ns, "cli.main"), "s")
    out["trace.overhead_ratio"] = (ratio(traced_wall, untraced_wall), "ratio")
    return out

