"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions at the module attributes where
the program looks them up (and a few methods on their classes) with
wrappers that record a span per call; ``uninstall`` puts the originals back,
so untraced ops run the program untouched.  Spans are kept in memory, written
as JSONL when the run ends, and reduced to the per-layer metrics below.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): every lookup site of a traced function.
# ``ngg`` itself is listed where the benchmark calls the package-level name.
SPAN_SITES = [
    ("ngg.cli", "main", "cli.main"),
    ("ngg.cli", "run_experiment", "harness.run_experiment"),
    ("ngg.harness", "_one_replicate", "harness.replicate"),
    ("ngg.harness", "true_coefficients", "harness.true_coefficients"),
    ("ngg", "true_coefficients", "harness.true_coefficients"),
    ("ngg.harness", "sample_latent", "model.sample_latent"),
    ("ngg.harness", "generate_graph", "model.generate_graph"),
    ("ngg.model.GraphSample", "adjacency", "model.adjacency"),
    ("ngg.cli", "eigenvalues_symmetric", "spectral.eigenvalues_symmetric"),
    ("ngg.harness", "eigenvalues_symmetric", "spectral.eigenvalues_symmetric"),
    ("ngg.harness", "delta2", "spectral.delta2"),
    ("ngg.adapt", "delta2", "spectral.delta2"),
    ("ngg.adapt", "fit_resolution", "estimator.fit_resolution"),
    ("ngg.cli", "fit_all_resolutions", "adapt.fit_all_resolutions"),
    ("ngg.harness", "fit_all_resolutions", "adapt.fit_all_resolutions"),
    ("ngg", "fit_all_resolutions", "adapt.fit_all_resolutions"),
    ("ngg.cli", "select_resolution", "adapt.select_resolution"),
    ("ngg.harness", "select_resolution", "adapt.select_resolution"),
    ("ngg", "select_resolution", "adapt.select_resolution"),
    ("ngg.cli", "read_edge_list", "edgelist.read_edge_list"),
    ("ngg.edgelist.EdgeListData", "adjacency", "edgelist.adjacency"),
    ("ngg.cli", "harmonic_basis", "spaces.harmonic_basis"),
    ("ngg.harness", "harmonic_basis", "spaces.harmonic_basis"),
    ("ngg", "harmonic_basis", "spaces.harmonic_basis"),
    ("ngg.harness", "envelope_coefficients", "spaces.envelope_coefficients"),
    ("ngg.cli", "write_json", "reports.write_json"),
    ("ngg.harness", "write_json", "reports.write_json"),
    ("ngg.harness", "write_csv", "reports.write_csv"),
]
# Per-call counters, too frequent for spans.
COUNT_SITES = [
    ("ngg.estimator", "score_ordering", "estimator.score_ordering.calls"),
    ("ngg.model.Envelope", "__call__", "model.envelope_calls"),
]
_INSIDE = {"model.envelope_calls": "model.generate_graph"}  # count only inside


def _attrs(name, args, kwargs, out) -> dict:
    """Sizes recorded with a span, from its arguments or result."""
    if name == "model.generate_graph":
        return {"n": int(args[0].n)}
    if name == "spectral.eigenvalues_symmetric":
        return {"n": int(np.shape(args[0])[0])}
    if name == "estimator.fit_resolution":
        return {"r": int(args[2] if len(args) > 2 else kwargs["r"])}
    if name == "edgelist.read_edge_list":
        return {"edges": len(out.edges), "bytes": os.path.getsize(args[0])}
    return {}


def _resolve(ngg, dotted):
    obj = ngg
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(int)
        self.op = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list = []

    @contextlib.contextmanager
    def span(self, name):
        """Parent is the innermost open span of this thread, or for a worker
        thread with none open, the innermost open span of the driver thread."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        home = stack or self._stacks.get(self._main) or [(None, None)]
        parent = home[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({"id": sid, "parent": parent, "name": name, "op": self.op,
                               "thread": threading.get_ident(), "start": start, "end": end,
                               **attrs})

    def count(self, key):
        inside = _INSIDE.get(key)
        if inside:
            stack = self._stacks.get(threading.get_ident())
            if not stack or stack[-1][1] != inside:
                return
        with self._lock:
            self.counts[(self.op, key)] += 1

    def _spanned(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                attrs.update(_attrs(name, args, kwargs, out))
                return out
        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def install(self, ngg):
        """Wrap every site that exists; a site a later program version removed
        is skipped and its metrics read 0."""
        for sites, wrap in ((SPAN_SITES, self._spanned), (COUNT_SITES, self._counted)):
            for owner_path, attr, name in sites:
                owner = _resolve(ngg, owner_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced_op(self, ngg, op_id):
        self.op = op_id
        self.install(ngg)
        try:
            with self.span("op"):
                yield
        finally:
            self.uninstall()
            self.op = None

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")
            for (op, key), value in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"counter": key, "op": op, "value": value}) + "\n")


def nesting_errors(spans) -> list[str]:
    """Every non-root span has a parent in the same op whose interval holds it."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["parent"] is None:
            if s["name"] != "op":
                errors.append(f"span {s['id']} {s['name']} has no parent")
            continue
        p = by_id.get(s["parent"])
        if p is None or p["op"] != s["op"]:
            errors.append(f"span {s['id']} {s['name']}: parent missing or in another op")
        elif not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            errors.append(f"span {s['id']} {s['name']} lies outside parent {p['name']}")
    return errors


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus the union of the
    intervals its children cover (children on worker threads may overlap)."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, traced_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: ``.s`` is the mean inclusive seconds per call, a
    count is per call of its layer's main function unless stated, and a
    layer the workload does not reach reads 0."""
    by = defaultdict(list)
    for s in tracer.spans:
        by[s["name"]].append(s)

    def secs(name, keep=lambda s: True):
        return _mean([s["end"] - s["start"] for s in by[name] if keep(s)]), "s"

    def total(key):
        return sum(v for (op, k), v in tracer.counts.items() if k == key and op != "setup")

    graphs = by["model.generate_graph"]
    eigs = by["spectral.eigenvalues_symmetric"]
    reads = by["edgelist.read_edge_list"]
    reps_by_op = defaultdict(list)
    for s in by["harness.replicate"]:
        reps_by_op[s["op"]].append(s)
    threads = {op: len({s["thread"] for s in reps}) for op, reps in reps_by_op.items()}
    busy_den = sum((s["end"] - s["start"]) * threads.get(s["op"], 0)
                   for s in by["harness.run_experiment"])
    busy_num = sum(s["end"] - s["start"] for reps in reps_by_op.values() for s in reps)

    m = {
        "model.generate_graph.s": secs("model.generate_graph"),
        "model.envelope_calls": (total("model.envelope_calls") / len(graphs) if graphs else 0.0,
                                 "count"),
        "model.pairs": (_mean([s["n"] * (s["n"] - 1) / 2 for s in graphs]), "count"),
        "model.adjacency.s": secs("model.adjacency"),
        "model.sample_latent.s": secs("model.sample_latent"),
        "spectral.eigenvalues_symmetric.s": secs("spectral.eigenvalues_symmetric"),
        "spectral.eig_n": (_mean([s["n"] for s in eigs]), "count"),
        "spectral.input_mb": (_mean([8 * s["n"] ** 2 / 1e6 for s in eigs]), "MB"),
        "spectral.delta2.s": secs("spectral.delta2"),
    }
    for r in range(1, 7):
        m[f"estimator.fit_resolution.r{r}.s"] = secs("estimator.fit_resolution",
                                                     lambda s, r=r: s["r"] == r)
    m.update({
        "estimator.score_ordering.calls": (total("estimator.score_ordering.calls")
                                           / max(traced_ops, 1), "count"),
        "adapt.fit_all_resolutions.s": secs("adapt.fit_all_resolutions"),
        "adapt.select_resolution.s": secs("adapt.select_resolution"),
        "harness.run_experiment.s": secs("harness.run_experiment"),
        "harness.true_coefficients.s": secs("harness.true_coefficients"),
        "harness.threads": (float(max(threads.values(), default=0)), "count"),
        "harness.busy_ratio": (busy_num / busy_den if busy_den else 0.0, "ratio"),
        "edgelist.read_edge_list.s": secs("edgelist.read_edge_list"),
        "edgelist.adjacency.s": secs("edgelist.adjacency"),
        "edgelist.edges": (_mean([s["edges"] for s in reads]), "count"),
        "edgelist.input_mb": (_mean([s["bytes"] / 1e6 for s in reads]), "MB"),
        "spaces.harmonic_basis.s": secs("spaces.harmonic_basis"),
        "spaces.envelope_coefficients.s": secs("spaces.envelope_coefficients"),
        "reports.write_json.s": secs("reports.write_json"),
        "reports.write_csv.s": secs("reports.write_csv"),
        "cli.main.s": secs("cli.main"),
    })
    return m
