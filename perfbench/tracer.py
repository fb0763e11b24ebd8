"""Outside-in tracer for the quiver_atlas library.

The tracer records one span per call of each public function of the traced
modules, without touching the library's source: every module of the package
that binds such a function (``from .canonical import canonical_key`` copies
the binding into ``explore``) has that name replaced by a wrapper for the
duration of a ``with Tracer():`` block.  Private helpers are never wrapped,
so their time counts as the self time of the public function that called
them.

Spans are kept in memory as ``(id, parent id, name, start, end)`` and turned
into per-layer metrics by :func:`layer_metrics`.  A layer is a module; its
self time is the time spent in its spans minus the time of their child
spans, so the self times of all layers plus the uncovered time of the
benchmark's own loop add up to the traced wall time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "quiver_atlas"

# Modules whose public functions are wrapped; each is one layer.
LAYERS = (
    "matrix",
    "canonical",
    "explore",
    "cache",
    "correspondence",
    "tiling",
    "verify",
)

# The matrix layer's public interface is the methods of ExchangeMatrix.
MATRIX_METHODS = (
    "mutate",
    "mutate_sequence",
    "max_weight",
    "permuted",
    "components",
    "is_connected",
    "serialize",
    "to_dot",
)


def _module(layer):
    # importlib, not ``import quiver_atlas.explore as m``: the package
    # re-exports a function named ``explore`` that shadows the submodule.
    return importlib.import_module(f"{PACKAGE}.{layer}")


def _public_functions(layer):
    mod = _module(layer)
    for name, obj in vars(mod).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(obj)
        ):
            yield name, obj


def _notes():
    """Per-function extractors of what a span's result says.

    Each takes the returned value, or the raised exception, and returns a
    small value kept with the span (results themselves are not kept alive).
    """

    def on_success(note):
        return lambda result: None if isinstance(result, Exception) else note(result)

    @on_success
    def key_bytes(result):
        key = result[0] if isinstance(result, tuple) else result
        return len(key.data)

    @on_success
    def explore_note(report):
        witness = report.infinite_witness
        return (
            report.class_size or 0,
            len(witness) if witness is not None else -1,
            report.classification.value,
        )

    corrupt = _module("cache").CacheCorrupt

    def load_note(result):
        if isinstance(result, corrupt):
            return "corrupt"
        return "miss" if result is None else "hit"

    return {
        "canonical.canonical_form": key_bytes,
        "canonical.canonical_key": key_bytes,
        "explore.explore": explore_note,
        "cache.load_report": load_note,
        "cache.store_report": on_success(str),
    }


class Tracer:
    """Context manager that wraps the library's public functions."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.notes: dict[int, object] = {}
        self._stack = [0]  # 0 is the benchmark's own loop
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, notes, stack, ids = self.spans, self.notes, self._stack, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            outcome = None
            t0 = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
                if note is not None:
                    notes[sid] = note(outcome)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        notes = _notes()
        matrix_cls = _module("matrix").ExchangeMatrix
        for method in MATRIX_METHODS:
            name = f"matrix.{method}"
            fn = vars(matrix_cls)[method]
            self._patch(matrix_cls, method, self._wrap(name, fn, notes.get(name)))
        originals = {}
        for layer in LAYERS:
            for fname, fn in _public_functions(layer):
                name = f"{layer}.{fname}"
                originals[id(fn)] = self._wrap(name, fn, notes.get(name))
        # Rebind every copy of each binding, in every module of the package.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (
                modname == PACKAGE or modname.startswith(PACKAGE + ".")
            ):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def dump(self, path, env):
        """Write the spans, with the run's environment, as gzipped JSON."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(
                {
                    "env": env,
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "names": names,
                    "spans": [
                        [sid, parent, index[name], t0, t1]
                        for sid, parent, name, t0, t1 in self.spans
                    ],
                },
                f,
                separators=(",", ":"),
            )


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if "_us_" in name:
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("witness_len"):
        return "mutations"
    return "count"


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass of ``wall_s``."""
    spans, notes = tracer.spans, tracer.notes
    name_of = {sid: name for sid, _, name, _, _ in spans}
    child_s = defaultdict(float)
    for _, parent, _, t0, t1 in spans:
        child_s[parent] += t1 - t0
    self_s = defaultdict(float)  # by function name and by layer
    calls = defaultdict(int)
    for sid, _, name, t0, t1 in spans:
        own = t1 - t0 - child_s[sid]
        self_s[name] += own
        self_s[name.split(".")[0]] += own
        calls[name] += 1

    def layer_of(sid):
        return name_of[sid].split(".")[0] if sid else "bench"

    # A layer is entered when its span's parent lies in another layer, so
    # canonical_key -> canonical_form counts as one canonical call.
    canon_us, canon_bytes = [], []
    canon_from_explore = 0
    mutate_children = defaultdict(list)
    first_canon = {}
    m = {}
    for sid, parent, name, t0, t1 in spans:
        layer = name.split(".")[0]
        if layer == "canonical" and layer_of(parent) != "canonical":
            canon_us.append((t1 - t0) * 1e6)
            if notes.get(sid) is not None:
                canon_bytes.append(notes[sid])
            if parent and name_of[parent] == "explore.explore":
                canon_from_explore += 1
                first_canon[parent] = min(first_canon.get(parent, t0), t0)
        if name == "matrix.mutate" and parent and name_of[parent] == "explore.explore":
            mutate_children[parent].append(t0)

    members = witness_total = witnesses = inconclusive = probe = 0
    for sid, _, name, _, _ in spans:
        if name != "explore.explore" or notes.get(sid) is None:
            continue
        size, wlen, classification = notes[sid]
        members += size
        if wlen > 0:
            witnesses += 1
            witness_total += wlen
        inconclusive += classification == "inconclusive"
        # The probe runs before explore's first canonical call; when it
        # finds the witness, explore replays it with wlen more mutations.
        cut = first_canon.get(sid, float("inf"))
        before = sum(1 for t in mutate_children[sid] if t < cut)
        if sid not in first_canon and wlen > 0:
            before -= wlen
        probe += before

    loads = [notes[s[0]] for s in spans if s[2] == "cache.load_report"]
    stored = {notes[s[0]] for s in spans if s[2] == "cache.store_report"}
    stored.discard(None)
    layer_self = sum(self_s[layer] for layer in LAYERS)

    m["trace.pass_s"] = wall_s
    m["trace.spans"] = len(spans)
    m["trace.bench_self_s"] = wall_s - layer_self
    m["canonical.calls"] = len(canon_us)
    m["canonical.self_s"] = self_s["canonical"]
    m["canonical.call_us_p50"] = _percentile(canon_us, 50)
    m["canonical.call_us_p99"] = _percentile(canon_us, 99)
    m["canonical.key_bytes_mean"] = (
        statistics.fmean(canon_bytes) if canon_bytes else 0.0
    )
    m["matrix.self_s"] = self_s["matrix"]
    for method in ("mutate", "max_weight", "components"):
        m[f"matrix.{method}.calls"] = calls[f"matrix.{method}"]
        m[f"matrix.{method}.self_s"] = self_s[f"matrix.{method}"]
    m["explore.calls"] = calls["explore.explore"]
    m["explore.self_s"] = self_s["explore"]
    m["explore.members"] = members
    m["explore.probe_examined"] = probe
    m["explore.witness_len"] = witness_total / witnesses if witnesses else 0.0
    m["explore.dedup_ratio"] = (
        members / canon_from_explore if canon_from_explore else 0.0
    )
    m["explore.inconclusive"] = inconclusive
    m["cache.self_s"] = self_s["cache"]
    m["cache.load.calls"] = len(loads)
    m["cache.load.hits"] = loads.count("hit")
    m["cache.load.misses"] = loads.count("miss")
    m["cache.load.corrupt"] = loads.count("corrupt")
    m["cache.load.self_s"] = self_s["cache.load_report"]
    m["cache.store.calls"] = calls["cache.store_report"]
    m["cache.store.self_s"] = self_s["cache.store_report"]
    m["cache.bytes_stored"] = sum(os.path.getsize(p) for p in stored)
    m["tiling.self_s"] = self_s["tiling"]
    for fname in ("tiling_report", "gram_signature"):
        m[f"tiling.{fname}.calls"] = calls[f"tiling.{fname}"]
        m[f"tiling.{fname}.self_s"] = self_s[f"tiling.{fname}"]
    m["correspondence.self_s"] = self_s["correspondence"]
    m["correspondence.classify_cell.self_s"] = self_s["correspondence.classify_cell"]
    m["verify.self_s"] = self_s["verify"]
    m["verify.compute_grid_s"] = math.fsum(
        t1 - t0 for _, _, name, t0, t1 in spans if name == "verify.compute_grid"
    )
    m["verify.checks_s"] = math.fsum(
        t1 - t0
        for _, _, name, t0, t1 in spans
        if name.startswith("verify.check_")
    )
    return m
