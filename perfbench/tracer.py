"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: each public function of
the `rauzy` package named in TARGETS is replaced, for the length of a traced
run, by a wrapper that opens a span around the call.  The wrapper is set
everywhere callers look the function up (the defining module and every
`rauzy` module that imported the name).  `scipy.spatial.cKDTree` is
replaced by a traced subclass from the moment scipy.spatial loads, hooked in
before `rauzy` is imported, so an eager or a lazy import inside the package
finds it.  `uninstall` puts every original back.

A span carries a name, start, end, parent and op id.  A layer's busy time is
its self time: the span's duration minus the durations of its direct child
spans (children of one span never overlap, the run being single-threaded).
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.util
import json
import os
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a top-level span
    op: int  # op id; -1 for set-up


class Tracer:
    """Spans and work counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._replacements: list[tuple[object, object]] = []
        self._hook: _AfterImport | None = None
        self.last_step_id: int | None = None  # the latest GIFS step's output

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__bench_traced__ = True
        return traced

    # -- installing --------------------------------------------------------

    def install_kdtree(self) -> None:
        """Trace scipy.spatial.cKDTree through a subclass.  Call before
        importing rauzy.  If scipy.spatial is not loaded yet, the subclass
        goes in right after it loads, so its import cost stays wherever the
        package pays it and a lazy import inside the package finds it too."""
        if "scipy.spatial" in sys.modules:
            self._patch_spatial(sys.modules["scipy.spatial"])
        else:
            self._hook = _AfterImport("scipy.spatial", self._patch_spatial)
            sys.meta_path.insert(0, self._hook)

    def _patch_spatial(self, spatial) -> None:
        base = spatial.cKDTree
        tracer = self

        class TracedKDTree(base):
            __bench_traced__ = True

            def __init__(self, data, *args, **kwargs):
                idx = tracer.begin("kdtree.build")
                try:
                    super().__init__(data, *args, **kwargs)
                finally:
                    tracer.end(idx)
                tracer.add("kdtree.build.points", self.n)

            def query(self, x, *args, **kwargs):
                idx = tracer.begin("kdtree.query")
                try:
                    result = super().query(x, *args, **kwargs)
                finally:
                    tracer.end(idx)
                shape = getattr(x, "shape", None)
                n = shape[0] if shape and len(shape) > 1 else 1
                tracer.add("kdtree.query.points", n)
                if tracer.parent_name() == "fractal.coverage_estimate":
                    tracer.add("fractal.coverage_estimate.query_points", n)
                return result

        self._setattr(spatial, "cKDTree", TracedKDTree)
        self._rebind(base, TracedKDTree)

    def install_functions(self) -> list[str]:
        """Wrap every TARGETS function of the imported rauzy package where
        callers look it up.  Returns the targets that do not exist."""
        missing = []
        for module_name, qualname, count in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                missing.append(f"{module_name}.{qualname}")
                continue
            name = f"{module_name.split('.', 1)[1]}.{qualname}"
            wrapper = self.wrap(name, orig, count)
            if outer:
                self._setattr(owner, attr, wrapper)
            else:
                self._rebind(orig, wrapper)
        return missing

    def uninstall(self) -> None:
        if self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        # names bound by imports that ran while the wrappers were in place
        for mod in _rauzy_modules():
            for attr, value in list(vars(mod).items()):
                for replacement, orig in self._replacements:
                    if value is replacement:
                        setattr(mod, attr, orig)
        self._patched.clear()
        self._replacements.clear()

    def _setattr(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, orig, replacement) -> None:
        self._replacements.append((replacement, orig))
        for mod in _rauzy_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._setattr(mod, attr, replacement)

    # -- reading -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self time) per span name."""
        out: dict[str, tuple[int, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            calls, busy = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, busy + own)
        return out

    def first_duration(self, name: str) -> float:
        for span in self.spans:
            if span.name == name:
                return span.end - span.start
        return 0.0

    def dump(self, path: str) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        with open(path, "w", encoding="ascii") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, f)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def leftovers() -> list[str]:
    """Traced objects still reachable from rauzy modules or scipy.spatial."""
    found = []
    mods = list(_rauzy_modules())
    if "scipy.spatial" in sys.modules:
        mods.append(sys.modules["scipy.spatial"])
    for mod in mods:
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if getattr(value, "__bench_traced__", False):
                    found.append(f"{mod.__name__}.{attr}")
    return found


class _AfterImport(importlib.abc.MetaPathFinder):
    """One-shot import hook: runs patch(module) right after the named
    module's code has run."""

    def __init__(self, name: str, patch) -> None:
        self.name = name
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def _rauzy_modules():
    return [m for n, m in list(sys.modules.items()) if n == "rauzy" or n.startswith("rauzy.")]


# ---------------------------------------------------------------------------
# work counters, one per wrapped function that has any


def _count_file_bytes(key: str, arg: int, kwarg: str):
    def count(tr, args, kwargs, result):
        path = args[arg] if len(args) > arg else kwargs[kwarg]
        tr.add(key, os.path.getsize(path))

    return count


def _count_len(key: str):
    def count(tr, args, kwargs, result):
        tr.add(key, len(result))

    return count


def _count_total(key: str):
    def count(tr, args, kwargs, result):
        tr.add(key, result.total())

    return count


def _count_pixels(tr, args, kwargs, result):
    width = args[1] if len(args) > 1 else kwargs["width"]
    height = args[2] if len(args) > 2 else kwargs["height"]
    tr.add("emit.render_ppm.pixels", width * height)


def _count_prefixes(tr, args, kwargs, result):
    tr.add("fractal.verify_all_prefix_identities.prefixes", result.checked)


def _count_gifs_step(tr, args, kwargs, result):
    # Thinning inside gifs_attractor shrinks a step's output in place, so a
    # step's input, when it is the previous step's output, is what was kept.
    tr.add("fractal.gifs_step.points_out", result.total())
    if tr.parent_name() == "fractal.gifs_attractor":
        source = args[2] if len(args) > 2 else kwargs["approx"]
        if id(source) == tr.last_step_id:
            tr.add("fractal.gifs_attractor.kept", source.total())
        tr.add("fractal.gifs_attractor.stepped", result.total())
        tr.last_step_id = id(result)


def _count_gifs_attractor(tr, args, kwargs, result):
    if id(result) == tr.last_step_id:
        tr.add("fractal.gifs_attractor.kept", result.total())
    tr.last_step_id = None


def _count_hausdorff(tr, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    tr.add("fractal.hausdorff.points_in", len(a) + len(b))


def _count_coverage(tr, args, kwargs, result):
    tr.add("fractal.coverage_estimate.grid_points", result.total)
    tr.add("fractal.coverage_estimate.covered", result.covered)


TARGETS = [
    ("rauzy.cli", "main", None),
    ("rauzy.spectral", "perron_data", None),
    ("rauzy.spectral", "require_unimodular_pisot", None),
    ("rauzy.spectral", "to_adapted", _count_len("spectral.to_adapted.points")),
    ("rauzy.emit", "write_points_csv", _count_file_bytes("emit.write_points_csv.bytes", 1, "path")),
    ("rauzy.emit", "read_points_csv", _count_file_bytes("emit.read_points_csv.bytes", 0, "path")),
    ("rauzy.emit", "render_ppm", _count_pixels),
    ("rauzy.fractal", "project_word", _count_total("fractal.project_word.points")),
    ("rauzy.fractal", "verify_all_prefix_identities", _count_prefixes),
    ("rauzy.fractal", "gifs_attractor", _count_gifs_attractor),
    ("rauzy.fractal", "gifs_step", _count_gifs_step),
    ("rauzy.fractal", "hausdorff", _count_hausdorff),
    ("rauzy.fractal", "coverage_estimate", _count_coverage),
    ("rauzy.adic", "limit_point_prefix", _count_len("adic.limit_point_prefix.letters_out")),
    ("rauzy.adic", "limit_letter_chains", None),
    ("rauzy.core", "Substitution.apply", _count_len("core.Substitution.apply.letters_out")),
]


def check_self_time_arithmetic() -> bool:
    """Self times on a synthetic tree: A [0,10] holds B [1,4] and C [5,9],
    and C holds D [6,8]; the self times are 3, 3, 2, 2 and sum to A's span."""
    spans = [
        Span("A", 0.0, 10.0, -1, 0),
        Span("B", 1.0, 4.0, 0, 0),
        Span("C", 5.0, 9.0, 0, 0),
        Span("D", 6.0, 8.0, 2, 0),
    ]
    own = self_times(spans)
    return own == [3.0, 3.0, 2.0, 2.0] and sum(own) == 10.0


def per_span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
