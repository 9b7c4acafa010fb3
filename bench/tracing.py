"""Per-layer tracing from outside the library.

The tracer replaces public functions at the names their callers look them up
under (``kreincalc.calculus.diagonalize``, ``EmbeddingBundle.compress``, ...)
with wrappers that record a span: name, start, end and parent. A layer's
self time is its spans' durations minus the parts their child spans cover.
Hot helpers (``match_point``, ``Jet.__mul__``, ``BiPoly.shifted``) only get
call counters, and work counts such as projection bytes are computed from
argument and result shapes, so the trace distorts the timing little.

A lookup site that a later tree has removed is skipped; a metric with no
site left is reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# metric stem -> the "module:attribute" sites its callers look it up under
SPANS = {
    "instances.parse_instance": (
        "kreincalc:parse_instance",
        "kreincalc.instances:parse_instance",
        "kreincalc.cli:parse_instance",
    ),
    "krein.validate": (
        "kreincalc.krein:KreinSpace.__init__",
        "kreincalc.krein:split_normal",
        "kreincalc.instances:split_normal",
        "kreincalc.krein:DefinitizablePair.validate",
    ),
    "embed.build_bundle": ("kreincalc.calculus:build_bundle",),
    "embed.gram_factor": ("kreincalc.embed:gram_factor",),
    "embed.verify_bundle": ("kreincalc.embed:verify_bundle",),
    "embed.compress": ("kreincalc.embed:EmbeddingBundle.compress",),
    "embed.expand": ("kreincalc.embed:EmbeddingBundle.expand",),
    "embed.part_from_full": ("kreincalc.embed:EmbeddingBundle.part_from_full",),
    "spectral.diagonalize": (
        "kreincalc.calculus:diagonalize",
        "kreincalc.suite:diagonalize",
    ),
    "spectral.augmented_integral": ("kreincalc.calculus:augmented_integral",),
    "spectral.spectral_integral": ("kreincalc.suite:spectral_integral",),
    "cluster.cluster_points": (
        "kreincalc.calculus:cluster_points",
        "kreincalc.spectral:cluster_points",
        "kreincalc.krein:cluster_points",
        "kreincalc.bipoly:cluster_points",
    ),
    "bipoly.zero_grid": ("kreincalc.bipoly:ZeroGrid.from_polys",),
    "bipoly.interpolate_jets": ("kreincalc.calculus:interpolate_jets",),
    "bipoly.jet_at": ("kreincalc.bipoly:BiPoly.jet_at",),
    "calculus.build": ("kreincalc.calculus:CalculusContext.build",),
    "calculus.apply": ("kreincalc.calculus:CalculusContext.apply",),
    "calculus.interpolant": ("kreincalc.calculus:CalculusContext.interpolant",),
    "calculus.remainder": ("kreincalc.calculus:CalculusContext.remainder",),
    "calculus.lift": ("kreincalc.calculus:CalculusContext.lift",),
    "calculus.polynomial_at_pair": ("kreincalc.calculus:CalculusContext.polynomial_at_pair",),
    # run_suite reads its property groups from kreincalc.suite.GROUPS, a tuple
    # of (name, function) pairs; Tracer wraps them inside that tuple
    "suite.embedding_properties": (),
    "suite.spectral_properties": (),
    "suite.calculus_properties": (),
    "cli.main": ("kreincalc.cli:main",),
}

COUNTERS = {
    "krein.verify_definitizing.calls": ("kreincalc.krein:verify_definitizing",),
    "cluster.match_point.calls": (
        "kreincalc.calculus:match_point",
        "kreincalc.spectral:match_point",
        "kreincalc.suite:match_point",
    ),
    "bipoly.shifted.calls": ("kreincalc.bipoly:BiPoly.shifted",),
    "jets.mul.calls": ("kreincalc.jets:Jet.__mul__",),
    "jets.inverse.calls": ("kreincalc.jets:Jet.inverse",),
}

# span stems whose call counts are metrics too
CALLS = (
    "embed.compress",
    "embed.expand",
    "spectral.diagonalize",
    "spectral.augmented_integral",
    "bipoly.interpolate_jets",
    "calculus.apply",
)


def _jet_size(jet):
    return jet.coeffs.size


# computed counts: span stem -> (metric, f(args, result)) read off shapes
COMPUTED = {
    "spectral.diagonalize": (
        "spectral.projection_bytes",
        lambda args, out: len(out.points) * out.dim**2 * 16,
    ),
    "cluster.cluster_points": (
        "cluster.pairs_compared",
        lambda args, out: len(args[0]) * (len(args[0]) - 1) // 2,
    ),
    "bipoly.interpolate_jets": (
        "bipoly.grid_unknowns",
        lambda args, out: args[1].total_a * args[1].total_b,
    ),
    "calculus.apply": (
        "calculus.coord_dim",
        lambda args, out: args[1].values.size
        + sum(map(_jet_size, args[1].crit_jets))
        + sum(map(_jet_size, args[1].zi_jets)),
    ),
}

# (metric name, unit) in report order; counts are per traced op except
# calculus.coord_dim, the mean coordinate dimension K of an applied function
METRICS = (
    [(f"{stem}.ms", "ms/op") for stem in SPANS]
    + [(f"{stem}.calls", "count/op") for stem in CALLS]
    + [(name, "count/op") for name in COUNTERS]
    + [
        ("spectral.projection_bytes", "B/op"),
        ("cluster.pairs_compared", "count/op"),
        ("bipoly.grid_unknowns", "count/op"),
        ("calculus.coord_dim", "count"),
    ]
)


def _resolve(site):
    """(owner, attribute, raw value) for a "module:Attr.attr" site, or None."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = vars(owner).get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Span and counter wrappers that can be installed and removed per op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.computed = Counter()
        self.computed_calls = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapped)
        self._uncomputable = set()
        present = set()
        for stem, sites in SPANS.items():
            for site in sites:
                if self._patch(site, self._span_wrapper(stem)):
                    present.add(f"{stem}.ms")
                    if stem in CALLS:
                        present.add(f"{stem}.calls")
                    if stem in COMPUTED:
                        present.add(COMPUTED[stem][0])
        for name, sites in COUNTERS.items():
            for site in sites:
                if self._patch(site, self._count_wrapper(name)):
                    present.add(name)
        self._present = present | self._patch_groups()

    def _patch(self, site, make_wrapper) -> bool:
        found = _resolve(site)
        if found is None or not callable(getattr(found[2], "__func__", found[2])):
            return False
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        self._patches.append((owner, attr, raw, wrapped))
        return True

    def _patch_groups(self) -> set:
        """Wrap the suite's property groups; returns the metrics present."""
        found = _resolve("kreincalc.suite:GROUPS")
        if found is None:
            return set()
        owner, attr, groups = found
        wrapped, present = [], set()
        for name, fn in groups:
            stem = f"suite.{getattr(fn, '__name__', '')}"
            if stem in SPANS:
                fn = self._span_wrapper(stem)(fn)
                present.add(f"{stem}.ms")
            wrapped.append((name, fn))
        self._patches.append((owner, attr, groups, tuple(wrapped)))
        return present

    def _span_wrapper(self, stem):
        spans, stack = self.spans, self._stack
        computed = COMPUTED.get(stem)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append([stem, perf_counter(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = perf_counter()
                if computed is not None:
                    self._compute(computed, args, out)
                return out

            return wrapper

        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _compute(self, computed, args, out):
        name, f = computed
        try:
            value = f(args, out)
        except (AttributeError, IndexError, TypeError):
            self._uncomputable.add(name)  # shapes this tree no longer exposes
            return
        self.computed[name] += value
        self.computed_calls[name] += 1

    @property
    def absent(self) -> list:
        """Metrics this tree gives no site or shape for; they read 0."""
        return [
            name for name, _ in METRICS
            if name not in self._present or name in self._uncomputable
        ]

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def per_op(self, ops: int) -> dict:
        """Every metric of METRICS averaged over ``ops`` traced ops."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[i]
        self_s, calls = Counter(), Counter()
        for i, (stem, _, _, _) in enumerate(self.spans):
            self_s[stem] += duration[i] - child[i]
            calls[stem] += 1
        values = {}
        for stem in SPANS:
            values[f"{stem}.ms"] = 1e3 * self_s[stem] / ops
        for stem in CALLS:
            values[f"{stem}.calls"] = calls[stem] / ops
        for name in COUNTERS:
            values[name] = self.counts[name] / ops
        for name, total in self.computed.items():
            if name == "calculus.coord_dim":
                values[name] = total / self.computed_calls[name]
            else:
                values[name] = total / ops
        return {name: values.get(name, 0.0) for name, _ in METRICS}
