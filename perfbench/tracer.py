"""In-memory spans and counters around radialma's public calls.

The tracer lives entirely in the benchmark: ``install`` rebinds the
public functions and methods named in ``LAYERS`` in every loaded
``radialma`` module namespace (and on their classes), so calls made from
inside the package are seen too.  Every wrapped call opens a span; a
span's self time is its duration minus the time covered by its child
spans.  ``uninstall`` restores the original objects, so untraced passes
run the package unmodified.

Per-point methods (``value``, ``right_slope``) run about a microsecond
each and even a counting wrapper would double their cost, so they are
not wrapped: the benchmark opens one ``profiles.eval.batch`` span around
each of its own evaluation loops and counts the points it evaluates.
Per-point calls made inside the package are timed as part of their
caller's span.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# metric layer -> (package layer for the error count, targets).  A
# target is "module:qualname"; a dotted qualname is a class attribute.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "profiles.construct": ("profiles", (
        "radialma.profiles:ConvexProfile.truncate",
        "radialma.profiles:ConvexProfile.shift",
        "radialma.profiles:ConvexProfile.max_with_affine",
        "radialma.profiles:make_profile",
        "radialma.profiles:make_compact",
    )),
    "profiles.eval": ("profiles", (
        "radialma.profiles:ConvexProfile.values",
    )),
    "profiles.sets": ("profiles", (
        "radialma.profiles:ConvexProfile.sublevel",
        "radialma.profiles:ConvexProfile.level_set",
    )),
    "measures.ma_measure": ("measures", ("radialma.measures:ma_measure",)),
    "measures.pairing": ("measures", (
        "radialma.measures:RadialMeasure.mass_on",
        "radialma.measures:RadialMeasure.integrate",
        "radialma.measures:RadialMeasure.restrict",
        "radialma.measures:distribution_function",
    )),
    "measures.nonpolar_part": ("measures", ("radialma.measures:nonpolar_part",)),
    "capacity.extremal": ("capacity", (
        "radialma.capacity:extremal_profile",
        "radialma.capacity:extremal",
        "radialma.capacity:capacity",
    )),
    "capacity.condition": ("capacity", (
        "radialma.capacity:condition_sublevel",
        "radialma.capacity:condition_level",
    )),
    "series.build": ("series", ("radialma.series:build_series",)),
    "convergence.harness": ("convergence", (
        "radialma.convergence:truncation_analysis",
        "radialma.convergence:weak_convergence_test",
        "radialma.convergence:setwise_gap",
        "radialma.convergence:maximality_check",
        "radialma.convergence:ma_domain_membership",
        "radialma.convergence:cegrell_f_diagnostic",
        "radialma.convergence:generalized_condition",
    )),
    "convergence.check_decreasing": ("convergence", (
        "radialma.convergence:check_decreasing",
    )),
    "oracle.solve": ("oracle", (
        "radialma.oracle:oracle_capacity",
        "radialma.oracle:relaxation_envelope",
    )),
    "oracle.fd": ("oracle", ("radialma.oracle:fd_riesz_measure",)),
    "families.generate": ("families", (
        "radialma.families:log_profile",
        "radialma.families:max_const_profile",
        "radialma.families:constant_profile",
        "radialma.families:linear_cap_profile",
        "radialma.families:sample_analytic",
        "radialma.families:power_tail_profile",
        "radialma.families:standard_exhaustion",
        "radialma.families:random_compact",
        "radialma.families:random_profile",
        "radialma.families:default_battery",
        "radialma.families:punctured_battery",
        "radialma.convergence:random_decreasing_sequence",
    )),
    "cli.main": ("cli", ("radialma.cli:main",)),
}

PACKAGE_LAYERS = ("profiles", "measures", "capacity", "series", "convergence",
                  "oracle", "families", "cli")

TRUNCATE = "radialma.profiles:ConvexProfile.truncate"
NONPOLAR = "radialma.measures:nonpolar_part"
ORACLE_SOLVES = ("radialma.oracle:oracle_capacity", "radialma.oracle:relaxation_envelope")
GRID_FROM_BOUNDS = "radialma.oracle:Grid1D.from_bounds"


class Tracer:
    """Nested spans and counters, kept in memory until ``sidecar``."""

    def __init__(self, span_cap: int = 50_000):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.counters: defaultdict = defaultdict(float)
        self.spans: list = []  # (name, parent index, start, end)
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._stack: list = []  # [index, children's time, name, parent, start]
        self._grids: list[int] = []
        self._restore: list = []

    # -- spans ----------------------------------------------------------

    def _open(self, name):
        stack, spans = self._stack, self.spans
        parent = stack[-1][0] if stack else -1
        idx = -1
        if len(spans) < self.span_cap:
            idx = len(spans)
            spans.append(None)
        else:
            self.spans_dropped += 1
        frame = [idx, 0.0, name, parent, time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        t1 = time.perf_counter()
        idx, child, name, parent, t0 = frame
        self._stack.pop()
        d = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += d - child
        if self._stack:
            self._stack[-1][1] += d
        if idx >= 0:
            self.spans[idx] = (name, parent, t0, t1)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    # -- wrappers -------------------------------------------------------

    def _timed(self, layer, package, target, fn):
        open_, close, errors, fn_calls = self._open, self._close, self.errors, self.fn_calls

        def wrapper(*args, **kwargs):
            fn_calls[target] += 1
            frame = open_(layer)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[package] += 1
                raise
            finally:
                close(frame)

        return wrapper

    def _nonpolar_hook(self, fn):
        """Record how many truncation levels each nonpolar_part tried."""
        fn_calls, counters = self.fn_calls, self.counters

        def wrapper(*args, **kwargs):
            before = fn_calls[TRUNCATE]
            try:
                return fn(*args, **kwargs)
            finally:
                counters["measures.nonpolar_part.truncations"] += fn_calls[TRUNCATE] - before

        return wrapper

    def _oracle_hook(self, fn):
        """Record the node count of the grid each oracle solve ran on."""
        grids, counters = self._grids, self.counters
        from radialma.oracle import Grid1D

        def wrapper(*args, **kwargs):
            grids.clear()
            try:
                return fn(*args, **kwargs)
            finally:
                given = [x for x in (*args, *kwargs.values()) if isinstance(x, Grid1D)]
                nodes = given[0].count + 1 if given else sum(grids)
                counters["oracle.solve.grid_nodes"] += nodes
                counters["oracle.solve.max_grid_nodes"] = max(
                    counters["oracle.solve.max_grid_nodes"], nodes
                )

        return wrapper

    def _grid_hook(self, fn):
        grids = self._grids

        def wrapper(*args, **kwargs):
            grid = fn(*args, **kwargs)
            grids.append(grid.count + 1)
            return grid

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded radialma namespace."""
        for layer, (package, targets) in LAYERS.items():
            for target in targets:
                self._patch(target, functools.partial(
                    self._wrap, layer=layer, package=package, target=target
                ))
        self._patch(GRID_FROM_BOUNDS, self._grid_hook)

    def _wrap(self, fn, *, layer, package, target):
        wrapper = self._timed(layer, package, target, fn)
        if target == NONPOLAR:
            return self._nonpolar_hook(wrapper)
        if target in ORACLE_SOLVES:
            return self._oracle_hook(wrapper)
        return wrapper

    def _patch(self, target: str, make) -> None:
        modname, qualname = target.split(":")
        module = sys.modules[modname]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))
            return
        orig = getattr(module, qualname)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "radialma" or name.startswith("radialma.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reporting ------------------------------------------------------

    def sidecar(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "function_calls": dict(self.fn_calls),
            "counters": dict(self.counters),
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans_dropped_over_cap": self.spans_dropped,
            "spans": [s for s in self.spans if s is not None],
        }


class NullTracer:
    """Same interface as Tracer for the untraced runs; does nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1.0) -> None:
        pass
