"""Per-module spans for the traced benchmark run, installed from outside src/.

``Tracer.install`` wraps the public functions and the hot methods of each
lahbell module.  A wrapper is put on every name that holds the original
function: the defining module, every other lahbell module that imported it,
class attributes that alias it (``__rmul__ = __mul__``) and the verify suite
table, so nested calls cannot escape their span.

Each call is a span of its module's layer.  A layer's self time is its spans'
duration minus the part covered by child spans, so the self times of all
layers add up to the time spent inside any span.  Spans are folded into
per-layer totals as they close rather than kept one by one: the verify-all
pass alone opens about a million of them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("exact_core", "partitions", "poly", "bell", "series", "verify", "cli")

# layer -> names in lahbell.<layer> to wrap; "Class.method" patches the class.
TARGETS: dict[str, tuple[str, ...]] = {
    "exact_core": (
        "exact_div", "factorial", "binomial", "multinomial",
        "lah", "rlah", "lah_bell_number", "r_lah_bell_number",
    ),
    "partitions": ("enumerate_pi", "enumerate_lambda", "lah_via_pi", "rlah_via_lambda"),
    "poly": (
        "Monomial.__mul__", "Monomial.__pow__",
        "SparsePolynomial.__add__", "SparsePolynomial.__sub__", "SparsePolynomial.__rsub__",
        "SparsePolynomial.__neg__", "SparsePolynomial.__mul__", "SparsePolynomial.__pow__",
        "SparsePolynomial.__eq__", "SparsePolynomial.divide_exact",
        "SparsePolynomial.substitute_all", "SparsePolynomial.substitute",
        "SparsePolynomial.evaluate", "SparsePolynomial.as_int",
        "SparsePolynomial.to_text", "SparsePolynomial.to_json_obj",
        "PolyAccumulator.add", "PolyAccumulator.build",
        "const", "var", "term", "as_poly",
    ),
    "bell": (
        "incomplete_bell", "complete_bell", "incomplete_r_bell", "complete_r_bell",
        "incomplete_lah_bell", "complete_lah_bell", "incomplete_r_lah_bell",
        "complete_r_lah_bell", "lah_bell_polynomial", "complete_r_lah_bell_expansion",
        "moments_from_cumulants",
    ),
    "series": (
        "TruncatedSeries.__add__", "TruncatedSeries.__mul__", "TruncatedSeries.scale",
        "TruncatedSeries.pow", "TruncatedSeries.divide_exact", "TruncatedSeries.derivative",
        "TruncatedSeries.truncate", "zero", "one", "from_sequence", "exp", "gf_expand",
        "faa_di_bruno_check",
    ),
    "verify": ("run_suites",),
    "cli": ("main",),
}

# Work counters bumped by single functions, on top of the per-layer ones.
COUNTED = {
    "Monomial.__mul__": "poly.mono_muls",
    "SparsePolynomial.__mul__": "poly.poly_muls",
    "TruncatedSeries.__mul__": "series.products",
    "exp": "series.exp_calls",
}

GENERATORS = ("enumerate_pi", "enumerate_lambda")


class Tracer:
    """Accumulates self time per layer, work counters and suite times.

    Times are gathered per pass and folded into ``self_s`` and ``suite_s``
    at ``end_pass``, scaled by the pass's speed factor like the pass time.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.suite_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.max_terms = 0
        self.bell_repeats = 0
        self._pass_self: defaultdict[str, float] = defaultdict(float)
        self._pass_suite: defaultdict[str, float] = defaultdict(float)
        self._bell_seen: set = set()
        self._stack: list[list[float]] = []
        self._excluded = 0.0
        self._poly_cls = None
        self._restore: list[tuple[object, str, object]] = []

    def begin_pass(self) -> None:
        """Start a pass: constructor arguments seen before no longer repeat."""
        self._bell_seen.clear()

    def end_pass(self, factor: float) -> None:
        for totals, current in ((self.self_s, self._pass_self), (self.suite_s, self._pass_suite)):
            for name, seconds in current.items():
                totals[name] += seconds * factor
            current.clear()

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside lahbell out of the open span's self time."""
        self._excluded += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer: str, counter: str | None, suite: str | None = None):
        stack = self._stack
        self_s = self._pass_self
        suite_s = self._pass_suite
        counts = self.counts
        poly_cls = self._poly_cls
        note_bell = self._note_bell if layer == "bell" else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if note_bell is not None:
                note_bell(fn.__name__, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            excluded = self._excluded
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if suite is not None:
                    suite_s[suite] += elapsed - (self._excluded - excluded)
            if result.__class__ is poly_cls and len(result) > self.max_terms:
                self.max_terms = len(result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: str, counter: str):
        """Spans around each ``next`` of the generator, counting the items."""
        stack = self._stack
        self_s = self._pass_self
        counts = self.counts
        perf_counter = time.perf_counter

        def step(gen):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return next(gen)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = step(gen)
                except StopIteration:
                    return
                counts[counter] += 1
                yield item

        return wrapper

    def _note_bell(self, name: str, args: tuple, kwargs: dict) -> None:
        key = (name, args, tuple(sorted(kwargs.items())))
        try:
            hash(key)
        except TypeError:  # polynomial arguments define no hash
            key = repr(key)
        if key in self._bell_seen:
            self.bell_repeats += 1
        else:
            self._bell_seen.add(key)

    # -- installation -----------------------------------------------------

    def install(self, lahbell) -> None:
        """Wrap every target on every name bound to it; ``uninstall`` undoes it."""
        modules = [lahbell] + [importlib.import_module(f"lahbell.{m}") for m in LAYERS]
        self._poly_cls = lahbell.SparsePolynomial
        wrapped: dict[int, object] = {}
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"lahbell.{layer}")
            for name in names:
                owner, _, attr = name.rpartition(".")
                fn = getattr(home, owner).__dict__[attr] if owner else getattr(home, attr)
                if attr in GENERATORS:
                    wrapped[id(fn)] = self._wrap_generator(fn, layer, "partitions.witnesses")
                else:
                    counter = COUNTED.get(name) or {
                        "exact_core": "exact_core.calls", "bell": "bell.calls"
                    }.get(layer)
                    wrapped[id(fn)] = self._wrap(fn, layer, counter)
        for module in modules:
            for name, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__.startswith("lahbell"):
                    for attr, member in list(vars(value).items()):
                        if id(member) in wrapped:
                            self._set(value, attr, wrapped[id(member)])
                elif id(value) in wrapped:
                    self._set(module, name, wrapped[id(value)])
        suites = importlib.import_module("lahbell.verify")._SUITES
        for name, check in list(suites.items()):
            self._set(suites, name, self._wrap(check, "verify", None, suite=name))

    def _set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._restore.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore.clear()
