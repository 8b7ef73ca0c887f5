"""In-process spans and counters around the library's layer entry points.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``nabla_radius`` module that holds it by name (``radius`` and
``curves`` import ``iter_deriv_matrices`` by name, ``laurent`` imports
``fraction_valuation``), and on the classes for methods; ``uninstall``
puts every original back.  Patching only the defining module would leave
the by-name copies untimed and record zero calls.

Spans nest on a stack.  A span's self time is its duration minus the time
of the spans it directly contains.  A traced method called from inside a
span of the same class is folded into that span: the corner Gauss norms
that ``sup_vertex_lognorm`` takes are part of its own cost, and
``laurent.gauss_lognorm`` counts the norms other layers ask for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.valuation_bits_max = 0
        self._stack: list[list] = []  # [name, owner, start, child time]
        self._patches: list[tuple[Any, str, Any]] = []
        self._ladder_keys: set[tuple[int, int, int]] = set()
        self._ladder_modules: list[Any] = []  # keeps ids unique while traced
        self._ladder_last: dict[tuple[int, int], Any] = {}

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, owner: Any = None) -> bool:
        """Open a span; False when it folds into an enclosing span."""
        if owner is not None and self._stack and self._stack[-1][1] is owner:
            return False
        self._stack.append([name, owner, time.perf_counter(), 0.0])
        return True

    def exit(self) -> None:
        name, _, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, owner: Any = None,
              count: Callable[..., None] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enter(name, owner):
                return fn(*args, **kwargs)
            try:
                if count is not None:
                    count(*args)
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _wrap_ladder(self, fn: Callable) -> Callable:
        """The derivative ladder is a generator: each ``next`` is one span,
        and every step is keyed by (module, direction, s) so that steps
        rebuilt for the same module show in the useful ratio."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(module: Any, direction: int) -> Iterator:
            tracer._ladder_modules.append(module)
            inner = fn(module, direction)
            s = 0
            while True:
                tracer.enter("connection.ladder")
                try:
                    G = next(inner)
                finally:
                    tracer.exit()
                if s > 0:
                    tracer.counts["connection.ladder.steps"] += 1
                    tracer._ladder_keys.add((id(module), direction, s))
                    tracer._ladder_last[(id(module), direction)] = G
                yield G
                s += 1

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original: Callable, replacement: Callable) -> None:
        holders = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nabla_radius" or mod_name.startswith("nabla_radius.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)
                    holders += 1
        if holders == 0:
            raise RuntimeError(f"no module holds {original.__qualname__}")

    def install(self) -> None:
        """Wrap every traced entry point; call ``uninstall`` to restore."""
        from nabla_radius import connection, curves, descriptor, padic, radius
        from nabla_radius.connection import PolyMatrix
        from nabla_radius.laurent import LaurentPoly

        counts = self.counts

        def valuation(x: Any, p: int) -> None:
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            self.valuation_bits_max = max(self.valuation_bits_max, bits)

        def mul(a: Any, b: Any) -> None:
            if isinstance(b, LaurentPoly):
                counts["laurent.mul.term_pairs"] += len(a.terms) * len(b.terms)

        def gauss(a: Any, radii: Any) -> None:
            counts["laurent.gauss_lognorm.terms"] += len(a.terms)

        def trial(*args: Any) -> None:
            if any(frame[0] == "curves.curve_witness_search" for frame in self._stack):
                counts["curves.trials_tried"] += 1

        try:
            for name, fn, count in (
                ("padic.valuation", padic.fraction_valuation, valuation),
                ("connection.integrability", connection.integrability_check, None),
                ("radius.intrinsic_radius", radius.intrinsic_radius, None),
                ("radius.taylor_probe", radius.taylor_probe, None),
                ("curves.generic_equality_check", curves.generic_equality_check, trial),
                ("curves.curve_witness_search", curves.curve_witness_search, None),
                ("descriptor.load", descriptor.load_module_descriptor, None),
                ("descriptor.sha256", descriptor.descriptor_sha256, None),
            ):
                self._patch_everywhere(fn, self._wrap(name, fn, count=count))
            self._patch_everywhere(
                connection.iter_deriv_matrices,
                self._wrap_ladder(connection.iter_deriv_matrices),
            )
            for owner, attr, name, count in (
                (LaurentPoly, "__mul__", "laurent.mul", mul),
                (LaurentPoly, "__add__", "laurent.add", None),
                (LaurentPoly, "partial", "laurent.partial", None),
                (LaurentPoly, "gauss_lognorm", "laurent.gauss_lognorm", gauss),
                (LaurentPoly, "sup_vertex_lognorm", "laurent.sup_vertex_lognorm", None),
                (LaurentPoly, "specialize", "laurent.specialize", None),
                (PolyMatrix, "__matmul__", "connection.matmul", None),
            ):
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(name, original, owner=owner, count=count))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def ladder_useful_ratio(self) -> float:
        steps = self.counts["connection.ladder.steps"]
        return len(self._ladder_keys) / steps if steps else 0.0

    def ladder_last_sizes(self) -> tuple[int, int]:
        """Largest term count and coefficient bit size over the last
        matrix of every ladder."""
        terms = bits = 0
        for G in self._ladder_last.values():
            for row in G.rows:
                for entry in row:
                    terms = max(terms, len(entry.terms))
                    for c in entry.terms.values():
                        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return terms, bits
