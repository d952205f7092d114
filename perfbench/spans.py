"""Spans around calls into the library, recorded from outside the package.

``instrument`` wraps each listed function or method and patches it into
every ``fuzzsuper`` module that bound the same object, so calls that one
library module makes into another are seen too; methods are patched on
their class.  Spans are kept as in-memory aggregates per name: the number
of calls and the self time, which is a span's duration minus the time its
child spans cover.  Per-call hooks add counts computed from arguments and
results (operation counts, bytes); their own time is charged to no span.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import fuzzsuper.calculus as calculus
import fuzzsuper.cli as cli
import fuzzsuper.continuum as continuum
import fuzzsuper.fuzzy as fuzzy
import fuzzsuper.graded as graded
import fuzzsuper.osp as osp

Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Per-name call counts and self times, plus the counts that hooks add."""

    def __init__(self) -> None:
        self._open: List[float] = []  # time covered by children, per open span
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.seen: Dict[object, int] = {}

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def keep_max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = self._open.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
                if self._open:
                    self._open[-1] += duration
            if hook is not None:
                h0 = time.perf_counter()
                hook(self, args, result)
                if self._open:
                    # the hook's time is hidden from the parent's self time
                    self._open[-1] += time.perf_counter() - h0
            return result

        return span


Target = Tuple[str, object, str, Optional[Hook]]
Patch = Tuple[object, str, object]


def instrument(tracer: Tracer, targets: List[Target]) -> List[Patch]:
    """Install spans for (span name, module or class, attribute, hook) targets.

    Returns the patches made, for ``restore``.
    """
    patches: List[Patch] = []
    modules = [m for n, m in sys.modules.items() if n == "fuzzsuper" or n.startswith("fuzzsuper.")]
    for name, owner, attr, hook in targets:
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, original, hook)
        owners = [owner] if isinstance(owner, type) else [
            m for m in modules if vars(m).get(attr) is original
        ]
        for where in owners:
            setattr(where, attr, wrapped)
            patches.append((where, attr, original))
    return patches


def restore(patches: List[Patch]) -> None:
    for where, attr, original in reversed(patches):
        setattr(where, attr, original)


# ---------------------------------------------------------------------------
# the library's layers


def _svd_flops(tracer: Tracer, args: tuple, result: object) -> None:
    """Computed operation count of a values-only complex SVD.

    Golub-Kahan bidiagonalisation costs 4mn^2 - 4n^3/3 real flops for an
    m x n real matrix with m >= n; complex arithmetic costs four times that.
    """
    shape = getattr(args[0], "shape", (0, 0))
    m, n = max(shape), min(shape)
    tracer.add("graded.rank_decision.flops", 4.0 * (4.0 * m * n * n - 4.0 * n**3 / 3.0))
    gap = getattr(result, "gap", math.inf)
    if math.isfinite(gap):
        prev = tracer.counts.get("graded.rank_decision.min_gap", math.inf)
        tracer.counts["graded.rank_decision.min_gap"] = min(prev, gap)


def _d_matrix_size(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.keep_max("calculus.d_matrix.bytes", result.nbytes)
    tracer.add("calculus.d_matrix.nonzero", int((result != 0).sum()))
    tracer.add("calculus.d_matrix.entries", result.size)


def _harmonic_bytes(tracer: Tracer, args: tuple, result: object) -> None:
    sphere, label = args[0], args[1]
    tracer.seen[(type(sphere).__name__, sphere.q, label)] = getattr(result, "mat", result).nbytes


def layer_targets() -> List[Target]:
    """Every public function of each layer that the workloads reach."""
    targets: List[Target] = [
        ("osp.build_irrep", osp, "build_irrep", None),
        ("osp.build_sl2_irrep", osp, "build_sl2_irrep", None),
        ("graded.graded_commutator", graded, "graded_commutator", None),
        ("graded.indefinite_inner", graded, "indefinite_inner", None),
        ("graded.hs_inner", graded, "hs_inner", None),
        ("graded.rank_decision", graded, "rank_decision", _svd_flops),
        ("fuzzy.body_map_fuzzy", fuzzy, "body_map_fuzzy", None),
        ("fuzzy.eta", fuzzy, "eta", None),
        ("fuzzy.structure_constant_fuzzy", fuzzy, "structure_constant_fuzzy", None),
        ("calculus.exterior_d", calculus, "exterior_d", None),
        ("calculus.lie_derivative", calculus, "lie_derivative", None),
        ("calculus.interior", calculus, "interior", None),
        ("calculus.wedge", calculus, "wedge", None),
        ("calculus.wedge_plan", calculus.DerivationContext, "wedge_plan", None),
        ("calculus.lie_matrix", calculus, "lie_matrix", None),
        ("calculus.d_matrix", calculus, "d_matrix", _d_matrix_size),
        ("calculus.center_d_matrix", calculus, "center_d_matrix", None),
        ("calculus.cohomology_dims", calculus, "cohomology_dims", None),
        ("calculus.center_cohomology_dims", calculus, "center_cohomology_dims", None),
        ("calculus.super_context", calculus, "super_context", None),
        ("calculus.body_context", calculus, "body_context", None),
        ("continuum.classical_harmonic", continuum, "classical_harmonic", None),
        ("continuum.inner_S_exact", continuum, "inner_S_exact", None),
        ("continuum.berezin_radial_sum", continuum, "berezin_radial_sum", None),
        ("continuum.normal_form", continuum, "normal_form", None),
        ("continuum.structure_constant_classical", continuum, "structure_constant_classical", None),
        ("cli.main", cli, "main", None),
    ]
    # the super and body spheres share one span name per operation
    for cls in (fuzzy.FuzzySuperSphere, fuzzy.FuzzySphere):
        targets += [
            ("fuzzy.harmonic", cls, "harmonic", _harmonic_bytes),
            ("fuzzy.highest_weight", cls, "highest_weight", None),
            ("fuzzy.decompose", cls, "decompose", None),
            ("fuzzy.reconstruct", cls, "reconstruct", None),
        ]
    return targets
