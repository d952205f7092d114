"""The benchmark's four workloads: seeded inputs, one job each, and its checks.

Every job builds its spheres and contexts cold, because each CLI invocation
pays that cost.  The library is reached only through module and class
attributes (``fuzzy.FuzzySuperSphere``, ``graded.indefinite_inner``, ...),
so that the span wrappers installed by ``perfbench.spans`` see every call.

Tolerances are the ones the repository already states: the CLI's default
``--tol`` of 1e-8, the acceptance suite's 1e-9 for Cartan identities
(c06/c07), 1e-12 for the classical oracle and exact zero for the ideal
integrals (c10).  The one known defect the workloads run into, the round-trip
accuracy cliff of the harmonic basis (``CLIFF_LEVELS``), is measured and
reported rather than checked.
"""

from __future__ import annotations

import json
import math
import os
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple

import numpy as np

import fuzzsuper.calculus as calculus
import fuzzsuper.cli as cli
import fuzzsuper.continuum as continuum
import fuzzsuper.fuzzy as fuzzy
import fuzzsuper.graded as graded

ROUNDTRIP_TOL = 1e-8  # the CLI's default --tol
IDENTITY_TOL = 1e-9  # c06 / c07
CLASSICAL_TOL = 1e-12  # c02 / c05 classical residual
# Levels past the accuracy cliff of the harmonic basis (ROADMAP item 2): the
# relative round-trip error is about 2e-8 at q=24 and 1e-5 at q=32, above
# ROUNDTRIP_TOL.  There the round trip is still timed and its error goes
# into accuracy_digits and onto a "KNOWN DEFECT" line of every run, but it
# is not counted as a failed operation.  Empty this when the basis is fixed.
CLIFF_LEVELS = (24, 32)


class Tally:
    """Checked operations of a job, or of a run's jobs, and their worst accuracy.

    A job calls ``lap()`` at the end of each of its steps (a level, say).  It
    does nothing unless the runner sets it to time the job step by step.
    """

    def __init__(self) -> None:
        self.lap: Callable[[], None] = lambda: None
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, str] = {}  # check name -> what was measured
        self.known: Dict[str, str] = {}  # known defect -> what was measured
        self.accuracy_digits = math.inf
        self.level_s: Dict[int, float] = {}  # basis: seconds per level

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] = detail

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        self.known.update(other.known)
        self.accuracy_digits = min(self.accuracy_digits, other.accuracy_digits)

    def digits(self, error: float) -> None:
        """Record -log10 of a relative error or residual; the job keeps the worst."""
        self.accuracy_digits = min(self.accuracy_digits, -math.log10(max(error, 1e-300)))


class Workload(NamedTuple):
    make_inputs: Callable[[int], dict]
    job: Callable[[dict, Tally], None]
    # whether job_s is scaled by reference samples taken between the job's
    # steps (see run.StepClock); not on cohomology, whose one long LAPACK-bound
    # step drifts apart from the kernel, so that scaling widened its spread
    scale: bool = True


def _rng(seed: int, workload: str) -> np.random.Generator:
    # one stream per workload, derived from the seed argument alone
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _complex_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# basis: the coefficient isomorphism on a ladder of levels

BASIS_LEVELS = (8, 16, 24, 32)
BASIS_MATRICES = 2


def basis_inputs(seed: int) -> dict:
    rng = _rng(seed, "basis")
    return {
        q: [_complex_normal(rng, 2 * q + 1) for _ in range(BASIS_MATRICES)]
        for q in BASIS_LEVELS
    }


def basis_job(inputs: dict, tally: Tally) -> None:
    for q in BASIS_LEVELS:
        t0 = time.perf_counter()
        sphere = fuzzy.FuzzySuperSphere(q)
        body = fuzzy.FuzzySphere(q)
        labels = sphere.labels()
        tally.check(f"basis q={q} label count", len(labels) == (2 * q + 1) ** 2)
        for label in labels:
            sphere.harmonic(label)
        for label in body.labels():
            body.harmonic(label)
        harmonics_s = time.perf_counter() - t0
        tally.lap()
        t0 = time.perf_counter()
        for k, arr in enumerate(inputs[q]):
            f = graded.GradedMatrix(sphere.dims, arr)
            e = sphere.decompose(f)
            back = sphere.reconstruct(e)
            err = float(np.linalg.norm(back.mat - f.mat) / np.linalg.norm(f.mat))
            tally.digits(err)
            name, detail = f"basis q={q} round trip #{k}", f"relative error {err:.1e}"
            if q not in CLIFF_LEVELS:
                tally.check(name, err <= ROUNDTRIP_TOL, detail)
            elif err > ROUNDTRIP_TOL:
                tally.known[name] = f"{detail}, tolerance {ROUNDTRIP_TOL:.0e}"
            there_and_back = fuzzy.eta(fuzzy.eta(e, 2 * q), q)
            tally.check(f"basis q={q} eta up and down #{k}", there_and_back.coeffs == e.coeffs)
            if k == 0:
                fuzzy.body_map_fuzzy(f, sphere, body)
        # the body map carries the super coordinate X3 onto the body one (c09)
        x3 = sphere.coordinates()[2]
        image = fuzzy.body_map_fuzzy(x3, sphere, body)
        berr = float(np.linalg.norm(image - body.coordinates()[2]))
        tally.check(f"basis q={q} body map of X3", berr < 1e-10, f"error {berr:.1e}")
        tally.level_s[q] = harmonics_s + time.perf_counter() - t0
        tally.lap()


# ---------------------------------------------------------------------------
# cartan: pointwise Cartan identities on seeded random forms

CARTAN_LEVELS = (1, 2, 3)
CARTAN_DEGREES = (0, 1, 2, 3)
CARTAN_LEIBNIZ = ((0, 1), (1, 1), (1, 2))


def cartan_inputs(seed: int) -> dict:
    """Random form values per level, keyed like the forms they become.

    Each value is drawn on the parity that makes the form homogeneous, as
    ``calculus.random_superform`` does; the job wraps them in its own cold
    context.
    """
    rng = _rng(seed, "cartan")
    out = {}
    for q in CARTAN_LEVELS:
        ctx = calculus.super_context(q)

        def values(p: int, parity: int) -> dict:
            vals = {}
            for t in ctx.index_tuples(p):
                want = (parity + ctx.tuple_parity(t)) % 2
                vals[t] = graded.GradedMatrix(ctx.dims, _complex_normal(rng, ctx.n)).part(want)
            return vals

        out[q] = {
            "single": [(p, par, values(p, par)) for p in CARTAN_DEGREES for par in (0, 1)],
            "pairs": [
                ((p1, par1, values(p1, par1)), (p2, par2, values(p2, par2)))
                for p1, p2 in CARTAN_LEIBNIZ
                for par1, par2 in ((0, 0), (0, 1), (1, 0), (1, 1))
            ],
            "scalar": graded.GradedMatrix(ctx.dims, _complex_normal(rng, ctx.n)),
        }
    return out


def _identity(tally: Tally, name: str, residual: float) -> None:
    tally.digits(residual)
    tally.check(name, residual <= IDENTITY_TOL, f"residual {residual:.1e}")


def cartan_job(inputs: dict, tally: Tally) -> None:
    for q in CARTAN_LEVELS:
        ctx = calculus.super_context(q)
        data = inputs[q]
        for p, parity, vals in data["single"]:
            w = calculus.SuperForm(ctx, p, vals)
            dw = calculus.exterior_d(w)
            tag = f"p={p} parity={parity}"
            _identity(tally, f"cartan q={q} d^2 {tag}", calculus.exterior_d(dw).norm())
            worst = 0.0
            for a in ctx.labels:
                rhs = ((-1.0) ** (ctx.label_parity(a) * parity)) * calculus.lie_derivative(a, w)
                if p > 0:
                    rhs = rhs - calculus.exterior_d(calculus.interior(a, w))
                worst = max(worst, (calculus.interior(a, dw) - rhs).norm())
            _identity(tally, f"cartan q={q} magic formula {tag}", worst)
        for (p1, par1, v1), (p2, par2, v2) in data["pairs"]:
            w1 = calculus.SuperForm(ctx, p1, v1)
            w2 = calculus.SuperForm(ctx, p2, v2)
            lhs = calculus.exterior_d(calculus.wedge(w1, w2))
            rhs = calculus.wedge(calculus.exterior_d(w1), w2) + ((-1.0) ** p1) * calculus.wedge(
                w1, calculus.exterior_d(w2)
            )
            tag = f"p=({p1},{p2}) parity=({par1},{par2})"
            _identity(tally, f"cartan q={q} wedge leibniz {tag}", (lhs - rhs).norm())
        lam = calculus.maurer_cartan(ctx)
        structure = calculus.exterior_d(lam) - calculus.wedge(lam, lam)
        _identity(tally, f"cartan q={q} d Lambda = Lambda^Lambda", structure.norm())
        f = calculus.SuperForm.from_scalar(ctx, data["scalar"])
        bracket = calculus.wedge(lam, f) - calculus.wedge(f, lam)
        _identity(tally, f"cartan q={q} d as a bracket", (calculus.exterior_d(f) - bracket).norm())
        dec = calculus.invariant_one_forms(ctx)
        dim = ctx.n**2 * len(ctx.index_tuples(1)) - dec.rank
        tally.check(
            f"cartan q={q} invariant 1-forms",
            dim == 1 and not dec.inconclusive,
            f"dimension {dim}, gap {dec.gap:.1e}",
        )
        tally.lap()


# ---------------------------------------------------------------------------
# cohomology: the user command, end to end through the CLI

COHOMOLOGY_LEVELS = (2, 3)
EXPECTED_SUPER = [1, 0, 0, 1, 0, 0]
EXPECTED_BODY = [1, 0, 0, 1]


def cohomology_inputs(seed: int) -> dict:
    """The command lines; the cohomology command takes no random input."""
    return {
        "argv": {
            q: ["cohomology", "--q", str(q), "--pmax", "5", "--format", "json"]
            for q in COHOMOLOGY_LEVELS
        }
    }


def cohomology_job(inputs: dict, tally: Tally) -> None:
    out_dir = inputs["out_dir"]
    min_gap = math.inf
    for q in COHOMOLOGY_LEVELS:
        path = os.path.join(out_dir, f"cohomology_q{q}.json")
        code = cli.main(inputs["argv"][q] + ["--out", path])
        tally.check(f"cohomology q={q} exit code", code == 0, f"exit code {code}")
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)
        tally.check(f"cohomology q={q} ok", report["ok"] is True)
        for part, expected in (
            ("super", EXPECTED_SUPER),
            ("body", EXPECTED_BODY),
            ("center_crosscheck", EXPECTED_SUPER),
        ):
            betti = report[part]["betti"]
            tally.check(f"cohomology q={q} {part} betti", betti == expected, f"betti {betti}")
            conclusive = report[part]["inconclusive"] is False
            tally.check(f"cohomology q={q} {part} conclusive", conclusive)
            min_gap = min([min_gap] + report[part]["sv_gaps"])
        tol = report["meta"]["tol"]
        tally.lap()
    # decades between the smallest singular-value gap and the rank cut
    margin = math.log10(max(min_gap, 1e-300) / tol)
    tally.accuracy_digits = min(tally.accuracy_digits, margin)


# ---------------------------------------------------------------------------
# converge: the paper's convergence claim against the exact oracle

CONVERGE_PAIRS = ((1, 1), (1, 2), (0, 3), (2, 2))
CONVERGE_LEVELS = (10, 20, 40, 60)
GRAM_TWO_J = 6
GRAM_RHOS = (Fraction(1), Fraction(5, 2))
IDEAL_SAMPLES = 12


def converge_inputs(seed: int) -> dict:
    """Random Gaussian-rational superpolynomials g for the ideal integrals (c10)."""
    rng = _rng(seed, "converge")

    def frac() -> Fraction:
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))

    polys = []
    for _ in range(IDEAL_SAMPLES):
        comps = []
        for _ in range(4):
            comp = {}
            for _ in range(4):
                key = tuple(int(x) for x in rng.integers(0, 4, size=3))
                comp[key] = continuum.QQi(frac(), frac())
            comps.append(comp)
        polys.append(comps)
    return {"ideal": polys}


def _gram_labels(two_j_max: int) -> List[tuple]:
    labels = []
    for two_j in range(two_j_max + 1):
        for mu in (0, 1):
            if mu == 1 and two_j == 0:
                continue
            two_l = two_j - mu
            labels.extend((two_j, mu, two_m) for two_m in range(two_l, -two_l - 1, -2))
    return labels


def converge_job(inputs: dict, tally: Tally) -> None:
    for two_j1, two_j2 in CONVERGE_PAIRS:
        c_cl, resid = continuum.structure_constant_classical(two_j1, two_j2)
        tally.check(
            f"converge ({two_j1},{two_j2}) classical residual",
            resid <= CLASSICAL_TOL,
            f"residual {resid:.1e}",
        )
        delta = {
            q: abs(fuzzy.structure_constant_fuzzy(q, two_j1, two_j2).c - c_cl)
            for q in CONVERGE_LEVELS
        }
        tally.digits(delta[max(CONVERGE_LEVELS)])
        exact = delta[10] < 1e-13 and delta[40] < 1e-13
        tally.check(
            f"converge ({two_j1},{two_j2}) convergence",
            exact or (delta[40] < 0.5 * delta[10] and delta[40] < 0.05),
            f"|c40-c|={delta[40]:.1e} |c10-c|={delta[10]:.1e}",
        )
        tally.lap()
    labels = _gram_labels(GRAM_TWO_J)
    for rho in GRAM_RHOS:
        harms = [continuum.classical_harmonic(*lab, rho) for lab in labels]
        off_diagonal_zero = True
        worst_diag = 0.0
        for i, (la, ya) in enumerate(zip(labels, harms)):
            for lb, yb in zip(labels[i:], harms[i:]):
                core, scale = continuum.inner_S_exact(ya, yb, rho)
                if la == lb:
                    want = continuum.harmonic_sign(la[0], la[1])
                    worst_diag = max(worst_diag, abs(complex(core) * float(scale) - want))
                elif not core.is_zero():
                    off_diagonal_zero = False
        tally.check(f"converge gram rho={rho} off-diagonal exactly zero", off_diagonal_zero)
        tally.check(
            f"converge gram rho={rho} diagonal",
            worst_diag <= CLASSICAL_TOL,
            f"worst {worst_diag:.1e}",
        )
        tally.lap()
        rel = continuum.sphere_relation(rho)
        for k, comps in enumerate(inputs["ideal"]):
            g = continuum.SuperPoly(*comps)
            tally.check(
                f"converge ideal integral rho={rho} #{k}",
                continuum.berezin_radial_sum(rel * g, rho).is_zero(),
            )
        tally.lap()


WORKLOADS: Dict[str, Workload] = {
    "basis": Workload(basis_inputs, basis_job),
    "cartan": Workload(cartan_inputs, cartan_job),
    "cohomology": Workload(cohomology_inputs, cohomology_job, scale=False),
    "converge": Workload(converge_inputs, converge_job),
}
