"""Acceptance suite: one test per headline claim, with pinned tolerances.

Run `pytest -v tests/test_acceptance.py` for a one-line pass/fail report
per criterion.  Each test prints its measured numbers (visible with -s or
on failure) and enforces a wall-clock budget.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fuzzsuper.calculus import (
    EXPECTED_BETTI_BODY,
    EXPECTED_BETTI_SUPER,
    SuperForm,
    body_cochain_map,
    body_context,
    cohomology_dims,
    exterior_d,
    interior,
    invariant_one_forms,
    lie_derivative,
    maurer_cartan,
    random_superform,
    super_context,
    wedge,
)
from fuzzsuper.continuum import (
    QQi,
    SuperPoly,
    berezin_radial_sum,
    body_map_classical,
    classical_harmonic,
    cross_involution,
    harmonic_sign,
    inner_S_exact,
    inner_sphere_exact,
    sphere_harmonic,
    sphere_relation,
    structure_constant_classical,
)
from fuzzsuper.fuzzy import (
    FuzzySphere,
    FuzzySuperSphere,
    HarmonicLabel,
    all_labels,
    body_label_image,
    body_map_fuzzy,
    body_map_matrix,
    structure_constant_fuzzy,
)
from fuzzsuper.graded import (
    hs_inner,
    indefinite_inner,
    numerical_rank,
    random_graded_matrix,
)
from fuzzsuper.osp import build_irrep, build_osp_basis, verify_grade_star


def _budget(t0, seconds, label):
    elapsed = time.perf_counter() - t0
    print(f"{label}: {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"{label} exceeded its {seconds}s budget"


def test_c01_harmonic_label_counts():
    t0 = time.perf_counter()
    for q in range(1, 7):
        labels = all_labels(q)
        even = sum(1 for la in labels if la.parity == 0)
        odd = len(labels) - even
        assert len(labels) == (2 * q + 1) ** 2
        assert even == q * q + (q + 1) ** 2
        assert odd == 2 * q * (q + 1)
        print(f"q={q}: total={len(labels)} even={even} odd={odd}")
    _budget(t0, 1.0, "C01 label counts")


def test_c02_harmonics_orthonormality():
    t0 = time.perf_counter()
    worst_fuzzy = 0.0
    for q in range(1, 9):
        s = FuzzySuperSphere(q)
        mats = [(la, s.harmonic(la)) for la in s.labels()]
        for i, (la, ya) in enumerate(mats):
            for lb, yb in mats[i:]:
                got = indefinite_inner(ya, yb)
                want = la.sign if la == lb else 0.0
                worst_fuzzy = max(worst_fuzzy, abs(got - want))
    print(f"fuzzy gram worst residual (q<=8): {worst_fuzzy:.3e}")
    assert worst_fuzzy <= 1e-13

    # the classical Gram is exact: zero cores off the diagonal, the
    # signature on it (matching surds multiply to a rational)
    rho = Fraction(1)
    labels = [(la.two_j, la.mu, la.two_m) for la in all_labels(4)]
    assert max(la[0] for la in labels) == 8
    harms = [(lab, classical_harmonic(*lab, rho)) for lab in labels]
    for i, (la, ya) in enumerate(harms):
        for lb, yb in harms[i:]:
            core, scale = inner_S_exact(ya, yb, rho)
            if la != lb:
                assert core.is_zero(), (la, lb)
            else:
                assert scale.exact() is not None, la
                assert core * QQi.of(scale.exact()) == QQi.of(harmonic_sign(la[0], la[1])), la
    print(f"classical gram exact (two_j<=8): {len(labels)} harmonics")
    _budget(t0, 10.0, "C02 orthonormality")


def test_c03_radius_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for q in range(1, 7):
        for rho in (1.0, 2.5):
            rs = FuzzySuperSphere(q, rho).casimir_residual()
            rb = FuzzySphere(q, rho).casimir_residual()
            worst = max(worst, rs, rb)
    print(f"worst radius-relation residual (q<=6, rho in {{1, 2.5}}): {worst:.3e}")
    assert worst < 1e-10
    _budget(t0, 5.0, "C03 radius relations")


def test_c04_grade_adjoints():
    t0 = time.perf_counter()
    basis = build_osp_basis()
    worst_star0 = max(verify_grade_star(build_irrep(q), 0) for q in range(1, 7))
    print(f"level-0 star matrix residual (two_j<=6): {worst_star0:.3e}")
    assert worst_star0 < 1e-10

    # level-1 star: <f | ad(J_A) g> = (-1)^{|A||f|} <ad(J_A^*) f | g>
    star1 = {1: (1, 1.0), 2: (2, 1.0), 3: (3, 1.0), 4: (5, -1.0), 5: (4, 1.0)}
    rng = np.random.default_rng(17)
    worst_pair = 0.0
    for q in (1, 2, 3):
        s = FuzzySuperSphere(q)
        for _ in range(5):
            for pf in (0, 1):
                f = random_graded_matrix(s.dims, rng, parity=pf)
                g = random_graded_matrix(s.dims, rng)
                for a in (1, 2, 3, 4, 5):
                    target, sgn = star1[a]
                    koszul = (-1.0) ** (basis.parities[a - 1] * pf)
                    lhs = indefinite_inner(f, s.adjoint_action(a, g))
                    rhs = koszul * indefinite_inner(
                        s.adjoint_action(target, sgn * f), g
                    )
                    worst_pair = max(worst_pair, abs(lhs - rhs))
    print(f"level-1 star pairing residual (q<=3): {worst_pair:.3e}")
    assert worst_pair < 1e-10
    _budget(t0, 10.0, "C04 grade adjoints")


def test_c05_structure_constant_convergence():
    t0 = time.perf_counter()
    pairs = [
        (two_j1, two_j2)
        for two_j1 in range(0, 4)
        for two_j2 in range(two_j1, 4)
        if two_j1 + two_j2 <= 3
    ]
    for two_j1, two_j2 in pairs:
        c_cl, resid = structure_constant_classical(two_j1, two_j2)
        assert resid < 1e-10
        d10 = abs(structure_constant_fuzzy(10, two_j1, two_j2).c - c_cl)
        d40 = abs(structure_constant_fuzzy(40, two_j1, two_j2).c - c_cl)
        print(
            f"(two_j1,two_j2)=({two_j1},{two_j2}): c={c_cl:+.6f} "
            f"|delta q=10|={d10:.3e} |delta q=40|={d40:.3e}"
        )
        if d10 < 1e-13 and d40 < 1e-13:
            continue  # constant is exact at every level; nothing to converge
        assert d40 < 0.5 * d10
        assert d40 < 0.05
    _budget(t0, 30.0, "C05 convergence")


def test_c06_cartan_identities():
    t0 = time.perf_counter()
    basis = build_osp_basis()
    rng = np.random.default_rng(23)
    worst = 0.0
    for q in (1, 2, 3, 4):
        ctx = super_context(q)

        def bracket_interior(a, b, w):
            out = SuperForm.zero_form(ctx, w.p - 1)
            for ci, coef in enumerate(basis.bracket_coeffs(a, b)):
                if coef != 0:
                    out = out + complex(coef) * interior(ci + 1, w)
            return out

        for p in (0, 1, 2, 3):
            for parity in (0, 1):
                w = random_superform(ctx, p, rng, parity)
                worst = max(worst, exterior_d(exterior_d(w)).norm())
                dw = exterior_d(w)
                for a in ctx.labels:
                    pa = ctx.label_parity(a)
                    rhs = ((-1.0) ** (pa * parity)) * lie_derivative(a, w)
                    if p > 0:
                        rhs = rhs - exterior_d(interior(a, w))
                    worst = max(worst, (interior(a, dw) - rhs).norm())
                if p >= 1:
                    for a, b in itertools.product(ctx.labels, ctx.labels):
                        pa = ctx.label_parity(a)
                        lhs = lie_derivative(a, interior(b, w)) - interior(
                            b, lie_derivative(a, w)
                        )
                        rhs = ((-1.0) ** (pa * parity)) * bracket_interior(a, b, w)
                        worst = max(worst, (lhs - rhs).norm())
        # leibniz rules across degrees and parities
        for p1, p2 in ((0, 1), (1, 1), (1, 2), (2, 1)):
            for par1, par2 in itertools.product((0, 1), (0, 1)):
                w1 = random_superform(ctx, p1, rng, par1)
                w2 = random_superform(ctx, p2, rng, par2)
                ww = wedge(w1, w2)
                worst = max(
                    worst,
                    (
                        exterior_d(ww)
                        - wedge(exterior_d(w1), w2)
                        - ((-1.0) ** p1) * wedge(w1, exterior_d(w2))
                    ).norm(),
                )
                for a in ctx.labels:
                    pa = ctx.label_parity(a)
                    worst = max(
                        worst,
                        (
                            lie_derivative(a, ww)
                            - wedge(lie_derivative(a, w1), w2)
                            - ((-1.0) ** (pa * par1)) * wedge(w1, lie_derivative(a, w2))
                        ).norm(),
                    )
                    if p1 >= 1 and p2 >= 1:
                        worst = max(
                            worst,
                            (
                                interior(a, ww)
                                - ((-1.0) ** (pa * par2)) * wedge(interior(a, w1), w2)
                                - ((-1.0) ** p1) * wedge(w1, interior(a, w2))
                            ).norm(),
                        )
    print(f"worst Cartan-identity residual (q<=4, p<=3): {worst:.3e}")
    assert worst < 1e-9
    _budget(t0, 60.0, "C06 Cartan identities")


def test_c07_invariant_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    worst = 0.0
    for q in (1, 2, 3, 4):
        ctx = super_context(q)
        lam = maurer_cartan(ctx)
        worst = max(worst, (exterior_d(lam) - wedge(lam, lam)).norm())
        f = SuperForm.from_scalar(ctx, random_graded_matrix(ctx.dims, rng))
        worst = max(
            worst, (exterior_d(f) - (wedge(lam, f) - wedge(f, lam))).norm()
        )
        worst = max(worst, max(lie_derivative(a, lam).norm() for a in ctx.labels))
        dec = invariant_one_forms(ctx)
        dim = ctx.n**2 * len(ctx.index_tuples(1)) - dec.rank
        print(f"q={q}: invariant 1-form space dim={dim} (sv gap {dec.gap:.2e})")
        assert dim == 1 and not dec.inconclusive
    print(f"worst invariant-form residual: {worst:.3e}")
    assert worst < 1e-9
    _budget(t0, 30.0, "C07 invariant form")


def test_c08_cohomology():
    t0 = time.perf_counter()
    for q in range(1, 9):
        rep_s = cohomology_dims(super_context(q), 5)
        rep_b = cohomology_dims(body_context(q), 3)
        print(
            f"q={q}: super betti={list(rep_s.betti)} (min gap {rep_s.min_gap:.2e}), "
            f"body betti={list(rep_b.betti)} (min gap {rep_b.min_gap:.2e})"
        )
        assert tuple(rep_s.betti) == EXPECTED_BETTI_SUPER
        assert tuple(rep_b.betti) == EXPECTED_BETTI_BODY
        assert rep_s.min_gap >= 1e-4 and rep_b.min_gap >= 1e-4
    _budget(t0, 120.0, "C08 cohomology")


def test_c09_body_map():
    t0 = time.perf_counter()
    # coefficient-level images
    lab, w = body_label_image(HarmonicLabel(2, 0, 0))
    assert lab.two_j == 2 and abs(w - 1 / math.sqrt(3)) < 1e-12
    lab, w = body_label_image(HarmonicLabel(3, 1, 0))
    assert lab.two_j == 2 and abs(w + 1 / math.sqrt(3)) < 1e-12
    assert body_label_image(HarmonicLabel(1, 0, 1)) is None

    # the label images against the classical body map of the oracle: the
    # coefficient of body(Y_(j,mu,m)) on the round-sphere Y_(l,m) is
    # exactly (-1)^mu / sqrt(2l+1) and the image has no other component;
    # odd labels map to exactly zero
    worst_weight = 0.0
    for rho in (Fraction(1), Fraction(7, 3)):
        for label in all_labels(3):
            body = body_map_classical(classical_harmonic(label.two_j, label.mu, label.two_m, rho), rho)
            image = body_label_image(label)
            if image is None:
                assert body.poly.is_zero(), label
                continue
            target, w = image
            assert (target.two_j, target.two_m) == (label.two_l, label.two_m)
            core, scale = inner_sphere_exact(
                sphere_harmonic(label.two_l // 2, label.two_m // 2, rho), body, rho
            )
            # core * scale = coef * sqrt(rad): its sign and its exact square
            assert core.im == 0
            coef = core.re * scale.coef
            assert (coef < 0) == (label.mu == 1), label
            assert coef * coef * scale.rad == Fraction(1, label.two_l + 1), label
            # and nothing else: |body|^2 is that coefficient squared
            norm2, norm_scale = inner_sphere_exact(body, body, rho)
            assert norm2 * QQi.of(norm_scale.exact()) == QQi.of(Fraction(1, label.two_l + 1))
            worst_weight = max(worst_weight, abs(w - float(coef) * math.sqrt(float(scale.rad))))
    print(f"label weights against the oracle (two_j<=6): {worst_weight:.3e}")
    assert worst_weight <= 2.3e-16

    worst_coord = 0.0
    for q in (1, 2, 3):
        s, b = FuzzySuperSphere(q), FuzzySphere(q)
        sup, bod = s.coordinates(), b.coordinates()
        for k in range(3):
            worst_coord = max(
                worst_coord,
                float(np.linalg.norm(body_map_fuzzy(sup[k], s, b) - bod[k])),
            )
        for k in (3, 4):
            worst_coord = max(
                worst_coord, float(np.linalg.norm(body_map_fuzzy(sup[k], s, b)))
            )
    print(f"coordinate image residual (q<=3): {worst_coord:.3e}")
    assert worst_coord < 1e-10

    rng = np.random.default_rng(41)
    q = 2
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    worst_eq = 0.0
    for _ in range(5):
        f = random_graded_matrix(s.dims, rng)
        for a in (1, 2, 3):
            lhs = body_map_fuzzy(s.adjoint_action(a, f), s, b)
            rhs = b.adjoint_action(a, body_map_fuzzy(f, s, b))
            worst_eq = max(worst_eq, float(np.linalg.norm(lhs - rhs)))
    print(f"rotation equivariance residual (q=2): {worst_eq:.3e}")
    assert worst_eq < 1e-10

    ctx, bctx = super_context(q), body_context(q)
    worst_cochain = 0.0
    for p in (0, 1, 2):
        wform = random_superform(ctx, p, rng)
        lhs = body_cochain_map(exterior_d(wform), bctx)
        rhs = exterior_d(body_cochain_map(wform, bctx))
        worst_cochain = max(worst_cochain, (lhs - rhs).norm())
    print(f"cochain-map residual (q=2, p<=2): {worst_cochain:.3e}")
    assert worst_cochain < 1e-10

    for q in (1, 2, 3, 4):
        mat = body_map_matrix(FuzzySuperSphere(q), FuzzySphere(q))
        kernel = mat.shape[1] - numerical_rank(mat)
        want = (2 * q + 1) ** 2 - (q + 1) ** 2
        print(f"q={q}: kernel dim {kernel} (expected {want})")
        assert kernel == want
    _budget(t0, 30.0, "C09 body map")


def test_c10_exact_oracle():
    t0 = time.perf_counter()
    one = SuperPoly.one()
    core, scale = inner_S_exact(one, one, Fraction(1))
    assert core.re == 1 and core.im == 0 and scale.exact() == 1

    rng = np.random.default_rng(43)

    def rand_poly():
        comps = []
        for _ in range(4):
            comp = {}
            for _ in range(4):
                key = tuple(int(x) for x in rng.integers(0, 4, size=3))
                comp[key] = QQi(
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))),
                )
            comps.append(comp)
        return SuperPoly(*comps)

    rel = sphere_relation(Fraction(5, 2))
    for _ in range(50):
        g = rand_poly()
        assert berezin_radial_sum(rel * g, Fraction(5, 2)).is_zero()
    print("Berezin integral vanished exactly on 50 random ideal multiples")

    checked = 0
    for _ in range(10):
        f, g = rand_poly(), rand_poly()
        for fp in (0, 1):
            for gp in (0, 1):
                fh = f.even_part() if fp == 0 else f.odd_part()
                gh = g.even_part() if gp == 0 else g.odd_part()
                lhs = cross_involution(fh * gh)
                rhs = cross_involution(gh) * cross_involution(fh)
                if fp and gp:
                    rhs = rhs.scale(QQi.of(-1))
                assert (lhs - rhs).is_zero()
                checked += 1
            twice = cross_involution(cross_involution(fh))
            want = fh if fp == 0 else fh.scale(QQi.of(-1))
            assert (twice - want).is_zero()
    print(f"cross-involution laws exact on {checked} homogeneous products")
    _budget(t0, 30.0, "C10 exact oracle")
