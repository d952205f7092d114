"""Command line interface: verification suites, convergence tables,
cohomology reports, and direct access to the exact polynomial oracle.

Four subcommands:

    fuzzsuper verify      run residual checks and exit nonzero on failure
    fuzzsuper converge    structure constants against the classical limit
    fuzzsuper cohomology  Betti numbers with singular-value gap evidence
    fuzzsuper oracle      evaluate exact supersphere expressions

verify, converge and cohomology print text (default), json or csv through
one writer, _report; oracle prints text.  Floats in csv carry 17
significant digits, enough to round-trip doubles.  json keeps json.dumps'
defaults, so an infinite singular-value gap is written Infinity.

build_parser builds the parser once per process; parsing leaves it
unchanged, so every call of main shares it.  Each subparser names its
handler (the run default), and argparse itself rejects a --pmax, --suite
or --op outside its choices.  oracle reports an --expr or --expr2 that
continuum.parse_superpoly cannot read as a usage error naming the option.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .calculus import (
    EXPECTED_BETTI_BODY,
    EXPECTED_BETTI_SUPER,
    SuperForm,
    body_context,
    center_cohomology_dims,
    cohomology_dims,
    exterior_d,
    interior,
    invariant_one_forms,
    lie_derivative,
    maurer_cartan,
    random_superform,
    summand_block,
    super_context,
    wedge,
)
from .continuum import (
    QQi,
    SuperPoly,
    berezin_radial_sum,
    classical_harmonic,
    cross_involution,
    format_superpoly,
    harmonic_sign,
    inner_S_exact,
    normal_form,
    parse_superpoly,
    sphere_relation,
    structure_constant_classical,
)
from .fuzzy import (
    FuzzyElement,
    FuzzySphere,
    FuzzySuperSphere,
    HarmonicLabel,
    all_labels,
    body_map_blocks,
    body_map_fuzzy,
    fuzzy_product,
    structure_constant_fuzzy,
)
from .graded import (
    entry_weights,
    indefinite_inner,
    numerical_rank,
    random_graded_matrix,
)
from .osp import (
    build_osp_basis,
    bracket_residual,
    grade_star_label,
    jacobi_residual,
    verify_grade_star,
)

MAX_LEVEL_WITHOUT_OPT_IN = 60


@dataclasses.dataclass
class CheckResult:
    suite: str
    name: str
    q: Optional[int]
    residual: float
    tol: float
    info: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def row(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "q": self.q,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
            "info": self.info,
        }


# ---------------------------------------------------------------------------
# verify suites


def _suite_algebra(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    basis = build_osp_basis()
    sphere = FuzzySuperSphere(q, rho)
    rep = sphere.rep
    out = [
        CheckResult("algebra", "jacobi identity", None, jacobi_residual(basis), tol),
        CheckResult("algebra", "irrep brackets", q, bracket_residual(rep, basis), tol),
        CheckResult("algebra", "grade star 0", q, verify_grade_star(rep, 0), tol),
    ]
    # the level-1 star is realized through the pairing, not the matrix
    # superadjoint, so it is checked on homogeneous elements
    worst = 0.0
    for _ in range(4):
        for pf in (0, 1):
            f = random_graded_matrix(sphere.dims, rng, parity=pf)
            g = random_graded_matrix(sphere.dims, rng)
            for a in (1, 2, 3, 4, 5):
                lhs = indefinite_inner(f, sphere.adjoint_action(a, g))
                target, s = grade_star_label(a, 1)
                sign = (-1.0) ** (basis.parities[a - 1] * pf)
                rhs = sign * indefinite_inner(
                    sphere.adjoint_action(target, s * f), g
                )
                worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("algebra", "pairing under star 1", q, worst, max(tol, 1e-9)))
    return out


def _weight_gram(labels, harmonic, weights: np.ndarray, pair: np.ndarray, sign):
    """Check a harmonic basis one weight at a time; (worst off-weight entry, worst Gram residual).

    Harmonics of different weights pair to zero when each is exactly zero
    off the entries of its weight, which is checked.  The harmonics of one
    weight then give one signed Gram sign_a sum conj(Y_a) pair Y_b over
    those entries, whose distance from the identity is the residual.  Only
    one weight's harmonics are held at a time.
    """
    by_weight = {}
    for la in labels:
        by_weight.setdefault(la.two_m, []).append(la)
    off = worst = 0.0
    for two_m, group in by_weight.items():
        on = weights == two_m
        w = pair[on]
        cols = np.empty((len(w), len(group)), dtype=complex)
        for k, la in enumerate(group):
            y = harmonic(la)
            off = max(off, float(np.abs(np.where(on, 0.0, y)).max()))
            cols[:, k] = y[on]
        s = np.array([sign(la) for la in group], dtype=float)
        gram = s[:, None] * (cols.conj().T @ (w[:, None] * cols))
        worst = max(worst, float(np.abs(gram - np.eye(len(group))).max()))
    return off, worst


def _suite_harmonics(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    sphere = FuzzySuperSphere(q, rho)
    labels = sphere.labels()
    count_ok = 0.0 if len(labels) == (2 * q + 1) ** 2 else 1.0
    off, worst = _weight_gram(
        labels, lambda la: sphere.harmonic(la).mat, entry_weights(sphere.rep.j3.mat), sphere.dims.pairing,
        lambda la: la.sign,
    )
    body = FuzzySphere(q, rho)
    boff, bworst = _weight_gram(
        body.labels(), body.harmonic, entry_weights(body.rep.j3.mat), np.full((body.n, body.n), 1.0 / body.n),
        lambda la: 1,
    )
    return [
        CheckResult("harmonics", "label count", q, count_ok, 0.0),
        CheckResult("harmonics", "graded weight support", q, off, 0.0),
        CheckResult("harmonics", "graded gram", q, worst, tol),
        CheckResult("harmonics", "body weight support", q, boff, 0.0),
        CheckResult("harmonics", "body gram", q, bworst, tol),
    ]


def _suite_casimir(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    sphere = FuzzySuperSphere(q, rho)
    body = FuzzySphere(q, rho)
    return [
        CheckResult("casimir", "graded radius relation", q, sphere.casimir_residual(), tol),
        CheckResult("casimir", "body radius relation", q, body.casimir_residual(), tol),
    ]


def _suite_products(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    sphere = FuzzySuperSphere(q, rho)
    out = []
    worst = 0.0
    for two_j1 in range(0, 2 * q + 1):
        for two_j2 in range(two_j1, 2 * q + 1):
            if two_j1 + two_j2 > 2 * q or two_j1 + two_j2 > 6:
                continue
            sc = structure_constant_fuzzy(q, two_j1, two_j2)
            worst = max(worst, sc.residual)
    out.append(CheckResult("products", "highest-weight proportionality", q, worst, tol))
    # dual route: same constant through the full coefficient product
    two_j1, two_j2 = (1, 2) if q >= 2 else (1, 1)
    e1 = FuzzyElement(q, {HarmonicLabel(two_j1, 0, two_j1): 1.0})
    e2 = FuzzyElement(q, {HarmonicLabel(two_j2, 0, two_j2): 1.0})
    prod = fuzzy_product(e1, e2, sphere)
    via_coeffs = prod.get(HarmonicLabel(two_j1 + two_j2, 0, two_j1 + two_j2))
    direct = structure_constant_fuzzy(q, two_j1, two_j2).c
    out.append(
        CheckResult(
            "products",
            "coefficient route agreement",
            q,
            abs(via_coeffs - direct),
            max(tol, 1e-10),
        )
    )
    return out


def _suite_body(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    sphere = FuzzySuperSphere(q, rho)
    body = FuzzySphere(q, rho)
    coords = sphere.coordinates()
    bcoords = body.coordinates()
    worst = 0.0
    for k in range(3):
        worst = max(worst, float(np.linalg.norm(body_map_fuzzy(coords[k], sphere, body) - bcoords[k])))
    for k in (3, 4):
        worst = max(worst, float(np.linalg.norm(body_map_fuzzy(coords[k], sphere, body))))
    eq_worst = 0.0
    for _ in range(3):
        f = random_graded_matrix(sphere.dims, rng)
        for a in (1, 2, 3):
            lhs = body_map_fuzzy(sphere.adjoint_action(a, f), sphere, body)
            rhs = body.adjoint_action(a, body_map_fuzzy(f, sphere, body))
            eq_worst = max(eq_worst, float(np.linalg.norm(lhs - rhs)))
    blocks = body_map_blocks(sphere, body).values()
    kernel = sum(block.shape[1] - numerical_rank(block) for block in blocks)
    expect = (2 * q + 1) ** 2 - (q + 1) ** 2
    return [
        CheckResult("body", "coordinates map across", q, worst, tol),
        CheckResult("body", "rotation equivariance", q, eq_worst, tol),
        CheckResult("body", "kernel dimension", q, abs(kernel - expect), 0.0),
    ]


def _suite_calculus(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    ctx = super_context(q)
    out = []
    worst_d2 = 0.0
    worst_magic = 0.0
    for p in (0, 1, 2):
        for parity in (0, 1):
            w = random_superform(ctx, p, rng, parity)
            worst_d2 = max(worst_d2, exterior_d(exterior_d(w)).norm())
            dw = exterior_d(w)
            for a in ctx.labels:
                lhs = interior(a, dw)
                rhs = ((-1) ** (ctx.label_parity(a) * parity)) * lie_derivative(a, w)
                if p > 0:
                    rhs = rhs - exterior_d(interior(a, w))
                worst_magic = max(worst_magic, (lhs - rhs).norm())
    out.append(CheckResult("calculus", "d squared", q, worst_d2, tol))
    out.append(CheckResult("calculus", "cartan magic formula", q, worst_magic, tol))
    w1 = random_superform(ctx, 1, rng, 0)
    w2 = random_superform(ctx, 1, rng, 1)
    ww = wedge(w1, w2)
    leib = (exterior_d(ww) - (wedge(exterior_d(w1), w2) - wedge(w1, exterior_d(w2)))).norm()
    out.append(CheckResult("calculus", "wedge leibniz", q, leib, tol))
    # the blocks that the ranks read, against exterior_d on forms valued in one superspin's
    # harmonics: x[k] Y(2j, m) on the k-th source tuple of weight m, and block @ x on the targets
    frame, sphere = ctx.ladder, ctx.sphere

    def form(p: int, two_j: int, tuples, coefs) -> SuperForm:
        values = {}
        for t, x in zip(tuples, coefs):
            m = frame.tuple_weight(t)
            values[t] = sphere.harmonic(HarmonicLabel(two_j, (two_j - m) % 2, m)) * x
        return SuperForm(frame, p, values)

    miss = 0.0
    for p in (0, 1):
        for two_j in sorted({0, 1, 2, 3, 2 * q - 1, 2 * q} & set(range(2 * q + 1))):
            block, sources, targets = summand_block(frame, p, two_j)
            x = rng.standard_normal(len(sources))
            predicted = form(p + 1, two_j, targets, block @ x)
            miss = max(miss, (exterior_d(form(p, two_j, sources, x)) - predicted).norm())
    out.append(CheckResult("calculus", "summand blocks", q, miss, tol))
    return out


def _suite_maurer_cartan(q: int, rho: float, tol: float, rng) -> List[CheckResult]:
    ctx = super_context(q)
    lam = maurer_cartan(ctx)
    r1 = (exterior_d(lam) - wedge(lam, lam)).norm()
    f = SuperForm.from_scalar(ctx, random_graded_matrix(ctx.dims, rng))
    r2 = (exterior_d(f) - (wedge(lam, f) - wedge(f, lam))).norm()
    r3 = max(lie_derivative(a, lam).norm() for a in ctx.labels)
    dec = invariant_one_forms(ctx)
    dim = ctx.n**2 * len(ctx.index_tuples(1)) - dec.rank
    # the misses: the distance from a line, plus one for a rank that no gap backs
    miss = abs(dim - 1) + int(dec.inconclusive)
    note = f"inconclusive rank, gap {dec.gap:.1e}" if dec.inconclusive else ""
    return [
        CheckResult("maurer-cartan", "structure equation", q, r1, tol),
        CheckResult("maurer-cartan", "d as a bracket", q, r2, tol),
        CheckResult("maurer-cartan", "invariance", q, r3, tol),
        CheckResult("maurer-cartan", "invariant space dimension", q, miss, 0.0, note),
    ]


def _suite_oracle(q: int, rho_frac: Fraction, tol: float, rng) -> List[CheckResult]:
    one = SuperPoly.one()
    unit = abs(complex(inner_S_exact(one, one, rho_frac)[0]) - 1.0)
    rel = sphere_relation(rho_frac)
    ideal_worst = 0.0
    for _ in range(10):
        comps = []
        for _ in range(4):
            comp = {}
            for _ in range(3):
                key = tuple(int(x) for x in rng.integers(0, 3, size=3))
                comp[key] = QQi(
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                )
            comps.append(comp)
        g = SuperPoly(*comps)
        if not berezin_radial_sum(rel * g, rho_frac).is_zero():
            ideal_worst = 1.0
    # exact Gram for 2j <= 6: a zero core off the diagonal, the signature on
    # it; the residual counts the entries that miss
    gram_misses = 0
    labels = [(la.two_j, la.mu, la.two_m) for la in all_labels(3)]
    harms = [(lab, classical_harmonic(*lab, rho_frac)) for lab in labels]
    for i, (la, ya) in enumerate(harms):
        for lb, yb in harms[i:]:
            core, scale = inner_S_exact(ya, yb, rho_frac)
            if la != lb:
                exact = core.is_zero()
            else:
                rational = scale.exact()
                want = QQi.of(harmonic_sign(la[0], la[1]))
                exact = rational is not None and core * QQi.of(rational) == want
            gram_misses += not exact
    return [
        CheckResult("oracle", "unit normalization", None, unit, 0.0),
        CheckResult("oracle", "ideal integrates to zero", None, ideal_worst, 0.0),
        CheckResult("oracle", "classical gram exact", None, float(gram_misses), 0.0),
    ]


#: the suites whose checks read --rho; the others give the same residuals at any radius
RADIUS_SUITES = frozenset({"casimir", "body", "oracle"})

SUITES = {
    "algebra": _suite_algebra,
    "harmonics": _suite_harmonics,
    "casimir": _suite_casimir,
    "products": _suite_products,
    "body": _suite_body,
    "calculus": _suite_calculus,
    "maurer-cartan": _suite_maurer_cartan,
    "oracle": _suite_oracle,
}


# ---------------------------------------------------------------------------
# rendering


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    """One csv cell: a float by _fmt, None empty, anything else by str."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _report(args, payload: dict, header: str, rows, text: List[str]) -> None:
    """Write a report in args.format to args.out, or to stdout.

    json is the payload; csv is the header and one line per row of cells;
    text is the command's own lines.
    """
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        out = "\n".join([header, *(",".join(map(_cell, row)) for row in rows)])
    else:
        out = "\n".join(text)
    _emit(out, args.out)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _parse_half(
    value: str, parser: argparse.ArgumentParser, flag: str, signed: bool = False
) -> int:
    """Spin given as '1', '3/2' or '1.5'; returns the doubled integer.

    With signed, one leading '-' is split off before the magnitude is
    parsed, and negates the result.
    """
    negative = signed and value.startswith("-")
    try:
        frac = Fraction(value[1:] if negative else value)
    except (ValueError, ZeroDivisionError):
        parser.error(f"{flag} must be a half-integer, got {value!r}")
    doubled = frac * 2
    if doubled.denominator != 1 or doubled < 0:
        kind = "a" if signed else "a non-negative"
        parser.error(f"{flag} must be {kind} half-integer, got {value!r}")
    return -int(doubled) if negative else int(doubled)


def _validate_level(q: int, allow_large: bool, parser: argparse.ArgumentParser) -> None:
    if q < 1:
        parser.error("level q must be a positive integer")
    if q > MAX_LEVEL_WITHOUT_OPT_IN and not allow_large:
        parser.error(
            f"level q={q} builds matrices of size {(2 * q + 1)}^2; pass --allow-large to proceed"
        )


def cmd_verify(args, parser) -> int:
    qs = args.q_list or [args.q]
    for q in qs:
        _validate_level(q, args.allow_large, parser)
    rng = np.random.default_rng(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results: List[CheckResult] = []
    for q in qs:
        for name in names:
            # the exact oracle keeps rho a Fraction; the spheres take it as a float
            results.extend(SUITES[name](q, args.rho, args.tol, rng))
    meta = {"command": "verify", "version": __version__, "seed": args.seed}
    if RADIUS_SUITES.intersection(names):
        meta["rho"] = str(args.rho)
    meta.update(tol=args.tol, q=qs, suites=names)
    width = max((len(f"{r.suite}: {r.name}") for r in results), default=20)
    text = ["# " + " ".join(f"{key}={meta[key]}" for key in ("seed", "rho", "version") if key in meta)]
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        qtxt = f" q={r.q}" if r.q is not None else ""
        text.append(
            f"{tag}  {f'{r.suite}: {r.name}':<{width}}{qtxt}  residual={r.residual:.3e}  tol={r.tol:.1e}"
        )
    n_pass = sum(r.passed for r in results)
    text.append(f"# {n_pass}/{len(results)} checks passed")
    _report(
        args,
        {"meta": meta, "results": [r.row() for r in results]},
        "suite,name,q,residual,tol,passed",
        [(r.suite, r.name, r.q, r.residual, r.tol, r.passed) for r in results],
        text,
    )
    return 0 if n_pass == len(results) else 1


def cmd_converge(args, parser) -> int:
    two_j1 = _parse_half(args.j1, parser, "--j1")
    two_j2 = _parse_half(args.j2, parser, "--j2")
    qs = args.q_list or [10, 20, 40]
    for q in qs:
        # the structure constants take O(q) and build no matrix: any level will do
        _validate_level(q, True, parser)
    rho_frac = args.rho
    c_cl, resid_cl = structure_constant_classical(two_j1, two_j2, rho_frac)
    rows = []
    notes = []
    for q in qs:
        if two_j1 + two_j2 > 2 * q:
            notes.append(f"q={q}: superspin {(two_j1 + two_j2) / 2} exceeds the cutoff, skipped")
            continue
        sc = structure_constant_fuzzy(q, two_j1, two_j2)
        rows.append(
            {
                "j1": two_j1 / 2,
                "j2": two_j2 / 2,
                "q": q,
                "c_fuzzy": sc.c,
                "c_classical": c_cl,
                "abs_delta": abs(sc.c - c_cl),
                "residual_fuzzy": sc.residual,
            }
        )
    meta = {
        "command": "converge",
        "version": __version__,
        "rho": str(rho_frac),
        "classical_residual": resid_cl,
        "notes": notes,
    }
    text = [f"# c classical = {c_cl:.12f} (residual {resid_cl:.1e})"]
    text.extend(f"q={r['q']:>3}  c={r['c_fuzzy']:.12f}  |delta|={r['abs_delta']:.3e}" for r in rows)
    text.extend(f"# {n}" for n in notes)
    _report(
        args,
        {"meta": meta, "rows": rows},
        "j1,j2,q,c_fuzzy,c_classical,abs_delta",
        # the spins print as str(float), "1.0", not by _fmt
        [
            (str(r["j1"]), str(r["j2"]), r["q"], r["c_fuzzy"], r["c_classical"], r["abs_delta"])
            for r in rows
        ],
        text,
    )
    return 0


def cmd_cohomology(args, parser) -> int:
    # the ranks read only q and the summand complexes, and build no matrix of the level
    _validate_level(args.q, True, parser)
    ctx = super_context(args.q)
    bctx = body_context(args.q)
    p_super = args.pmax
    p_body = min(args.pmax, 3)
    rep_s = cohomology_dims(ctx, p_super, args.tol)
    rep_b = cohomology_dims(bctx, p_body, args.tol)
    rep_c = center_cohomology_dims(ctx, p_super, args.tol)
    expected_s = EXPECTED_BETTI_SUPER[: p_super + 1]
    expected_b = EXPECTED_BETTI_BODY[: p_body + 1]
    ok = (
        not rep_s.inconclusive
        and not rep_b.inconclusive
        and not rep_c.inconclusive
        and rep_s.betti == expected_s
        and rep_b.betti == expected_b
        and rep_c.betti == rep_s.betti
    )
    payload = {
        "meta": {
            "command": "cohomology",
            "version": __version__,
            "q": args.q,
            "tol": args.tol,
            "expected_super": list(expected_s),
            "expected_body": list(expected_b),
        },
        "super": rep_s.to_json(),
        "body": rep_b.to_json(),
        "center_crosscheck": rep_c.to_json(),
        "ok": ok,
    }
    complexes = (("super", rep_s, expected_s), ("body", rep_b, expected_b), ("center", rep_c, expected_s))
    rows, text = [], []
    for tag, rep, exp in complexes:
        for p in range(rep.p_max + 1):
            rows.append((tag, p, rep.dims[p], rep.betti[p], rep.decisions[p].rank, rep.decisions[p].gap))
        status = "ok" if tuple(rep.betti) == tuple(exp) and not rep.inconclusive else "MISMATCH"
        text.append(
            f"{tag:<7} betti={list(rep.betti)} expected={list(exp)} "
            f"min sv-gap={rep.min_gap:.2e} [{status}]"
        )
    _report(args, payload, "complex,p,dim,betti,rank,sv_gap", rows, text)
    return 0 if ok else 1


def cmd_oracle(args, parser) -> int:
    rho = args.rho
    op = args.op
    if op in ("normal-form", "cross", "integral") and not args.expr:
        parser.error(f"--expr is required for {op}")
    if op == "inner" and (not args.expr or not args.expr2):
        parser.error("--expr and --expr2 are required for inner")
    polys = {}
    for flag in ("expr", "expr2"):
        try:
            polys[flag] = parse_superpoly(getattr(args, flag) or "")
        except ValueError as exc:
            parser.error(f"argument --{flag}: {exc}")
    if op == "normal-form":
        text = format_superpoly(normal_form(polys["expr"], rho).poly)
    elif op == "cross":
        text = format_superpoly(cross_involution(polys["expr"]))
    elif op == "integral":
        core = berezin_radial_sum(polys["expr"], rho)
        val = 2 * math.pi * complex(core)
        text = f"(2*pi) * ({core.re}{'+' if core.im >= 0 else '-'}{abs(core.im)}i) = {val}"
    elif op == "inner":
        core, scale = inner_S_exact(polys["expr"], polys["expr2"], rho)
        val = complex(core) * float(scale)
        text = f"exact core = {core.re}{'+' if core.im >= 0 else '-'}{abs(core.im)}i, value = {val}"
    elif op == "harmonic":
        if args.j1 is None:
            parser.error("--j1 (the superspin) is required for harmonic")
        two_j = _parse_half(args.j1, parser, "--j1")
        mu = args.mu
        two_m = two_j - mu if args.m is None else _parse_half(args.m, parser, "--m", signed=True)
        try:
            cls = classical_harmonic(two_j, mu, two_m, rho)
        except ValueError as exc:
            parser.error(str(exc))
        text = f"scale = {cls.scale.coef} * sqrt({cls.scale.rad})\npoly  = {format_superpoly(cls.poly)}"
    else:  # classical-c, the last of --op's choices
        if args.j1 is None or args.j2 is None:
            parser.error("--j1 and --j2 are required for classical-c")
        two_j1 = _parse_half(args.j1, parser, "--j1")
        two_j2 = _parse_half(args.j2, parser, "--j2")
        c, resid = structure_constant_classical(two_j1, two_j2, rho)
        text = f"c = {_fmt(c)} (residual {resid:.3e})"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> List[int]:
    out = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    if not out:
        raise argparse.ArgumentTypeError("expected a comma-separated list of levels")
    return out


def _positive_rational(text: str) -> Fraction:
    """A radius such as '5/2' or '2.5', kept exact for the oracle.

    It must also convert to a positive float, which the matrix suites use.
    """
    try:
        value = Fraction(text)
        positive = float(value) > 0
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"expected a rational or decimal in float range: {text!r}")
    if not positive:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fuzzsuper parser, built on the first call and shared after it.

    Parsing reads the parser without changing it, so every call of main in a
    process can use the one object.  Each subcommand's handler is its run
    default.
    """
    parser = argparse.ArgumentParser(
        prog="fuzzsuper",
        description="Matrix supersphere truncations: harmonics, calculus, cohomology.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--rho": dict(
            type=_positive_rational,
            default="1",
            help="sphere radius, a positive rational or decimal (default 1)",
        ),
        "--tol": dict(
            type=_positive_float, default=1e-8, help="tolerance, finite and > 0 (default 1e-8)"
        ),
        "--seed": dict(type=int, default=0, help="seed for randomized checks"),
        "--format": dict(choices=("text", "json", "csv"), default="text"),
        "--out": dict(help="write the report to this file instead of stdout"),
        "--allow-large": dict(action="store_true", help="permit levels q > 60"),
    }

    def common(p, *flags):
        """Add the shared options that the subcommand reads."""
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    def takes_any_level(p, command):
        """--allow-large for a command that needs no opt-in: accepted, so old command lines still run."""
        p.add_argument("--allow-large", action="store_true", help=f"accepted; {command} takes any level q >= 1")

    p_verify = sub.add_parser("verify", help="run residual check suites")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--q", type=int, default=2, help="truncation level (default 2)")
    p_verify.add_argument("--q-list", type=_int_list, help="comma-separated levels")
    p_verify.add_argument("--suite", default="all", choices=[*SUITES, "all"], help="suite to run (default all)")
    common(p_verify, *shared)

    p_conv = sub.add_parser("converge", help="structure constants against the classical value")
    p_conv.set_defaults(run=cmd_converge)
    p_conv.add_argument("--j1", required=True, help="first superspin (e.g. 1/2)")
    p_conv.add_argument("--j2", required=True, help="second superspin")
    p_conv.add_argument("--q-list", type=_int_list, help="levels (default 10,20,40)")
    common(p_conv, "--rho", "--format", "--out")
    takes_any_level(p_conv, "converge")

    p_coh = sub.add_parser("cohomology", help="Betti numbers with sv-gap evidence")
    p_coh.set_defaults(run=cmd_cohomology)
    p_coh.add_argument("--q", type=int, default=1, help="truncation level (default 1)")
    p_coh.add_argument(
        "--pmax", type=int, default=5, choices=range(len(EXPECTED_BETTI_SUPER)), help="top degree (default 5)"
    )
    common(p_coh, "--tol", "--format", "--out")
    takes_any_level(p_coh, "cohomology")

    p_or = sub.add_parser("oracle", help="exact classical-side computations")
    p_or.set_defaults(run=cmd_oracle)
    p_or.add_argument(
        "--op",
        required=True,
        choices=("normal-form", "cross", "integral", "inner", "harmonic", "classical-c"),
    )
    p_or.add_argument("--expr", help="superpolynomial, e.g. '1/2 * x1 x3 + i * t4'")
    p_or.add_argument("--expr2", help="second operand for inner")
    p_or.add_argument("--j1", help="superspin argument")
    p_or.add_argument("--j2", help="second superspin argument")
    p_or.add_argument("--mu", type=int, default=0, choices=(0, 1))
    p_or.add_argument("--m", help="magnetic label, e.g. -1/2 or -0.5 (default: highest weight)")
    common(p_or, "--rho", "--out")
    return parser


#: a signed value such as -5/2, -1e-3 or -x1: argparse reads only plain negative
#: integers and decimals as values, and would take these for option strings
_SIGNED_VALUE = re.compile(r"-[\d.(xti]")


def _attach_signed_values(argv: Sequence[str]) -> List[str]:
    """Write '--flag -5/2' as '--flag=-5/2', so that the flag's own check reads it."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _SIGNED_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    return args.run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
