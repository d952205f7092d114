import copy
import dataclasses
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from fuzzsuper.continuum import (
    QQI_I,
    QQI_ONE,
    QQi,
    SuperPoly,
    Surd,
    berezin_radial_sum,
    berezin_sphere_integral,
    body_map_classical,
    classical_harmonic,
    cross_involution,
    format_superpoly,
    harmonic_sign,
    SpherePolyClass,
    inner_S,
    inner_S_exact,
    inner_sphere,
    inner_sphere_exact,
    normal_form,
    parse_superpoly,
    sphere_harmonic,
    sphere_moment,
    sphere_relation,
    structure_constant_classical,
    vector_field_action,
)
from fuzzsuper.continuum import _dfact, _imul, _int_form, _radius

X1, X2, X3 = (SuperPoly.variable(v) for v in ("x1", "x2", "x3"))
T4, T5 = SuperPoly.variable("t4"), SuperPoly.variable("t5")
ONE = SuperPoly.one()


def rand_poly(rng, deg=2):
    comps = []
    for _ in range(4):
        comp = {}
        for _ in range(3):
            key = tuple(int(x) for x in rng.integers(0, deg + 1, size=3))
            comp[key] = QQi(
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
                Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))),
            )
        comps.append(comp)
    return SuperPoly(*comps)


# ---------------------------------------------------------------- scalars


def test_qqi_field_ops():
    a = QQi(Fraction(1, 2), Fraction(-3))
    b = QQi(Fraction(2), Fraction(1, 5))
    assert complex(a * b) == pytest.approx(complex(a) * complex(b))
    assert complex(a / b) == pytest.approx(complex(a) / complex(b))
    assert (a * b - b * a).is_zero()
    assert complex(a.conj()) == pytest.approx(complex(a).conjugate())


def test_surd_normalizes_perfect_squares():
    s = Surd(Fraction(1, 3), Fraction(4))
    assert s.rad == 1 and s.coef == Fraction(2, 3)
    # only full perfect squares fold; partial square factors stay put
    t = Surd(Fraction(1), Fraction(18))
    assert t.rad == 18 and t.exact() is None
    assert float(Surd(Fraction(1, 2), Fraction(2))) == pytest.approx(math.sqrt(2) / 2)


def test_surd_product_stays_exact():
    a = Surd(Fraction(2, 3), Fraction(6))
    b = Surd(Fraction(1, 2), Fraction(24))
    c = a * b
    assert c.rad == 1  # 6 * 24 = 144
    assert c.coef == Fraction(2, 3) * Fraction(1, 2) * 12


@dataclasses.dataclass(frozen=True)
class ReferenceSurd:
    """The Fraction-backed surd that continuum.Surd replaced, as it was: the reference for its pairs."""

    coef: Fraction
    rad: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        rn, rd = self.rad.numerator, self.rad.denominator
        if rn < 0:
            raise ValueError("radicand must be non-negative")
        if rn == 0 and self.coef != 0:
            object.__setattr__(self, "coef", Fraction(0))
            object.__setattr__(self, "rad", Fraction(1))
            rn = 1
        sn, sd = math.isqrt(rn), math.isqrt(rd)
        if sn * sn == rn and sd * sd == rd:
            object.__setattr__(self, "coef", self.coef * Fraction(sn, sd))
            object.__setattr__(self, "rad", Fraction(1))

    def __mul__(self, other: "ReferenceSurd") -> "ReferenceSurd":
        a, b, x, y = self.rad, other.rad, self.coef, other.coef
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        cn, cd = x.numerator * y.numerator, x.denominator * y.denominator
        if an == ad or bn == bd:
            coef, rad = Fraction(cn, cd), b if an == ad else a
        else:
            rn, rd = an * bn, ad * bd
            g = math.gcd(rn, rd)
            rn, rd = rn // g, rd // g
            sn, sd = math.isqrt(rn), math.isqrt(rd)
            if sn * sn == rn and sd * sd == rd:
                coef, rad = Fraction(cn * sn, cd * sd), Fraction(1)
            else:
                coef, rad = Fraction(cn, cd), Fraction(rn, rd)
        out = object.__new__(ReferenceSurd)
        out.__dict__.update(coef=coef, rad=rad)
        return out

    def __float__(self) -> float:
        return float(self.coef) * math.sqrt(float(self.rad))


def assert_same_surd(got: Surd, want: ReferenceSurd) -> None:
    assert (got.coef, got.rad) == (want.coef, want.rad)
    assert type(got.coef) is type(got.rad) is Fraction
    assert float(got).hex() == float(want).hex()


def test_surd_product_is_the_canonical_pair():
    # the integer product, and its fast path for a rational factor, give the pair
    # that the constructor makes of the product coefficient and radicand, and the
    # pair and the float of the Fraction-backed reference product
    rng = np.random.default_rng(4)

    def frac(lo):
        return Fraction(int(rng.integers(lo, 50)), int(rng.integers(1, 50)))

    pairs = [(frac(-49), frac(0)) for _ in range(40)]
    pairs += [(Fraction(3, 7), Fraction(1)), (Fraction(-2, 5), Fraction(9, 4)), (Fraction(1), Fraction(0))]
    for ca, ra in pairs:
        a, ref_a = Surd(ca, ra), ReferenceSurd(ca, ra)
        assert_same_surd(a, ref_a)
        for cb, rb in pairs:
            b, ref_b = Surd(cb, rb), ReferenceSurd(cb, rb)
            got = a * b
            want = Surd(a.coef * b.coef, a.rad * b.rad)
            assert (got.coef, got.rad) == (want.coef, want.rad)
            assert_same_surd(got, ref_a * ref_b)


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(5, 2), Fraction(7, 3)])
def test_harmonic_scales_match_the_fraction_reference(rho):
    # the scale as classical_harmonic built it from Fraction-backed surds, folded per step
    for two_j in range(9):
        for mu in (0, 1) if two_j else (0,):
            two_l, k = two_j - mu, two_j // 2
            power = k if two_j % 2 == 0 else k + 2
            top = ReferenceSurd(Fraction(1, 2**k * math.factorial(k)) / rho**power, Fraction(math.factorial(two_j)))
            steps = [Fraction(4, two_j)] if mu else []
            for two_m in range(two_l, -two_l - 1, -2):
                want = top
                for rad in steps + [Fraction(1, (two_l + t) // 2 * ((two_l - t + 2) // 2)) for t in range(two_l, two_m, -2)]:
                    want = want * ReferenceSurd(Fraction(1), rad)
                assert_same_surd(classical_harmonic(two_j, mu, two_m, rho).scale, want)


def test_surd_takes_ints_and_fractions_only():
    # int and Fraction input give the same int pairs, read back as Fractions
    for coef, rad in ((1, 8), (Fraction(1), 8), (1, Fraction(8))):
        s = Surd(coef, rad)
        assert (s.coef, s.rad) == (1, 8)
        assert type(s.coef) is type(s.rad) is Fraction
    assert (Surd(3, 4).coef, Surd(3, 4).rad) == (6, 1)
    with pytest.raises(TypeError, match="coef"):
        Surd(0.5, 2)
    with pytest.raises(TypeError, match="rad"):
        Surd(1, 2.5)
    with pytest.raises(TypeError, match="coef"):
        Surd("1")
    with pytest.raises(ValueError, match="non-negative"):
        Surd(1, -2)


def test_surd_is_an_immutable_value():
    s = Surd(Fraction(-2, 3), Fraction(5, 7))
    for name in ("coef", "rad", "_ints", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    with pytest.raises(AttributeError):
        del s.coef
    with pytest.raises(TypeError):
        s * 2
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(twin) is Surd and twin == s and hash(twin) == hash(s)
        assert (twin.coef, twin.rad) == (s.coef, s.rad) and float(twin) == float(s)
    # a pair that only its value makes equal to another survives the round trip as it was
    t = pickle.loads(pickle.dumps(Surd(1, 8)))
    assert (t.coef, t.rad) == (1, 8) and repr(t) == repr(Surd(1, 8))
    z = copy.copy(Surd(0, 5))
    assert (z.coef, z.rad) == (0, 5)


def test_surd_equality_goes_by_value():
    # only whole perfect-square radicands fold, so one value has several pairs
    a, b = Surd(1, 8), Surd(2, 2)
    assert (a.coef, a.rad) == (1, 8) and (b.coef, b.rad) == (2, 2)
    assert a == b and hash(a) == hash(b)
    assert a != Surd(-2, 2) and a != Surd(2, 3) and Surd(0) == Surd(0, 5)
    assert len({Surd(Fraction(1, 3), 12), Surd(Fraction(2, 3), 3), Surd(2, Fraction(1, 3))}) == 1


# ---------------------------------------------------------------- algebra


def test_grassmann_squares_vanish():
    assert (T4 * T4).is_zero()
    assert (T5 * T5).is_zero()
    assert not (T4 * T5).is_zero()


def test_grassmann_anticommute():
    assert (T4 * T5 + T5 * T4).is_zero()
    assert (X1 * T4 - T4 * X1).is_zero()


def test_parity():
    assert ONE.parity() == 0
    assert T4.parity() == 1
    assert (T4 * T5).parity() == 0
    assert (X1 + T4).parity() is None


def test_associativity_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert ((f * g) * h - f * (g * h)).is_zero()


def test_cross_involution_laws():
    rng = np.random.default_rng(4)
    for _ in range(8):
        f = rand_poly(rng)
        g = rand_poly(rng)
        for fp in (0, 1):
            for gp in (0, 1):
                fh = f.even_part() if fp == 0 else f.odd_part()
                gh = g.even_part() if gp == 0 else g.odd_part()
                # (fg)^x = (-1)^{|f||g|} g^x f^x
                lhs = cross_involution(fh * gh)
                rhs = cross_involution(gh) * cross_involution(fh)
                if fp and gp:
                    rhs = rhs.scale(QQi.of(-1))
                assert (lhs - rhs).is_zero()
            # (f^x)^x = (-1)^{|f|} f
            twice = cross_involution(cross_involution(fh))
            want = fh if fp == 0 else fh.scale(QQi.of(-1))
            assert (twice - want).is_zero()


def test_cross_fixes_real_even_coordinates():
    for v in (X1, X2, X3):
        assert (cross_involution(v) - v).is_zero()
    theta = T4 * T5
    assert (cross_involution(theta) - theta).is_zero()


# ---------------------------------------------------------------- normal form


def test_normal_form_kills_ideal():
    rng = np.random.default_rng(5)
    rel = sphere_relation(Fraction(3, 2))
    for _ in range(6):
        g = rand_poly(rng)
        f = rand_poly(rng)
        nf1 = normal_form(f, Fraction(3, 2))
        nf2 = normal_form(f + rel * g, Fraction(3, 2))
        assert (nf1.poly - nf2.poly).is_zero()


def test_normal_form_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(4):
        f = rand_poly(rng, deg=3)
        nf = normal_form(f, 1)
        again = normal_form(nf.poly, 1)
        assert (nf.poly - again.poly).is_zero()


def test_normal_form_substitutes_x3_square():
    nf = normal_form(X3 * X3, 1)
    want = parse_superpoly("1 + -1 * x1^2 + -1 * x2^2 + -2 * t4 t5")
    assert (nf.poly - want).is_zero()


# ---------------------------------------------------------------- integral


def test_moments():
    assert sphere_moment(0, 0, 0) == 1
    assert sphere_moment(2, 0, 0) == Fraction(1, 3)
    assert sphere_moment(1, 0, 0) == 0
    assert sphere_moment(2, 2, 0) == Fraction(1, 15)
    assert sphere_moment(2, 2, 2) == Fraction(1, 105)


def test_berezin_anchors():
    for rho in (Fraction(1), Fraction(5, 2)):
        assert berezin_sphere_integral(ONE, rho) == pytest.approx(2 * math.pi / rho)
        assert berezin_sphere_integral(T4 * T5, rho) == pytest.approx(
            -2 * math.pi * rho
        )


def test_berezin_vanishes_on_ideal_exactly():
    rng = np.random.default_rng(8)
    rel = sphere_relation(Fraction(5, 2))
    for _ in range(20):
        g = rand_poly(rng, deg=3)
        assert berezin_radial_sum(rel * g, Fraction(5, 2)).is_zero()


def test_unit_inner_product():
    core, scale = inner_S_exact(ONE, ONE, Fraction(7, 3))
    assert core == QQI_ONE
    assert float(scale) == pytest.approx(1.0)


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(5, 2)])
def test_inner_products_equal_the_formed_product(rho):
    # mixed parity in every component, x3 powers up to 3 (not in normal form)
    rng = np.random.default_rng(12)
    polys = [rand_poly(rng, deg=3) for _ in range(8)]
    assert any(k[2] >= 2 for f in polys for comp in f.components() for k in comp)
    for f in polys:
        for g in polys:
            want = QQi(rho) * berezin_radial_sum(cross_involution(f) * g, rho)
            assert inner_S_exact(f, g, rho)[0] == want
            body = SuperPoly(c0=cross_involution(f).c0) * SuperPoly(c0=g.c0)
            sphere = QQi(Fraction(0))
            for (a, b, c), v in body.c0.items():
                sphere = sphere + QQi(rho ** (a + b + c) * sphere_moment(a, b, c)) * v
            assert inner_sphere_exact(f, g, rho)[0] == sphere


# ------------------------------------------- integer kernels, Fraction refs
# The Fraction formulas the integer kernels replaced: products term by term
# in QQi, moments one Fraction per degree and component pair, and the
# bosonic reduction through those products.  The kernels must give the same
# Fractions, not merely close ones.


def ref_pmul(a, b):
    out = {}
    for (a1, a2, a3), va in a.items():
        for (b1, b2, b3), vb in b.items():
            k = (a1 + b1, a2 + b2, a3 + b3)
            out[k] = out.get(k, QQi()) + va * vb
    return {k: v for k, v in out.items() if not v.is_zero()}


def ref_superpoly_mul(f, g):
    f0, f4, f5, f45 = f.components()
    g0, g4, g5, g45 = g.components()
    h45 = ref_padd(ref_pmul(f0, g45), ref_pmul(f45, g0))
    h45 = ref_padd(h45, ref_pmul(f4, g5))
    h45 = ref_padd(h45, ref_pmul(f5, g4), -QQI_ONE)
    return (
        ref_pmul(f0, g0),
        ref_padd(ref_pmul(f0, g4), ref_pmul(f4, g0)),
        ref_padd(ref_pmul(f0, g5), ref_pmul(f5, g0)),
        h45,
    )


def ref_moment_by_degree(p):
    out = {}
    for (a, b, c), v in p.items():
        m = sphere_moment(a, b, c)
        if m == 0:
            continue
        n = a + b + c
        out[n] = out.get(n, QQi()) + v * QQi(m)
    return out


def ref_paired_moments(pairs):
    """Degree-n moments of sum_k sign_k conj(p_k) q_k, one QQi per degree and pair."""
    out = {}
    for p, q, sign in pairs:
        for n, m in ref_moment_by_degree(ref_pmul({k: v.conj() for k, v in p.items()}, q)).items():
            out[n] = out.get(n, QQi()) + QQi.of(sign) * m
    return out


def ref_berezin_radial_sum(f, rho):
    total = QQi()
    for n, m in ref_moment_by_degree(f.c0).items():
        total = total + QQi(Fraction(n + 1) * rho ** (n - 1)) * m
    for n, m in ref_moment_by_degree(f.c45).items():
        total = total - QQi(rho ** (n + 1)) * m
    return total


def ref_inner_S_core(f, g, rho):
    body = ref_paired_moments([(f.c0, g.c0, 1)])
    top = ref_paired_moments([(f.c0, g.c45, 1), (f.c45, g.c0, 1), (f.c5, g.c5, -1), (f.c4, g.c4, -1)])
    total = QQi()
    for n, m in body.items():
        total = total + QQi(Fraction(n + 1) * rho ** (n - 1)) * m
    for n, m in top.items():
        total = total - QQi(rho ** (n + 1)) * m
    return QQi(rho * total.re, rho * total.im)


def ref_inner_sphere_core(f, g, rho):
    total = QQi()
    for n, m in ref_paired_moments([(f.c0, g.c0, 1)]).items():
        total = total + QQi(rho**n) * m
    return total


def ref_reduce_bosonic(p, rho):
    def radical_powers(t):
        out = {}
        for b in range(t + 1):
            for c in range(t - b + 1):
                n = (-1) ** (b + c) * math.comb(t, b) * math.comb(t - b, c)
                out[(2 * b, 2 * c, 0)] = QQi(n * rho ** (2 * (t - b - c)))
        return out

    reduced, spill = {}, {}
    for (a, b, c), v in p.items():
        t, r = divmod(c, 2)
        if t == 0:
            reduced = ref_padd(reduced, {(a, b, c): v})
            continue
        reduced = ref_padd(reduced, ref_pmul({(a, b, r): v}, radical_powers(t)))
        tail = {(a, b, r): v * QQi(Fraction(-2 * t))}
        spill = ref_padd(spill, ref_pmul(tail, radical_powers(t - 1)))
    return reduced, spill


def ref_normal_form(f, rho):
    c0, spill = ref_reduce_bosonic(f.c0, rho)
    c4, _ = ref_reduce_bosonic(f.c4, rho)
    c5, _ = ref_reduce_bosonic(f.c5, rho)
    c45, _ = ref_reduce_bosonic(ref_padd(f.c45, spill), rho)
    return (c0, c4, c5, c45)


def kernel_inputs(rho):
    """Mixed denominators, empty components, zero, a pure theta4 theta5 term, harmonics."""
    rng = np.random.default_rng(21)
    polys = [rand_poly(rng, deg=4) for _ in range(5)]
    polys.append(SuperPoly(c0=rand_poly(rng, deg=3).c0, c45=rand_poly(rng, deg=3).c45))
    polys.append(SuperPoly(c4=rand_poly(rng, deg=3).c4))
    polys.append(SuperPoly.zero())
    polys.append((T4 * T5).scale(QQi(Fraction(-3, 7), Fraction(2, 5))))
    polys.append(parse_superpoly("(1/6+5/9i) * x3^5 + 2/11 * x1^2 x3^4 t4 t5 + 3/8 * x2 x3^3 t5"))
    for label in ((3, 1, 0), (4, 0, -2), (5, 1, 2)):
        polys.append(classical_harmonic(*label, rho).poly)
    return polys


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(5, 2), Fraction(7, 3)])
def test_integer_kernels_equal_fraction_references(rho):
    polys = kernel_inputs(rho)
    for f in polys:
        assert berezin_radial_sum(f, rho) == ref_berezin_radial_sum(f, rho)
        assert normal_form(f, rho).poly.components() == ref_normal_form(f, rho)
        for g in polys:
            assert inner_S_exact(f, g, rho)[0] == ref_inner_S_core(f, g, rho)
            assert inner_sphere_exact(f, g, rho)[0] == ref_inner_sphere_core(f, g, rho)
            assert (f * g).components() == ref_superpoly_mul(f, g)


def test_integer_form_is_cached_on_the_instance():
    f = parse_superpoly("1/3 * x1 + (2/5-i) * x3^2 t4 + 1/7 * t4 t5")
    form = f.ints
    assert f.ints is form
    assert form.den == 105
    assert form.terms[1] == ((0, 0, 2, 42, -105),)
    assert SuperPoly.zero().ints.den == 1


# ------------------------------------------- kept integer forms, two-pass refs
# A kernel's result keeps the accumulators it was made from as its integer
# form; that form must be the one _int_form recomputes from the Fractions,
# term and bucket order included, and the Fractions are formed on first
# read, equal to the tables the kernels once built eagerly.  The one-pass
# pairing must give the Fractions of the two-pass one it replaced: one
# accumulator per call of ref_degree_sums, folded by ref_fold_moments, over
# forms recomputed from the Fractions.

RHOS = [Fraction(1), Fraction(5, 2), Fraction(7, 3)]


def form_key(form):
    return form.den, form.terms, [list(bucket.items()) for bucket in form.buckets]


def eager_tables(form):
    """The coefficient tables that a kernel built eagerly from its integer form."""
    return tuple(
        {(a, b, c): QQi(Fraction(re, form.den), Fraction(im, form.den)) for a, b, c, re, im in rows}
        for rows in form.terms
    )


@pytest.mark.parametrize("rho", RHOS)
def test_kept_integer_forms_equal_the_recomputed_ones(rho):
    polys = kernel_inputs(rho)
    made = [f * g for f in polys for g in polys[::3]]
    made += [normal_form(f, rho).poly for f in polys]
    made += [vector_field_action(a, f) for a in (1, 2, 3, 4, 5, "+", "-") for f in polys]
    made += [classical_harmonic(*label, rho).poly for label in all_harmonic_labels(6)]
    tables = {"c0", "c4", "c5", "c45"}
    for f in made:
        assert "ints" in vars(f)  # kept from its kernel, not built on first use
        assert not tables & set(vars(f))  # and no coefficient table yet
        want = eager_tables(f.ints)
        assert f.c5 == want[2] and tables <= set(vars(f))  # one read builds all four
        assert f.components() == want
        assert format_superpoly(f) == format_superpoly(SuperPoly(*want))
        assert form_key(f.ints) == form_key(_int_form(f.components()))
    with pytest.raises(AttributeError):
        made[0].c0 = {}
    assert SuperPoly.zero().ints == (ONE * SuperPoly.zero()).ints == (1, ((),) * 4, ({},) * 4)


def ref_degree_sums(pairs):
    """Degree-n moment numerators of sum_k sign_k conj(p_k) q_k, one accumulator."""
    acc = {}
    for left, right, sign in pairs:
        for parity, p_terms in left.items():
            q_terms = right.get(parity)
            if q_terms:
                _imul(acc, p_terms, q_terms, sign, conj=True)
    by_degree = {}
    for (a, b, c), (re, im) in acc.items():
        w = _dfact(a - 1) * _dfact(b - 1) * _dfact(c - 1)
        slot = by_degree.setdefault(a + b + c, [0, 0])
        slot[0] += w * re
        slot[1] += w * im
    return by_degree


def ref_fold_moments(terms, rho, den):
    """The sum of c (re + i im) rho^k / ((n+1)!! den) over terms (k, c, n, re, im), n even."""
    if not terms:
        return QQi()
    p, r = rho.numerator, rho.denominator
    top = max(t[2] for t in terms) + 1
    k0 = min(0, min(t[0] for t in terms))
    k1 = max(0, max(t[0] for t in terms))
    num_re = num_im = 0
    for k, c, n, re, im in terms:
        w = c * math.prod(range(n + 3, top + 1, 2)) * p ** (k - k0) * r ** (k1 - k)
        num_re += w * re
        num_im += w * im
    den *= _dfact(top) * p**-k0 * r**k1
    return QQi(Fraction(num_re, den), Fraction(num_im, den))


def ref_pairing(f, g, rho, lift):
    """rho^lift * berezin_radial_sum(cross_involution(f) * g, rho), body and top apart."""
    ff, gf = _int_form(f.components()), _int_form(g.components())
    fb, gb = ff.buckets, gf.buckets
    body = ref_degree_sums(((fb[0], gb[0], 1),))
    top = ref_degree_sums(((fb[0], gb[3], 1), (fb[3], gb[0], 1), (fb[2], gb[2], -1), (fb[1], gb[1], -1)))
    terms = [(n - 1 + lift, n + 1, n, re, im) for n, (re, im) in body.items()]
    terms += [(n + 1 + lift, -1, n, re, im) for n, (re, im) in top.items()]
    return ref_fold_moments(terms, rho, ff.den * gf.den)


def ref_sphere_pairing(f, g, rho):
    ff, gf = _int_form(f.components()), _int_form(g.components())
    body = ref_degree_sums(((ff.buckets[0], gf.buckets[0], 1),))
    terms = [(n, 1, n, re, im) for n, (re, im) in body.items()]
    return ref_fold_moments(terms, rho, ff.den * gf.den)


def gaussian_polys(count):
    """Gaussian-rational coefficients on random monomials up to degree 3 per variable,
    as the benchmark's ideal integrals draw them, with empty and one-term components."""
    rng = np.random.default_rng(29)

    def frac():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))

    return [
        SuperPoly(*(
            {tuple(int(x) for x in rng.integers(0, 4, size=3)): QQi(frac(), frac()) for _ in range(size)}
            for size in rng.integers(0, 5, size=4)
        ))
        for _ in range(count)
    ]


@pytest.mark.parametrize("rho", RHOS)
def test_one_pass_pairing_equals_the_two_pass_reference(rho):
    harms = [classical_harmonic(*label, rho) for label in all_harmonic_labels(4)]
    polys = kernel_inputs(rho) + [h.poly for h in harms] + gaussian_polys(16)
    for f in polys:
        assert berezin_radial_sum(f, rho) == ref_pairing(ONE, f, rho, 0)
        for g in polys:
            assert inner_S_exact(f, g, rho)[0] == ref_pairing(f, g, rho, 1)
            assert inner_sphere_exact(f, g, rho)[0] == ref_sphere_pairing(f, g, rho)
    for ya in harms:
        for yb in harms:
            for inner, ref in ((inner_S_exact, lambda f, g: ref_pairing(f, g, rho, 1)),
                               (inner_sphere_exact, lambda f, g: ref_sphere_pairing(f, g, rho))):
                core, scale = inner(ya, yb, rho)
                assert core == ref(ya.poly, yb.poly)
                assert (scale.coef, scale.rad) == ((ya.scale * yb.scale).coef, (ya.scale * yb.scale).rad)


# ---------------------------------------------------------------- radius


@pytest.mark.parametrize("rho", [0, -1, Fraction(-5, 2)])
def test_non_positive_radius_is_rejected(rho):
    calls = [
        lambda: classical_harmonic(2, 0, 2, rho),
        lambda: sphere_harmonic(1, 0, rho),
        lambda: structure_constant_classical(1, 1, rho),
        lambda: normal_form(X3 * X3, rho),
        lambda: sphere_relation(rho),
        lambda: berezin_radial_sum(ONE, rho),
        lambda: berezin_sphere_integral(ONE, rho),
        lambda: inner_S_exact(X3, X3, rho),
        lambda: inner_S(X3, X3, rho),
        lambda: inner_sphere_exact(X3, X3, rho),
        lambda: inner_sphere(X3, X3, rho),
        lambda: body_map_classical(X3, rho),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="radius must be positive"):
            call()


def test_radius_is_a_positive_fraction():
    rho = Fraction(5, 2)
    assert _radius(rho) is rho
    assert _radius(3) == 3 and type(_radius(3)) is Fraction
    assert _radius("7/3") == Fraction(7, 3)


def test_class_of_another_radius_is_rejected():
    y = classical_harmonic(2, 0, 2, Fraction(5, 2))
    assert inner_S_exact(y, y, Fraction(5, 2))[0] == inner_S_exact(y, y, Fraction(10, 4))[0]
    with pytest.raises(ValueError, match="radius mismatch"):
        inner_S_exact(y, y, 1)
    with pytest.raises(ValueError, match="radius mismatch"):
        inner_sphere_exact(SpherePolyClass(y.poly, Fraction(7, 3)), y, Fraction(7, 3))


# ---------------------------------------------------------------- fields


def chained(a, b, f):
    return vector_field_action(a, vector_field_action(b, f))


def test_vector_fields_close_into_the_algebra():
    from fuzzsuper.osp import structure_constants

    c = structure_constants()
    rng = np.random.default_rng(9)
    polys = [rand_poly(rng) for _ in range(3)]
    for a in range(1, 6):
        for b in range(1, 6):
            koszul = -1 if (a >= 4 and b >= 4) else 1
            for f in polys:
                lhs = chained(a, b, f) - chained(b, a, f).scale(QQi.of(koszul))
                rhs = SuperPoly.zero()
                for k in range(5):
                    coef = c[k, a - 1, b - 1]
                    if coef != 0:
                        rhs = rhs + vector_field_action(k + 1, f).scale(
                            QQi(Fraction(complex(coef).real), Fraction(complex(coef).imag))
                        )
                assert (lhs - rhs).is_zero()


def test_casimir_acts_by_superspin():
    # sum J_k^2 + J_4 J_5 - J_5 J_4 gives j(j + 1/2) on the superspin-j
    # harmonics; the identity lives on the quotient, so compare mod the ideal
    for (two_j, mu) in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 1)):
        two_l = two_j - mu
        h = classical_harmonic(two_j, mu, two_l, Fraction(1))
        f = h.poly
        cas = SuperPoly.zero()
        for k in (1, 2, 3):
            cas = cas + chained(k, k, f)
        cas = cas + chained(4, 5, f) - chained(5, 4, f)
        want = f.scale(QQi(Fraction(two_j * (two_j + 1), 4)))
        assert normal_form(cas - want, Fraction(1)).poly.is_zero()


def test_highest_weight_annihilation():
    for (two_j, mu) in ((2, 0), (3, 0), (3, 1)):
        h = classical_harmonic(two_j, mu, two_j - mu, 1)
        raised = vector_field_action("+", h.poly)
        assert raised.is_zero()


# Reference fields, written without the term table: orbital rotations
# composed from derivatives and coordinate multiplications, the ladders in
# one pass, and the odd fields written out component by component.


def ref_padd(a, b, bscale=QQI_ONE):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, QQi()) + bscale * v
    return {k: v for k, v in out.items() if not v.is_zero()}


def ref_pscale(a, s):
    return {k: s * v for k, v in a.items() if not (s * v).is_zero()}


def ref_pdiff(a, axis):
    out = {}
    for k, v in a.items():
        if k[axis]:
            kk = list(k)
            kk[axis] -= 1
            out = ref_padd(out, {tuple(kk): QQi.of(k[axis]) * v})
    return out


def ref_pvar(a, axis):
    return {tuple(e + (i == axis) for i, e in enumerate(k)): v for k, v in a.items()}


def ref_orbital(i, p):
    j, k = (i + 1) % 3, (i + 2) % 3
    term = ref_padd(ref_pvar(ref_pdiff(p, k), j), ref_pvar(ref_pdiff(p, j), k), -QQI_ONE)
    return ref_pscale(term, -QQI_I)


def ref_orbital_ladder(s, p):
    out = {}
    for (a, b, c), v in p.items():
        if c:
            out = ref_padd(out, {(a + 1, b, c - 1): QQi(-s * c * v.re, -s * c * v.im)})
            out = ref_padd(out, {(a, b + 1, c - 1): QQi(c * v.im, -c * v.re)})
        if a:
            out = ref_padd(out, {(a - 1, b, c + 1): QQi(s * a * v.re, s * a * v.im)})
        if b:
            out = ref_padd(out, {(a, b - 1, c + 1): QQi(-b * v.im, b * v.re)})
    return out


def reference_vector_field_action(a, f):
    if a in ("+", "-"):
        s = 1 if a == "+" else -1
        out0, out4, out5, out45 = (ref_orbital_ladder(s, comp) for comp in f.components())
        if s == 1:
            out4 = ref_padd(out4, f.c5)
        else:
            out5 = ref_padd(out5, f.c4)
        return SuperPoly(out0, out4, out5, out45)
    f0, f4, f5, f45 = f.components()
    half = QQi(Fraction(1, 2))
    ihalf = half * QQI_I
    if a in (1, 2, 3):
        out0, out4, out5, out45 = (ref_orbital(a - 1, comp) for comp in (f0, f4, f5, f45))
        if a == 1:
            out4 = ref_padd(out4, ref_pscale(f5, half))
            out5 = ref_padd(out5, ref_pscale(f4, half))
        elif a == 2:
            out4 = ref_padd(out4, ref_pscale(f5, -ihalf))
            out5 = ref_padd(out5, ref_pscale(f4, ihalf))
        else:
            out4 = ref_padd(out4, ref_pscale(f4, half))
            out5 = ref_padd(out5, ref_pscale(f5, -half))
        return SuperPoly(out0, out4, out5, out45)
    dx1, dx2, dx3 = (ref_pdiff(f0, k) for k in range(3))
    if a == 4:
        out0 = ref_pscale(
            ref_padd(ref_padd(ref_pvar(f4, 0), ref_pvar(f4, 1), QQI_I), ref_pvar(f5, 2), -QQI_ONE),
            half,
        )
        out4 = ref_pscale(ref_padd(ref_pvar(f45, 2), dx3, -QQI_ONE), half)
        out5 = ref_pscale(
            ref_padd(
                ref_padd(ref_pvar(f45, 0), ref_pvar(f45, 1), QQI_I),
                ref_padd(dx1, dx2, QQI_I),
                -QQI_ONE,
            ),
            half,
        )
        out45 = ref_pscale(
            ref_padd(
                ref_padd(ref_pdiff(f4, 0), ref_pdiff(f4, 1), QQI_I), ref_pdiff(f5, 2), -QQI_ONE
            ),
            half,
        )
        return SuperPoly(out0, out4, out5, out45)
    out0 = ref_pscale(
        ref_padd(ref_padd(ref_pvar(f5, 0), ref_pvar(f5, 1), -QQI_I), ref_pvar(f4, 2)), -half
    )
    out4 = ref_pscale(
        ref_padd(
            ref_padd(ref_pvar(f45, 0), ref_pvar(f45, 1), -QQI_I),
            ref_padd(dx1, dx2, -QQI_I),
            -QQI_ONE,
        ),
        half,
    )
    out5 = ref_pscale(ref_padd(dx3, ref_pvar(f45, 2), -QQI_ONE), half)
    out45 = ref_pscale(
        ref_padd(ref_padd(ref_pdiff(f5, 0), ref_pdiff(f5, 1), -QQI_I), ref_pdiff(f4, 2)), -half
    )
    return SuperPoly(out0, out4, out5, out45)


@pytest.mark.parametrize("label", [1, 2, 3, 4, 5, "+", "-"])
def test_fields_match_reference(label):
    rng = np.random.default_rng(14)
    for _ in range(8):
        f = rand_poly(rng, deg=3)
        got = vector_field_action(label, f).components()
        want = reference_vector_field_action(label, f).components()
        for mine, theirs in zip(got, want):
            assert mine == theirs


@pytest.mark.parametrize("label", [6, "x", 0])
def test_unknown_field_label_raises(label):
    with pytest.raises(ValueError):
        vector_field_action(label, X1)


def test_ladder_fields_are_exact_combinations():
    rng = np.random.default_rng(13)
    for _ in range(6):
        f = rand_poly(rng, deg=3)
        j1, j2 = vector_field_action(1, f), vector_field_action(2, f)
        for label, want in (("+", j1 + j2.scale(QQI_I)), ("-", j1 - j2.scale(QQI_I))):
            assert vector_field_action(label, f).components() == want.components()


# ---------------------------------------------------------------- harmonics


def all_harmonic_labels(max_two_j):
    for two_j in range(0, max_two_j + 1):
        for mu in (0, 1):
            if mu == 1 and two_j == 0:
                continue
            two_l = two_j - mu
            for two_m in range(two_l, -two_l - 1, -2):
                yield two_j, mu, two_m


@pytest.mark.parametrize("rho", [Fraction(1), Fraction(5, 2), Fraction(7, 3)])
def test_classical_gram_exact(rho):
    labels = list(all_harmonic_labels(8))
    harms = [(lab, classical_harmonic(*lab, rho)) for lab in labels]
    for i, (la, ya) in enumerate(harms):
        for lb, yb in harms[i:]:
            core, scale = inner_S_exact(ya, yb, rho)
            if la != lb:
                assert core.is_zero()
                continue
            # exact: products of matching surds are rational
            assert scale.exact() is not None
            assert core * QQi(scale.exact()) == QQi.of(harmonic_sign(la[0], la[1]))


def test_harmonic_sign_pattern():
    assert harmonic_sign(0, 0) == 1
    assert harmonic_sign(1, 1) == -1
    assert harmonic_sign(2, 1) == 1
    assert harmonic_sign(3, 1) == -1
    assert harmonic_sign(3, 0) == 1


def test_unit_harmonic_is_one():
    h = classical_harmonic(0, 0, 0, Fraction(2))
    assert (h.poly.scale(QQi(h.scale.coef)) - ONE).is_zero() or (
        float(h.scale) * 1.0 == pytest.approx(1.0)
    )
    core, scale = inner_S_exact(h, h, Fraction(2))
    assert complex(core) * float(scale) == 1.0


def test_structure_constant_values():
    # the product of two superspin-1/2 harmonics has no superspin-1
    # highest-weight component at all
    c, r = structure_constant_classical(1, 1)
    assert r < 1e-12 and c == pytest.approx(0.0)
    c, r = structure_constant_classical(1, 2)
    assert r < 1e-12
    assert c == pytest.approx(1 / math.sqrt(3))
    c, r = structure_constant_classical(2, 2)
    assert r < 1e-12
    assert c == pytest.approx(math.sqrt(2.0 / 3.0))
    c, r = structure_constant_classical(0, 3)
    assert r < 1e-12
    assert c == pytest.approx(1.0)


def test_sphere_harmonics_orthonormal():
    rho = Fraction(2)
    labels = [(j, m) for j in range(0, 5) for m in range(-j, j + 1)]
    harms = [(lab, sphere_harmonic(*lab, rho)) for lab in labels]
    for i, (la, ya) in enumerate(harms):
        for lb, yb in harms[i:]:
            got = inner_sphere(ya, yb, rho)
            assert got == pytest.approx(1.0 if la == lb else 0.0, abs=1e-14)
            core, scale = inner_sphere_exact(ya, yb, rho)
            if la != lb:
                assert core.is_zero()
            else:
                assert core * QQi(scale.exact()) == QQI_ONE


def test_body_map_classical_strips_odd_directions():
    f = X1 + T4 + (T4 * T5).scale(QQi.of(3))
    b = body_map_classical(f, 1)
    assert (b.poly - X1).is_zero()


# ---------------------------------------------------------------- text form


#: a coefficient of each shape format_superpoly writes, from two random rationals:
#: integer, rational, +-i, pure imaginary, complex with a negative real part, complex
COEFF_SHAPES = (
    lambda a, b: QQi(Fraction(a.numerator)),
    lambda a, b: QQi(a),
    lambda a, b: QQi(im=Fraction(1 if b >= 0 else -1)),
    lambda a, b: QQi(im=b),
    lambda a, b: QQi(-abs(a), b),
    lambda a, b: QQi(a, b),
)


def test_format_parse_round_trip():
    rng = np.random.default_rng(11)
    polys = [SuperPoly.zero()]
    for k in range(1200):
        comps = [{} for _ in range(4)]
        for comp in comps:
            for _ in range(int(rng.integers(0, 4))):
                a, b = (Fraction(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3, 4, 5, 8]))) for _ in "ab")
                comp[tuple(int(e) for e in rng.integers(0, 4, size=3))] = COEFF_SHAPES[k % 6](a, b)
        polys.append(SuperPoly(*comps))
    for f in polys:
        text = format_superpoly(f)
        back = parse_superpoly(text)
        assert (f - back).is_zero()
        assert format_superpoly(back) == text
        # the same text with its halves, quarters, fifths and eighths as decimals
        decimal = re.sub(r"(?<![\d/])(\d+)/([2458])(?!\d)", lambda m: str(int(m[1]) / int(m[2])), text)
        assert (f - parse_superpoly(decimal)).is_zero()


def test_parse_examples():
    f = parse_superpoly("1/2 * x1 x3 + i * t4 - x2^2")
    assert complex(f.c0.get((1, 0, 1))) == pytest.approx(0.5)
    assert complex(f.c4.get((0, 0, 0))) == pytest.approx(1j)
    assert complex(f.c0.get((0, 2, 0))) == pytest.approx(-1.0)


def test_parse_orders_odd_coordinates():
    # t5 t4 = -t4 t5
    f = parse_superpoly("x1 * t5 t4")
    assert f.c45 == {(1, 0, 0): -QQI_ONE}
    assert (parse_superpoly("t5 t4") + T4 * T5).is_zero()
    assert berezin_radial_sum(parse_superpoly("t5 t4"), 1) == QQI_ONE


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("x1 x1", "1 * x1^2"),
        ("2 3 x1", "6 * x1"),
        ("-x1", "-1 * x1"),
        ("--x1", "1 * x1"),
        ("x1 * t5 t4", "-1 * x1 t4 t5"),
        ("t5 x2 t4", "-1 * x2 t4 t5"),
        ("t4 t4", "0"),
        ("0.5 * x1", "1/2 * x1"),
        ("(1+i) * (1-i)", "2"),
        ("", "0"),
    ],
)
def test_parse_reads_each_shorthand(text, canonical):
    assert format_superpoly(parse_superpoly(text)) == canonical


#: text that parse_superpoly refuses: a stray sign or '*', an unknown or unfinished
#: factor, a zero denominator, an exponent
MALFORMED = [
    "x9",
    "x9 +",
    "x1 +",
    "+",
    "-",
    "x1 ** 2",
    "* x1",
    "x1 *",
    "x3 +* 2",
    "()",
    "(1+2i",
    "x1^",
    "t6",
    "x12",
    "1/0 * x1",
    "1e-3",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_rejects_garbage(text):
    with pytest.raises(ValueError, match="cannot read") as exc:
        parse_superpoly(text)
    assert repr(text) in str(exc.value)
