"""Exact polynomial model of the (2|2)-dimensional supersphere.

Functions on the supersphere are represented as polynomials in x1, x2, x3
tensored with the Grassmann algebra on theta4, theta5, i.e. four polynomial
components (empty, 4, 5, 45).  Coefficients are Gaussian rationals, the
defining relation

    (x3)^2 = rho^2 - (x1)^2 - (x2)^2 - 2 theta4 theta5

is eliminated exactly, and Berezin-spherical integration reduces to closed
rational sphere moments.  The inner products pair two polynomials without
forming their product: a monomial pair contributes only when its exponents
have equal parity, and only the even components of cross(f) * g are
summed, in integer arithmetic over common denominators.  Irrational
normalization prefactors are carried separately as a single surd per
harmonic so that orthonormality and structure constants come out exact up
to one final square root.

The generators of osp(1|2) act as first-order graded vector fields.  Each
field is data: a table of terms, coefficient times x_a d/dx_b from one
component into another, which one applier runs over in a single exact
pass.  The superspherical harmonics are the highest-weight polynomials
(closed binomial forms) followed by steps of the lowering field.

This module deliberately imports nothing from the matrix side: it is the
independent ground truth the fuzzy constructions are tested against.
"""

from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

Mono = Tuple[int, int, int]

RhoLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# scalars


@dataclasses.dataclass(frozen=True)
class QQi:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value: Union["QQi", int, Fraction]) -> "QQi":
        if isinstance(value, QQi):
            return value
        return cls(Fraction(value), Fraction(0))

    def __add__(self, other: "QQi") -> "QQi":
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QQi") -> "QQi":
        return QQi(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def __mul__(self, other: "QQi") -> "QQi":
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "QQi") -> "QQi":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conj(self) -> "QQi":
        return QQi(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)


QQI_ZERO = QQi()
QQI_ONE = QQi(Fraction(1), Fraction(0))
QQI_I = QQi(Fraction(0), Fraction(1))
QQI_HALF = QQi(Fraction(1, 2), Fraction(0))


def _sq_root_exact(x: Fraction) -> Optional[Fraction]:
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


@dataclasses.dataclass(frozen=True)
class Surd:
    """Real number coef * sqrt(rad) with exact rational coef and rad >= 0.

    Closed under multiplication; perfect-square radicands are folded into
    the rational factor, so products of a surd with itself are rational.
    """

    coef: Fraction
    rad: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.rad < 0:
            raise ValueError("radicand must be non-negative")
        if self.rad == 0 and self.coef != 0:
            object.__setattr__(self, "coef", Fraction(0))
            object.__setattr__(self, "rad", Fraction(1))
        root = _sq_root_exact(self.rad)
        if root is not None:
            object.__setattr__(self, "coef", self.coef * root)
            object.__setattr__(self, "rad", Fraction(1))

    @classmethod
    def one(cls) -> "Surd":
        return cls(Fraction(1), Fraction(1))

    def __mul__(self, other: "Surd") -> "Surd":
        return Surd(self.coef * other.coef, self.rad * other.rad)

    def exact(self) -> Optional[Fraction]:
        """The value as a Fraction when the radicand is a perfect square."""
        return self.coef if self.rad == 1 else None

    def __float__(self) -> float:
        return float(self.coef) * math.sqrt(float(self.rad))


# ---------------------------------------------------------------------------
# polynomial components


def _clean(d: Dict[Mono, QQi]) -> Dict[Mono, QQi]:
    return {k: v for k, v in d.items() if not v.is_zero()}

def _padd(a: Dict[Mono, QQi], b: Dict[Mono, QQi], bscale: QQi = QQI_ONE) -> Dict[Mono, QQi]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, QQI_ZERO) + bscale * v
    return _clean(out)

def _pscale(a: Dict[Mono, QQi], s: QQi) -> Dict[Mono, QQi]:
    return _clean({k: s * v for k, v in a.items()})

def _pmul(a: Dict[Mono, QQi], b: Dict[Mono, QQi]) -> Dict[Mono, QQi]:
    out: Dict[Mono, QQi] = {}
    for (a1, a2, a3), va in a.items():
        for (b1, b2, b3), vb in b.items():
            k = (a1 + b1, a2 + b2, a3 + b3)
            out[k] = out.get(k, QQI_ZERO) + va * vb
    return _clean(out)

def _pconj(a: Dict[Mono, QQi]) -> Dict[Mono, QQi]:
    return {k: v.conj() for k, v in a.items()}


@dataclasses.dataclass(frozen=True, eq=False)
class SuperPoly:
    """Element f0 + f4 theta4 + f5 theta5 + f45 theta4 theta5."""

    c0: Dict[Mono, QQi] = dataclasses.field(default_factory=dict)
    c4: Dict[Mono, QQi] = dataclasses.field(default_factory=dict)
    c5: Dict[Mono, QQi] = dataclasses.field(default_factory=dict)
    c45: Dict[Mono, QQi] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", _clean(self.c0))
        object.__setattr__(self, "c4", _clean(self.c4))
        object.__setattr__(self, "c5", _clean(self.c5))
        object.__setattr__(self, "c45", _clean(self.c45))

    @classmethod
    def zero(cls) -> "SuperPoly":
        return cls()

    @classmethod
    def one(cls) -> "SuperPoly":
        return cls(c0={(0, 0, 0): QQI_ONE})

    @classmethod
    def variable(cls, name: str) -> "SuperPoly":
        if name in ("x1", "x2", "x3"):
            axis = int(name[1]) - 1
            mono = tuple(1 if i == axis else 0 for i in range(3))
            return cls(c0={mono: QQI_ONE})
        if name == "t4":
            return cls(c4={(0, 0, 0): QQI_ONE})
        if name == "t5":
            return cls(c5={(0, 0, 0): QQI_ONE})
        raise ValueError(f"unknown variable {name!r}")

    def components(self) -> Tuple[Dict[Mono, QQi], ...]:
        return (self.c0, self.c4, self.c5, self.c45)

    def is_zero(self) -> bool:
        return not (self.c0 or self.c4 or self.c5 or self.c45)

    def parity(self) -> Optional[int]:
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        has_even = bool(self.c0 or self.c45)
        has_odd = bool(self.c4 or self.c5)
        if has_even and has_odd:
            return None
        return 1 if has_odd else 0

    def even_part(self) -> "SuperPoly":
        return SuperPoly(c0=self.c0, c45=self.c45)

    def odd_part(self) -> "SuperPoly":
        return SuperPoly(c4=self.c4, c5=self.c5)

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        return SuperPoly(
            _padd(self.c0, other.c0),
            _padd(self.c4, other.c4),
            _padd(self.c5, other.c5),
            _padd(self.c45, other.c45),
        )

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + other.scale(-QQI_ONE)

    def scale(self, s: Union[QQi, int, Fraction]) -> "SuperPoly":
        s = QQi.of(s)
        return SuperPoly(
            _pscale(self.c0, s), _pscale(self.c4, s), _pscale(self.c5, s), _pscale(self.c45, s)
        )

    def __mul__(self, other: "SuperPoly") -> "SuperPoly":
        """Graded-commutative product; theta4 theta5 = -theta5 theta4."""
        f0, f4, f5, f45 = self.components()
        g0, g4, g5, g45 = other.components()
        h0 = _pmul(f0, g0)
        h4 = _padd(_pmul(f0, g4), _pmul(f4, g0))
        h5 = _padd(_pmul(f0, g5), _pmul(f5, g0))
        h45 = _padd(_pmul(f0, g45), _pmul(f45, g0))
        h45 = _padd(h45, _pmul(f4, g5))
        h45 = _padd(h45, _pmul(f5, g4), -QQI_ONE)
        return SuperPoly(h0, h4, h5, h45)

    def max_abs(self) -> float:
        worst = 0.0
        for comp in self.components():
            for v in comp.values():
                worst = max(worst, abs(complex(v)))
        return worst


def cross_involution(f: SuperPoly) -> SuperPoly:
    """f -> f0* - f5* theta4 + f4* theta5 + f45* theta4 theta5."""
    return SuperPoly(
        c0=_pconj(f.c0),
        c4=_pscale(_pconj(f.c5), -QQI_ONE),
        c5=_pconj(f.c4),
        c45=_pconj(f.c45),
    )


# ---------------------------------------------------------------------------
# the defining ideal and normal forms


def sphere_relation(rho: RhoLike) -> SuperPoly:
    """The generator P = x1^2 + x2^2 + x3^2 + 2 theta4 theta5 - rho^2."""
    rho2 = QQi(Fraction(rho) ** 2)
    return SuperPoly(
        c0={
            (2, 0, 0): QQI_ONE,
            (0, 2, 0): QQI_ONE,
            (0, 0, 2): QQI_ONE,
            (0, 0, 0): -rho2,
        },
        c45={(0, 0, 0): QQi(Fraction(2))},
    )


def _bosonic_radical_powers(t: int, rho: RhoLike) -> Dict[Mono, QQi]:
    """(rho^2 - x1^2 - x2^2)^t as a polynomial table, by the trinomial theorem."""
    rho2 = Fraction(rho) ** 2
    out: Dict[Mono, QQi] = {}
    for b in range(t + 1):
        for c in range(t - b + 1):
            n = (-1) ** (b + c) * math.comb(t, b) * math.comb(t - b, c)
            out[(2 * b, 2 * c, 0)] = QQi(n * rho2 ** (t - b - c))
    return _clean(out)


def _reduce_bosonic(p: Dict[Mono, QQi], rho: RhoLike) -> Tuple[Dict[Mono, QQi], Dict[Mono, QQi]]:
    """Eliminate (x3)^2 from one component.

    Returns (reduced, spill) where spill collects the -2 theta4 theta5 part
    of the substitution, itself already bosonically reduced.  (x3)^c with
    c = 2t + r expands to B^t x3^r - 2t B^(t-1) x3^r theta4 theta5 modulo
    the relation, because theta4 theta5 squares to zero.
    """
    reduced: Dict[Mono, QQi] = {}
    spill: Dict[Mono, QQi] = {}
    for (a, b, c), v in p.items():
        t, r = divmod(c, 2)
        if t == 0:
            reduced[(a, b, c)] = reduced.get((a, b, c), QQI_ZERO) + v
            continue
        head = {(a, b, r): v}
        for k, w in _pmul(head, _bosonic_radical_powers(t, rho)).items():
            reduced[k] = reduced.get(k, QQI_ZERO) + w
        tail = {(a, b, r): v * QQi(Fraction(-2 * t))}
        for k, w in _pmul(tail, _bosonic_radical_powers(t - 1, rho)).items():
            spill[k] = spill.get(k, QQI_ZERO) + w
    return _clean(reduced), _clean(spill)


@dataclasses.dataclass(frozen=True, eq=False)
class SpherePolyClass:
    """Equivalence class modulo the defining ideal, in normal form.

    poly has x3-degree at most 1 in every component; scale is an overall
    real normalization applied on extraction only, so the class data stays
    rational.
    """

    poly: SuperPoly
    rho: Fraction
    scale: Surd = dataclasses.field(default_factory=Surd.one)

    def float_components(self) -> Tuple[Dict[Mono, complex], ...]:
        s = float(self.scale)
        return tuple({k: complex(v) * s for k, v in comp.items()} for comp in self.poly.components())

    def max_abs_diff(self, other: "SpherePolyClass") -> float:
        worst = 0.0
        for mine, theirs in zip(self.float_components(), other.float_components()):
            for k in set(mine) | set(theirs):
                worst = max(worst, abs(mine.get(k, 0j) - theirs.get(k, 0j)))
        return worst


def normal_form(f: SuperPoly, rho: RhoLike) -> SpherePolyClass:
    """Unique representative with x3-degree <= 1 in each component.

    The c0 reduction feeds the -2 theta4 theta5 part of the relation into
    c45; the other components reduce purely bosonically since any further
    theta factors die.
    """
    rho = Fraction(rho)
    c0, spill = _reduce_bosonic(f.c0, rho)
    c4, _ = _reduce_bosonic(f.c4, rho)
    c5, _ = _reduce_bosonic(f.c5, rho)
    c45, _ = _reduce_bosonic(_padd(f.c45, spill), rho)
    return SpherePolyClass(poly=SuperPoly(c0, c4, c5, c45), rho=rho)


def class_mul(f: SpherePolyClass, g: SpherePolyClass) -> SpherePolyClass:
    if f.rho != g.rho:
        raise ValueError("classes live on spheres of different radius")
    out = normal_form(f.poly * g.poly, f.rho)
    return SpherePolyClass(poly=out.poly, rho=f.rho, scale=f.scale * g.scale)


# ---------------------------------------------------------------------------
# Berezin-spherical integration


def _dfact(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def sphere_moment(a: int, b: int, c: int) -> Fraction:
    """Average of x1^a x2^b x3^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    return Fraction(_dfact(a - 1) * _dfact(b - 1) * _dfact(c - 1), _dfact(a + b + c + 1))


def _moment_by_degree(p: Dict[Mono, QQi]) -> Dict[int, QQi]:
    out: Dict[int, QQi] = {}
    for (a, b, c), v in p.items():
        m = sphere_moment(a, b, c)
        if m == 0:
            continue
        n = a + b + c
        out[n] = out.get(n, QQI_ZERO) + v * QQi(m)
    return out


def berezin_radial_sum(f: SuperPoly, rho: RhoLike) -> QQi:
    """Exact value of I(f)/(2 pi) on the radius-rho supersphere.

        I(f)/(2 pi) = sum_n (n+1) rho^(n-1) m_n(f0) - sum_n rho^(n+1) m_n(f45)

    where m_n collects the degree-n unit-sphere moments of a component.
    Anchors: I(1) = 2 pi / rho and I(theta4 theta5) = -2 pi rho, and the
    functional vanishes identically on the defining ideal, which pins it
    among the candidate Berezin-integration conventions.
    """
    rho = Fraction(rho)
    if rho == 0:
        raise ValueError("radius must be nonzero")
    total = QQI_ZERO
    for n, m in _moment_by_degree(f.c0).items():
        total = total + QQi(Fraction(n + 1) * rho ** (n - 1)) * m
    for n, m in _moment_by_degree(f.c45).items():
        total = total - QQi(rho ** (n + 1)) * m
    return total


def berezin_sphere_integral(f: SuperPoly, rho: RhoLike) -> complex:
    return 2.0 * math.pi * complex(berezin_radial_sum(f, rho))


PolyOrClass = Union[SuperPoly, SpherePolyClass]


def _as_class_parts(f: PolyOrClass, rho: RhoLike) -> Tuple[SuperPoly, Surd]:
    if isinstance(f, SpherePolyClass):
        if f.rho != Fraction(rho):
            raise ValueError("radius mismatch")
        return f.poly, f.scale
    return f, Surd.one()


def _parity_buckets(p: Dict[Mono, QQi]) -> Tuple[int, Dict[Mono, list]]:
    """p as (den, buckets): den times every coefficient is a Gaussian integer.

    The terms (a, b, c, re, im) of den * p are bucketed by the exponent
    parity (a & 1, b & 1, c & 1).
    """
    den = math.lcm(*[x.denominator for v in p.values() for x in (v.re, v.im)])
    buckets: Dict[Mono, list] = {}
    for (a, b, c), v in p.items():
        term = (
            a, b, c,
            v.re.numerator * (den // v.re.denominator),
            v.im.numerator * (den // v.im.denominator),
        )
        buckets.setdefault((a & 1, b & 1, c & 1), []).append(term)
    return den, buckets


def _paired_moments(pairs: List[Tuple[Dict[Mono, QQi], Dict[Mono, QQi], int]]) -> Dict[int, QQi]:
    """Degree-n unit-sphere moments of sum_k sign_k conj(p_k) q_k.

    The products are never formed: a product monomial has a nonzero moment
    only when all three exponents are even, so a monomial of p meets only
    the monomials of q with the same exponent parity.  Every paired
    monomial then has the moment (a-1)!! (b-1)!! (c-1)!! / (n+1)!!, and the
    sums stay in integers over the common denominators until one Fraction
    per degree.  pairs holds (p, q, sign).
    """
    out: Dict[int, QQi] = {}
    for p, q, sign in pairs:
        if not p or not q:
            continue
        dp, left = _parity_buckets(p)
        dq, right = _parity_buckets(q)
        acc: Dict[Mono, list] = {}
        for parity, p_terms in left.items():
            q_terms = right.get(parity, ())
            for a1, b1, c1, pr, pi in p_terms:
                for a2, b2, c2, qr, qi in q_terms:
                    slot = acc.setdefault((a1 + a2, b1 + b2, c1 + c2), [0, 0])
                    slot[0] += pr * qr + pi * qi
                    slot[1] += pr * qi - pi * qr
        by_degree: Dict[int, list] = {}
        for (a, b, c), (re, im) in acc.items():
            w = _dfact(a - 1) * _dfact(b - 1) * _dfact(c - 1)
            slot = by_degree.setdefault(a + b + c, [0, 0])
            slot[0] += w * re
            slot[1] += w * im
        for n, (re, im) in by_degree.items():
            den = sign * dp * dq * _dfact(n + 1)
            out[n] = out.get(n, QQI_ZERO) + QQi(Fraction(re, den), Fraction(im, den))
    return out


def _berezin_pairing(f: SuperPoly, g: SuperPoly, rho: Fraction) -> QQi:
    """berezin_radial_sum(cross_involution(f) * g, rho), never forming the product.

    The even components of the product are f0* g0 and
    f0* g45 + f45* g0 - f5* g5 - f4* g4 (the cross involution folded in).
    """
    if rho == 0:
        raise ValueError("radius must be nonzero")
    body = _paired_moments([(f.c0, g.c0, 1)])
    top = _paired_moments(
        [(f.c0, g.c45, 1), (f.c45, g.c0, 1), (f.c5, g.c5, -1), (f.c4, g.c4, -1)]
    )
    total = QQI_ZERO
    for n, m in body.items():
        total = total + QQi(Fraction(n + 1) * rho ** (n - 1)) * m
    for n, m in top.items():
        total = total - QQi(rho ** (n + 1)) * m
    return total


def inner_S_exact(f: PolyOrClass, g: PolyOrClass, rho: RhoLike) -> Tuple[QQi, Surd]:
    """<f|g> = (rho/2pi) I(f-cross * g) as (rational core, surd scale).

    The core is rho * berezin_radial_sum(cross_involution(f) * g, rho),
    computed as a bilinear pairing of the components of f and g: only
    monomial pairs of equal exponent parity contribute, and only the even
    components of the product are summed.
    """
    rho = Fraction(rho)
    fp, fs = _as_class_parts(f, rho)
    gp, gs = _as_class_parts(g, rho)
    core = _berezin_pairing(fp, gp, rho)
    # rho is real: scale the two parts, no Gaussian product
    return QQi(rho * core.re, rho * core.im), fs * gs


def inner_S(f: PolyOrClass, g: PolyOrClass, rho: RhoLike) -> complex:
    core, s = inner_S_exact(f, g, rho)
    return complex(core) * float(s)


# ---------------------------------------------------------------------------
# the osp(1|2) vector fields
#
# A field is a tuple of terms (dst, src, mul, diff, coefficient): each adds
# coefficient * x_mul d/dx_diff of component src into component dst, where
# the components are 0 = f0, 1 = f4, 2 = f5, 3 = f45 and an axis of -1
# leaves that factor out.  The rotation part of an even field acts alike
# on all four components, so it is listed once and spread by _rotation.

_ONE, _HALF = QQI_ONE, QQI_HALF
_I, _IHALF = QQI_I, QQI_HALF * QQI_I


def _rotation(*terms: Tuple[int, int, QQi]) -> tuple:
    return tuple((c, c, mul, diff, coef) for c in range(4) for mul, diff, coef in terms)


_FIELDS: Dict[Union[int, str], tuple] = {
    # L_i = -i eps_ijk x^j d/dx^k plus the spinor mixing of (theta4, theta5)
    1: _rotation((1, 2, -_I), (2, 1, _I)) + ((1, 2, -1, -1, _HALF), (2, 1, -1, -1, _HALF)),
    2: _rotation((2, 0, -_I), (0, 2, _I)) + ((1, 2, -1, -1, -_IHALF), (2, 1, -1, -1, _IHALF)),
    3: _rotation((0, 1, -_I), (1, 0, _I)) + ((1, 1, -1, -1, _HALF), (2, 2, -1, -1, -_HALF)),
    # J_1 +- i J_2 = -+(x1 +- i x2) d3 +- x3 (d1 +- i d2), theta5 -> theta4 or back
    "+": _rotation((0, 2, -_ONE), (1, 2, -_I), (2, 0, _ONE), (2, 1, _I)) + ((1, 2, -1, -1, _ONE),),
    "-": _rotation((0, 2, _ONE), (1, 2, -_I), (2, 0, -_ONE), (2, 1, _I)) + ((2, 1, -1, -1, _ONE),),
    # the odd fields exchange bosonic and Grassmann data
    4: (
        (0, 1, 0, -1, _HALF), (0, 1, 1, -1, _IHALF), (0, 2, 2, -1, -_HALF),
        (1, 3, 2, -1, _HALF), (1, 0, -1, 2, -_HALF),
        (2, 3, 0, -1, _HALF), (2, 3, 1, -1, _IHALF), (2, 0, -1, 0, -_HALF), (2, 0, -1, 1, -_IHALF),
        (3, 1, -1, 0, _HALF), (3, 1, -1, 1, _IHALF), (3, 2, -1, 2, -_HALF),
    ),
    5: (
        (0, 2, 0, -1, -_HALF), (0, 2, 1, -1, _IHALF), (0, 1, 2, -1, -_HALF),
        (1, 3, 0, -1, _HALF), (1, 3, 1, -1, -_IHALF), (1, 0, -1, 0, -_HALF), (1, 0, -1, 1, _IHALF),
        (2, 0, -1, 2, _HALF), (2, 3, 2, -1, -_HALF),
        (3, 2, -1, 0, -_HALF), (3, 2, -1, 1, _IHALF), (3, 1, -1, 2, -_HALF),
    ),
}


def vector_field_action(a: Union[int, str], f: SuperPoly) -> SuperPoly:
    """First-order graded derivation J_a acting on a superpolynomial.

    Labels 1..5 or the ladder aliases '+', '-' for J_1 +- i J_2.  Every
    field is one entry of the term table _FIELDS, applied in one pass over
    its terms: the even fields rotate each component and mix (theta4,
    theta5) as a spinor, the odd fields exchange bosonic and Grassmann
    data.  All of them annihilate the relation polynomial, so they descend
    to the quotient.  Every coefficient is real or purely imaginary, so a
    term scales the two Fraction parts of each value directly, and the
    results accumulate in [re, im] slots.
    """
    try:
        terms = _FIELDS[a]
    except KeyError:
        raise ValueError(f"unknown basis label {a!r}") from None
    comps = f.components()
    out: Tuple[Dict[Mono, list], ...] = ({}, {}, {}, {})
    for dst, src, mul, diff, coef in terms:
        shift = [0, 0, 0]
        if mul >= 0:
            shift[mul] += 1
        if diff >= 0:
            shift[diff] -= 1
        da, db, dc = shift
        real = coef.im == 0
        c = coef.re if real else coef.im
        if c.denominator == 1:
            c = c.numerator
        acc = out[dst]
        for mono, v in comps[src].items():
            k = c if diff < 0 else c * mono[diff]
            if not k:
                continue
            re, im = (k * v.re, k * v.im) if real else (-k * v.im, k * v.re)
            key = (mono[0] + da, mono[1] + db, mono[2] + dc)
            slot = acc.get(key)
            if slot is None:
                acc[key] = [re, im]
            else:
                slot[0] += re
                slot[1] += im
    return SuperPoly(*({k: QQi(re, im) for k, (re, im) in acc.items()} for acc in out))


# ---------------------------------------------------------------------------
# classical harmonics


def _x_plus_power(k: int) -> Dict[Mono, QQi]:
    """(x1 + i x2)^k by the binomial theorem."""
    out: Dict[Mono, QQi] = {}
    for r in range(k + 1):
        n = math.comb(k, r) * (-1) ** (r // 2)
        out[(k - r, r, 0)] = QQi(Fraction(0), Fraction(n)) if r % 2 else QQi(Fraction(n))
    return out


def classical_harmonic(two_j: int, mu: int, two_m: int, rho: RhoLike) -> SpherePolyClass:
    """Superspherical harmonic Y_(j, l, m, mu) with l = j - mu/2.

    Built from the highest-weight polynomial and exact ladder steps; the
    accumulated normalization stays in the surd scale.
    """
    rho = Fraction(rho)
    if two_j < 0 or mu not in (0, 1):
        raise ValueError("bad harmonic label")
    if mu == 1 and two_j < 1:
        raise ValueError("mu = 1 needs j >= 1/2")
    two_l = two_j - mu
    if abs(two_m) > two_l or (two_m - two_l) % 2:
        raise ValueError("bad magnetic label")

    if two_j % 2 == 0:
        j = two_j // 2
        poly = SuperPoly(c0=_x_plus_power(j))
        scale = Surd(
            Fraction(1, 2**j * math.factorial(j)) / rho**j, Fraction(math.factorial(2 * j))
        )
    else:
        # x3 (x1 + i x2)^k theta4 + (x1 + i x2)^(k+1) theta5
        k = (two_j - 1) // 2
        poly = SuperPoly(
            c4={(a, b, 1): v for (a, b, _), v in _x_plus_power(k).items()},
            c5=_x_plus_power(k + 1),
        )
        scale = Surd(
            Fraction(1, 2**k * math.factorial(k)) / rho ** (k + 2), Fraction(math.factorial(two_j))
        )

    if mu == 1:
        poly = vector_field_action(5, poly)
        scale = scale * Surd(Fraction(1), Fraction(4, two_j))
    for two_m_cur in range(two_l, two_m, -2):
        poly = vector_field_action("-", poly)
        step = ((two_l + two_m_cur) // 2) * ((two_l - two_m_cur + 2) // 2)
        scale = scale * Surd(Fraction(1), Fraction(1, step))

    out = normal_form(poly, rho)
    return SpherePolyClass(poly=out.poly, rho=rho, scale=scale)


def harmonic_sign(two_j: int, mu: int) -> int:
    """Pseudo-orthonormal signature: -1 exactly when 2j is odd and mu = 1."""
    return -1 if (two_j % 2 == 1 and mu == 1) else 1


def structure_constant_classical(two_j1: int, two_j2: int, rho: RhoLike = 1) -> Tuple[float, float]:
    """c_(j1 j2) with Y_(j1,hw) Y_(j2,hw) = c * Y_(j1+j2,hw).

    Returns (c, residual) where the residual measures the proportionality
    claim coefficient-wise; it is zero up to rounding by construction.
    """
    y1 = classical_harmonic(two_j1, 0, two_j1, rho)
    y2 = classical_harmonic(two_j2, 0, two_j2, rho)
    ysum = classical_harmonic(two_j1 + two_j2, 0, two_j1 + two_j2, rho)
    prod = class_mul(y1, y2)
    c_full = inner_S(ysum, prod, rho)
    c = c_full.real
    residual = abs(c_full.imag)
    for mine, theirs in zip(prod.float_components(), ysum.float_components()):
        for k in set(mine) | set(theirs):
            residual = max(residual, abs(mine.get(k, 0j) - c * theirs.get(k, 0j)))
    return c, residual


# the classical (round) sphere, used as oracle for the body side


def sphere_harmonic(j: int, m: int, rho: RhoLike) -> SpherePolyClass:
    """Ordinary spherical harmonic class Y_(j, m), bosonic normal form.

    The even superspin-j harmonic with mu = 0 has the same polynomial; the
    round sphere's average carries the extra factor sqrt(2j + 1).
    """
    if j < 0 or abs(m) > j:
        raise ValueError("bad spherical label")
    h = classical_harmonic(2 * j, 0, 2 * m, rho)
    root = Surd(Fraction(1), Fraction(2 * j + 1))
    return SpherePolyClass(poly=h.poly, rho=h.rho, scale=h.scale * root)


def inner_sphere_exact(f: PolyOrClass, g: PolyOrClass, rho: RhoLike) -> Tuple[QQi, Surd]:
    """Sphere average (1/4pi) of conj(f) g on the radius-rho sphere."""
    rho = Fraction(rho)
    fp, fs = _as_class_parts(f, rho)
    gp, gs = _as_class_parts(g, rho)
    total = QQI_ZERO
    for n, m in _paired_moments([(fp.c0, gp.c0, 1)]).items():
        total = total + QQi(rho**n) * m
    return total, fs * gs

def inner_sphere(f: PolyOrClass, g: PolyOrClass, rho: RhoLike) -> complex:
    core, s = inner_sphere_exact(f, g, rho)
    return complex(core) * float(s)


def body_map_classical(f: PolyOrClass, rho: RhoLike) -> SpherePolyClass:
    """Set the odd coordinates to zero and reduce mod the bosonic relation."""
    rho = Fraction(rho)
    fp, fs = _as_class_parts(f, rho)
    body, _ = _reduce_bosonic(fp.c0, rho)
    return SpherePolyClass(poly=SuperPoly(c0=body), rho=rho, scale=fs)


# ---------------------------------------------------------------------------
# text round-tripping for the CLI

def _format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _format_coeff(v: QQi) -> str:
    if v.im == 0:
        return _format_fraction(v.re)
    if v.re == 0:
        return ("-" if v.im < 0 else "") + (_format_fraction(abs(v.im)) + "i" if abs(v.im) != 1 else "i")
    im = abs(v.im)
    im_tok = ("" if im == 1 else _format_fraction(im)) + "i"
    return f"({_format_fraction(v.re)}{'+' if v.im > 0 else '-'}{im_tok})"


def _parse_coeff(tok: str) -> QQi:
    tok = tok.strip().replace(" ", "")
    if tok.startswith("(") and tok.endswith(")"):
        tok = tok[1:-1]
    if not tok:
        return QQI_ONE
    if not tok.endswith("i"):
        return QQi(Fraction(tok))
    head = tok[:-1]
    # a sign not in first position splits real from imaginary part
    split = 0
    for pos in range(len(head) - 1, 0, -1):
        if head[pos] in "+-" and head[pos - 1] not in "/+-":
            split = pos
            break
    re_tok, im_tok = head[:split], head[split:]
    im = Fraction(im_tok + "1") if im_tok in ("", "+", "-") else Fraction(im_tok)
    return QQi(Fraction(re_tok) if re_tok else Fraction(0), im)


def format_superpoly(f: SuperPoly) -> str:
    """Canonical text form: terms c * x1^a x2^b x3^c [t4] [t5]."""
    pieces = []
    for comp, tag in zip(f.components(), ("", "t4", "t5", "t4 t5")):
        for mono in sorted(comp):
            v = comp[mono]
            factors = [f"x{i+1}^{e}" if e > 1 else f"x{i+1}" for i, e in enumerate(mono) if e]
            if tag:
                factors.extend(tag.split())
            coeff = _format_coeff(v)
            if factors:
                pieces.append(f"{coeff} * " + " ".join(factors))
            else:
                pieces.append(coeff)
    return " + ".join(pieces) if pieces else "0"


def parse_superpoly(text: str) -> SuperPoly:
    """Inverse of format_superpoly; also accepts bare variables and signs."""
    text = text.strip()
    if text in ("", "0"):
        return SuperPoly.zero()
    # split into signed terms at top level; parentheses protect coefficients
    # and leading signs stay attached to their term
    terms = []
    depth, start = 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            head = text[start:pos].strip()
            if head and not all(c in "+- " for c in head):
                terms.append(text[start:pos])
                start = pos
    terms.append(text[start:])

    out = SuperPoly.zero()
    for term in terms:
        term = term.strip()
        if not term:
            continue
        sign = QQI_ONE
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:].strip()
        chunks = [c.strip() for c in term.split("*")]
        coeff = sign
        mono = [0, 0, 0]
        grass = [0, 0]
        for chunk in chunks:
            for tok in chunk.split():
                m = re.fullmatch(r"x([123])(?:\^(\d+))?", tok)
                if m:
                    mono[int(m.group(1)) - 1] += int(m.group(2) or 1)
                    continue
                m = re.fullmatch(r"t([45])", tok)
                if m:
                    odd = int(m.group(1)) - 4
                    if odd == 0 and grass[1]:
                        coeff = -coeff  # t5 t4 = -t4 t5
                    grass[odd] += 1
                    continue
                coeff = coeff * _parse_coeff(tok)
        if grass[0] > 1 or grass[1] > 1:
            continue  # theta squared: the term is zero
        table = {(0, 0): "c0", (1, 0): "c4", (0, 1): "c5", (1, 1): "c45"}[tuple(grass)]
        part = {tuple(mono): coeff}
        kwargs = {table: part}
        out = out + SuperPoly(**kwargs)
    return out
