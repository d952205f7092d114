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
summed.  Irrational normalization prefactors are carried separately as a
single surd per harmonic so that orthonormality and structure constants
come out exact up to one final square root.

The kernels run in Python integers.  Each polynomial keeps its integer
form, one common denominator over all four components and the integer
numerators of every term, from the kernel that made it, or computes it once
from its coefficients; a kernel's result builds its coefficient tables only
when they are first read.  Products, normal forms, vector fields and the
pairings sum integers over products of such denominators (and powers of
rho = P/R), and Fractions are formed only where a result is read: per
coefficient of a table, and two per inner product, for its rational core.
The surd scales (Surd) hold reduced pairs of Python ints, so the product
of two scales forms no Fraction.  A radius must be positive (_radius).

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
import functools
import math
import re
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

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
        return not (self.re or self.im)

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)


QQI_ZERO = QQi()
QQI_ONE = QQi(Fraction(1), Fraction(0))
QQI_I = QQi(Fraction(0), Fraction(1))
QQI_HALF = QQi(Fraction(1, 2), Fraction(0))


def _radius(rho: RhoLike) -> Fraction:
    """rho as a positive Fraction; a Fraction is passed through as it is."""
    rho = rho if isinstance(rho, Fraction) else Fraction(rho)
    if rho.numerator <= 0:
        raise ValueError(f"radius must be positive, got {rho}")
    return rho


class Surd:
    """Real number coef * sqrt(rad) with exact rational coef and rad >= 0.

    An immutable value that holds the coefficient and the radicand as two
    reduced pairs of Python ints (numerator, positive denominator); .coef
    and .rad read them as Fractions.  coef and rad must each be an int or a
    Fraction.  Closed under multiplication, which runs in int multiplies,
    one or two gcds and a square test, and forms no Fraction.  A whole
    perfect-square radicand (numerator and denominator both squares) is
    folded into the coefficient, so a surd times itself is rational.  Only
    whole perfect-square radicands fold, so one value can have several
    (coef, rad) pairs: Surd(1, 8) and Surd(2, 2).  Equality and the hash
    therefore go by the value, its sign and its square coef^2 rad, and the
    stored pair is kept as it was made.
    """

    __slots__ = ("_ints",)

    def __init__(self, coef: Union[int, Fraction], rad: Union[int, Fraction] = 1) -> None:
        for name, x in (("coef", coef), ("rad", rad)):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"Surd {name} must be an int or a Fraction, got {type(x).__name__}")
        rn, rd = rad.numerator, rad.denominator
        if rn < 0:
            raise ValueError("radicand must be non-negative")
        ints = _surd_ints(coef.numerator, coef.denominator, rn, rd) if rn else (0, 1, 1, 1)
        object.__setattr__(self, "_ints", ints)

    @classmethod
    def one(cls) -> "Surd":
        return cls(1)

    @property
    def coef(self) -> Fraction:
        return Fraction(self._ints[0], self._ints[1])

    @property
    def rad(self) -> Fraction:
        return Fraction(self._ints[2], self._ints[3])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Surd is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Surd is immutable")

    def __reduce__(self) -> tuple:
        # the stored pair is one the constructor keeps as it is
        return Surd, (self.coef, self.rad)

    def __repr__(self) -> str:
        return f"Surd({self.coef!r}, {self.rad!r})"

    def __mul__(self, other: "Surd") -> "Surd":
        # in integers: the product radicand in lowest terms, one square test,
        # one gcd for the coefficient.  A radicand of 1 (numerator equal to
        # denominator, in lowest terms) leaves the other's, already canonical.
        if not isinstance(other, Surd):
            return NotImplemented
        xn, xd, an, ad = self._ints
        yn, yd, bn, bd = other._ints
        cn, cd = xn * yn, xd * yd
        if an == ad:
            rn, rd = bn, bd
        elif bn == bd:
            rn, rd = an, ad
        else:
            rn, rd = an * bn, ad * bd
            g = math.gcd(rn, rd)
            rn, rd = rn // g, rd // g
            sn, sd = math.isqrt(rn), math.isqrt(rd)
            if sn * sn == rn and sd * sd == rd:
                cn, cd, rn, rd = cn * sn, cd * sd, 1, 1
        g = math.gcd(cn, cd)
        out = object.__new__(Surd)
        object.__setattr__(out, "_ints", (cn // g, cd // g, rn, rd))
        return out

    def _value(self) -> Tuple[int, int, int]:
        """The sign and the square of the value in lowest terms, which together fix it."""
        cn, cd, rn, rd = self._ints
        n, d = cn * cn * rn, cd * cd * rd
        g = math.gcd(n, d)
        return (cn > 0) - (cn < 0), n // g, d // g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def exact(self) -> Optional[Fraction]:
        """The value as a Fraction when the radicand is a perfect square."""
        return self.coef if self._ints[2:] == (1, 1) else None

    def __float__(self) -> float:
        # int true division rounds as float(Fraction(n, d)) does
        cn, cd, rn, rd = self._ints
        return cn / cd * math.sqrt(rn / rd)


def _surd(cn: int, cd: int, rn: int, rd: int) -> Surd:
    """Surd(Fraction(cn, cd), Fraction(rn, rd)) for positive cd, rn and rd, made in ints."""
    g, h = math.gcd(cn, cd), math.gcd(rn, rd)
    out = object.__new__(Surd)
    object.__setattr__(out, "_ints", _surd_ints(cn // g, cd // g, rn // h, rd // h))
    return out


def _surd_ints(cn: int, cd: int, rn: int, rd: int) -> Tuple[int, int, int, int]:
    """A surd's int pairs from reduced coef cn/cd and radicand rn/rd > 0: a whole square radicand folded."""
    sn, sd = math.isqrt(rn), math.isqrt(rd)
    if sn * sn == rn and sd * sd == rd:
        cn, cd = cn * sn, cd * sd
        g = math.gcd(cn, cd)
        return cn // g, cd // g, 1, 1
    return cn, cd, rn, rd


_SURD_ONE = Surd.one()


# ---------------------------------------------------------------------------
# polynomial components


def _clean(d: Dict[Mono, QQi]) -> Dict[Mono, QQi]:
    return {k: v for k, v in d.items() if not v.is_zero()}

def _padd(a: Dict[Mono, QQi], b: Dict[Mono, QQi]) -> Dict[Mono, QQi]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, QQI_ZERO) + v
    return _clean(out)

def _pscale(a: Dict[Mono, QQi], s: QQi) -> Dict[Mono, QQi]:
    return _clean({k: s * v for k, v in a.items()})

def _pconj(a: Dict[Mono, QQi]) -> Dict[Mono, QQi]:
    return {k: v.conj() for k, v in a.items()}


# ---------------------------------------------------------------------------
# integer kernels
#
# A polynomial in integer form is one denominator den and, per component, a
# tuple of terms (a, b, c, re, im): den times the coefficient of
# x1^a x2^b x3^c is the Gaussian integer re + im*i.  The kernels below sum
# such terms in Python integers into accumulators {mono: [re, im]} over a
# known denominator; _kept keeps the result as an integer form, and its
# Fractions are formed when its coefficient tables are first read.

Term = Tuple[int, int, int, int, int]
Acc = Dict[Mono, List[int]]


class IntForm(NamedTuple):
    """A SuperPoly as integers over one denominator.

    terms[k] lists the (a, b, c, re, im) of component k (0 = f0, 1 = f4,
    2 = f5, 3 = f45) scaled by den; buckets[k] holds the same terms keyed
    by the exponent parity (a & 1, b & 1, c & 1).
    """

    den: int
    terms: Tuple[Tuple[Term, ...], ...]
    buckets: Tuple[Dict[Mono, Tuple[Term, ...]], ...]


def _form(den: int, terms) -> IntForm:
    buckets = []
    for rows in terms:
        by_parity: Dict[Mono, list] = {}
        for row in rows:
            by_parity.setdefault((row[0] & 1, row[1] & 1, row[2] & 1), []).append(row)
        buckets.append({k: tuple(v) for k, v in by_parity.items()})
    return IntForm(den, tuple(terms), tuple(buckets))


def _int_form(comps: Tuple[Dict[Mono, QQi], ...]) -> IntForm:
    den = math.lcm(*[x.denominator for comp in comps for v in comp.values() for x in (v.re, v.im)])
    return _form(den, [
        tuple(
            (a, b, c, v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))
            for (a, b, c), v in comp.items()
        )
        for comp in comps
    ])


def _kept(den: int, accs: Tuple[Acc, ...]) -> "SuperPoly":
    """The polynomial of the accumulators over den, kept as its ints alone.

    Over den divided by the gcd of den and every numerator, the terms are
    exactly what _int_form computes from the coefficients, in the same order;
    the coefficient tables are built from them on first read (_tables).
    """
    terms = [_acc_terms(acc) for acc in accs]
    g = math.gcd(den, *(x for rows in terms for row in rows for x in row[3:]))
    if g > 1:
        den //= g
        terms = [tuple((a, b, c, re // g, im // g) for a, b, c, re, im in rows) for rows in terms]
    poly = object.__new__(SuperPoly)
    poly.__dict__["ints"] = _form(den, terms)
    return poly


def _tables(form: IntForm) -> Tuple[Dict[Mono, QQi], ...]:
    """The four coefficient tables of an integer form, one QQi per term."""
    den = form.den
    return tuple(
        {(a, b, c): QQi(Fraction(re, den), Fraction(im, den)) for a, b, c, re, im in rows}
        for rows in form.terms
    )


def _imul(acc: Acc, p: Tuple[Term, ...], q: Tuple[Term, ...], sign: int = 1, conj: bool = False) -> None:
    """Add sign * p * q, or sign * conj(p) * q, into acc.

    The denominator of acc is that of p times that of q.
    """
    for a1, b1, c1, pr, pi in p:
        if sign < 0:
            pr, pi = -pr, -pi
        if conj:
            pi = -pi
        for a2, b2, c2, qr, qi in q:
            key = (a1 + a2, b1 + b2, c1 + c2)
            re, im = pr * qr - pi * qi, pr * qi + pi * qr
            slot = acc.get(key)
            if slot is None:
                acc[key] = [re, im]
            else:
                slot[0] += re
                slot[1] += im


class _OddDoubleFactorials(dict):
    """(2k - 1)!! by k, each computed once, on first use."""

    def __missing__(self, k: int) -> int:
        out = self[k] = _dfact(2 * k - 1)
        return out


_ODD_DFACT = _OddDoubleFactorials()

#: (f component, g component, sign, offset) of the Berezin pairing: the body
#: f0* g0 enters at s = n - 1, the top -(f0* g45 + f45* g0 - f5* g5 - f4* g4)
#: at s = n + 1, for product terms of degree n
_BEREZIN_PAIRS = ((0, 0, 1, -1), (0, 3, -1, 1), (3, 0, -1, 1), (2, 2, 1, 1), (1, 1, 1, 1))
#: the sphere average: the body f0* g0 alone, at s = n + 1
_SPHERE_PAIRS = ((0, 0, 1, 1),)


def _pairing(f: IntForm, g: IntForm, rho: Fraction, shift: int, pairs) -> QQi:
    """sum_s A_s rho^(s + shift) / s!! over f.den g.den, in one pass over two integer forms.

    A_s sums sign * w * conj(p) * q over the bucket pairs listed, for every
    term p of f and q of g of equal exponent parity: only their product
    x1^a x2^b x3^c has all exponents even, and with them the unit-sphere
    moment w / (n+1)!!, w = (a-1)!! (b-1)!! (c-1)!!, of degree n = a+b+c.
    The product enters at s = n + offset.  With s odd, the Berezin weights
    (n+1) rho^(n-1) / (n+1)!! of the body and rho^(n+1) / (n+1)!! of the
    top are both rho^s / s!!, and the sphere's rho^n / (n+1)!! is
    rho^(s-1) / s!!.  With rho = P/R, the nonzero A_s are brought over
    the one denominator den S!! P^-K0 R^K1, S the largest s and
    K0 <= 0 <= K1 bounding the powers of rho, so the result costs two
    Fractions; a zero sum costs none.
    """
    dfact = _ODD_DFACT
    acc: Dict[int, List[int]] = {}
    for i, j, sign, offset in pairs:
        right = g.buckets[j]
        if not right:
            continue
        for parity, p_terms in f.buckets[i].items():
            q_terms = right.get(parity)
            if not q_terms:
                continue
            for a1, b1, c1, pr, pi in p_terms:
                if sign < 0:
                    pr, pi = -pr, -pi
                for a2, b2, c2, qr, qi in q_terms:
                    a, b, c = a1 + a2, b1 + b2, c1 + c2
                    w = dfact[a >> 1] * dfact[b >> 1] * dfact[c >> 1]
                    s = a + b + c + offset
                    slot = acc.get(s)
                    if slot is None:
                        acc[s] = [w * (pr * qr + pi * qi), w * (pr * qi - pi * qr)]
                    else:
                        slot[0] += w * (pr * qr + pi * qi)
                        slot[1] += w * (pr * qi - pi * qr)
    terms = [(s, re, im) for s, (re, im) in acc.items() if re or im]
    if not terms:
        return QQI_ZERO
    p, r = rho.numerator, rho.denominator
    top = max(t[0] for t in terms)
    k0 = min(0, min(t[0] for t in terms) + shift)
    k1 = max(0, top + shift)
    num_re = num_im = 0
    for s, re, im in terms:
        w = math.prod(range(s + 2, top + 1, 2)) * p ** (s + shift - k0) * r ** (k1 - s - shift)
        num_re += w * re
        num_im += w * im
    den = f.den * g.den * dfact[(top + 1) >> 1] * p**-k0 * r**k1
    return QQi(Fraction(num_re, den), Fraction(num_im, den))


_COMPONENTS = ("c0", "c4", "c5", "c45")


def _table(k: int) -> functools.cached_property:
    """Component k's coefficient table, built with the other three on first read."""

    def read(self: "SuperPoly") -> Dict[Mono, QQi]:
        tables = _tables(self.ints)
        self.__dict__.update(zip(_COMPONENTS, tables))
        return tables[k]

    return functools.cached_property(read)


class SuperPoly:
    """Element f0 + f4 theta4 + f5 theta5 + f45 theta4 theta5.

    A value with two forms, each built from the other on first read and
    then kept: the coefficient tables c0, c4, c5, c45 of a polynomial given
    by its coefficients, and the integer form (ints) of a kernel's result
    (_kept), which the kernels read.
    """

    c0 = _table(0)
    c4 = _table(1)
    c5 = _table(2)
    c45 = _table(3)

    def __init__(
        self,
        c0: Optional[Dict[Mono, QQi]] = None,
        c4: Optional[Dict[Mono, QQi]] = None,
        c5: Optional[Dict[Mono, QQi]] = None,
        c45: Optional[Dict[Mono, QQi]] = None,
    ) -> None:
        self.__dict__.update(zip(_COMPONENTS, (_clean(c or {}) for c in (c0, c4, c5, c45))))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"SuperPoly is immutable; cannot set {name!r}")

    @classmethod
    def zero(cls) -> "SuperPoly":
        return cls()

    @classmethod
    def one(cls) -> "SuperPoly":
        return cls(c0={(0, 0, 0): QQI_ONE})

    @classmethod
    def variable(cls, name: str) -> "SuperPoly":
        if name not in ("x1", "x2", "x3", "t4", "t5"):
            raise ValueError(f"unknown variable {name!r}")
        return parse_superpoly(name)

    def components(self) -> Tuple[Dict[Mono, QQi], ...]:
        return (self.c0, self.c4, self.c5, self.c45)

    @functools.cached_property
    def ints(self) -> IntForm:
        """The integer form, kept from a kernel or built on first use from the tables."""
        return _int_form(self.components())

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
        f0, f4, f5, f45 = self.ints.terms
        g0, g4, g5, g45 = other.ints.terms
        h = ({}, {}, {}, {})
        _imul(h[0], f0, g0)
        _imul(h[1], f0, g4)
        _imul(h[1], f4, g0)
        _imul(h[2], f0, g5)
        _imul(h[2], f5, g0)
        _imul(h[3], f0, g45)
        _imul(h[3], f45, g0)
        _imul(h[3], f4, g5)
        _imul(h[3], f5, g4, -1)
        return _kept(self.ints.den * other.ints.den, h)


_ONE_FORM = SuperPoly.one().ints


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
    rho2 = QQi(_radius(rho) ** 2)
    return SuperPoly(
        c0={
            (2, 0, 0): QQI_ONE,
            (0, 2, 0): QQI_ONE,
            (0, 0, 2): QQI_ONE,
            (0, 0, 0): -rho2,
        },
        c45={(0, 0, 0): QQi(Fraction(2))},
    )


def _radical_powers(t_max: int, rho: Fraction) -> List[Tuple[Term, ...]]:
    """R^(2t) (rho^2 - x1^2 - x2^2)^t as integer terms, for t = 0..t_max.

    rho = P/R; by the trinomial theorem the term of x1^(2b) x2^(2c) is
    (-1)^(b+c) C(t, b) C(t-b, c) P^(2(t-b-c)) R^(2(b+c)).
    """
    p2, r2 = rho.numerator**2, rho.denominator**2
    return [
        tuple(
            (2 * b, 2 * c, 0, (-1) ** (b + c) * math.comb(t, b) * math.comb(t - b, c)
             * p2 ** (t - b - c) * r2 ** (b + c), 0)
            for b in range(t + 1)
            for c in range(t - b + 1)
        )
        for t in range(t_max + 1)
    ]


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


def _normal_ints(den: int, terms, rho: Fraction) -> Tuple[int, Tuple[Acc, ...]]:
    """normal_form on integer terms over den: the reduced terms over a new den.

    (x3)^c with c = 2t + r expands to B^t x3^r - 2t B^(t-1) x3^r theta4 theta5
    modulo the relation, with B = rho^2 - x1^2 - x2^2, because theta4 theta5
    squares to zero.  So the c0 reduction spills into c45, and the other
    components reduce purely bosonically since any further theta factors
    die.  With rho = P/R every term is lifted to den * R^(2 t_max).
    """
    t_max = max((c // 2 for comp in terms for _, _, c, _, _ in comp), default=0)
    radical = _radical_powers(t_max, rho)
    r2 = rho.denominator**2
    out = ({}, {}, {}, {})
    for k, comp in enumerate(terms):
        for a, b, c, re, im in comp:
            t, r = divmod(c, 2)
            lift = r2 ** (t_max - t)
            _imul(out[k], ((a, b, r, lift * re, lift * im),), radical[t])
            if k == 0 and t:
                lift = -2 * t * r2 ** (t_max - t + 1)
                _imul(out[3], ((a, b, r, lift * re, lift * im),), radical[t - 1])
    return den * r2**t_max, out


def normal_form(f: SuperPoly, rho: RhoLike) -> SpherePolyClass:
    """Unique representative with x3-degree <= 1 in each component.

    The relation is eliminated in integers over the integer form of f, with
    one Fraction per output coefficient.
    """
    rho = _radius(rho)
    return SpherePolyClass(poly=_kept(*_normal_ints(f.ints.den, f.ints.terms, rho)), rho=rho)


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


def berezin_radial_sum(f: SuperPoly, rho: RhoLike) -> QQi:
    """Exact value of I(f)/(2 pi) on the radius-rho supersphere.

        I(f)/(2 pi) = sum_n (n+1) rho^(n-1) m_n(f0) - sum_n rho^(n+1) m_n(f45)

    where m_n collects the degree-n unit-sphere moments of a component.
    Anchors: I(1) = 2 pi / rho and I(theta4 theta5) = -2 pi rho, and the
    functional vanishes identically on the defining ideal, which pins it
    among the candidate Berezin-integration conventions.  It is the
    pairing of 1 with f.
    """
    return _pairing(_ONE_FORM, f.ints, _radius(rho), 0, _BEREZIN_PAIRS)


def berezin_sphere_integral(f: SuperPoly, rho: RhoLike) -> complex:
    return 2.0 * math.pi * complex(berezin_radial_sum(f, rho))


PolyOrClass = Union[SuperPoly, SpherePolyClass]


def _as_class_parts(f: PolyOrClass, rho: Fraction) -> Tuple[SuperPoly, Surd]:
    if isinstance(f, SpherePolyClass):
        # most often the very Fraction the class was built with
        if f.rho is not rho and f.rho != rho:
            raise ValueError("radius mismatch")
        return f.poly, f.scale
    return f, _SURD_ONE


def inner_S_exact(f: PolyOrClass, g: PolyOrClass, rho: RhoLike) -> Tuple[QQi, Surd]:
    """<f|g> = (rho/2pi) I(f-cross * g) as (rational core, surd scale).

    The core is rho * berezin_radial_sum(cross_involution(f) * g, rho),
    computed as a bilinear pairing of the components of f and g: only
    monomial pairs of equal exponent parity contribute, and only the even
    components of the product are summed, f0* g0 (the body) and
    f0* g45 + f45* g0 - f5* g5 - f4* g4 (the top, with the cross involution
    folded in).  The sums run in one pass over the integer forms of f and g
    (_pairing), and the core is the only pair of Fractions formed.
    """
    rho = _radius(rho)
    fp, fs = _as_class_parts(f, rho)
    gp, gs = _as_class_parts(g, rho)
    return _pairing(fp.ints, gp.ints, rho, 1, _BEREZIN_PAIRS), fs * gs


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
# _integer_field compiles each field once, at import, over the least
# denominator of its coefficients.

_ONE, _HALF = QQI_ONE, QQI_HALF
_I, _IHALF = QQI_I, QQI_HALF * QQI_I


def _rotation(*terms: Tuple[int, int, QQi]) -> tuple:
    return tuple((c, c, mul, diff, coef) for c in range(4) for mul, diff, coef in terms)


def _integer_field(terms: tuple) -> Tuple[int, tuple]:
    """(lift, rows): rows (dst, src, shift, diff, real, c) with integer c.

    lift is the least common denominator of the coefficients, and c is
    lift times the real or the imaginary part of a coefficient (every
    coefficient is real or purely imaginary, as real says).
    """
    lift = math.lcm(*(x.denominator for *_, coef in terms for x in (coef.re, coef.im)))
    rows = []
    for dst, src, mul, diff, coef in terms:
        shift = tuple((axis == mul) - (axis == diff) for axis in range(3))
        real = coef.im == 0
        rows.append((dst, src, shift, diff, real, int((coef.re if real else coef.im) * lift)))
    return lift, tuple(rows)


_FIELD_TERMS: Dict[Union[int, str], tuple] = {
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
_FIELDS = {label: _integer_field(terms) for label, terms in _FIELD_TERMS.items()}


def _apply_field(a: Union[int, str], den: int, terms) -> Tuple[int, Tuple[Acc, ...]]:
    """vector_field_action on integer terms over den: the image over a new den.

    A field with half-integer coefficients doubles the denominator, so that
    every term coefficient is an integer.
    """
    try:
        lift, table = _FIELDS[a]
    except KeyError:
        raise ValueError(f"unknown basis label {a!r}") from None
    out = ({}, {}, {}, {})
    for dst, src, (da, db, dc), diff, real, c in table:
        acc = out[dst]
        for row in terms[src]:
            k = c if diff < 0 else c * row[diff]
            if not k:
                continue
            a0, b0, c0, vr, vi = row
            re, im = (k * vr, k * vi) if real else (-k * vi, k * vr)
            key = (a0 + da, b0 + db, c0 + dc)
            slot = acc.get(key)
            if slot is None:
                acc[key] = [re, im]
            else:
                slot[0] += re
                slot[1] += im
    return den * lift, out


def _acc_terms(acc: Acc) -> Tuple[Term, ...]:
    return tuple((a, b, c, re, im) for (a, b, c), (re, im) in acc.items() if re or im)


def vector_field_action(a: Union[int, str], f: SuperPoly) -> SuperPoly:
    """First-order graded derivation J_a acting on a superpolynomial.

    Labels 1..5 or the ladder aliases '+', '-' for J_1 +- i J_2.  Every
    field is one entry of the term table _FIELD_TERMS, compiled to integer
    coefficients in _FIELDS and applied in one pass over its terms: the even fields rotate each component and mix (theta4,
    theta5) as a spinor, the odd fields exchange bosonic and Grassmann
    data.  All of them annihilate the relation polynomial, so they descend
    to the quotient.  Every coefficient is real or purely imaginary, so a
    term scales the two integer parts of each term of the integer form
    directly; the results accumulate in [re, im] slots and become Fractions
    once.
    """
    return _kept(*_apply_field(a, f.ints.den, f.ints.terms))


# ---------------------------------------------------------------------------
# classical harmonics


def _x_plus_terms(k: int, x3: int) -> Tuple[Term, ...]:
    """x3^x3 (x1 + i x2)^k as integer terms, by the binomial theorem."""
    out = []
    for r in range(k + 1):
        n = math.comb(k, r) * (-1) ** (r // 2)
        out.append((k - r, r, x3, 0, n) if r % 2 else (k - r, r, x3, n, 0))
    return tuple(out)


def classical_harmonic(two_j: int, mu: int, two_m: int, rho: RhoLike) -> SpherePolyClass:
    """Superspherical harmonic Y_(j, l, m, mu) with l = j - mu/2.

    Built from the highest-weight polynomial and exact ladder steps, all in
    integer terms over one denominator, then reduced to normal form; the
    Fractions are formed once, for the result.  The accumulated
    normalization stays in the surd scale.
    """
    rho = _radius(rho)
    if two_j < 0 or mu not in (0, 1):
        raise ValueError("bad harmonic label")
    if mu == 1 and two_j < 1:
        raise ValueError("mu = 1 needs j >= 1/2")
    two_l = two_j - mu
    if abs(two_m) > two_l or (two_m - two_l) % 2:
        raise ValueError("bad magnetic label")

    k = two_j // 2
    if two_j % 2 == 0:
        terms, power = (_x_plus_terms(k, 0), (), (), ()), k
    else:
        # x3 (x1 + i x2)^k theta4 + (x1 + i x2)^(k+1) theta5
        terms, power = ((), _x_plus_terms(k, 1), _x_plus_terms(k + 1, 0), ()), k + 2
    # sqrt((2j)!) / (2^k k! rho^power)
    top = 2**k * math.factorial(k) * rho.numerator**power
    scale = _surd(rho.denominator**power, top, math.factorial(two_j), 1)

    # (field, radicand of its normalization as num, den): J_5 for mu = 1, then the J_- steps
    steps = [(5, 4, two_j)] if mu else []
    steps += [("-", 1, (two_l + t) // 2 * ((two_l - t + 2) // 2)) for t in range(two_l, two_m, -2)]
    den = 1
    for field, rn, rd in steps:
        den, out = _apply_field(field, den, terms)
        terms = tuple(_acc_terms(acc) for acc in out)
        scale = scale * _surd(1, 1, rn, rd)

    return SpherePolyClass(poly=_kept(*_normal_ints(den, terms, rho)), rho=rho, scale=scale)


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
    """Sphere average (1/4pi) of conj(f) g on the radius-rho sphere.

    The body moments of the pairing kernel, sum_n rho^n m_n(f0* g0), in the
    one pass of inner_S_exact (_pairing).
    """
    rho = _radius(rho)
    fp, fs = _as_class_parts(f, rho)
    gp, gs = _as_class_parts(g, rho)
    return _pairing(fp.ints, gp.ints, rho, -1, _SPHERE_PAIRS), fs * gs


def inner_sphere(f: PolyOrClass, g: PolyOrClass, rho: RhoLike) -> complex:
    core, s = inner_sphere_exact(f, g, rho)
    return complex(core) * float(s)


def body_map_classical(f: PolyOrClass, rho: RhoLike) -> SpherePolyClass:
    """Set the odd coordinates to zero and reduce mod the bosonic relation."""
    rho = _radius(rho)
    fp, fs = _as_class_parts(f, rho)
    body = normal_form(SuperPoly(c0=fp.c0), rho).poly.c0
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


#: one token of superpolynomial text after optional whitespace: a sign, a '*',
#: or a factor: an even coordinate with its exponent, an odd coordinate, or a
#: coefficient as format_superpoly writes it (3, 1/2, 0.5, i, 2/3i, (1/2-3i)),
#: whose sign is a token of its own.  A factor ends at whitespace, '*', a sign
#: or the end of the text, so x12, x1.5, 2x1 and 1e-3 are not read.
_NUM = r"\d+(?:/0*[1-9]\d*|\.\d+)?|\.\d+"
_TOKEN = re.compile(
    rf"\s*(?:(?P<sign>[+-])|(?P<star>\*)|(?:x(?P<x>[123])(?:\^(?P<exp>\d+))?|t(?P<t>[45])"
    rf"|\((?P<re>-?(?:{_NUM}))(?P<im>[+-](?:{_NUM})?)i\)|(?P<num>(?:{_NUM})?i|{_NUM}))(?![^\s*+-]))"
)


def parse_superpoly(text: str) -> SuperPoly:
    """Read the text format_superpoly writes, and the shorthands of its terms.

    The grammar: signs, then a term, then any number of (signs, term).  A
    term is factors side by side, or joined by one '*' between two of
    them: a coefficient (3, -1/2, 0.5, i, 2/3i, (1+2i)), x1, x2 or x3 with an
    optional ^n, t4 or t5, each ending at whitespace, '*', a sign or the
    end of the text.  Signs multiply; t5 t4 = -t4 t5, and a term with
    a repeated odd factor is zero.  "" and "0" are the zero polynomial.  Any
    other text raises one ValueError that quotes what could not be read.
    """
    text = text.strip()
    terms, coeff, mono, odd = [], QQI_ONE, [0, 0, 0], []
    pos, last = 0, "+"  # last: the previous sign or '*', or "f" after a factor
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m["star"] and last != "f" or m["sign"] and last == "*":
            break
        if m["sign"] and last == "f":
            terms.append((coeff, mono, odd))
            coeff, mono, odd = QQI_ONE, [0, 0, 0], []
        if m["x"]:
            mono[int(m["x"]) - 1] += int(m["exp"] or 1)
        elif m["t"]:
            odd.append(m["t"])
        elif m["re"]:
            im = m["im"] if len(m["im"]) > 1 else m["im"] + "1"
            coeff *= QQi(Fraction(m["re"]), Fraction(im))
        elif m["num"]:
            v = Fraction(m["num"].rstrip("i") or 1)
            coeff *= QQi(im=v) if m["num"].endswith("i") else QQi(v)
        elif m["sign"] == "-":
            coeff = -coeff
        pos, last = m.end(), m["sign"] or m["star"] or "f"
    if pos < len(text) or text and last != "f":
        raise ValueError(f"cannot read {text[pos:].strip() or last!r} in superpolynomial {text!r}")
    if text:
        terms.append((coeff, mono, odd))
    comps = ({}, {}, {}, {})
    for coeff, mono, odd in terms:
        if len(set(odd)) == len(odd):  # a repeated odd factor squares to zero
            comp = comps[("4" in odd) + 2 * ("5" in odd)]
            comp[tuple(mono)] = comp.get(tuple(mono), QQI_ZERO) + (-coeff if odd == ["5", "4"] else coeff)
    return SuperPoly(*comps)
