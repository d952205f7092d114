"""Finite matrix truncations of the supersphere and their harmonics.

The level-q truncation is End(V(q/2)) for the graded irrep with odd
highest weight; its (2q+1)^2-dimensional harmonic basis diagonalizes the
pseudo-inner product -str(f-dag g) up to signs.  The bosonic companion,
End of the spin-q/2 sl2 irrep, is the target of the body map.  All
normalizations are fixed once by the highest-weight matrices; everything
else is generated by ladder steps, so orthonormality is a theorem here, not
a fitting procedure.  Both spheres keep their harmonics in one weight table,
built in one sweep; its one projection per weight removes only rounding noise.
The sweep forms no dense operator per weight: it reads the matrix entries
of each weight from the buckets cached on J_3 (GradedMatrix.weight_buckets,
which the calculus layouts read too), takes each J_- step block from
graded.restricted_adjoint, which scatters it from the nonzeros of J_-, and
reads every chain top from one matrix of all the highest weights (the
supersphere's mu = 1 tops from one graded commutator of that matrix with
J_5).  J_-, the pairing and every chain top are real, so every harmonic is:
the sweep runs in float64 and the table stores one float64 per entry.  The
harmonics, projections and reconstructions it serves stay complex.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import numbers
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .graded import (
    ODD,
    GradedDims,
    GradedMatrix,
    entry_weights,
    graded_commutator,
    indefinite_inner,
    restricted_adjoint,
)
from .osp import Irrep, Sl2Irrep, build_irrep, build_sl2_irrep, label_parity


def _binomial_diagonal(a: int, b: int, top: int, count: int, num: int, den: int) -> np.ndarray:
    """sqrt(num C(r+a, a) C(top-r, b) / den) for r = 0..count-1, count <= top - b + 1.

    Both binomials are carried as exact integers from r - 1 to r (two exact
    divisions), and each square is one exact integer ratio, rounded once, so
    a top's entries neither underflow nor overflow, however small its norm.
    """
    u, v = 1, math.comb(top, b)
    out = [num * v / den] if count else []
    for r in range(1, count):
        u = u * (r + a) // r
        v = v * (top - r + 1 - b) // (top - r + 1)
        out.append(num * u * v / den)
    return np.sqrt(out)


def _integral(x) -> bool:
    """Whether x is an integral number: an int, a numpy int or an integral float."""
    return isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x)


def _level(q) -> int:
    """q as an int, if it is a positive integer (a numpy int or an integral float too)."""
    if not _integral(q) or q < 1:
        raise ValueError(f"level q must be a positive integer, got {q!r}")
    return int(q)


def _radius(rho) -> float:
    """rho as a float, if it is a finite positive number."""
    if not isinstance(rho, numbers.Real) or not 0 < rho < math.inf:
        raise ValueError(f"radius must be finite and positive, got {rho!r}")
    return float(rho)


# ---------------------------------------------------------------------------
# harmonic labels


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class HarmonicLabel:
    """(j, l, m, mu) with l = j - mu/2, stored in doubled integers.

    The hash is computed once, in __post_init__ (so dataclasses.replace
    rehashes): labels key every table and coefficient dict.
    """

    two_j: int
    mu: int
    two_m: int
    _hash: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.two_j < 0:
            raise ValueError("superspin must be non-negative")
        if self.mu not in (0, 1):
            raise ValueError("mu must be 0 or 1")
        if self.mu == 1 and self.two_j < 1:
            raise ValueError("mu = 1 requires j >= 1/2")
        two_l = self.two_j - self.mu
        if abs(self.two_m) > two_l or (two_l - self.two_m) % 2:
            raise ValueError("magnetic label out of range")
        object.__setattr__(self, "_hash", hash((self.two_j, self.mu, self.two_m)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def two_l(self) -> int:
        return self.two_j - self.mu

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def l(self) -> float:
        return self.two_l / 2

    @property
    def m(self) -> float:
        return self.two_m / 2

    @property
    def parity(self) -> int:
        return (self.two_j + self.mu) % 2

    @property
    def sign(self) -> int:
        """Signature of the label in the pseudo-orthonormal Gram matrix."""
        return -1 if (self.two_j % 2 == 1 and self.mu == 1) else 1


def all_labels(q: int) -> List[HarmonicLabel]:
    """All (2q+1)^2 labels at level q, grouped by (j, mu), m descending."""
    out = []
    for two_j in range(0, 2 * q + 1):
        for mu in (0, 1):
            if mu == 1 and two_j == 0:
                continue
            two_l = two_j - mu
            for two_m in range(two_l, -two_l - 1, -2):
                out.append(HarmonicLabel(two_j, mu, two_m))
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class FuzzyElement:
    """Coefficient vector over harmonic labels at a fixed level.

    The level is checked like a sphere's (a positive integer, kept as an int).
    """

    q: int
    coeffs: Dict[HarmonicLabel, complex]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _level(self.q))
        for label in self.coeffs:
            if label.two_j > 2 * self.q:
                raise ValueError(f"label {label} does not exist at level {self.q}")

    def __add__(self, other: "FuzzyElement") -> "FuzzyElement":
        if self.q != other.q:
            raise ValueError("level mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return FuzzyElement(self.q, out)

    def __sub__(self, other: "FuzzyElement") -> "FuzzyElement":
        return self + other.scale(-1)

    def scale(self, s: complex) -> "FuzzyElement":
        return FuzzyElement(self.q, {k: s * v for k, v in self.coeffs.items()})

    def get(self, label: HarmonicLabel) -> complex:
        return self.coeffs.get(label, 0j)

    def max_abs_diff(self, other: "FuzzyElement") -> float:
        worst = 0.0
        for k in set(self.coeffs) | set(other.coeffs):
            worst = max(worst, abs(self.get(k) - other.get(k)))
        return worst

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "coeffs": [
                [k.two_j, k.mu, k.two_m, v.real, v.imag]
                for k, v in sorted(self.coeffs.items())
                if v != 0
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FuzzyElement":
        """The element of to_json; a label entry that is not an integral number is a ValueError."""
        coeffs = {}
        for tj, mu, tm, re, im in data["coeffs"]:
            for x in (tj, mu, tm):
                if not _integral(x):
                    raise ValueError(f"label entries must be integers, got {x!r}")
            coeffs[HarmonicLabel(int(tj), int(mu), int(tm))] = complex(re, im)
        return cls(data["q"], coeffs)


# ---------------------------------------------------------------------------
# harmonics stored by weight


class _WeightTable:
    """The harmonic basis of a sphere, stored on the entries of each weight.

    A harmonic of doubled weight m is nonzero only on the entries of weight
    m (graded.entry_weights).  The table reads those entries from the
    buckets cached on its J_3, a GradedMatrix (weight_buckets), row-major
    within a weight, the order graded.restricted_adjoint needs of its
    sources.  For each m it keeps
    them as ``flat`` indices r*n + c, and one row per label in ``rows``,
    labels sorted by descending l: a C-contiguous float64 labels x entries
    array, so a harmonic is one contiguous row scattered onto the real parts
    of the flat entries of a complex matrix.
    ``cols`` holds the transposed views of ``rows``, one column per label,
    and ``where`` gives the row (column) of each label at its weight
    label.two_m, keyed by those same label objects.

    ``chains`` lists (labels, sign, source, scale) per chain, its labels
    from the top weight 2l down; the chain's top is scale * source on the
    entries of weight 2l, so one source matrix serves every top whose
    weights differ.  One sweep down from the top weight builds every chain:
    each step is the block graded.restricted_adjoint gives for J_- from the
    bucket of weight m + 2 to that of m, times the columns there, over the
    ladder's sqrt(step).  Every nonzero of J_- must sit on an entry of
    weight -2 (a ValueError otherwise).

    The sweep is real: it reads the real parts of the J_- blocks, of the
    pairing and of the chain tops, so every product takes real BLAS.  Each
    of them must have no nonzero imaginary part (a ValueError otherwise), so
    taking the real part drops nothing.

    The chains live at a weight are those whose top is at least |m| and of
    m's parity: a prefix of that parity's chains sorted by descending top,
    found by bisection.  The steps then lose their components along the
    columns of larger l at that weight, in the pairing given entrywise by
    ``pair`` and the label signs.  Those components vanish in exact
    arithmetic; in floating point they are the rounding noise that later
    steps would amplify.  Only steps are projected (a top has l = m, the
    least l at its weight), and only against steps of strictly larger l, all
    in one product per weight: the signed Gram G of the steps, masked to
    those pairs, then steps -= steps @ G.  G is read from the unprojected
    steps, where a column-by-column sweep would read the already projected
    ones; each such correction is O(eps) and meets an O(eps) overlap, so the
    two differ by O(eps^2).  The sweep computes in entries x labels layout
    and keeps the columns of the weight m + 2 it steps from until weight m
    is built; the table stores only the rows.  ``project`` inverts
    ``combine`` with the same pairing: one product per weight, of the real
    rows with the (entries, 2) float64 view of a complex vector, so no
    complex copy of a table block is formed.
    """

    def __init__(self, j3: GradedMatrix, jm: GradedMatrix, pair: np.ndarray, chains: list) -> None:
        self.n = n = j3.n
        if (entry_weights(j3.mat)[jm.mat != 0] != -2).any():
            raise ValueError("the lowering operator must lower the weight by one")
        _check_real("the lowering operator", jm.mat)
        pair = _check_real("the pairing", pair)
        chains = sorted(chains, key=lambda ch: -ch[0][0].two_m)
        # each parity's chains by descending top weight, and those tops negated for bisect
        by_parity = {p: [ch for ch in chains if ch[0][0].two_m % 2 == p] for p in (0, 1)}
        neg_tops = {p: [-ch[0][0].two_m for ch in live] for p, live in by_parity.items()}
        buckets = j3.weight_buckets
        self.flat: Dict[int, np.ndarray] = {}  # r * n + c for the entries of each weight
        self.rows: Dict[int, np.ndarray] = {}  # labels x entries, float64, C-contiguous
        self.cols: Dict[int, np.ndarray] = {}  # the transposed views of rows
        self.labels: Dict[int, tuple] = {}  # the labels of each weight, in column order
        self.pair: Dict[int, np.ndarray] = {}  # pair on the entries of each weight
        self.signs: Dict[int, np.ndarray] = {}  # the label signs, in column order
        self.where: Dict[object, int] = {}
        above: Dict[int, np.ndarray] = {}  # per parity, the columns of the last weight built
        for two_m in sorted(buckets, reverse=True):
            p, entries = two_m % 2, buckets[two_m]
            live = by_parity[p][: bisect.bisect_right(neg_tops[p], -abs(two_m))]
            w, s = pair[entries], np.array([ch[1] for ch in live], dtype=float)
            h = np.empty((len(entries[0]), len(live)))
            # the chains stepping down from two_m + 2: tops above two_m
            k0 = bisect.bisect_left(neg_tops[p], -two_m, 0, len(live))
            if k0:
                ad = np.ascontiguousarray(restricted_adjoint(jm, entries, buckets[two_m + 2]).real)
                two_l = np.array([ch[0][0].two_m for ch in live[:k0]])
                step = (two_l + two_m + 2) // 2 * ((two_l - two_m) // 2)
                steps = ad @ above[p][:, :k0] / np.sqrt(step)
                g = s[:k0, None] * (steps.T @ (w[:, None] * steps))
                g[two_l[:, None] <= two_l] = 0  # step i enters step k only if l_i > l_k
                h[:, :k0] = steps - steps @ g
            for k in range(k0, len(live)):
                _, _, source, scale = live[k]
                h[:, k] = _check_real("a chain top", source[entries]) * scale
            above[p] = h
            self.flat[two_m] = entries[0] * n + entries[1]
            self.rows[two_m] = np.ascontiguousarray(h.T)
            self.cols[two_m] = self.rows[two_m].T
            self.labels[two_m] = tuple(ch[0][(ch[0][0].two_m - two_m) // 2] for ch in live)
            self.pair[two_m], self.signs[two_m] = w, s
            self.where.update((label, k) for k, label in enumerate(self.labels[two_m]))

    def _locate(self, label) -> Tuple[int, int]:
        try:
            return label.two_m, self.where[label]
        except KeyError:
            raise ValueError(f"label {label} does not exist at this level") from None

    def column(self, label) -> np.ndarray:
        """Y_label as a fresh complex n x n array: its real row scattered onto its flat entries' real parts."""
        two_m, k = self._locate(label)
        out = np.zeros((self.n, self.n), dtype=complex)
        out.reshape(-1).real[self.flat[two_m]] = self.rows[two_m][k]
        return out

    def project_weight(self, f: np.ndarray, two_m: int) -> np.ndarray:
        """The coefficients of f on the labels of weight two_m, in column order.

        sign_L <Y_L|f> for each label L, as one product on the entries of that
        weight: signs * (rows @ (pair * f)), the rows being real.  The
        complex entries vector is read as its (entries, 2) float64 view, so
        the real rows take real BLAS and no complex copy of them is formed.
        """
        x = (self.pair[two_m] * np.take(f, self.flat[two_m])).astype(complex, copy=False)
        return self.signs[two_m] * (self.rows[two_m] @ _pairs(x)).view(complex)[:, 0]

    def project(self, f: np.ndarray) -> Dict[object, complex]:
        """The inverse of combine: the coefficient of every label, one product per weight."""
        out: Dict[object, complex] = {}
        for two_m, labels in self.labels.items():
            out.update(zip(labels, self.project_weight(f, two_m).tolist()))
        return out

    def combine(self, coeffs) -> np.ndarray:
        """sum_L coeffs[L] Y_L, one product per weight that occurs."""
        vecs: Dict[int, np.ndarray] = {}
        for label, c in coeffs.items():
            two_m, k = self._locate(label)
            vecs.setdefault(two_m, np.zeros(self.cols[two_m].shape[1], dtype=complex))[k] += c
        return self.assemble(vecs)

    def assemble(self, vecs: Dict[int, np.ndarray]) -> np.ndarray:
        """The matrix with complex coefficient vector vecs[m] on the columns of each weight m.

        Each weight is one real product, the columns times the (labels, 2)
        float64 view of vecs[m], written into the (n^2, 2) float64 view of
        the complex result.
        """
        out = np.zeros((self.n, self.n), dtype=complex)
        entries = _pairs(out.reshape(-1))
        for two_m, v in vecs.items():
            entries[self.flat[two_m]] = self.cols[two_m] @ _pairs(np.asarray(v, dtype=complex))
        return out


def _check_real(what: str, a: np.ndarray) -> np.ndarray:
    """The real part of a, which must have no nonzero imaginary part (a ValueError otherwise)."""
    if np.iscomplexobj(a):
        if a.imag.any():
            raise ValueError(f"{what} must be real")
        return a.real
    return a


def _pairs(v: np.ndarray) -> np.ndarray:
    """A contiguous complex vector as its (len, 2) float64 view of real and imaginary parts."""
    return np.ascontiguousarray(v).view(float).reshape(-1, 2)


def _chains(labels, key) -> List[tuple]:
    """Consecutive runs of labels with one key: the chains, each from its top down."""
    return [tuple(run) for _, run in itertools.groupby(labels, key)]


# ---------------------------------------------------------------------------
# the fuzzy supersphere


class FuzzySuperSphere:
    """Level-q truncation: End(V(q/2)) with its harmonic basis.

    The irrep, like the weight table of all (2q+1)^2 harmonics, is built on
    the first call that needs it, so working with the highest-weight
    harmonics alone at large q pays for neither.  Its layout follows from q:
    the even block l = (q-1)/2 of size q, then the odd block l = q/2, so
    dims = (q | q+1) and the blocks start at 0 and q.
    """

    def __init__(self, q: int, rho: float = 1.0):
        self.q = _level(q)
        self.rho = _radius(rho)
        self.dims = GradedDims(even=self.q, odd=self.q + 1)

    @functools.cached_property
    def rep(self) -> Irrep:
        return build_irrep(self.q, ODD)

    @property
    def n(self) -> int:
        return self.dims.total

    def generator(self, a: Union[int, str]) -> GradedMatrix:
        return self.rep.matrix(a)

    def coordinates(self) -> Tuple[GradedMatrix, ...]:
        """(X1, X2, X3, Theta4, Theta5) satisfying the radius relation."""
        scale = 2.0 * self.rho / math.sqrt(self.q * (self.q + 1))
        return tuple(scale * self.generator(a) for a in (1, 2, 3, 4, 5))

    def casimir_residual(self) -> float:
        x1, x2, x3, t4, t5 = (c.mat for c in self.coordinates())
        rel = x1 @ x1 + x2 @ x2 + x3 @ x3 + t4 @ t5 - t5 @ t4
        return float(np.linalg.norm(rel - self.rho**2 * np.eye(self.n)))

    def adjoint_action(self, a: Union[int, str], f: GradedMatrix) -> GradedMatrix:
        return graded_commutator(self.generator(a), f)

    # -- harmonics

    def highest_weight(self, two_j: int) -> GradedMatrix:
        """The (j, l=j, m=j) harmonic, a polynomial in the generators.

        For integer j it is N_j J_+^j; for j = k + 1/2 it is N_j J_+^k times
        the odd core (J_3 - 3/4) J_4 + J_+ J_5.  The norm N_j makes
        <Y|Y> = 1.  Either is nonzero only on the entries of weight j: one
        diagonal in each block of the even top, one in each off-diagonal
        block of the odd top.  Each squared entry there is a ratio of
        binomials, so the top is written from those diagonals, every entry
        from exact integers, and no power of J_+ is formed.
        """
        rows, cols, vals = self._top(two_j)
        out = np.zeros((self.n, self.n), dtype=complex)
        out[rows, cols] = vals
        return GradedMatrix._adopt(self.dims, out)

    def _top(self, two_j: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries (rows, columns, values) of the (j, l=j, m=j) harmonic; no row twice."""
        if two_j < 0 or two_j > 2 * self.q:
            raise ValueError(f"superspin 2j={two_j} out of range at level {self.q}")
        q = self.q
        # first rows of the even l = (q-1)/2 block and the odd l = q/2 block
        lo, hi = 0, q
        if two_j % 2 == 0:
            j = two_j // 2
            den = math.comb(q + j, 2 * j)
            parts = []
            for two_l, start in ((q - 1, lo), (q, hi)):
                idx = start + np.arange(two_l + 1 - j)
                parts.append((idx, idx + j, _binomial_diagonal(j, j, two_l, two_l + 1 - j, 1, den)))
        else:
            k = (two_j - 1) // 2
            num, den = k + 1, (q - k) * math.comb(q + k + 1, 2 * k + 1)
            idx = np.arange(q - k)
            parts = [
                (lo + idx, hi + k + 1 + idx, _binomial_diagonal(k + 1, k, q - 1, q - k, num, den)),
                (hi + idx, lo + k + idx, -_binomial_diagonal(k, k + 1, q, q - k, num, den)),
            ]
        return tuple(np.concatenate(part) for part in zip(*parts))

    @functools.cached_property
    def _table(self) -> _WeightTable:
        """The weight table, its chain tops read from two matrices.

        Every highest weight is written into one matrix: the top of chain
        (j, mu = 0) on the entries of weight 2j, so no two overlap.  Its one
        graded commutator with J_5 holds every (j, mu = 1) top, up to the
        factor 2/sqrt(2j), on the entries of weight 2j - 1.  J_5 has one
        nonzero per row and per column, so each entry of that commutator is
        a single product, bitwise the entry of [J_5, Y_(j, hw)] alone.
        """
        tops = np.zeros((self.n, self.n), dtype=complex)
        for two_j in range(2 * self.q + 1):
            rows, cols, vals = self._top(two_j)
            tops[rows, cols] = vals
        mu1_tops = self.adjoint_action(5, GradedMatrix._adopt(self.dims, tops)).mat
        chains = []
        for labels in _chains(self._labels, lambda la: (la.two_j, la.mu)):
            top = labels[0]
            source, scale = (mu1_tops, 2.0 / math.sqrt(top.two_j)) if top.mu else (tops, 1.0)
            chains.append((labels, top.sign, source, scale))
        return _WeightTable(self.rep.j3, self.rep.jm, self.dims.pairing, chains)

    def harmonic(self, label: HarmonicLabel) -> GradedMatrix:
        return GradedMatrix._adopt(self.dims, self._table.column(label))

    @functools.cached_property
    def _labels(self) -> Tuple[HarmonicLabel, ...]:
        return tuple(all_labels(self.q))

    def labels(self) -> List[HarmonicLabel]:
        return list(self._labels)

    # -- the coefficient isomorphism

    def decompose(self, f: GradedMatrix) -> FuzzyElement:
        """Signed projection <Y_L|f> onto the pseudo-orthonormal basis.

        One harmonic and one indefinite_inner per label, each O(n^2), so
        O(n^4) in all, and nothing else per label: the harmonic is one real
        row of the weight table scattered onto a zero matrix, the label's
        hash is cached, and f is multiplied by the pairing signs once
        (f.paired), on the first inner product, then read from its cache.
        The benchmark's span test pins that call count (49 inner products
        at q = 3), so the loop stays until that pin is lifted (ROADMAP item
        1); then this becomes the weight table's ``project``, one product
        per weight, as FuzzySphere.decompose and body_map_fuzzy already are.
        """
        coeffs: Dict[HarmonicLabel, complex] = {}
        for label in self._labels:
            c = label.sign * indefinite_inner(self.harmonic(label), f)
            if c != 0:
                coeffs[label] = c
        return FuzzyElement(self.q, coeffs)

    def reconstruct(self, e: FuzzyElement) -> GradedMatrix:
        if e.q != self.q:
            raise ValueError("level mismatch")
        return GradedMatrix._adopt(self.dims, self._table.combine(e.coeffs))

    @functools.cached_property
    def _body_images(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """body_label_image of the labels of each even weight, in column order.

        A label has the parity of its 2m, so the even weights carry exactly
        the even labels.  Per weight: the body table column of each image
        and its weight.  A body table keeps the labels of a weight by
        descending l from l = q, so the image (l, m) is its column q - l.
        """
        out = {}
        for two_m, labels in self._table.labels.items():
            if two_m % 2 == 0:
                images = [body_label_image(label) for label in labels]
                rows = np.array([self.q - target.two_j // 2 for target, _ in images])
                out[two_m] = rows, np.array([w for _, w in images])
        return out


# ---------------------------------------------------------------------------
# structure on coefficients


def label_action(a: Union[int, str], e: FuzzyElement) -> FuzzyElement:
    """The basis derivations (1..5, '+', '-') acting on coefficient vectors.

    The superspin-j harmonics are a standard basis of the osp(1|2) module
    V(j): the label (2j, mu, 2m) is the basis vector (2l, 2m) of
    build_irrep(2j) with 2l = 2j - mu.  So the coefficients of each superspin
    present are multiplied by that irrep's matrix, which mirrors the
    matrix-side adjoint action without materializing the level-q matrices.
    """
    label_parity(a)  # rejects an unknown label, even on an empty element
    by_j: Dict[int, Dict[Tuple[int, int], complex]] = {}
    for L, c in e.coeffs.items():
        by_j.setdefault(L.two_j, {})[(L.two_l, L.two_m)] = c
    out: Dict[HarmonicLabel, complex] = {}
    for two_j, coeffs in by_j.items():
        rep = build_irrep(two_j, two_j % 2)
        v = np.zeros(rep.dims.total, dtype=complex)
        for key, c in coeffs.items():
            v[rep.index[key]] = c
        w = rep.matrix(a).mat @ v
        for (two_l, two_m), k in rep.index.items():
            if w[k] != 0:
                out[HarmonicLabel(two_j, two_j - two_l, two_m)] = complex(w[k])
    return FuzzyElement(e.q, out)


def eta(e: FuzzyElement, q_to: int) -> FuzzyElement:
    """Change of level on coefficients.

    Labels shared by both levels carry over unchanged; raising the level
    embeds, lowering truncates.  Compositions collapse as expected.
    """
    q_to = _level(q_to)
    coeffs = {k: v for k, v in e.coeffs.items() if k.two_j <= 2 * q_to}
    return FuzzyElement(q_to, coeffs)


def fuzzy_product(
    e1: FuzzyElement, e2: FuzzyElement, sphere: FuzzySuperSphere
) -> FuzzyElement:
    """Coefficients of the matrix product of two coefficient vectors."""
    if e1.q != sphere.q or e2.q != sphere.q:
        raise ValueError("level mismatch")
    return sphere.decompose(sphere.reconstruct(e1) @ sphere.reconstruct(e2))


@dataclasses.dataclass(frozen=True)
class StructureConstant:
    """Highest-weight product coefficient and its proportionality residual."""

    c: float
    residual: float


def structure_constant_fuzzy(q: int, two_j1: int, two_j2: int) -> StructureConstant:
    """c with Y_(j1,hw) Y_(j2,hw) = c Y_(j1+j2,hw) at level q.

    The product of two highest-weight harmonics is exactly proportional
    to the highest-weight harmonic of the summed superspin; the residual
    reports how well the computed entries honor that, as the Frobenius
    norm of Y_(j1,hw) Y_(j2,hw) - c Y_(j1+j2,hw).

    No matrix is formed: each top has at most one entry per row, so it is
    a map from rows to columns with a value per row, and the product is one
    gather, row r to column col2[col1[r]] with value val1[r] val2[col1[r]].
    c is the least-squares coefficient of the summed top in the Frobenius
    pairing, <Y12, Y1 Y2> / <Y12, Y12>.  In exact arithmetic it equals the
    indefinite pairing with the summed top, but that pairing's even and odd
    blocks cancel and leave c a rounding error of about eps q relative.
    The residual is read from the same vectors.  The cost is O(q) time and
    memory.
    """
    if two_j1 + two_j2 > 2 * q:
        raise ValueError(
            f"superspin {(two_j1 + two_j2) / 2} exceeds the level-{q} cutoff"
        )
    sphere = FuzzySuperSphere(q)
    n = sphere.n

    def row_map(two_j: int) -> Tuple[np.ndarray, np.ndarray]:
        """The column (n where the row is empty) and the value of each row, and of row n."""
        rows, cols, vals = sphere._top(two_j)
        col, val = np.full(n + 1, n), np.zeros(n + 1)
        col[rows], val[rows] = cols, vals
        return col, val

    col1, val1 = row_map(two_j1)
    col2, val2 = (col1, val1) if two_j2 == two_j1 else row_map(two_j2)
    col12, val12 = row_map(two_j1 + two_j2)
    # the product, row by row; row n is empty and maps to itself
    col, val = col2[col1], val1 * val2[col1]
    shared = col == col12
    c = float(np.dot(val12[shared], val[shared]) / np.dot(val12, val12))
    diff = np.where(shared, val - c * val12, 0.0)
    apart = np.where(shared, 0.0, val**2 + (c * val12) ** 2)
    residual = math.sqrt(float(np.dot(diff, diff) + apart.sum()))
    return StructureConstant(c=c, residual=residual)


# ---------------------------------------------------------------------------
# the bosonic companion sphere


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class SphereLabel:
    """(j, m) in doubled integers, for the bosonic harmonic basis; its hash computed once."""

    two_j: int
    two_m: int
    _hash: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.two_j < 0 or abs(self.two_m) > self.two_j or (self.two_j - self.two_m) % 2:
            raise ValueError("bad spherical label")
        object.__setattr__(self, "_hash", hash((self.two_j, self.two_m)))

    def __hash__(self) -> int:
        return self._hash


class FuzzySphere:
    """End of the spin-q/2 sl2 irrep with orthonormal matrix harmonics.

    The irrep's generators are frozen GradedMatrix objects with dims (n|0),
    which the weight table and calculus.body_context read as they are; the
    methods here take and return plain arrays (a generator's .mat).  As on
    the supersphere, the irrep is built on the first call that needs it, and
    dims = (q+1 | 0) follows from q.
    """

    def __init__(self, q: int, rho: float = 1.0):
        self.q = _level(q)
        self.rho = _radius(rho)
        self.dims = GradedDims(even=self.q + 1, odd=0)

    @functools.cached_property
    def rep(self) -> Sl2Irrep:
        return build_sl2_irrep(self.q)

    @property
    def n(self) -> int:
        return self.dims.total

    def coordinates(self) -> Tuple[np.ndarray, ...]:
        scale = 2.0 * self.rho / math.sqrt(self.q * (self.q + 2))
        return tuple(scale * self.rep.matrix(a).mat for a in (1, 2, 3))

    def casimir_residual(self) -> float:
        x1, x2, x3 = self.coordinates()
        rel = x1 @ x1 + x2 @ x2 + x3 @ x3
        return float(np.linalg.norm(rel - self.rho**2 * np.eye(self.n)))

    def adjoint_action(self, a: Union[int, str], f: np.ndarray) -> np.ndarray:
        g = self.rep.matrix(a).mat
        return g @ f - f @ g

    def highest_weight(self, j: int) -> np.ndarray:
        """The (j, m=j) harmonic N_j J_+^j, written from its one diagonal.

        Its squared entries are (q+1) C(r+j, j) C(q-r, j) / C(q+j+1, 2j+1),
        each from exact integers, so no power of J_+ is formed.
        """
        if j < 0 or j > self.q:
            raise ValueError(f"spin {j} out of range at level {self.q}")
        out = np.zeros((self.n, self.n), dtype=complex)
        self._write_highest_weight(out, j)
        return out

    def _write_highest_weight(self, out: np.ndarray, j: int) -> None:
        """Write the (j, m=j) harmonic onto its entries of out, all of weight j."""
        q = self.q
        idx = np.arange(q + 1 - j)
        out[idx, idx + j] = _binomial_diagonal(j, j, q, q + 1 - j, q + 1, math.comb(q + j + 1, 2 * j + 1))

    @functools.cached_property
    def _table(self) -> _WeightTable:
        """The weight table, every chain top read from one matrix of all highest weights."""
        pair = np.full((self.n, self.n), 1.0 / self.n)  # hs_inner, entrywise
        tops = np.zeros((self.n, self.n), dtype=complex)
        for j in range(self.q + 1):
            self._write_highest_weight(tops, j)
        chains = [(labels, 1, tops, 1.0) for labels in _chains(self._labels, lambda la: la.two_j)]
        return _WeightTable(self.rep.j3, self.rep.jm, pair, chains)

    def harmonic(self, label: SphereLabel) -> np.ndarray:
        return self._table.column(label)

    @functools.cached_property
    def _labels(self) -> Tuple[SphereLabel, ...]:
        return tuple(
            SphereLabel(2 * j, 2 * m)
            for j in range(self.q + 1)
            for m in range(j, -j - 1, -1)
        )

    def labels(self) -> List[SphereLabel]:
        return list(self._labels)

    def decompose(self, f: np.ndarray) -> Dict[SphereLabel, complex]:
        """Orthonormal projection hs_inner(Y_L, f), one product per weight."""
        f = np.asarray(f)
        if f.shape != (self.n, self.n):
            raise ValueError(f"need a {self.n} x {self.n} matrix, got shape {f.shape}")
        return {label: c for label, c in self._table.project(f).items() if c != 0}

    def reconstruct(self, coeffs: Dict[SphereLabel, complex]) -> np.ndarray:
        return self._table.combine(coeffs)


# ---------------------------------------------------------------------------
# the body map


def body_label_image(label: HarmonicLabel) -> Optional[Tuple[SphereLabel, float]]:
    """Image of one super label: None for odd labels, else a scaled label.

    Even labels (2j + mu even) map to (l, m) with weight (-1)^mu/sqrt(2l+1);
    odd labels span the kernel.
    """
    if label.parity == 1:
        return None
    two_l = label.two_l
    weight = (-1.0 if label.mu else 1.0) / math.sqrt(two_l + 1)
    return SphereLabel(two_l, label.two_m), weight


def body_map_coeffs(e: FuzzyElement) -> Dict[SphereLabel, complex]:
    out: Dict[SphereLabel, complex] = {}
    for label, c in e.coeffs.items():
        image = body_label_image(label)
        if image is None:
            continue
        target, w = image
        out[target] = out.get(target, 0j) + w * c
    return out


def body_map_fuzzy(
    f: GradedMatrix, sphere: FuzzySuperSphere, body: FuzzySphere
) -> np.ndarray:
    """The noncommutative body projection End(V(q/2)) -> End(V_q/2, sl2).

    Project f onto the super harmonics of each even weight, one product per
    weight (the odd weights carry only odd labels), rescale the even labels
    by body_label_image and assemble their images on the body table.  This
    is body_map_coeffs of sphere.decompose(f), without a loop over labels.
    Linear, rotation-equivariant and a cochain map, onto End(V_q/2) with
    kernel of dimension (2q+1)^2 - (q+1)^2; not an algebra homomorphism.
    """
    if sphere.q != body.q:
        raise ValueError("levels of the super and body spheres must agree")
    if f.dims != sphere.dims:
        raise ValueError(f"dimension mismatch: {f.dims} vs {sphere.dims}")
    vecs: Dict[int, np.ndarray] = {}
    for two_m, (rows, weights) in sphere._body_images.items():
        vecs[two_m] = np.zeros(len(body._table.labels[two_m]), dtype=complex)
        np.add.at(vecs[two_m], rows, weights * sphere._table.project_weight(f.mat, two_m))
    return body._table.assemble(vecs)


def body_map_blocks(sphere: FuzzySuperSphere, body: FuzzySphere) -> Dict[int, np.ndarray]:
    """The body map one weight at a time, the blocks of its matrix.

    The map keeps the weight, so its matrix from super coefficients to body
    coefficients is block diagonal over it.  The block of weight m takes the
    super labels of weight m to the body labels of weight m, both in their
    table's column order.  An odd weight has no body labels, so its block
    has no rows.  The blocks hold O(q^3) entries in all, against O(q^4) for
    the dense matrix.
    """
    if sphere.q != body.q:
        raise ValueError("levels of the super and body spheres must agree")
    out = {}
    for two_m, labels in sphere._table.labels.items():
        out[two_m] = np.zeros((len(body._table.labels.get(two_m, ())), len(labels)))
        if two_m in sphere._body_images:
            rows, weights = sphere._body_images[two_m]
            out[two_m][rows, np.arange(len(rows))] = weights
    return out
