"""The orthosymplectic algebra osp(1|2), its matrix irreps, and sl(2) spins.

Basis labels run 1..5: labels 1-3 are the even sl(2) part, labels 4,5 the
odd spinor pair.  Brackets:

    [J_i, J_j] = i eps_ijk J_k
    [J_i, J_a] = 1/2 (sigma_i)_{ba} J_b
    [J_a, J_b] = 1/2 (i sigma_2 sigma_i)_{ab} J_i

with a, b in {4, 5} mapped to spinor rows 1, 2.  Irreps are highest-weight
modules V(j, hw_parity) of dimension 4j+1, realized in ladder form.  One
helper, weight_elements, gives the matrix elements of J_+, J_-, J_3, J_4
and J_5 on the weight vectors in closed form, O(1) per weight, and the
parity of each: each weight occurs once in V(j), so a weight names its
vector.  Both irreps fill their matrices from it, and
calculus.cohomology_dims and calculus.invariant_one_forms read it without
forming a matrix.  J_1 and J_2 are
formed from J_+- = J_1 +- i J_2 once, when the irrep is built, by one
helper for both.  Every generator of either irrep is a frozen GradedMatrix
(the sl(2) irrep's with dims (n|0)), built once: matrix(a) returns the same
object on every call, so every cache on it is built once too.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple, Union

import numpy as np

from .graded import EVEN, ODD, GradedDims, GradedMatrix, Parity, graded_commutator, superadjoint

#: basis labels accepted by matrix(): 1..5 or the ladder aliases
Label = Union[int, str]

LABELS = (1, 2, 3, 4, 5)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_i, _k, _j] = -1.0


def label_parity(a: Label) -> Parity:
    if a in ("+", "-"):
        return EVEN
    if a in (1, 2, 3):
        return EVEN
    if a in (4, 5):
        return ODD
    raise ValueError(f"unknown basis label {a!r}")


def structure_constants() -> np.ndarray:
    """c[C, A, B] with [J_A, J_B] = sum_C c[C, A, B] J_C, 0-indexed."""
    c = np.zeros((5, 5, 5), dtype=complex)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[k, i, j] = 1j * EPSILON[i, j, k]
    for i in range(3):
        for al in range(2):
            for be in range(2):
                v = 0.5 * PAULI[i][be, al]
                c[3 + be, i, 3 + al] = v
                c[3 + be, 3 + al, i] = -v
    for i in range(3):
        m = 1j * PAULI[1] @ PAULI[i]
        for al in range(2):
            for be in range(2):
                c[i, 3 + al, 3 + be] = 0.5 * m[al, be]
    return c


@dataclasses.dataclass(frozen=True)
class OspBasis:
    """Structure data of osp(1|2): parities and bracket constants."""

    parities: Tuple[Parity, ...]
    constants: np.ndarray  # c[C, A, B], complex

    def bracket_coeffs(self, a: int, b: int) -> np.ndarray:
        """Coefficient vector of [J_a, J_b] over the basis, labels 1..5."""
        return self.constants[:, a - 1, b - 1]


def build_osp_basis() -> OspBasis:
    return OspBasis(parities=(EVEN, EVEN, EVEN, ODD, ODD), constants=structure_constants())


def jacobi_residual(basis: OspBasis) -> float:
    """Max violation of the graded Jacobi identity over all basis triples."""
    c = basis.constants
    par = basis.parities
    k = len(par)
    worst = 0.0
    for a in range(k):
        for b in range(k):
            for d in range(k):
                term = np.zeros(k, dtype=complex)
                for e in range(k):
                    term += (-1) ** (par[a] * par[d]) * c[:, a, e] * c[e, b, d]
                    term += (-1) ** (par[b] * par[a]) * c[:, b, e] * c[e, d, a]
                    term += (-1) ** (par[d] * par[b]) * c[:, d, e] * c[e, a, b]
                worst = max(worst, float(np.abs(term).max()))
    return worst


#: the doubled J_3 weight that each generator of weight vectors adds: J_+, J_-, J_3, J_4, J_5
LADDER_STEPS = {"+": 2, "-": -2, 3: 0, 4: 1, 5: -1}


def weight_elements(two_j, a: Label, two_w, sl2: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """J_a on the weight vectors of an irrep, in closed form: (elements, parities).

    The irrep is build_irrep(two_j, two_j % 2), the superspin-j summand of
    End V(q/2) (fuzzy.label_action), or with sl2 build_sl2_irrep(two_j).
    Its weight vector v(w), of doubled J_3 weight w, is the basis vector
    (2l, w) with 2l = 2j where 2j - w is even and 2l = 2j - 1 where it is
    odd: each weight from -2j to 2j occurs once, and on sl(2) only the first
    kind exists.  Then J_a v(w) = elements * v(w + LADDER_STEPS[a]), with the
    ladder coefficients of spin l for J_+-, and elements is 0 where v(w) or
    its image does not exist.  The elements do not depend on the parity of
    the highest weight.  parities is the parity of v(w): that of 2j on the
    2l = 2j block and the other on the 2l = 2j - 1 block, so w % 2, and 0 on
    sl(2).  two_j and two_w are integers or integer arrays, broadcast together; each
    weight costs O(1) and no matrix is formed.  a is one of LADDER_STEPS;
    J_4 and J_5 are rejected on sl(2) (ValueError).
    """
    if a not in LADDER_STEPS or (sl2 and label_parity(a) == ODD):
        raise ValueError(f"label {a!r} does not map weight vectors to weight vectors here")
    two_j, w = np.asarray(two_j), np.asarray(two_w)
    lower = (two_j - w) % 2  # 1 on the 2l = 2j - 1 block
    two_l = two_j - lower
    live = np.abs(w) <= two_l
    if sl2:
        live &= lower == 0
        parities = np.zeros(live.shape, dtype=int)
    else:
        parities = (two_j + lower) % 2
    # squared coefficients as exact integer ratios: (l - m)(l + m + 1) is
    # (2l - w)(2l + w + 2)/4, and j - m, j + m + 1/2 and so on are halves
    if a == 3:
        values = w / 2
    elif a == "+":
        values = np.sqrt(np.maximum((two_l - w) * (two_l + w + 2), 0) / 4)
    elif a == "-":
        values = np.sqrt(np.maximum((two_l + w) * (two_l - w + 2), 0) / 4)
    elif a == 4:  # down to 2l = 2j - 1 from the top block, and back up
        values = -0.5 * np.sqrt(np.maximum(np.where(lower, two_j + w + 1, two_j - w), 0) / 2)
    else:
        root = 0.5 * np.sqrt(np.maximum(np.where(lower, two_j - w + 1, two_j + w), 0) / 2)
        values = np.where(lower, -root, root)
    return np.where(live, values, 0.0), parities


def _ladder_matrices(two_j: int, weights: np.ndarray, labels, sl2: bool = False) -> list:
    """The matrices of the labels on the basis (v(w) for w in weights), filled from weight_elements."""
    n = len(weights)
    position = np.zeros(2 * two_j + 1, dtype=np.intp)  # of v(w), at w + two_j
    position[weights + two_j] = np.arange(n)
    out = []
    for a in labels:
        values, _ = weight_elements(two_j, a, weights, sl2=sl2)
        live = np.flatnonzero(values)  # a nonzero element has an image
        m = np.zeros((n, n), dtype=complex)
        m[position[weights[live] + LADDER_STEPS[a] + two_j], live] = values[live]
        out.append(m)
    return out


def _cartesian(jp: GradedMatrix, jm: GradedMatrix) -> Tuple[GradedMatrix, GradedMatrix]:
    """J_1 = (J_+ + J_-)/2 and J_2 = -i/2 (J_+ - J_-)."""
    return 0.5 * (jp + jm), -0.5j * (jp - jm)


#: the attribute that holds each label's generator
_GENERATORS = {1: "j1", 2: "j2", 3: "j3", 4: "j4", 5: "j5", "+": "jp", "-": "jm"}


class _Generators:
    """The one lookup of a generator by label, shared by both irreps."""

    def matrix(self, a: Label) -> GradedMatrix:
        """The generator of label a: the same frozen object on every call."""
        try:
            return getattr(self, _GENERATORS[a])
        except (KeyError, TypeError, AttributeError):
            raise ValueError(f"unknown basis label {a!r} of {type(self).__name__}") from None


@dataclasses.dataclass(frozen=True, eq=False)
class Irrep(_Generators):
    """Irreducible graded osp(1|2)-module V(j, hw_parity), dim 4j+1.

    Basis vectors e_{l,m} with l in {j, j-1/2} and m descending inside each
    block; the even-parity block is laid out first.
    """

    two_j: int
    hw_parity: Parity
    dims: GradedDims
    j1: GradedMatrix
    j2: GradedMatrix
    j3: GradedMatrix
    jp: GradedMatrix
    jm: GradedMatrix
    j4: GradedMatrix
    j5: GradedMatrix
    index: Dict[Tuple[int, int], int]


def _block_layout(two_j: int, hw_parity: Parity):
    """Ordered list of (two_l, mu, parity) blocks, even block first."""
    blocks = [(two_j, 0, hw_parity % 2)]
    if two_j >= 1:
        blocks.append((two_j - 1, 1, (hw_parity + 1) % 2))
    blocks.sort(key=lambda b: b[2])
    return blocks


def build_irrep(two_j: int, hw_parity: Parity = ODD) -> Irrep:
    """Matrices of the superspin-j irrep acting per the ladder relations.

    two_j is the doubled superspin.  The highest weight vector e_{j,j} is
    annihilated by J_+ and J_4 and carries J_3-eigenvalue j.
    """
    if two_j < 0:
        raise ValueError("superspin must be non-negative")
    n = 2 * two_j + 1
    even_dim = sum(tl + 1 for tl, _, p in _block_layout(two_j, hw_parity) if p == EVEN)
    dims = GradedDims(even=even_dim, odd=n - even_dim)

    index: Dict[Tuple[int, int], int] = {}
    for two_l, _, _ in _block_layout(two_j, hw_parity):
        for two_m in range(two_l, -two_l - 2, -2):
            index[(two_l, two_m)] = len(index)
    # each weight occurs once, so v(w) is known by w alone (weight_elements)
    weights = np.array([two_m for _, two_m in index])
    j3, jp, jm, j4, j5 = _ladder_matrices(two_j, weights, (3, "+", "-", 4, 5))
    j3, jp, jm, j4, j5 = (GradedMatrix._adopt(dims, m) for m in (j3, jp, jm, j4, j5))
    j1, j2 = _cartesian(jp, jm)
    return Irrep(two_j, hw_parity % 2, dims, j1, j2, j3, jp, jm, j4, j5, index)


@dataclasses.dataclass(frozen=True, eq=False)
class Sl2Irrep(_Generators):
    """Standard spin-s module, basis e_m with m descending from +s; its generators even."""

    two_s: int
    j1: GradedMatrix
    j2: GradedMatrix
    j3: GradedMatrix
    jp: GradedMatrix
    jm: GradedMatrix

    @property
    def dim(self) -> int:
        return self.two_s + 1


def build_sl2_irrep(two_s: int) -> Sl2Irrep:
    if two_s < 0:
        raise ValueError("spin must be non-negative")
    dims = GradedDims(even=two_s + 1, odd=0)
    mats = _ladder_matrices(two_s, np.arange(two_s, -two_s - 1, -2), (3, "+", "-"), sl2=True)
    j3, jp, jm = (GradedMatrix._adopt(dims, m) for m in mats)
    return Sl2Irrep(two_s, *_cartesian(jp, jm), j3, jp, jm)


def osp_casimir(rep: Irrep) -> GradedMatrix:
    """sum_k J_k^2 + J_4 J_5 - J_5 J_4; scalar q(q+1)/4 on V(q/2, odd)."""
    out = GradedMatrix.zero(rep.dims)
    for k in (1, 2, 3):
        jk = rep.matrix(k)
        out = out + jk @ jk
    out = out + rep.j4 @ rep.j5 - rep.j5 @ rep.j4
    return out


def grade_star_label(a: int, lam: int) -> Tuple[int, float]:
    """Image of J_a under the grade adjoint, as (label, sign).

    J_i -> J_i, J_4 -> (-1)^lam J_5, J_5 -> (-1)^(lam+1) J_4.
    """
    if a in (1, 2, 3):
        return a, 1.0
    if a == 4:
        return 5, (-1.0) ** lam
    if a == 5:
        return 4, (-1.0) ** (lam + 1)
    raise ValueError(f"unknown basis label {a!r}")


def verify_grade_star(rep: Irrep, lam: int) -> float:
    """Max residual of superadjoint(J_A) against the grade adjoint images."""
    worst = 0.0
    for a in LABELS:
        target_label, sign = grade_star_label(a, lam)
        residual = superadjoint(rep.matrix(a)) - sign * rep.matrix(target_label)
        worst = max(worst, residual.norm())
    return worst


def bracket_residual(rep: Irrep, basis: OspBasis) -> float:
    """Max deviation of graded commutators from the structure constants."""
    worst = 0.0
    mats = {a: rep.matrix(a) for a in LABELS}
    for a in LABELS:
        for b in LABELS:
            lhs = graded_commutator(mats[a], mats[b])
            rhs = GradedMatrix.zero(rep.dims)
            for c_label in LABELS:
                coeff = basis.constants[c_label - 1, a - 1, b - 1]
                if coeff != 0:
                    rhs = rhs + coeff * mats[c_label]
            worst = max(worst, (lhs - rhs).norm())
    return worst
