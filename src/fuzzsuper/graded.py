"""Z2-graded linear algebra over dense complex matrices.

A graded vector space is laid out with all even basis vectors first, then
all odd ones, so a matrix splits into four blocks addressed through the
dimension split alone.  Everything here is immutable and pure, in dense
double precision.  At level q the supersphere's graded matrices are
(2q+1)x(2q+1): 257x257 at q = 128, which verify --suite body reaches.  The
matrices that reach rank_decision have thousands of rows; a caller whose
matrix is block diagonal knows the blocks from its layout and passes them
as a list or a generator, and each matrix or block takes one SVD as given.

Every parity-dependent kernel goes through one grade twist,
tau(b) = b_even - b_odd = b * dims.twist, an elementwise product with a
cached read-only array of +-1 (exact in floating point).  From it
b_even = (b + tau(b)) / 2 and b_odd = (b - tau(b)) / 2, so no kernel builds
a parity mask.  The inner products cost O(n^2) and form no matrix product:
hs_inner is one BLAS dot product (np.vdot), indefinite_inner two over row
blocks.  The twisted even rows that indefinite_inner reads from its second
argument are formed once per matrix and cached on it, read-only, so a loop
that pairs many matrices with one right operand forms no temporary.  A
graded commutator with a homogeneous left factor costs two matrix
products.  rank_decision keeps real input real, so the real d matrices of
the cohomology take LAPACK's real SVD.

Who copies and who freezes: the public GradedMatrix constructor copies the
array it is given, because the caller may still hold and write it.  The
results of the arithmetic operators, part, superadjoint and
graded_commutator, the generators of the osp(1|2) and sl(2) irreps, and
the fuzzy highest weights, harmonics and reconstructions, are fresh arrays;
GradedMatrix._adopt freezes them in place without a copy.  Either way
the entries of a GradedMatrix are read-only and shared with no other
object.  So are its cached twisted_even_rows, adjoint_stencil and
weight_buckets, which stay valid because the entries cannot change.
restricted_adjoint scatters [e, .] between two sets of entries from that
stencil of e, its nonzeros by row and by column, and is the one place that
knows how the commutator acts entry by entry.  weight_buckets of a diagonal J_3 is the one place that
sorts the entries by weight.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

EVEN = 0
ODD = 1

#: parity values are plain ints mod 2
Parity = int


@dataclasses.dataclass(frozen=True)
class GradedDims:
    """Even/odd dimension split of a graded space."""

    even: int
    odd: int

    def __post_init__(self) -> None:
        if self.even < 0 or self.odd < 0:
            raise ValueError("dimensions must be non-negative")
        if self.even + self.odd < 1:
            raise ValueError("graded space must have positive total dimension")

    @property
    def total(self) -> int:
        return self.even + self.odd

    @functools.cached_property
    def twist(self) -> np.ndarray:
        """The grade twist: +1 on even matrix entries, -1 on odd ones.

        Entry (r, c) has parity (row parity + column parity) mod 2, so the
        array is the outer product of the row signs.  Built once per dims
        and read-only, because every matrix of these dims shares it.
        """
        sign = np.ones(self.total)
        sign[self.even:] = -1.0
        out = np.outer(sign, sign)
        out.setflags(write=False)
        return out


@dataclasses.dataclass(frozen=True, eq=False)
class GradedMatrix:
    """Complex square matrix with a Z2 block structure.

    The public constructor copies the entries array and freezes the copy.
    _adopt freezes a fresh array without copying it; it is for arrays the
    package has just computed and no one else holds, never for a view of
    another matrix.
    """

    dims: GradedDims
    mat: np.ndarray

    def __post_init__(self) -> None:
        n = self.dims.total
        m = np.array(self.mat, dtype=complex, copy=True)
        if m.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    # -- constructors -------------------------------------------------

    @classmethod
    def _adopt(cls, dims: GradedDims, mat: np.ndarray) -> "GradedMatrix":
        """Wrap a fresh complex (n, n) array that nothing else references.

        The array is frozen in place, not copied.
        """
        n = dims.total
        if mat.shape != (n, n) or mat.dtype != complex:
            raise ValueError(f"expected a complex array of shape {(n, n)}, got {mat.dtype} {mat.shape}")
        mat.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "mat", mat)
        return out

    @classmethod
    def zero(cls, dims: GradedDims) -> "GradedMatrix":
        return cls._adopt(dims, np.zeros((dims.total, dims.total), dtype=complex))

    @classmethod
    def identity(cls, dims: GradedDims) -> "GradedMatrix":
        return cls._adopt(dims, np.eye(dims.total, dtype=complex))

    # -- structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.dims.total

    @functools.cached_property
    def twisted_even_rows(self) -> np.ndarray:
        """The even rows of the entries, grade-twisted: the right operand of indefinite_inner.

        Formed on first use and cached, read-only; the entries are frozen, so
        the cache stays valid.  It holds about n^2/2 entries.
        """
        ne = self.dims.even
        out = self.mat[:ne] * self.dims.twist[:ne]
        out.setflags(write=False)
        return out

    @functools.cached_property
    def adjoint_stencil(self) -> Tuple[np.ndarray, ...]:
        """The nonzeros by row and by column, as restricted_adjoint reads them; cached, read-only.

        (rows_at, cols_at, rows_val, cols_val, half).  Slot s of target entry
        (r, c) reads the flat source index rows_at[r, s] + cols_at[c, s] with
        the coefficient rows_val[r, s] + cols_val[c + half[r], s], half[r]
        being n for an odd r and 0 for an even one.  The slots are, in order:

        - the off-diagonal nonzeros e[r, k] of row r: source k*n + c,
          coefficient e[r, k];
        - the off-diagonal nonzeros e[k, c] of column c: source r*n + k,
          coefficient -e[k, c], times tau(r, k) where e[k, c] is odd;
        - the diagonal: source r*n + c, coefficient e[r, r] - e[c, c].

        A row or column with fewer nonzeros points its spare slots at n^2 or
        beyond, past every entry.  The side of a coefficient that a slot does
        not use is -0, and x + (-0) is x bit for bit.
        """
        n, ne, m = self.n, self.dims.even, self.mat
        off = m != 0
        np.fill_diagonal(off, False)
        i, j = np.nonzero(off)  # row-major
        jc, ic = np.nonzero(off.T)  # column-major: e[ic, jc]
        # each nonzero's place among those of its row, and among those of its column
        sl = np.arange(i.size) - np.searchsorted(i, i)
        sc = np.arange(jc.size) - np.searchsorted(jc, jc)
        wl = int(sl.max(initial=-1)) + 1
        width = wl + int(sc.max(initial=-1)) + 2
        sc += wl
        index = np.arange(n)[:, None]
        rows_at = np.repeat(index * n, width, axis=1)
        rows_at[:, :wl] = n * n
        rows_at[i, sl] = j * n
        cols_at = np.repeat(index, width, axis=1)
        cols_at[:, wl:-1] = n * n
        cols_at[jc, sc] = ic
        rows_val = np.full((n, width), complex(-0.0, -0.0))
        rows_val[i, sl] = m[i, j]
        rows_val[:, -1] = m.diagonal()
        cols_val = np.full((2, n, width), complex(-0.0, -0.0))  # for an even and an odd target row
        tau = np.where(ic < ne, 1.0, -1.0)  # tau(r, ic) for an even r
        cols_val[:, jc, sc] = -(m[ic, jc] * np.where(self.dims.twist[ic, jc] < 0, (tau, -tau), 1.0))
        cols_val[:, :, -1] = -m.diagonal()
        cols_val = cols_val.reshape(2 * n, width)
        out = (rows_at, cols_at, rows_val, cols_val, np.where(index[:, 0] < ne, 0, n))
        for a in out:
            a.setflags(write=False)
        return out

    @functools.cached_property
    def weight_buckets(self) -> Mapping[int, Tuple[np.ndarray, np.ndarray]]:
        """The entries of each doubled weight, for a diagonal J_3; cached, read-only.

        Maps every weight m that entry_weights gives, ascending, to the
        (rows, cols) of its entries, row-major: one stable argsort of the
        flat entries buckets them all.  This is the one bucketing of entries
        by weight: the fuzzy weight tables and calculus._layout read it.
        """
        diff = entry_weights(self.mat).reshape(-1)
        order = np.argsort(diff, kind="stable")
        weights, starts = np.unique(diff[order], return_index=True)
        entries = np.divmod(order, self.n)
        for a in entries:
            a.setflags(write=False)
        rows, cols = (np.split(a, starts[1:]) for a in entries)
        return types.MappingProxyType(dict(zip(weights.tolist(), zip(rows, cols))))

    def part(self, parity: Parity) -> "GradedMatrix":
        sign = -1.0 if parity % 2 else 1.0
        return self._like(0.5 * (self.mat + sign * self.mat * self.dims.twist))

    def homogeneous_parity(self, tol: float = 1e-12) -> Optional[Parity]:
        """0 or 1 for (numerically) homogeneous matrices, None for mixed.

        The zero matrix counts as even.
        """
        scale = max(float(np.abs(self.mat).max()), 1.0)
        twisted = self.mat * self.dims.twist
        odd_norm = 0.5 * float(np.abs(self.mat - twisted).max())
        even_norm = 0.5 * float(np.abs(self.mat + twisted).max())
        if odd_norm <= tol * scale:
            return EVEN
        if even_norm <= tol * scale:
            return ODD
        return None

    # -- arithmetic ---------------------------------------------------

    def _like(self, mat: np.ndarray) -> "GradedMatrix":
        # mat must be a fresh result, never a view of an operand
        return GradedMatrix._adopt(self.dims, mat)

    def _check(self, other: "GradedMatrix") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check(other)
        return self._like(self.mat + other.mat)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check(other)
        return self._like(self.mat - other.mat)

    def __neg__(self) -> "GradedMatrix":
        return self._like(-self.mat)

    def __mul__(self, scalar: complex) -> "GradedMatrix":
        return self._like(self.mat * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "GradedMatrix":
        return self._like(self.mat / scalar)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        self._check(other)
        return self._like(self.mat @ other.mat)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def __repr__(self) -> str:  # pragma: no cover
        return f"GradedMatrix(dims=({self.dims.even}|{self.dims.odd}), norm={self.norm():.3g})"


def supertrace(m: GradedMatrix) -> complex:
    """trace(even-even block) - trace(odd-odd block)."""
    ne = m.dims.even
    return complex(np.trace(m.mat[:ne, :ne]) - np.trace(m.mat[ne:, ne:]))


def superadjoint(m: GradedMatrix) -> GradedMatrix:
    """Grade adjoint f -> f-double-dagger of the graded Hilbert space.

    Defined on homogeneous f by <f'v, w> = (-1)^{|f||v|} <v, f w> and
    extended additively.  Concretely: conjugate transpose, with the
    even-row/odd-column block negated.  The diagonal blocks come from the
    even part only and the off-diagonal blocks from the odd part, so one
    formula covers mixed matrices.
    """
    ne = m.dims.even
    out = m.mat.conj().T.copy()
    out[:ne, ne:] *= -1
    return GradedMatrix._adopt(m.dims, out)


def indefinite_inner(f: GradedMatrix, g: GradedMatrix) -> complex:
    """-supertrace(superadjoint(f) g); antilinear in f, <Id|Id> = 1.

    Indefinite in general: pseudo-orthonormal bases have diagonal +-1.
    The supertrace reads only the diagonal of f^+ g, so the product is
    sum conj(f) * g over all entries with the even-even block negated.  It
    is taken as two BLAS dot products (np.vdot) over contiguous row blocks:
    the odd rows, minus g.twisted_even_rows (even-even entries +1, even-odd
    -1, both exact).  The cost is O(n^2) and no matrix product is formed.
    The twisted rows are g's cached attribute, formed on the first call
    with that g, so pairing many f with one g twists it once.  Subtracting
    twice the even-even block from vdot(f, g) instead would cancel.
    """
    if f.dims is not g.dims:
        f._check(g)
    ne = f.dims.even
    return complex(np.vdot(f.mat[ne:], g.mat[ne:]) - np.vdot(f.mat[:ne], g.twisted_even_rows))


def hs_inner(f: np.ndarray, g: np.ndarray) -> complex:
    """Normalized Hilbert-Schmidt product trace(f^dag g)/n on plain matrices.

    Computed as vdot(f, g)/n, in O(n^2) work.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"need equal square matrices, got {f.shape} and {g.shape}")
    return complex(np.vdot(f, g)) / f.shape[0]


def graded_commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """[a, b] = ab - (-1)^{|a||b|} ba on homogeneous parts, extended bilinearly.

    Computed as a b - b a_even - tau(b) a_odd.  A product whose part of a is
    exactly zero is skipped, so a homogeneous a costs two matrix products
    and a mixed one three.
    """
    a._check(b)
    a_even = 0.5 * (a.mat + a.mat * a.dims.twist)
    a_odd = a.mat - a_even
    out = a.mat @ b.mat
    if a_even.any():
        out -= b.mat @ a_even
    if a_odd.any():
        out -= (b.mat * b.dims.twist) @ a_odd
    return GradedMatrix._adopt(a.dims, out)


def restricted_adjoint(e: GradedMatrix, target, source) -> np.ndarray:
    """[e, .] from the source entries of a matrix to the target entries, as a block.

    Entries are (rows, cols) index arrays, the sources in row-major order
    (as np.nonzero gives them), the targets in any.  For every f zero off
    the sources, block @ f[source] = [e, f][target]: target (r, c) reads
    source (k, c) with e[r, k], and source (r, k) with -e[k, c], twisted by
    tau(r, k) where e[k, c] is odd, as graded_commutator twists it; where
    both land, e[r, r] - e[c, c].  The block is scattered from the nonzeros
    of e (e.adjoint_stencil), each source found by bisection on the flat
    source indices.
    """
    (r, c), (rs, cs) = target, source
    out = np.zeros((r.size, rs.size), dtype=complex)
    if out.size:
        rows_at, cols_at, rows_val, cols_val, half = e.adjoint_stencil
        at, flat = rows_at[r] + cols_at[c], rs * e.n + cs
        pos = np.searchsorted(flat, at)
        hit = flat.take(pos, mode="clip") == at
        out[hit.nonzero()[0], pos[hit]] = (rows_val[r] + cols_val[c + half[r]])[hit]
    return out


def entry_weights(j3: np.ndarray) -> np.ndarray:
    """Doubled J_3 weight m_r - m_c of each entry (r, c), for a diagonal J_3."""
    two_m = np.rint(2 * j3.diagonal().real).astype(int)
    return two_m[:, None] - two_m[None, :]


def perm_sign(sigma: Sequence[int]) -> int:
    """Sign of a permutation given as a tuple of images (0-indexed)."""
    sign = 1
    p = len(sigma)
    for r in range(p):
        for s in range(r + 1, p):
            if sigma[r] > sigma[s]:
                sign = -sign
    return sign


def commutation_factor(sigma: Sequence[int], parities: Sequence[Parity]) -> int:
    """Koszul factor gamma_p(sigma; parities).

    One factor (-1)^{p_r p_s} for every pair r < s of source slots whose
    order sigma inverts, i.e. whose entries cross when (D_1,...,D_p) is
    rearranged into (D_sigma(1),...,D_sigma(p)).  sigma is 0-indexed.
    """
    p = len(sigma)
    if len(parities) != p:
        raise ValueError("one parity per slot")
    pos = [0] * p
    for k, r in enumerate(sigma):
        pos[r] = k
    sign = 1
    for r in range(p):
        for s in range(r + 1, p):
            if pos[r] > pos[s] and (parities[r] % 2) and (parities[s] % 2):
                sign = -sign
    return sign


@dataclasses.dataclass(frozen=True)
class RankDecision:
    """Numerical rank of a matrix plus how clean the threshold cut was.

    gap is the relative distance between the smallest kept and the largest
    dropped singular value; math.inf when the decision involved no cut at
    all (empty spectrum, or an exactly zero matrix).
    """

    rank: int
    gap: float
    tol: float

    @property
    def inconclusive(self) -> bool:
        return self.gap < 10.0 * self.tol


def rank_decision(
    m: Union[np.ndarray, Iterable[np.ndarray]], tol: float = 1e-8
) -> RankDecision:
    """Numerical rank of m: singular values above tol * max(s_max, 1).

    m is a matrix, or an iterable (a list or a generator) of the diagonal
    blocks of a block-diagonal matrix, which the caller knows from its
    layout.  The blocks are read in one pass, and each matrix or block
    takes one values-only SVD as given; only its singular values and shape
    are kept, so a generator of blocks is never held whole.  The union of
    the block spectra is the spectrum of the whole, padded with exact zeros
    to min(total rows, total columns) values.  A real floating block stays
    real (float64, so LAPACK takes the real SVD); any other block is cast
    to complex.  tol must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    rows = cols = 0
    spectra = []
    for b in [m] if isinstance(m, np.ndarray) else m:
        b = np.asarray(b)
        if b.ndim != 2:
            raise ValueError("rank_decision takes a matrix or an iterable of matrices")
        rows, cols = rows + b.shape[0], cols + b.shape[1]
        if b.size:
            real = np.issubdtype(b.dtype, np.floating)
            spectra.append(np.linalg.svd(b.astype(float if real else complex, copy=False), compute_uv=False))
        del b  # before the next block is read
    size = min(rows, cols)
    if size == 0:
        return RankDecision(rank=0, gap=math.inf, tol=tol)
    s = np.zeros(size)
    if spectra:
        values = np.concatenate(spectra)
        s[: values.size] = values
    s = np.sort(s)[::-1]
    scale = max(float(s[0]), 1.0)
    cut = tol * scale
    rank = int(np.sum(s > cut))
    if rank == 0:
        # no kept values: certain for an exact zero matrix, otherwise report
        # how far below the cut the spectrum sits
        gap = math.inf if float(s[0]) == 0.0 else tol - float(s[0]) / scale
    elif rank == len(s):
        gap = float(s[-1]) / scale
    else:
        gap = (float(s[rank - 1]) - float(s[rank])) / scale
    return RankDecision(rank=rank, gap=gap, tol=tol)


def numerical_rank(m: np.ndarray, tol: float = 1e-8) -> int:
    """Number of singular values above tol * max(largest singular value, 1)."""
    return rank_decision(m, tol).rank


def random_graded_matrix(
    dims: GradedDims,
    rng: np.random.Generator,
    parity: Optional[Parity] = None,
) -> GradedMatrix:
    """Gaussian random matrix, optionally projected to one parity."""
    n = dims.total
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = GradedMatrix(dims, m)
    if parity is None:
        return g
    return g.part(parity)
