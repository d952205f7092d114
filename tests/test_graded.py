import math

import numpy as np
import pytest

from fuzzsuper.graded import (
    EVEN,
    ODD,
    GradedDims,
    GradedMatrix,
    commutation_factor,
    graded_commutator,
    hs_inner,
    indefinite_inner,
    numerical_rank,
    perm_sign,
    random_graded_matrix,
    rank_decision,
    restricted_adjoint,
    superadjoint,
    supertrace,
)

RNG = np.random.default_rng(7)
DIMS = GradedDims(3, 2)


def rand(parity=None):
    return random_graded_matrix(DIMS, RNG, parity=parity)


def test_supertrace_signs():
    m = np.diag([1.0, 2.0, 3.0, 10.0, 20.0])
    assert supertrace(GradedMatrix(DIMS, m)) == pytest.approx(6.0 - 30.0)


def test_identity_has_unit_inner():
    one = GradedMatrix.identity(DIMS)
    # the odd block contributes with a minus sign twice, cancelling
    assert indefinite_inner(one, one) == pytest.approx(-supertrace(one))
    dims = GradedDims(3, 3)
    one = GradedMatrix.identity(dims)
    assert supertrace(one) == pytest.approx(0.0)


def test_superadjoint_blocks():
    m = rand()
    ms = superadjoint(m)
    ne = DIMS.even
    a = m.mat
    b = ms.mat
    assert np.allclose(b[:ne, :ne], a[:ne, :ne].conj().T)
    assert np.allclose(b[ne:, ne:], a[ne:, ne:].conj().T)
    # sign convention: the even-row x odd-column block of the result flips
    assert np.allclose(b[:ne, ne:], -a[ne:, :ne].conj().T)
    assert np.allclose(b[ne:, :ne], a[:ne, ne:].conj().T)


def test_superadjoint_graded_involution():
    for parity in (EVEN, ODD):
        m = rand(parity)
        back = superadjoint(superadjoint(m))
        sign = 1.0 if parity == EVEN else -1.0
        assert (back - m * sign).norm() < 1e-12


def test_superadjoint_antimultiplicative():
    # (fg)^+ = (-1)^{|f||g|} g^+ f^+ on homogeneous elements
    for pf in (EVEN, ODD):
        for pg in (EVEN, ODD):
            f, g = rand(pf), rand(pg)
            lhs = superadjoint(f @ g)
            rhs = (superadjoint(g) @ superadjoint(f)) * ((-1.0) ** (pf * pg))
            assert (lhs - rhs).norm() < 1e-12


def test_indefinite_inner_hermitian():
    # conj(<g|f>) picks up (-1)^{|g|(|f|+1)}; equal parities always give +1
    for p in (EVEN, ODD):
        f, g = rand(p), rand(p)
        assert indefinite_inner(f, g) == pytest.approx(np.conj(indefinite_inner(g, f)))


def test_indefinite_inner_sesquilinear():
    f, g = rand(), rand()
    assert indefinite_inner(f * (2 + 1j), g) == pytest.approx(
        (2 - 1j) * indefinite_inner(f, g)
    )
    assert indefinite_inner(f, g * (2 + 1j)) == pytest.approx(
        (2 + 1j) * indefinite_inner(f, g)
    )


def test_hs_inner_unit():
    n = 6
    assert hs_inner(np.eye(n), np.eye(n)) == pytest.approx(1.0)


# -- the mask-and-matmul kernels, kept as references for the twisted ones

REFERENCE_DIMS = [GradedDims(2, 1), GradedDims(5, 4), GradedDims(3, 0), GradedDims(0, 2)]


def reference_part(m, parity):
    """Parity part by a boolean mask of the entries with that parity."""
    dims = m.dims
    row_par = np.zeros(dims.total, dtype=int)
    row_par[dims.even:] = 1
    mask = (row_par[:, None] + row_par[None, :]) % 2 == parity
    return np.where(mask, m.mat, 0.0)


def reference_commutator(a, b):
    """Six products over the parity parts of both factors."""
    ae, ao = reference_part(a, EVEN), reference_part(a, ODD)
    be, bo = reference_part(b, EVEN), reference_part(b, ODD)
    return (ae @ b.mat - b.mat @ ae) + (ao @ be - be @ ao) + (ao @ bo + bo @ ao)


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: f"{d.even}-{d.odd}")
def test_part_matches_mask_reference(dims):
    rng = np.random.default_rng(31)
    m = random_graded_matrix(dims, rng)
    for parity in (EVEN, ODD):
        assert np.array_equal(m.part(parity).mat, reference_part(m, parity))


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: f"{d.even}-{d.odd}")
def test_graded_commutator_matches_reference(dims):
    rng = np.random.default_rng(32)
    for pa in (EVEN, ODD, None):
        for pb in (EVEN, ODD, None):
            a = random_graded_matrix(dims, rng, parity=pa)
            b = random_graded_matrix(dims, rng, parity=pb)
            err = np.linalg.norm(graded_commutator(a, b).mat - reference_commutator(a, b))
            assert err <= 1e-12 * a.norm() * b.norm(), (pa, pb)


def reference_restricted_adjoint(e, target, source):
    """restricted_adjoint as a broadcast over all target x source pairs: the reference of the stencil.

    Element (i, k) is e[r, r'] d(c, c') - d(r, r') e[c', c] for target entry
    (r, c) and source entry (r', c'), the second term grade-twisted on the
    source entry where e[c', c] is odd: the rule of graded_commutator.
    """
    (r, c), (rs, cs) = (x[:, None] for x in target), (x[None, :] for x in source)
    tw = e.dims.twist
    right = (r == rs) * e.mat[cs, c] * np.where(tw[cs, c] < 0, tw[rs, cs], 1.0)
    return e.mat[r, rs] * (c == cs) - right


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: f"{d.even}-{d.odd}")
def test_restricted_adjoint_matches_the_broadcast_reference(dims):
    # dense even, odd and mixed e, a sparse one and zero, on random entry subsets
    rng = np.random.default_rng(35)
    n = dims.total
    sparse = random_graded_matrix(dims, rng).mat * (rng.random((n, n)) < 0.3)
    sparse[0, 0] = 0.0  # a diagonal with zeros and, for n > 1, nonzeros
    es = [random_graded_matrix(dims, rng, parity=pe) for pe in (EVEN, ODD, None)]
    es += [GradedMatrix(dims, sparse), GradedMatrix.zero(dims)]
    for e in es:
        for density in (0.2, 0.5, 1.0):
            target = np.nonzero(rng.random((n, n)) < density)
            source = np.nonzero(rng.random((n, n)) < density)
            want = reference_restricted_adjoint(e, target, source)
            assert np.array_equal(restricted_adjoint(e, target, source), want)
            # the targets in any order: the rows follow them
            shuffle = rng.permutation(target[0].size)
            got = restricted_adjoint(e, tuple(x[shuffle] for x in target), source)
            assert np.array_equal(got, want[shuffle])


def test_restricted_adjoint_on_empty_entry_sets():
    e = random_graded_matrix(DIMS, RNG)
    n = DIMS.total
    every, none = np.nonzero(np.ones((n, n), dtype=bool)), np.nonzero(np.zeros((n, n), dtype=bool))
    for target, source, shape in ((none, every, (0, n * n)), (every, none, (n * n, 0)), (none, none, (0, 0))):
        got = restricted_adjoint(e, target, source)
        assert got.shape == shape and got.dtype == complex
        assert np.array_equal(got, reference_restricted_adjoint(e, target, source))


def test_adjoint_stencil_is_cached_and_read_only():
    # slots: the most nonzeros off the diagonal in a row, in a column, and one for the diagonal
    n, big = DIMS.total, max(DIMS.even, DIMS.odd)
    for e, width in ((rand(ODD), 2 * big + 1), (rand(EVEN), 2 * (big - 1) + 1)):
        stencil = e.adjoint_stencil
        assert e.adjoint_stencil is stencil
        rows_at, cols_at, rows_val, cols_val, half = stencil
        assert rows_at.shape == cols_at.shape == rows_val.shape == (n, width)
        assert cols_val.shape == (2 * n, width) and half.shape == (n,)
        for a in stencil:
            assert not a.flags.writeable


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: f"{d.even}-{d.odd}")
def test_restricted_adjoint_is_a_block_of_the_commutator(dims):
    rng = np.random.default_rng(34)
    n = dims.total
    every = np.nonzero(np.ones((n, n), dtype=bool))
    # an arbitrary subset of entries on each side, in row-major order
    target = np.nonzero(rng.random((n, n)) < 0.5)
    source = np.nonzero(rng.random((n, n)) < 0.5)
    for pe in (EVEN, ODD, None):
        e = random_graded_matrix(dims, rng, parity=pe)
        f = random_graded_matrix(dims, rng)
        tol = 1e-12 * e.norm() * f.norm()
        full = restricted_adjoint(e, every, every) @ f.mat.reshape(-1)
        assert np.abs(full - graded_commutator(e, f).mat.reshape(-1)).max() <= tol
        kept = np.zeros((n, n), dtype=complex)
        kept[source] = f.mat[source]
        block = restricted_adjoint(e, target, source) @ f.mat[source]
        want = graded_commutator(e, GradedMatrix(dims, kept)).mat[target]
        assert np.abs(block - want).max() <= tol


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: f"{d.even}-{d.odd}")
def test_inner_products_match_trace_reference(dims):
    rng = np.random.default_rng(33)
    for pf in (EVEN, ODD, None):
        for pg in (EVEN, ODD, None):
            f = random_graded_matrix(dims, rng, parity=pf)
            g = random_graded_matrix(dims, rng, parity=pg)
            want = -supertrace(superadjoint(f) @ g)
            assert abs(indefinite_inner(f, g) - want) <= 1e-12 * f.norm() * g.norm()
            want = np.trace(f.mat.conj().T @ g.mat) / dims.total
            assert abs(hs_inner(f.mat, g.mat) - want) <= 1e-12 * f.norm() * g.norm()
    # entries in Fortran order: the row blocks are not contiguous
    f = GradedMatrix(dims, random_graded_matrix(dims, rng).mat.T)
    want = -supertrace(superadjoint(f) @ g)
    assert abs(indefinite_inner(f, g) - want) <= 1e-12 * f.norm() * g.norm()


def reference_indefinite_inner(f, g):
    """The formula that twisted the even rows of g on every call."""
    ne = f.dims.even
    a, b = f.mat, g.mat
    return complex(np.vdot(a[ne:], b[ne:]) - np.vdot(a[:ne], b[:ne] * f.dims.twist[:ne]))


@pytest.mark.parametrize("dims", REFERENCE_DIMS, ids=lambda d: f"{d.even}-{d.odd}")
def test_indefinite_inner_equals_the_uncached_formula(dims):
    # the cached twisted rows give the bits of the per-call twist, also for
    # equal dims that are distinct objects, and on a second call with the cache
    rng = np.random.default_rng(34)
    twin = GradedDims(dims.even, dims.odd)
    assert twin == dims and twin is not dims
    for pf in (EVEN, ODD, None):
        for pg in (EVEN, ODD, None):
            f = random_graded_matrix(dims, rng, parity=pf)
            for g in (random_graded_matrix(dims, rng, parity=pg), random_graded_matrix(twin, rng, parity=pg)):
                want = reference_indefinite_inner(f, g)
                for _ in range(2):
                    got = indefinite_inner(f, g)
                    assert np.array_equal(got, want), (pf, pg)


def test_indefinite_inner_rejects_other_dims_either_way():
    f, g = rand(), random_graded_matrix(GradedDims(2, 3), RNG)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            indefinite_inner(a, b)


def test_twisted_even_rows_are_cached_and_read_only():
    g = rand()
    rows = g.twisted_even_rows
    assert rows is g.twisted_even_rows
    assert np.array_equal(rows, g.mat[: DIMS.even] * DIMS.twist[: DIMS.even])
    assert not rows.flags.writeable and not np.shares_memory(rows, g.mat)
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


def test_results_are_frozen_and_share_no_operand_memory():
    f, g = rand(), rand(ODD)
    results = [
        f + g, f - g, -f, f * 2.0, 3j * f, f / 3.0, f @ g,
        f.part(EVEN), superadjoint(f), graded_commutator(g, f),
        GradedMatrix.zero(DIMS), GradedMatrix.identity(DIMS),
    ]
    for r in results:
        assert not r.mat.flags.writeable
        assert not any(np.shares_memory(r.mat, x.mat) for x in (f, g))
    # the public constructor copies what the caller still holds
    a = np.eye(DIMS.total, dtype=complex)
    m = GradedMatrix(DIMS, a)
    assert a.flags.writeable and not np.shares_memory(a, m.mat) and not m.mat.flags.writeable
    for bad in (np.zeros((DIMS.total, DIMS.total)), np.zeros((4, 4), dtype=complex)):
        with pytest.raises(ValueError):
            GradedMatrix._adopt(DIMS, bad)


def test_twist_is_shared_and_read_only():
    dims = GradedDims(2, 1)
    assert dims.twist is dims.twist
    assert np.array_equal(dims.twist, [[1, 1, -1], [1, 1, -1], [-1, -1, 1]])
    with pytest.raises(ValueError):
        dims.twist[0, 0] = 0.0


def test_graded_commutator_signs():
    fe, ge = rand(EVEN), rand(EVEN)
    fo, go = rand(ODD), rand(ODD)
    c = graded_commutator(fe, ge)
    assert (c - (fe @ ge - ge @ fe)).norm() < 1e-12
    c = graded_commutator(fe, go)
    assert (c - (fe @ go - go @ fe)).norm() < 1e-12
    c = graded_commutator(fo, go)
    assert (c - (fo @ go + go @ fo)).norm() < 1e-12


def test_graded_commutator_antisymmetry():
    for pf in (EVEN, ODD):
        for pg in (EVEN, ODD):
            f, g = rand(pf), rand(pg)
            sign = (-1.0) ** (pf * pg)
            lhs = graded_commutator(f, g)
            rhs = graded_commutator(g, f) * (-sign)
            assert (lhs - rhs).norm() < 1e-12


def test_graded_jacobi():
    for pa in (EVEN, ODD):
        for pb in (EVEN, ODD):
            for pc in (EVEN, ODD):
                a, b, c = rand(pa), rand(pb), rand(pc)
                lhs = graded_commutator(a, graded_commutator(b, c))
                rhs = graded_commutator(graded_commutator(a, b), c) + graded_commutator(
                    b, graded_commutator(a, c)
                ) * ((-1.0) ** (pa * pb))
                assert (lhs - rhs).norm() < 1e-11


def test_homogeneous_parity_detection():
    assert rand(EVEN).homogeneous_parity() == EVEN
    assert rand(ODD).homogeneous_parity() == ODD
    assert (rand(EVEN) + rand(ODD)).homogeneous_parity() is None
    assert GradedMatrix.zero(DIMS).homogeneous_parity() == EVEN


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_commutation_factor():
    # crossing two odd slots costs a sign; anything else is free
    assert commutation_factor((1, 0), (ODD, ODD)) == -1
    assert commutation_factor((1, 0), (EVEN, ODD)) == 1
    assert commutation_factor((1, 0), (EVEN, EVEN)) == 1
    assert commutation_factor((0, 1), (ODD, ODD)) == 1
    # three odds fully reversed: three crossings
    assert commutation_factor((2, 1, 0), (ODD, ODD, ODD)) == -1


def test_commutation_factor_composes_with_sign():
    # for all-odd slots, sgn(sigma) * gamma(sigma) is always +1
    import itertools

    for sigma in itertools.permutations(range(4)):
        assert perm_sign(sigma) * commutation_factor(sigma, (ODD,) * 4) == 1


def test_rank_decision_clean_cut():
    d = rank_decision(np.diag([1.0, 1e-3, 1e-12]))
    assert d.rank == 2
    assert d.gap == pytest.approx(1e-3 - 1e-12)
    assert not d.inconclusive


def test_rank_decision_fuzzy_cut():
    d = rank_decision(np.diag([1.0, 5e-8]))
    assert d.rank == 2
    assert d.inconclusive  # smallest kept value sits just above the cut


def test_rank_decision_zero_and_empty():
    d = rank_decision(np.zeros((3, 3)))
    assert d.rank == 0 and d.gap == math.inf and not d.inconclusive
    d = rank_decision(np.zeros((0, 4)))
    assert d.rank == 0 and d.gap == math.inf


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_rank_decision_rejects_a_tol_outside_zero_to_inf(tol):
    with pytest.raises(ValueError):
        rank_decision(np.eye(3), tol)


def test_rank_decision_keeps_real_input_real(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    m = np.random.default_rng(5).standard_normal((6, 4))
    decisions = {}
    for kind, x in (
        ("float64", m),
        ("float32", m.astype(np.float32)),
        ("int", np.rint(4 * m).astype(int)),
        ("complex", m.astype(complex)),
    ):
        seen.clear()
        decisions[kind] = rank_decision(x)
        want = np.complex128 if kind in ("int", "complex") else np.float64
        assert seen and all(dt == want for dt in seen), kind
    real, cplx = decisions["float64"], decisions["complex"]
    assert real.rank == cplx.rank and abs(real.gap - cplx.gap) <= 1e-12


def reference_decision(m, tol=1e-8):
    """rank and gap from one whole-matrix SVD, with rank_decision's cut."""
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
    scale = max(float(s[0]), 1.0)
    rank = int(np.sum(s > tol * scale))
    if rank == 0:
        gap = tol - float(s[0]) / scale
    elif rank == len(s):
        gap = float(s[-1]) / scale
    else:
        gap = (float(s[rank - 1]) - float(s[rank])) / scale
    return rank, gap


def nonzero_blocks(m):
    """Row and column indices of the independent blocks of m's nonzero pattern.

    A block is a connected component of the bipartite graph that joins row
    r to column c wherever m[r, c] != 0.  Rows and columns without any
    nonzero entry belong to no block.  Components are found by vectorised
    label propagation: every edge hooks the larger of its two root labels
    onto the smaller one, then pointer jumping flattens each tree to its
    root, until both ends of every edge carry the same label.  The library
    does not search for blocks; its callers pass the blocks they know, and
    the tests check those against this search.
    """
    n_rows = m.shape[0]
    rows, cols = np.nonzero(m)
    if rows.size == 0:
        return []
    u, v = rows, cols + n_rows
    label = np.arange(n_rows + m.shape[1])
    while True:
        lu, lv = label[u], label[v]
        if np.array_equal(lu, lv):
            break
        low = np.minimum(lu, lv)
        np.minimum.at(label, lu, low)
        np.minimum.at(label, lv, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    blocks = []
    for idx in (np.unique(rows), np.unique(cols) + n_rows):
        order = np.argsort(label[idx], kind="stable")
        _, starts = np.unique(label[idx][order], return_index=True)
        blocks.append(np.split(idx[order], starts[1:]))
    return [(r, c - n_rows) for r, c in zip(*blocks)]


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def block_diagonal(blocks):
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def shuffled(rng, m):
    return m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]


def pattern_blocks(m):
    """m's pattern blocks as matrices, with its zero rows and columns as 0-wide blocks."""
    found = nonzero_blocks(m)
    used_rows = sum(r.size for r, _ in found)
    used_cols = sum(c.size for _, c in found)
    blocks = [m[np.ix_(r, c)] for r, c in found]
    return blocks + [np.zeros((m.shape[0] - used_rows, 0)), np.zeros((0, m.shape[1] - used_cols))]


def assert_matches_reference(m, tol=1e-8):
    """rank_decision of m, and of its pattern blocks, against one SVD of m."""
    d = rank_decision(m, tol)
    rank, gap = reference_decision(m, tol)
    assert d.rank == rank
    assert abs(d.gap - gap) <= 1e-12
    assert_blocks_match_reference(pattern_blocks(m), tol)
    return d


def assert_blocks_match_reference(blocks, tol=1e-8):
    """rank_decision of a block list against one SVD of their block-diagonal matrix."""
    d = rank_decision(blocks, tol)
    rank, gap = reference_decision(block_diagonal(blocks), tol)
    assert d.rank == rank
    assert abs(d.gap - gap) <= 1e-12
    return d


def test_nonzero_blocks_reference():
    m = np.zeros((5, 6))
    m[0, 1] = m[3, 1] = m[3, 4] = 1.0  # rows 0, 3 and columns 1, 4 are one block
    m[2, 5] = 1.0
    assert [(r.tolist(), c.tolist()) for r, c in nonzero_blocks(m)] == [
        ([0, 3], [1, 4]),
        ([2], [5]),
    ]
    assert nonzero_blocks(np.zeros((3, 2))) == []


def test_rank_decision_permuted_blocks():
    rng = np.random.default_rng(11)
    # three blocks of unequal shapes; the middle one has rank 2 of 6
    low_rank = crandn(rng, (9, 2)) @ crandn(rng, (2, 6))
    parts = [crandn(rng, (5, 3)), low_rank, crandn(rng, (4, 7))]
    assert assert_blocks_match_reference(parts).rank == 3 + 2 + 4
    m = shuffled(rng, block_diagonal(parts))
    assert len(nonzero_blocks(m)) == 3
    d = assert_matches_reference(m)
    assert d.rank == 3 + 2 + 4


def test_rank_decision_zero_padding():
    rng = np.random.default_rng(12)
    # zero rows and columns contribute the padded zeros below the cut
    m = np.zeros((8, 6), dtype=complex)
    m[np.ix_([1, 4, 6], [0, 3])] = crandn(rng, (3, 2))
    m[np.ix_([2, 7], [5])] = crandn(rng, (2, 1))
    d = assert_matches_reference(shuffled(rng, m))
    assert d.rank == 3
    # the zero rows and columns as 0-wide blocks of the list
    parts = [crandn(rng, (3, 2)), crandn(rng, (2, 1)), np.zeros((3, 0)), np.zeros((0, 3))]
    assert assert_blocks_match_reference(parts).rank == 3
    # the kept rank equals min(m, n): the padding stays out of the spectrum
    m = np.zeros((7, 3), dtype=complex)
    m[np.ix_([0, 5], [1, 2])] = crandn(rng, (2, 2))
    m[3, 0] = 2.0
    d = assert_matches_reference(m)
    assert d.rank == 3
    assert assert_blocks_match_reference([crandn(rng, (2, 2)), np.full((5, 1), 2.0)]).rank == 3


def test_rank_decision_single_dense_block():
    rng = np.random.default_rng(13)
    m = crandn(rng, (6, 6))
    assert assert_matches_reference(m).rank == 6
    m = crandn(rng, (7, 2)) @ crandn(rng, (2, 7))
    assert assert_matches_reference(m).rank == 2


def test_rank_decision_tall_and_wide():
    rng = np.random.default_rng(14)
    for shape in ((40, 6), (6, 40)):
        parts = [crandn(rng, (shape[0] // 2, shape[1] // 2)) for _ in range(2)]
        parts[1][:, 0] = 0.0
        assert_blocks_match_reference(parts)
        assert_blocks_match_reference([b.T for b in parts])
        assert_blocks_match_reference([np.abs(b) for b in parts])
        m = shuffled(rng, block_diagonal(parts))
        assert_matches_reference(m)
        assert_matches_reference(m.T)
        assert_matches_reference(np.abs(m))


def test_rank_decision_empty_and_zero_width_blocks():
    rng = np.random.default_rng(15)
    a, b = crandn(rng, (4, 3)), crandn(rng, (2, 5)) * 1e-9
    for parts in (
        [a, np.zeros((0, 0)), b],
        [np.zeros((0, 4)), a, b],
        [a, np.zeros((3, 0)), b, np.zeros((0, 2))],
    ):
        d = assert_blocks_match_reference(parts)
        assert d.rank == 3
    # a list that holds no entries at all decides rank 0 with no cut
    for parts in ([], [np.zeros((0, 0))], [np.zeros((0, 4)), np.zeros((3, 0))]):
        d = rank_decision(parts)
        assert d.rank == 0 and d.gap == math.inf
    # zero-width blocks still count their rows or columns into the padding
    d = rank_decision([np.eye(2), np.zeros((0, 3))])
    assert d.rank == 2 and d.gap == 1.0
    d = rank_decision([np.eye(2), np.zeros((3, 0)), np.zeros((0, 3))])
    assert d.rank == 2 and d.gap == 1.0


def test_rank_decision_mixed_real_and_complex_blocks(monkeypatch):
    rng = np.random.default_rng(16)
    real = rng.standard_normal((5, 3))
    cplx = crandn(rng, (3, 4))
    ints = np.rint(4 * rng.standard_normal((2, 2))).astype(int)
    low = rng.standard_normal((6, 1)) @ rng.standard_normal((1, 4))
    parts = [real, cplx, ints, low]
    seen = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        seen.append(x.dtype)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    d = rank_decision(parts)
    # each block keeps its own dtype rule: real floats stay real
    assert seen == [np.float64, np.complex128, np.complex128, np.float64]
    monkeypatch.setattr(np.linalg, "svd", svd)
    assert d == assert_blocks_match_reference(parts)
    assert d.rank == 3 + 3 + 2 + 1


def test_rank_decision_rejects_a_list_of_non_matrices():
    with pytest.raises(ValueError):
        rank_decision([np.eye(2), np.ones(3)])
    with pytest.raises(ValueError):
        rank_decision(np.ones(3))


def test_numerical_rank():
    m = np.outer([1.0, 2.0, 0.0], [1.0, 1.0, 1.0])
    assert numerical_rank(m) == 1
    assert numerical_rank(np.eye(4)) == 4


def test_dims_validation():
    with pytest.raises(ValueError):
        GradedDims(-1, 2)
    with pytest.raises(ValueError):
        GradedMatrix(DIMS, np.eye(4))
