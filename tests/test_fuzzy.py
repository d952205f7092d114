import dataclasses
import math

import numpy as np
import pytest

from fuzzsuper.fuzzy import (
    FuzzyElement,
    FuzzySphere,
    FuzzySuperSphere,
    HarmonicLabel,
    SphereLabel,
    all_labels,
    body_label_image,
    body_map_blocks,
    body_map_coeffs,
    body_map_fuzzy,
    body_map_matrix,
    eta,
    fuzzy_product,
    label_action,
    structure_constant_fuzzy,
)
from fuzzsuper.graded import (
    ODD,
    GradedDims,
    GradedMatrix,
    hs_inner,
    indefinite_inner,
    numerical_rank,
    random_graded_matrix,
    restricted_adjoint,
    superadjoint,
    supertrace,
)
import fuzzsuper.fuzzy as fuzzy_module
from fuzzsuper.calculus import body_context, super_context
from fuzzsuper.continuum import structure_constant_classical
from fuzzsuper.osp import build_irrep, build_osp_basis

RNG = np.random.default_rng(21)


def reference_super_chain(s, two_j, mu):
    """One (j, mu) chain of dense ladder steps Y_(m-1) = [J_-, Y_m] / sqrt(step)."""
    top = s.highest_weight(two_j)
    if mu == 1:
        top = (2.0 / math.sqrt(two_j)) * s.adjoint_action(5, top)
    two_l = two_j - mu
    chain = {two_l: top}
    cur = top
    for two_m in range(two_l, -two_l, -2):
        step = ((two_l + two_m) // 2) * ((two_l - two_m + 2) // 2)
        cur = s.adjoint_action("-", cur) / math.sqrt(step)
        chain[two_m - 2] = cur
    return chain


def reference_body_chain(b, j):
    """The same dense ladder for the spin-j chain of the body sphere."""
    chain = {j: b.highest_weight(j)}
    cur = chain[j]
    for m in range(j, -j, -1):
        cur = b.adjoint_action("-", cur) / math.sqrt((j + m) * (j - m + 1))
        chain[m - 1] = cur
    return chain


def reference_sequential_cols(table, jm, top, two_l):
    """The table's columns rebuilt by the per-column projection loop.

    The same sweep as _WeightTable, on its entries, labels, pairing and
    signs, but each step column is projected in turn against the columns of
    larger l, already projected, one matrix-vector product at a time.
    """
    cols = {}
    for two_m in sorted(table.labels, reverse=True):
        labels, (r, c) = table.labels[two_m], divmod(table.flat[two_m], table.n)
        h = np.empty((len(r), len(labels)), dtype=complex)
        for k, la in enumerate(labels):
            if two_l(la) == two_m:
                h[:, k] = top(la)[r, c]
                continue
            above = dataclasses.replace(la, two_m=two_m + 2)
            ad = restricted_adjoint(jm, (r, c), divmod(table.flat[two_m + 2], table.n))
            step = ((two_l(la) + two_m + 2) // 2) * ((two_l(la) - two_m) // 2)
            h[:, k] = ad @ cols[two_m + 2][:, table.where[above]] / math.sqrt(step)
        w, s = table.pair[two_m], table.signs[two_m]
        neg_l = np.array([-two_l(la) for la in labels])
        k0 = sum(two_l(la) > two_m for la in labels)
        for k, j in enumerate(np.searchsorted(neg_l, neg_l[:k0])):  # j columns of larger l
            h[:, k] -= h[:, :j] @ (s[:j] * (h[:, :j].conj().T @ (w * h[:, k])))
        cols[two_m] = h
    return cols


def table_gram_residual(table):
    """max |signs cols^H (pair cols) - I| over the weights of a table."""
    return max(
        np.abs(
            table.signs[m][:, None] * (h.conj().T @ (table.pair[m][:, None] * h)) - np.eye(h.shape[1])
        ).max()
        for m, h in table.cols.items()
    )


def _double_factorial(n):
    return math.prod(range(n, 1, -2))


def reference_super_top(s, two_j):
    """A chain top as N_j J_+^j, or N_j J_+^k times the odd core, by matrix powers."""
    q, jp = s.q, s.rep.matrix("+").mat
    if two_j % 2 == 0:
        j = two_j // 2
        norm = math.sqrt(
            2**j * _double_factorial(2 * j - 1) * math.factorial(q - j)
            / (math.factorial(j) * math.factorial(q + j))
        )
        return norm * np.linalg.matrix_power(jp, j)
    k = (two_j - 1) // 2
    norm = (1.0 / (q + 0.5)) * math.sqrt(
        2 ** (k + 4) * _double_factorial(2 * k + 1) * math.factorial(q - k - 1)
        / (math.factorial(k) * math.factorial(q + k + 1))
    )
    j3, j4, j5 = (s.rep.matrix(a).mat for a in (3, 4, 5))
    core = (j3 - 0.75 * np.eye(s.n)) @ j4 + jp @ j5
    return norm * (np.linalg.matrix_power(jp, k) @ core)


def reference_body_top(b, j):
    q = b.q
    norm = math.sqrt(
        2**j * _double_factorial(2 * j + 1) * (q + 1) * math.factorial(q - j)
        / (math.factorial(j) * math.factorial(q + j + 1))
    )
    return norm * np.linalg.matrix_power(b.rep.matrix("+"), j)


def reference_body_map(f, s, b):
    """The body map as the composition of decompose, the label map and reconstruct."""
    return b.reconstruct(body_map_coeffs(s.decompose(f)))


def reference_label_action(a, e):
    """The label action written out coefficient by coefficient: the reference for label_action."""
    if a == 1:
        plus, minus = reference_label_action("+", e), reference_label_action("-", e)
        return (plus + minus).scale(0.5)
    if a == 2:
        plus, minus = reference_label_action("+", e), reference_label_action("-", e)
        return (plus - minus).scale(-0.5j)
    out = {}

    def add(label, v):
        if v != 0:
            out[label] = out.get(label, 0j) + v

    for L, c in e.coeffs.items():
        two_j, mu, two_m, two_l = L.two_j, L.mu, L.two_m, L.two_l
        if a == 3:
            add(L, c * (two_m / 2))
        elif a == "+":
            if two_m + 2 <= two_l:
                w = math.sqrt(((two_l - two_m) // 2) * ((two_l + two_m + 2) // 2))
                add(HarmonicLabel(two_j, mu, two_m + 2), c * w)
        elif a == "-":
            if two_m - 2 >= -two_l:
                w = math.sqrt(((two_l + two_m) // 2) * ((two_l - two_m + 2) // 2))
                add(HarmonicLabel(two_j, mu, two_m - 2), c * w)
        elif a == 4:
            if mu == 0:
                if two_j - two_m > 0:
                    add(HarmonicLabel(two_j, 1, two_m + 1), c * -0.5 * math.sqrt((two_j - two_m) / 2))
            else:
                add(HarmonicLabel(two_j, 0, two_m + 1), c * -0.5 * math.sqrt((two_j + two_m + 1) / 2))
        elif a == 5:
            if mu == 0:
                if two_j + two_m > 0:
                    add(HarmonicLabel(two_j, 1, two_m - 1), c * 0.5 * math.sqrt((two_j + two_m) / 2))
            else:
                add(HarmonicLabel(two_j, 0, two_m - 1), c * -0.5 * math.sqrt((two_j - two_m + 1) / 2))
    return FuzzyElement(e.q, out)


def random_element(q, n_terms=6):
    labels = all_labels(q)
    picks = RNG.choice(len(labels), size=min(n_terms, len(labels)), replace=False)
    return FuzzyElement(
        q, {labels[i]: complex(*RNG.normal(size=2)) for i in picks}
    )


# ---------------------------------------------------------------- labels


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_label_counts(q):
    labels = all_labels(q)
    assert len(labels) == (2 * q + 1) ** 2
    even = sum(1 for la in labels if la.parity == 0)
    odd = sum(1 for la in labels if la.parity == 1)
    assert even == q * q + (q + 1) ** 2
    assert odd == 2 * q * (q + 1)


def test_label_validation():
    with pytest.raises(ValueError):
        HarmonicLabel(0, 1, 0)  # no mu=1 at superspin zero
    with pytest.raises(ValueError):
        HarmonicLabel(2, 0, 1)  # parity of two_m must match two_l
    with pytest.raises(ValueError):
        HarmonicLabel(2, 1, 3)  # |two_m| beyond two_l
    la = HarmonicLabel(3, 1, 2)
    assert la.two_l == 2 and la.parity == 0 and la.sign == -1


def test_labels_built_apart_hash_alike_and_replace_rehashes():
    for la, twin, other in (
        (HarmonicLabel(3, 1, 2), HarmonicLabel(3, 1, 2), HarmonicLabel(3, 1, 0)),
        (SphereLabel(4, -2), SphereLabel(4, -2), SphereLabel(4, 0)),
    ):
        assert la is not twin and la == twin and hash(la) == hash(twin)
        moved = dataclasses.replace(la, two_m=0)
        assert moved == other and hash(moved) == hash(other)
        assert {la: 1}[twin] == 1 and other not in {la: 1}
        assert hash(la) == hash(dataclasses.astuple(la)[:-1])  # the tuple hash of the fields
    assert repr(HarmonicLabel(1, 0, -1)) == "HarmonicLabel(two_j=1, mu=0, two_m=-1)"
    assert sorted([HarmonicLabel(2, 0, 0), HarmonicLabel(1, 0, 1)])[0] == HarmonicLabel(1, 0, 1)


def test_element_json_round_trip():
    e = random_element(2)
    back = FuzzyElement.from_json(e.to_json())
    assert back.q == e.q
    assert e.max_abs_diff(back) < 1e-15


# ---------------------------------------------------------------- harmonics


@pytest.mark.parametrize("q", [1, 2, 3, 8])
def test_graded_gram(q):
    s = FuzzySuperSphere(q)
    mats = [(la, s.harmonic(la)) for la in s.labels()]
    worst = 0.0
    for i, (la, ya) in enumerate(mats):
        for lb, yb in mats[i:]:
            got = indefinite_inner(ya, yb)
            want = la.sign if la == lb else 0.0
            worst = max(worst, abs(got - want))
    assert worst < 1e-12


@pytest.mark.parametrize("q", [2, 5, 8, 12])
def test_harmonics_match_reference_ladder(q):
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    chains = {
        (la.two_j, la.mu): reference_super_chain(s, la.two_j, la.mu)
        for la in s.labels()
        if la.two_m == la.two_l
    }
    for la in s.labels():
        want = chains[(la.two_j, la.mu)][la.two_m].mat
        assert np.abs(s.harmonic(la).mat - want).max() < 1e-10, la
    chains = {j: reference_body_chain(b, j) for j in range(q + 1)}
    for la in b.labels():
        want = chains[la.two_j // 2][la.two_m // 2]
        assert np.abs(b.harmonic(la) - want).max() < 1e-10, la


@pytest.mark.parametrize("q", [1, 2, 3, 8])
def test_harmonic_is_the_one_hot_combination(q):
    # the scattered column is byte for byte the one-hot product it replaced
    for sphere in (FuzzySuperSphere(q), FuzzySphere(q)):
        for la in sphere.labels():
            y = sphere.harmonic(la)
            assert getattr(y, "mat", y).tobytes() == sphere._table.combine({la: 1.0}).tobytes(), la


def reference_column(table, label):
    """The 2-D scatter of a stored column onto its (rows, cols) entries."""
    two_m = label.two_m
    out = np.zeros((table.n, table.n), dtype=complex)
    out[divmod(table.flat[two_m], table.n)] = table.cols[two_m][:, table.where[label]]
    return out


@pytest.mark.parametrize("q", range(1, 9))
def test_harmonic_is_the_two_dimensional_scatter(q):
    for sphere in (FuzzySuperSphere(q), FuzzySphere(q)):
        for la in sphere.labels():
            y = sphere.harmonic(la)
            assert np.array_equal(getattr(y, "mat", y), reference_column(sphere._table, la)), la


def test_table_rows_are_contiguous_and_cols_their_views():
    for sphere in (FuzzySuperSphere(3), FuzzySphere(3)):
        table = sphere._table
        for two_m, rows in table.rows.items():
            cols = table.cols[two_m]
            assert rows.flags.c_contiguous and np.shares_memory(cols, rows) and np.array_equal(cols, rows.T)
            assert rows.shape == (len(table.labels[two_m]), len(table.flat[two_m]))


def test_harmonics_and_reconstructions_are_frozen_and_unshared():
    s, b = FuzzySuperSphere(3), FuzzySphere(3)
    stored = [a for t in (s._table, b._table) for a in t.cols.values()]
    e = random_element(3, n_terms=10)
    mats = [s.harmonic(la).mat for la in s.labels()] + [s.reconstruct(e).mat]
    for m in mats:
        assert not m.flags.writeable
    body = [b.harmonic(la) for la in b.labels()] + [b.reconstruct({SphereLabel(2, 0): 1.0})]
    for m in mats + body:
        assert not any(np.shares_memory(m, a) for a in stored)
    assert not np.shares_memory(mats[0], s.harmonic(s.labels()[0]).mat)


@pytest.mark.parametrize("q", [1, 2, 7, 24, 48])
def test_tops_match_matrix_powers(q):
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    for two_j in range(2 * q + 1):
        want = reference_super_top(s, two_j)
        got = s.highest_weight(two_j).mat
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), two_j
    for j in range(q + 1):
        want = reference_body_top(b, j)
        assert np.linalg.norm(b.highest_weight(j) - want) <= 1e-14 * np.linalg.norm(want), j


@pytest.mark.parametrize("q", [104, 128])
def test_chain_tops_stay_unit_past_the_factorial_underflow(q):
    # N_j^2 of the body top at j = q is 0.0 in floating point from q = 104 on
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    for label in s.labels():
        if label.two_m == label.two_l:  # the top of the chain (j, mu)
            y = GradedMatrix(s.dims, s._top(label))
            assert np.isfinite(y.mat).all(), label
            assert abs(indefinite_inner(y, y) - label.sign) <= 1e-13, label
    for j in range(q + 1):
        y = b.highest_weight(j)
        assert np.isfinite(y).all(), j
        assert abs(hs_inner(y, y) - 1.0) <= 1e-13, j


@pytest.mark.parametrize("q", [2, 8, 16])
def test_table_matches_the_per_column_projection(q):
    # one masked projection per weight, its Gram read from the unprojected
    # columns, against the loop that projected one step column at a time
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    body_jm = GradedMatrix(GradedDims(b.n, 0), b.rep.jm)
    cases = [
        (s._table, s.rep.jm, s._top, lambda la: la.two_l),
        (b._table, body_jm, lambda la: b.highest_weight(la.two_j // 2), lambda la: la.two_j),
    ]
    for table, jm, top, two_l in cases:
        want = reference_sequential_cols(table, jm, top, two_l)
        for two_m, h in table.cols.items():
            assert np.abs(h - want[two_m]).max() <= 1e-14, two_m


@pytest.mark.parametrize("q", [32, 64])
def test_table_columns_are_pseudo_orthonormal_per_weight(q):
    for sphere in (FuzzySuperSphere(q), FuzzySphere(q)):
        assert table_gram_residual(sphere._table) <= 1e-12


@pytest.mark.parametrize("q", [104, 128])
def test_super_table_round_trip_at_large_q(q):
    # decompose is still one inner product per label, so O(n^4): the table alone
    s = FuzzySuperSphere(q)
    rng = np.random.default_rng(q)
    f = rng.normal(size=(s.n, s.n)) + 1j * rng.normal(size=(s.n, s.n))
    back = s._table.combine(s._table.project(f))
    assert np.linalg.norm(back - f) <= 3e-14 * np.linalg.norm(f)


def test_body_round_trip_at_q104():
    b = FuzzySphere(104)
    rng = np.random.default_rng(104)
    g = rng.normal(size=(b.n, b.n)) + 1j * rng.normal(size=(b.n, b.n))
    assert np.linalg.norm(b.reconstruct(b.decompose(g)) - g) <= 1e-14 * np.linalg.norm(g)


def test_unit_harmonic_is_identity():
    s = FuzzySuperSphere(3)
    y = s.harmonic(HarmonicLabel(0, 0, 0))
    assert (y - s.rep.matrix(1) * 0.0 - type(y).identity(s.dims)).norm() < 1e-13


def test_harmonic_parity_matches_label():
    s = FuzzySuperSphere(2)
    for la in s.labels():
        assert s.harmonic(la).homogeneous_parity() == la.parity


@pytest.mark.parametrize("make", [FuzzySuperSphere, FuzzySphere, super_context, body_context])
def test_spheres_reject_a_non_integral_level_and_a_bad_radius(make):
    for q in (2.7, 0, -1, 0.5, math.nan, math.inf, "2"):
        with pytest.raises(ValueError, match="level q must be a positive integer"):
            make(q)
    for rho in (0, -1.0, math.nan, math.inf, -math.inf, "1"):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            make(2, rho)
    for q in (np.int64(2), np.int32(2), 2.0):
        made = make(q)
        sphere = getattr(made, "sphere", made)
        assert sphere.q == 2 and type(sphere.q) is int


@pytest.mark.parametrize("q,rho", [(1, 1.0), (3, 1.0), (2, 2.5), (6, 1.0)])
def test_casimir_residual(q, rho):
    assert FuzzySuperSphere(q, rho).casimir_residual() < 1e-12
    assert FuzzySphere(q, rho).casimir_residual() < 1e-12


def test_coordinates_are_odd_and_even():
    s = FuzzySuperSphere(2)
    x1, x2, x3, t4, t5 = s.coordinates()
    for x in (x1, x2, x3):
        assert x.homogeneous_parity() == 0
    for t in (t4, t5):
        assert t.homogeneous_parity() == 1


# ---------------------------------------------------------------- transforms


def test_decompose_reconstruct_round_trip():
    s = FuzzySuperSphere(2)
    e = random_element(2, n_terms=10)
    back = s.decompose(s.reconstruct(e))
    assert e.max_abs_diff(back) < 1e-12


@pytest.mark.parametrize("q", [16, 32, 48])
def test_matrix_round_trip(q):
    rng = np.random.default_rng(q)
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    f = random_graded_matrix(s.dims, rng)
    assert (s.reconstruct(s.decompose(f)) - f).norm() <= 1e-14 * f.norm()
    g = rng.normal(size=(b.n, b.n)) + 1j * rng.normal(size=(b.n, b.n))
    assert np.linalg.norm(b.reconstruct(b.decompose(g)) - g) <= 1e-14 * np.linalg.norm(g)


def test_decompose_matches_reference_loop():
    q = 8
    rng = np.random.default_rng(5)
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    f = random_graded_matrix(s.dims, rng)
    e = s.decompose(f)
    for la in s.labels():
        want = la.sign * -supertrace(superadjoint(s.harmonic(la)) @ f)
        assert abs(e.get(la) - want) <= 1e-13 * f.norm(), la
    g = rng.normal(size=(b.n, b.n)) + 1j * rng.normal(size=(b.n, b.n))
    got = b.decompose(g)
    for la in b.labels():
        want = np.trace(b.harmonic(la).conj().T @ g) / b.n  # the HS product
        assert abs(got.get(la, 0j) - want) <= 1e-13 * np.linalg.norm(g), la


@pytest.mark.parametrize("q", [2, 8])
def test_projection_matches_decompose(q):
    s = FuzzySuperSphere(q)
    f = random_graded_matrix(s.dims, np.random.default_rng(q))
    want = s.decompose(f)
    got = s._table.project(f.mat)
    assert set(got) == set(s.labels())
    assert FuzzyElement(q, got).max_abs_diff(want) <= 1e-14 * f.norm()


def test_decompose_ignores_edits_of_the_label_list():
    s, b = FuzzySuperSphere(2), FuzzySphere(2)
    f = random_graded_matrix(s.dims, np.random.default_rng(6))
    want, want_body = s.decompose(f).coeffs, b.decompose(f.mat[: b.n, : b.n])
    for sphere in (s, b):
        labels = sphere.labels()
        labels.clear()
        assert len(sphere.labels()) == sphere.n ** 2
    assert s.decompose(f).coeffs == want
    assert b.decompose(f.mat[: b.n, : b.n]) == want_body


def test_psi_round_trip():
    s = FuzzySuperSphere(2)
    e = random_element(2)
    assert e.max_abs_diff(s.decompose(s.reconstruct(e))) < 1e-12
    m = s.harmonic(HarmonicLabel(2, 1, 1)) * (0.3 - 1j)
    assert (s.reconstruct(s.decompose(m)) - m).norm() < 1e-12


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, "+", "-"])
def test_label_action_matches_adjoint(a):
    q = 2
    s = FuzzySuperSphere(q)
    e = random_element(q, n_terms=8)
    via_labels = s.reconstruct(label_action(a, e))
    via_matrix = s.adjoint_action(a, s.reconstruct(e))
    assert (via_labels - via_matrix).norm() < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_label_action_matches_reference_table(q):
    rng = np.random.default_rng(q)
    e = FuzzyElement(q, {la: complex(*rng.normal(size=2)) for la in all_labels(q)})
    norm = math.sqrt(sum(abs(c) ** 2 for c in e.coeffs.values()))
    for a in (1, 2, 3, 4, 5, "+", "-"):
        assert label_action(a, e).max_abs_diff(reference_label_action(a, e)) < 1e-14 * norm, a


@pytest.mark.parametrize("a", [0, 6, "x", None])
def test_label_action_rejects_unknown_label(a):
    for e in (FuzzyElement(2, {}), FuzzyElement(2, {HarmonicLabel(3, 1, 0): 1.0})):
        with pytest.raises(ValueError):
            label_action(a, e)


def test_eta_embed_then_truncate():
    e = random_element(2, n_terms=8)
    up = eta(e, 4)
    assert up.q == 4
    down = eta(up, 2)
    assert e.max_abs_diff(down) < 1e-15


def test_eta_truncation_drops_high_superspin():
    e = FuzzyElement(
        3,
        {
            HarmonicLabel(0, 0, 0): 1.0,
            HarmonicLabel(5, 1, 4): 2.0,
        },
    )
    down = eta(e, 1)
    assert down.get(HarmonicLabel(0, 0, 0)) == 1.0
    assert all(la.two_j <= 2 for la in down.coeffs)
    assert down.get(HarmonicLabel(5, 1, 4)) == 0.0


def test_eta_composition_collapses():
    e = random_element(3, n_terms=10)
    assert eta(eta(e, 2), 1).max_abs_diff(eta(e, 1)) < 1e-15


# ---------------------------------------------------------------- products


def test_fuzzy_product_matches_matrix_product():
    q = 2
    s = FuzzySuperSphere(q)
    e1, e2 = random_element(q), random_element(q)
    p = fuzzy_product(e1, e2, s)
    assert (s.reconstruct(p) - s.reconstruct(e1) @ s.reconstruct(e2)).norm() < 1e-11


def test_fuzzy_product_associative():
    q = 2
    s = FuzzySuperSphere(q)
    e1, e2, e3 = (random_element(q, 5) for _ in range(3))
    lhs = fuzzy_product(fuzzy_product(e1, e2, s), e3, s)
    rhs = fuzzy_product(e1, fuzzy_product(e2, e3, s), s)
    assert lhs.max_abs_diff(rhs) < 1e-10


def test_structure_constant_cutoff_guard():
    with pytest.raises(ValueError):
        structure_constant_fuzzy(2, 3, 2)


def test_structure_constant_rejects_sphere_at_other_level():
    with pytest.raises(ValueError):
        structure_constant_fuzzy(3, 1, 1, FuzzySuperSphere(2))


def test_structure_constant_residual_small():
    s = FuzzySuperSphere(3)
    for two_j1, two_j2 in ((0, 2), (1, 1), (1, 2), (2, 2), (3, 3)):
        sc = structure_constant_fuzzy(3, two_j1, two_j2, s)
        assert sc.residual < 1e-12


def test_structure_constants_converge_monotonically():
    tol_vacuous = 1e-13
    classical = {}
    for two_j1 in range(0, 4):
        for two_j2 in range(two_j1, 4):
            if two_j1 + two_j2 > 6:
                continue
            classical[(two_j1, two_j2)] = structure_constant_classical(two_j1, two_j2)[0]
    for (two_j1, two_j2), c_cl in classical.items():
        deltas = []
        for q in (10, 20, 40):
            c_q = structure_constant_fuzzy(q, two_j1, two_j2).c
            deltas.append(abs(c_q - c_cl))
        if max(deltas) < tol_vacuous:
            continue  # exact at every level (identity factor)
        assert deltas[2] < deltas[1] < deltas[0], (two_j1, two_j2, deltas)


# ---------------------------------------------------------------- the lazy irrep


@pytest.mark.parametrize("q", range(1, 13))
def test_dims_and_block_starts_follow_from_q(q):
    s, rep = FuzzySuperSphere(q), build_irrep(q, ODD)
    assert s.dims == rep.dims and s.n == rep.dims.total
    # highest_weight writes the even l = (q-1)/2 block from row 0, the odd l = q/2 from row q
    assert rep.index[(q - 1, q - 1)] == 0 and rep.index[(q, q)] == q
    s.highest_weight(2 * q)
    assert "rep" not in vars(s)


def test_structure_constant_builds_no_irrep(monkeypatch):
    built = []
    real = fuzzy_module.build_irrep
    monkeypatch.setattr(fuzzy_module, "build_irrep", lambda *args: built.append(args) or real(*args))
    c = structure_constant_fuzzy(60, 1, 2).c
    assert built == []
    s = FuzzySuperSphere(60)
    assert s.rep is s.rep and built == [(60, ODD)]
    assert structure_constant_fuzzy(60, 1, 2, s).c == c


def test_lazy_irrep_serves_generators_table_and_contexts():
    q = 3
    s, rep = FuzzySuperSphere(q), build_irrep(q, ODD)
    for a in (1, 2, 3, 4, 5, "+", "-"):
        assert np.array_equal(s.generator(a).mat, rep.matrix(a).mat), a
    assert s.casimir_residual() < 1e-12
    fresh = FuzzySuperSphere(q)
    f = random_graded_matrix(fresh.dims, RNG)
    assert (fresh.reconstruct(fresh.decompose(f)) - f).norm() < 1e-12 * f.norm()
    ctx = super_context(2)
    assert ctx.dims == FuzzySuperSphere(2).dims
    assert ctx.sphere.basis.parities == build_osp_basis().parities
    for a, g in zip(ctx.labels, ctx.generators):
        assert np.array_equal(g.mat, build_irrep(2, ODD).matrix(a).mat), a


# ---------------------------------------------------------------- body


def test_body_label_image_values():
    lab, w = body_label_image(HarmonicLabel(2, 0, 2))
    assert lab == SphereLabel(2, 2) and w == pytest.approx(1 / math.sqrt(3))
    lab, w = body_label_image(HarmonicLabel(3, 1, 2))
    assert lab == SphereLabel(2, 2) and w == pytest.approx(-1 / math.sqrt(3))
    assert body_label_image(HarmonicLabel(1, 0, 1)) is None
    assert body_label_image(HarmonicLabel(2, 1, 1)) is None


def test_body_map_on_coordinates():
    q = 3
    s = FuzzySuperSphere(q)
    b = FuzzySphere(q)
    sup = s.coordinates()
    bod = b.coordinates()
    for k in range(3):
        assert np.linalg.norm(body_map_fuzzy(sup[k], s, b) - bod[k]) < 1e-12
    for k in (3, 4):
        assert np.linalg.norm(body_map_fuzzy(sup[k], s, b)) < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_body_kernel_dimension(q):
    s = FuzzySuperSphere(q)
    b = FuzzySphere(q)
    mat = body_map_matrix(s, b)
    assert mat.shape == ((q + 1) ** 2, (2 * q + 1) ** 2)
    rank = numerical_rank(mat)
    assert rank == (q + 1) ** 2
    assert mat.shape[1] - rank == (2 * q + 1) ** 2 - (q + 1) ** 2
    # the weight blocks are the dense matrix's rows and columns of each weight
    rows = {la: i for i, la in enumerate(b.labels())}
    cols = {la: i for i, la in enumerate(s.labels())}
    blocks = body_map_blocks(s, b)
    assert sorted(blocks) == sorted(s._table.labels)
    for two_m, block in blocks.items():
        r = [rows[la] for la in b._table.labels.get(two_m, ())]
        c = [cols[la] for la in s._table.labels[two_m]]
        assert np.array_equal(block, mat[np.ix_(r, c)]), two_m
    assert sum(np.count_nonzero(block) for block in blocks.values()) == np.count_nonzero(mat)


@pytest.mark.parametrize("q", range(1, 9))
def test_body_map_matches_the_decompose_composition(q):
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    rng = np.random.default_rng(q)
    inputs = list(s.coordinates()) + [random_graded_matrix(s.dims, rng) for _ in range(3)]
    for f in inputs:
        want = reference_body_map(f, s, b)
        got = body_map_fuzzy(f, s, b)
        assert np.linalg.norm(got - want) <= 1e-14 * f.norm()


def test_body_map_and_body_decompose_reject_other_sizes():
    s, b = FuzzySuperSphere(3), FuzzySphere(3)
    with pytest.raises(ValueError):
        body_map_fuzzy(FuzzySuperSphere(4).coordinates()[2], s, b)
    with pytest.raises(ValueError):
        b.decompose(np.eye(b.n + 1))


def test_body_map_equivariance():
    q = 2
    s = FuzzySuperSphere(q)
    b = FuzzySphere(q)
    for _ in range(4):
        f = random_graded_matrix(s.dims, RNG)
        for a in (1, 2, 3):
            lhs = body_map_fuzzy(s.adjoint_action(a, f), s, b)
            rhs = b.adjoint_action(a, body_map_fuzzy(f, s, b))
            assert np.linalg.norm(lhs - rhs) < 1e-12


def test_body_sphere_gram():
    b = FuzzySphere(3)
    mats = [(la, b.harmonic(la)) for la in b.labels()]
    for i, (la, ya) in enumerate(mats):
        for lb, yb in mats[i:]:
            got = hs_inner(ya, yb)
            assert abs(got - (1.0 if la == lb else 0.0)) < 1e-12


def test_body_decompose_round_trip():
    b = FuzzySphere(2)
    coeffs = {SphereLabel(2, 0): 1.5, SphereLabel(4, -2): 2j}
    m = b.reconstruct(coeffs)
    back = b.decompose(m)
    for la, v in coeffs.items():
        assert back[la] == pytest.approx(v)


def test_body_reconstruct_rejects_label_beyond_level():
    b = FuzzySphere(2)
    with pytest.raises(ValueError):
        b.reconstruct({SphereLabel(20, 0): 1.0})
    with pytest.raises(ValueError):
        b.harmonic(SphereLabel(1, 1))  # half-integer spin is not in the body basis
