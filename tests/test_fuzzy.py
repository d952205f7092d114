import bisect
import dataclasses
import math
import tracemalloc
import types

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
    eta,
    fuzzy_product,
    label_action,
    structure_constant_fuzzy,
)
from fuzzsuper.graded import (
    ODD,
    GradedDims,
    GradedMatrix,
    entry_weights,
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
import test_graded
from test_graded import reference_restricted_adjoint  # the broadcast reference of the stencil

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
            ad = reference_restricted_adjoint(jm, (r, c), divmod(table.flat[two_m + 2], table.n))
            step = ((two_l(la) + two_m + 2) // 2) * ((two_l(la) - two_m) // 2)
            h[:, k] = ad @ cols[two_m + 2][:, table.where[above]] / math.sqrt(step)
        w, s = table.pair[two_m], table.signs[two_m]
        neg_l = np.array([-two_l(la) for la in labels])
        k0 = sum(two_l(la) > two_m for la in labels)
        for k, j in enumerate(np.searchsorted(neg_l, neg_l[:k0])):  # j columns of larger l
            h[:, k] -= h[:, :j] @ (s[:j] * (h[:, :j].conj().T @ (w * h[:, k])))
        cols[two_m] = h
    return cols


def reference_chain_top(s, label):
    """A super chain top as a dense matrix: the highest weight, and for mu = 1 one commutator with J_5."""
    top = s.highest_weight(label.two_j)
    if label.mu == 1:
        top = (2.0 / math.sqrt(label.two_j)) * s.adjoint_action(5, top)
    return top.mat


def reference_weight_table(j3, jm, pair, chains, top, dtype=float):
    """The weight-table sweep on dense operators: the reference for _WeightTable.

    One np.nonzero over all entries per weight, each step block from
    reference_restricted_adjoint (a broadcast over all target x source
    pairs), and each chain top read from its own dense matrix top(label).
    The sweep runs in dtype: float64, on the real parts of the step blocks
    and tops, as the table does, or complex, which keeps the imaginary parts
    (all exactly zero).  Returns
    the table's flat, rows, labels, pair, signs and where.
    """
    real = np.dtype(dtype) == float
    cast = (lambda a: np.ascontiguousarray(a.real)) if real else (lambda a: a)
    diff = entry_weights(j3)
    chains = sorted(chains, key=lambda ch: -ch[0][0].two_m)
    by_parity = {p: [ch for ch in chains if ch[0][0].two_m % 2 == p] for p in (0, 1)}
    neg_tops = {p: [-ch[0][0].two_m for ch in live] for p, live in by_parity.items()}
    n = len(diff)
    out = types.SimpleNamespace(flat={}, rows={}, labels={}, pair={}, signs={}, where={})
    above = {}
    for two_m in np.unique(diff)[::-1].tolist():
        p = two_m % 2
        live = by_parity[p][: bisect.bisect_right(neg_tops[p], -abs(two_m))]
        tops = [labels[0] for labels, _ in live]
        r, c = np.nonzero(diff == two_m)
        w, s = pair[r, c], np.array([sign for _, sign in live], dtype=float)
        h = np.empty((len(r), len(live)), dtype=dtype)
        k0 = bisect.bisect_left(neg_tops[p], -two_m, 0, len(live))
        if k0:
            entries, cols = above[p]
            ad = cast(reference_restricted_adjoint(jm, (r, c), entries))
            two_l = np.array([la.two_m for la in tops[:k0]])
            step = (two_l + two_m + 2) // 2 * ((two_l - two_m) // 2)
            steps = ad @ cols[:, :k0] / np.sqrt(step)
            g = s[:k0, None] * (steps.conj().T @ (w[:, None] * steps))
            g[two_l[:, None] <= two_l] = 0
            h[:, :k0] = steps - steps @ g
        for k in range(k0, len(live)):
            h[:, k] = cast(top(tops[k])[r, c])
        above[p] = (r, c), h
        out.flat[two_m] = r * n + c
        out.rows[two_m] = np.ascontiguousarray(h.T)
        out.labels[two_m] = tuple(labels[(labels[0].two_m - two_m) // 2] for labels, _ in live)
        out.pair[two_m], out.signs[two_m] = w, s
        out.where.update((label, k) for k, label in enumerate(out.labels[two_m]))
    return out


def reference_super_table(s, dtype=float):
    pair = np.ones((s.n, s.n))
    pair[: s.dims.even, : s.dims.even] = -1.0
    chains = [(labels, labels[0].sign) for labels in fuzzy_module._chains(s.labels(), lambda la: (la.two_j, la.mu))]
    return reference_weight_table(s.rep.j3.mat, s.rep.jm, pair, chains, lambda la: reference_chain_top(s, la), dtype)


def reference_body_table(b, dtype=float):
    pair = np.full((b.n, b.n), 1.0 / b.n)
    chains = [(labels, 1) for labels in fuzzy_module._chains(b.labels(), lambda la: la.two_j)]
    return reference_weight_table(
        b.rep.j3.mat, b.rep.jm, pair, chains, lambda la: b.highest_weight(la.two_j // 2), dtype
    )


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
    return norm * np.linalg.matrix_power(b.rep.matrix("+").mat, j)


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


def test_elements_reject_a_bad_level():
    e = random_element(2)
    for q in (2.5, 0, -3, math.nan, "2"):
        with pytest.raises(ValueError, match="level q must be a positive integer"):
            FuzzyElement(q, {})
        with pytest.raises(ValueError, match="level q must be a positive integer"):
            eta(e, q)
    with pytest.raises(ValueError, match="level q must be a positive integer"):
        FuzzyElement.from_json(dict(e.to_json(), q=2.5))  # not truncated to 2
    for q in (np.int64(3), 3.0):
        assert type(FuzzyElement(q, {}).q) is int and type(eta(e, q).q) is int


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("bad", [2.5, 0.9, "2", None, math.nan, math.inf])
def test_element_json_rejects_a_non_integral_label_entry(slot, bad):
    # not truncated: [2.5, 0, 2.9] would otherwise load as the label (2, 0, 2)
    entry = [2, 0, 2, 1.0, 0.0]
    entry[slot] = bad
    with pytest.raises(ValueError, match="label entries must be integers"):
        FuzzyElement.from_json({"q": 2, "coeffs": [entry]})


def test_element_json_takes_integral_label_entries():
    data = {"q": 2, "coeffs": [[2.0, np.int64(0), -2, 1.0, 0.5]]}
    assert FuzzyElement.from_json(data).coeffs == {HarmonicLabel(2, 0, -2): 1 + 0.5j}


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
    for sphere in [cls(q) for q in (1, 3, 8) for cls in (FuzzySuperSphere, FuzzySphere)]:
        table = sphere._table
        entries = 0
        for two_m, rows in table.rows.items():
            cols = table.cols[two_m]
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert np.shares_memory(cols, rows) and np.array_equal(cols, rows.T)
            assert rows.shape == (len(table.labels[two_m]), len(table.flat[two_m]))
            entries += rows.size
        # one float64 per stored entry
        assert sum(rows.nbytes for rows in table.rows.values()) == 8 * entries


@pytest.mark.parametrize("q", [1, 2, 5])
def test_harmonic_imaginary_parts_are_positive_zero(q):
    # the real row goes into the real parts of a fresh complex matrix; the
    # imaginary parts stay the +0.0 of np.zeros, byte for byte
    for sphere in (FuzzySuperSphere(q), FuzzySphere(q)):
        for la in sphere.labels():
            y = getattr(sphere.harmonic(la), "mat", sphere.harmonic(la))
            assert y.dtype == complex and y.imag.tobytes() == bytes(8 * y.size), la


@pytest.mark.parametrize("q", [*range(1, 13), 24, 32])
def test_real_table_is_near_the_complex_sweep(q):
    # the float64 sweep against the same sweep in complex arithmetic, whose
    # imaginary parts are exactly zero: the two differ only in rounding, at
    # most 2.1e-15 of the largest entry at q = 32 when measured
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    for table, want in ((s._table, reference_super_table(s, complex)), (b._table, reference_body_table(b, complex))):
        assert all(not want.rows[m].imag.any() for m in want.rows)
        scale = max(np.abs(rows).max() for rows in want.rows.values())
        worst = max(np.abs(table.rows[m] - want.rows[m].real).max() for m in want.rows)
        assert worst <= 4e-15 * scale


def test_super_table_build_peak_memory():
    # real rows and real sweep products: 16.3 MB traced at q = 64, where the
    # complex table took 27.8 MB
    s = FuzzySuperSphere(64)
    s.rep  # the irrep is built first, outside the trace
    tracemalloc.start()
    try:
        s._table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21e6


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
            y = GradedMatrix(s.dims, reference_chain_top(s, label))
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
    cases = [
        (s._table, s.rep.jm, lambda la: reference_chain_top(s, la), lambda la: la.two_l),
        (b._table, b.rep.jm, lambda la: b.highest_weight(la.two_j // 2), lambda la: la.two_j),
    ]
    for table, jm, top, two_l in cases:
        want = reference_sequential_cols(table, jm, top, two_l)
        for two_m, h in table.cols.items():
            assert np.abs(h - want[two_m]).max() <= 1e-14, two_m


@pytest.mark.parametrize("q", [*range(1, 13), 24, 32])
def test_table_matches_the_dense_reference_sweep(q):
    # entry buckets, scattered J_- blocks and one-commutator tops: bit for bit the dense float64 sweep
    s, b = FuzzySuperSphere(q), FuzzySphere(q)
    for table, want in ((s._table, reference_super_table(s)), (b._table, reference_body_table(b))):
        assert list(table.rows) == list(want.rows)
        for two_m in want.rows:
            for name in ("rows", "flat", "pair", "signs"):
                assert np.array_equal(getattr(table, name)[two_m], getattr(want, name)[two_m]), (name, two_m)
        assert table.labels == want.labels
        assert table.where == want.where


def test_a_table_build_takes_one_commutator_and_no_dense_adjoint(monkeypatch):
    s, b = FuzzySuperSphere(5), FuzzySphere(5)
    s.rep  # the irrep is built first, outside the count
    calls = {"graded_commutator": 0, "restricted_adjoint": 0, "reference": 0}

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(fuzzy_module, "graded_commutator", spy("graded_commutator", fuzzy_module.graded_commutator))
    monkeypatch.setattr(fuzzy_module, "restricted_adjoint", spy("restricted_adjoint", restricted_adjoint))
    # the broadcast over target x source pairs exists only as the tests' reference
    monkeypatch.setattr(test_graded, "reference_restricted_adjoint", spy("reference", reference_restricted_adjoint))
    # one stencil per weight that takes steps, all but the top weight of each parity: 4q - 1 super, 2q body
    s._table
    assert calls == {"graded_commutator": 1, "restricted_adjoint": 4 * 5 - 1, "reference": 0}
    b._table
    assert calls == {"graded_commutator": 1, "restricted_adjoint": 4 * 5 - 1 + 2 * 5, "reference": 0}


def test_weight_table_rejects_a_lowering_operator_off_the_ladder():
    # a second nonzero in a row or a column of J_- sits off weight -2, as does every nonzero of J_+
    b = FuzzySphere(3)
    pair = np.full((b.n, b.n), 1.0 / b.n)
    chains = [(labels, 1, b.highest_weight(0), 1.0) for labels in fuzzy_module._chains(b.labels(), lambda la: la.two_j)]
    two_in_a_row, two_in_a_column = b.rep.jm.mat.copy(), b.rep.jm.mat.copy()
    two_in_a_row[1, 2] = 1.0  # row 1 holds J_-[1, 0] already
    two_in_a_column[2, 0] = 1.0  # column 0 holds J_-[1, 0] already
    dims = GradedDims(b.n, 0)
    for bad in (GradedMatrix(dims, two_in_a_row), GradedMatrix(dims, two_in_a_column), b.rep.jp):
        with pytest.raises(ValueError, match="lower the weight by one"):
            fuzzy_module._WeightTable(b.rep.j3, bad, pair, chains)


def test_weight_table_rejects_an_imaginary_part():
    # the sweep takes real parts, so a nonzero imaginary part of J_-, the
    # pairing or a chain top would be dropped unseen; a zero one is no harm
    b = FuzzySphere(3)
    pair = np.full((b.n, b.n), 1.0 / b.n)
    tops = np.zeros((b.n, b.n), dtype=complex)
    for j in range(b.q + 1):
        b._write_highest_weight(tops, j)
    chains = [(labels, 1, tops, 1.0) for labels in fuzzy_module._chains(b.labels(), lambda la: la.two_j)]
    want = fuzzy_module._WeightTable(b.rep.j3, b.rep.jm, pair, chains)
    dims = GradedDims(b.n, 0)
    same = fuzzy_module._WeightTable(b.rep.j3, GradedMatrix(dims, b.rep.jm.mat), pair.astype(complex), chains)
    assert all(np.array_equal(same.rows[m], want.rows[m]) for m in want.rows)
    complex_jm = GradedMatrix(dims, b.rep.jm.mat * np.exp(0.25j))
    with pytest.raises(ValueError, match="lowering operator must be real"):
        fuzzy_module._WeightTable(b.rep.j3, complex_jm, pair, chains)
    with pytest.raises(ValueError, match="pairing must be real"):
        fuzzy_module._WeightTable(b.rep.j3, b.rep.jm, pair + 1e-300j, chains)
    imaginary_top = tops.copy()
    imaginary_top[0, b.q] = 1j  # the (j = q, m = q) top
    chains = [(labels, 1, imaginary_top, 1.0) for labels, *_ in chains]
    with pytest.raises(ValueError, match="chain top must be real"):
        fuzzy_module._WeightTable(b.rep.j3, b.rep.jm, pair, chains)


@pytest.mark.parametrize("q", range(1, 7))
def test_body_generators_are_read_only(q):
    # a write into a generator would move the sphere it belongs to
    b = FuzzySphere(q)
    before = b.casimir_residual()
    assert before <= 1e-12
    for a in (1, 2, 3, "+", "-"):
        g = b.rep.matrix(a).mat
        assert not g.flags.writeable, a
        with pytest.raises(ValueError, match="read-only"):
            g *= 2
    assert b.casimir_residual() == before


@pytest.mark.parametrize("q", range(1, 9))
def test_j3_weight_buckets_are_the_entries_of_each_weight(q):
    for j3 in (FuzzySuperSphere(q).rep.j3, FuzzySphere(q).rep.j3):
        buckets = j3.weight_buckets
        assert j3.weight_buckets is buckets
        two_m = entry_weights(j3.mat)
        assert list(buckets) == np.unique(two_m).tolist()
        for w, entries in buckets.items():
            want = np.nonzero(two_m == w)
            assert [(a.dtype.str, a.tobytes()) for a in entries] == [(a.dtype.str, a.tobytes()) for a in want], w
            for index in entries:
                assert not index.flags.writeable
                with pytest.raises(ValueError):
                    index[0] = 0
        with pytest.raises(TypeError):
            buckets[0] = ()


def test_j3_buckets_are_shared_by_the_table_and_the_super_context():
    ctx = super_context(3)
    sphere = ctx.sphere
    assert ctx.generators[2] is sphere.rep.j3
    flat = {w: rows * sphere.n + cols for w, (rows, cols) in sphere.rep.j3.weight_buckets.items()}
    assert flat.keys() == sphere._table.flat.keys()
    assert all(np.array_equal(flat[w], sphere._table.flat[w]) for w in flat)


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
    if make in (super_context, body_context):
        # no derivation reads a radius, so a context takes none
        with pytest.raises(TypeError):
            make(2, 2.5)
    else:
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


def test_structure_constant_residual_small():
    for two_j1, two_j2 in ((0, 2), (1, 1), (1, 2), (2, 2), (3, 3)):
        sc = structure_constant_fuzzy(3, two_j1, two_j2)
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



# ------------------------------------------- gathered structure constants


def reference_structure_constant(q, two_j1, two_j2):
    """The dense route: three highest-weight matrices, one product, one indefinite_inner.

    Returns c, the residual and the Frobenius norm of the summed top.
    """
    s = FuzzySuperSphere(q)
    y1, y2, y12 = (s.highest_weight(two_j) for two_j in (two_j1, two_j2, two_j1 + two_j2))
    prod = y1 @ y2
    c = indefinite_inner(y12, prod)
    residual = float(np.linalg.norm(prod.mat - c.real * y12.mat))
    return c.real, max(residual, abs(c.imag)), float(np.linalg.norm(y12.mat))


@pytest.mark.parametrize("q", range(1, 41))
def test_gather_matches_the_dense_structure_constant(q):
    for two_j1 in range(7):
        for two_j2 in range(7):
            if two_j1 + two_j2 > 2 * q:
                continue
            sc = structure_constant_fuzzy(q, two_j1, two_j2)
            c, residual, norm12 = reference_structure_constant(q, two_j1, two_j2)
            bound = 1e-14 * max(abs(c), 1.0)
            assert abs(sc.c - c) <= bound, (two_j1, two_j2)
            # both residuals are ||Y1 Y2 - c Y12|| of the same product entries, so they differ
            # by at most |delta c| ||Y12||: the dense route's own rounding of c, which the
            # cancelling even and odd blocks of its inner product carry (2e-14 at q = 38)
            slack = abs(sc.c - c) * norm12
            assert abs(sc.residual - residual) <= bound + slack, (two_j1, two_j2)


def test_structure_constant_forms_no_square_array():
    q = 10**4
    n = 2 * q + 1
    tracemalloc.start()
    try:
        structure_constant_fuzzy(q, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(q): a few vectors of n + 1 entries, against 16 n^2 bytes for one complex (2q+1)^2 array
    assert peak < 64 * 8 * n


def test_the_one_over_q_coefficient_of_two_spinors():
    # The classical constant of (1/2, 1/2) is zero.  c_q = alpha/q + beta/q^2 + gamma/q^3,
    # solved from q = 10^3, 10^4, 10^5, gives alpha = -1/sqrt(2): the truncation tail is
    # O(1e-12) and the rounding of c a few eps relative, so 1e-9 has margin.
    assert structure_constant_classical(1, 1)[0] == 0.0
    qs = [10**3, 10**4, 10**5]
    x = np.array([[1.0 / q, 1.0 / q**2, 1.0 / q**3] for q in qs])
    c = np.array([structure_constant_fuzzy(q, 1, 1).c for q in qs])
    alpha = np.linalg.solve(x, c)[0]
    assert abs(alpha + 1.0 / math.sqrt(2.0)) <= 1e-9
    # every level probed gives the closed form -1/sqrt(2q(q+1)) to a few eps: the
    # Frobenius fit sums no even and odd blocks that cancel
    for q in [*range(1, 41), *qs]:
        got = structure_constant_fuzzy(q, 1, 1).c * math.sqrt(2 * q * (q + 1))
        assert abs(got + 1.0) <= 1e-15, q


def test_two_spin_one_constant_keeps_its_residual_at_rounding():
    # the indefinite pairing's rounding of c (about eps q relative) left a residual of
    # 1e-9 at q = 10^5; the Frobenius fit leaves 6e-14, and c - sqrt(2/3) keeps its 1/q^2 law
    assert structure_constant_fuzzy(10**5, 2, 2).residual <= 1e-12
    # q^2 (sqrt(2/3) - c) is 0.81641 at q = 10^4 and 0.81649 at 10^5 (0.888 with the old rounding)
    law = [(math.sqrt(2.0 / 3.0) - structure_constant_fuzzy(q, 2, 2).c) * q**2 for q in (10**4, 10**5)]
    assert abs(law[1] - law[0]) <= 1e-3


def reference_binomial_diagonal(a, b, top, count, num, den):
    """Two math.comb per entry, the same exact ratio rounded once."""
    return np.sqrt([num * math.comb(r + a, a) * math.comb(top - r, b) / den for r in range(count)])


@pytest.mark.parametrize("q", [*range(1, 13), 32, 128])
def test_binomial_recurrence_keeps_every_top_and_table_bytes(q, monkeypatch):
    def build():
        s, b = FuzzySuperSphere(q), FuzzySphere(q)
        tops = [s.highest_weight(two_j).mat.tobytes() for two_j in range(2 * q + 1)]
        tops += [b.highest_weight(j).tobytes() for j in range(q + 1)]
        tables = [rows.tobytes() for t in (s._table, b._table) for rows in t.rows.values()]
        return tops, tables

    got = build()
    monkeypatch.setattr(fuzzy_module, "_binomial_diagonal", reference_binomial_diagonal)
    assert build() == got


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
    assert structure_constant_fuzzy(60, 1, 2).c == c and built == [(60, ODD)]


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
    assert ctx.parities == build_osp_basis().parities
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


def reference_body_map_matrix(sphere, body):
    """The body map as one dense matrix from super coefficients to body coefficients.

    O(q^4) entries, almost all zero; body_map_blocks holds the same map by
    weight, and this is its reference.
    """
    rows = {label: i for i, label in enumerate(body.labels())}
    cols = sphere.labels()
    out = np.zeros((len(rows), len(cols)))
    for jcol, label in enumerate(cols):
        image = body_label_image(label)
        if image is None:
            continue
        target, w = image
        out[rows[target], jcol] = w
    return out


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_body_kernel_dimension(q):
    s = FuzzySuperSphere(q)
    b = FuzzySphere(q)
    mat = reference_body_map_matrix(s, b)
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
