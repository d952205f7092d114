import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fuzzsuper.calculus import (
    EXPECTED_BETTI_BODY,
    EXPECTED_BETTI_SUPER,
    DerivationContext,
    Plan,
    SuperForm,
    body_cochain_map,
    body_context,
    center_cohomology_dims,
    center_d_matrix,
    cohomology_dims,
    d_matrix,
    eta_forms,
    exterior_d,
    form_to_vec,
    form_weights,
    interior,
    invariant_one_forms,
    lambda_form,
    lie_derivative,
    lie_matrix,
    maurer_cartan,
    random_superform,
    super_context,
    vec_to_form,
    wedge,
)
from fuzzsuper.calculus import _betti_report, _ladder_frame, _layout
from fuzzsuper.cli import main as cli_main
from fuzzsuper.graded import (
    GradedDims,
    GradedMatrix,
    commutation_factor,
    entry_weights,
    graded_commutator,
    perm_sign,
    random_graded_matrix,
    rank_decision,
    restricted_adjoint,
)
from fuzzsuper.osp import OspBasis, build_osp_basis, jacobi_residual
import fuzzsuper.calculus as calculus_module
from test_graded import nonzero_blocks, reference_restricted_adjoint  # the pattern-block and broadcast references

CTX = super_context(1)
BCTX = body_context(1)
BASIS = build_osp_basis()
RNG = np.random.default_rng(31)


def par(a):
    return CTX.label_parity(a)


def bracket_terms(a, b, w, op):
    out = SuperForm.zero_form(w.ctx, op(1, w).p)
    for ci, coef in enumerate(BASIS.bracket_coeffs(a, b)):
        if coef != 0:
            out = out + complex(coef) * op(ci + 1, w)
    return out


# ---------------------------------------------------------------- shapes


def test_tuple_counts_super():
    # strictly increasing even labels, repeatable odd labels
    want = [1, 5, 12, 20, 28, 36, 44, 52]
    got = [len(CTX.index_tuples(p)) for p in range(8)]
    assert got == want


def test_tuple_counts_body():
    assert [len(BCTX.index_tuples(p)) for p in range(5)] == [1, 3, 3, 1, 0]


def test_sort_signed():
    assert CTX.sort_signed((1, 2)) == ((1, 2), 1)
    assert CTX.sort_signed((2, 1)) == ((1, 2), -1)
    assert CTX.sort_signed((5, 4)) == ((4, 5), 1)  # odd-odd swap is free
    assert CTX.sort_signed((4, 1)) == ((1, 4), -1)
    assert CTX.sort_signed((2, 2)) == (None, 0)  # repeated even kills the value
    assert CTX.sort_signed((4, 4)) == ((4, 4), 1)  # repeated odd is fine


def reference_sort_signed(ctx, t):
    """Canonical form and reordering sign of t by bubble sort: the reference for sort_signed.

    Each adjacent transposition contributes the permutation sign, and one
    more sign when both entries are odd; a repeated even label kills the
    form value, (None, 0).
    """
    arr = list(t)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            # two odd slots commute at no cost
            if not (ctx.label_parity(arr[j - 1]) and ctx.label_parity(arr[j])):
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1] == arr[i] and not ctx.label_parity(arr[i]):
            return None, 0
    return tuple(arr), sign


@pytest.mark.parametrize("kind", ["super", "body", "ladder", "body-ladder"])
def test_sort_signed_equals_the_bubble_sort(kind):
    # every tuple of length <= 4 over labels 1..5, repeats included; on the
    # body, a tuple with label 4 or 5 names an unknown label
    ctx = plan_contexts(1)[kind]
    for k in range(5):
        for t in itertools.product(range(1, 6), repeat=k):
            if set(t) <= set(ctx.labels):
                assert ctx.sort_signed(t) == reference_sort_signed(ctx, t), t
            else:
                with pytest.raises(ValueError, match="unknown label"):
                    ctx.sort_signed(t)


def test_evaluate_respects_antisymmetry():
    w = random_superform(CTX, 2, RNG)
    for a, b in itertools.product(CTX.labels, CTX.labels):
        sign = 1.0 if (par(a) and par(b)) else -1.0
        lhs = w.evaluate((b, a))
        rhs = sign * w.evaluate((a, b))
        assert (lhs - rhs).norm() < 1e-12


def test_lambda_duality():
    for a in CTX.labels:
        lam = lambda_form(CTX, a)
        for b in CTX.labels:
            v = lam.evaluate((b,))
            want = 1.0 if a == b else 0.0
            assert (v - CTX.unit * want).norm() < 1e-14


# ---------------------------------------------------------------- storage


def test_superform_rejects_foreign_keys_and_dims():
    unit = GradedMatrix.identity(CTX.dims)
    for key in [(2, 1), (9, 9), (1, 1), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            SuperForm(CTX, 2, {key: unit})
    for dims in (BCTX.dims, GradedDims(CTX.n, 0)):
        with pytest.raises(ValueError):
            SuperForm(CTX, 2, {(1, 2): GradedMatrix.identity(dims)})


def test_superform_stack_is_a_frozen_copy():
    w = random_superform(CTX, 2, RNG)
    with pytest.raises(ValueError):
        w.stack[0, 0, 0] = 1.0
    vec = np.array(form_to_vec(w))
    vals = {t: w.evaluate(t) for t in CTX.index_tuples(2)}
    forms = [vec_to_form(CTX, 2, vec), SuperForm(CTX, 2, vals)]
    vec[:] = 0.0
    vals[(1, 2)] = GradedMatrix.zero(CTX.dims)
    for f in forms:
        assert np.array_equal(f.stack, w.stack)


@pytest.mark.parametrize(
    "ctx, p",
    [(CTX, p) for p in range(4)] + [(BCTX, p) for p in range(5)],
    ids=[f"super-p{p}" for p in range(4)] + [f"body-p{p}" for p in range(5)],
)
def test_stack_layout(ctx, p):
    shape = (len(ctx.index_tuples(p)), ctx.n, ctx.n)
    zero = SuperForm.zero_form(ctx, p)
    assert zero.stack.shape == shape and not zero.stack.any()
    v = RNG.standard_normal(math.prod(shape)) + 1j * RNG.standard_normal(math.prod(shape))
    assert np.array_equal(form_to_vec(vec_to_form(ctx, p, v)), v)


def test_body_top_degree_is_empty():
    bctx = body_context(2)
    empty = (0, bctx.n, bctx.n)
    top = [exterior_d(random_superform(bctx, 3, RNG))]
    top.append(wedge(random_superform(bctx, 2, RNG), random_superform(bctx, 2, RNG)))
    for w in top:
        assert w.p == 4 and w.stack.shape == empty and w.norm() == 0.0
    assert interior(1, top[0]).norm() == 0.0
    assert d_matrix(bctx, 3).shape == (0, 9)


def test_norm_is_the_largest_value_norm():
    for ctx, p in ((CTX, 0), (CTX, 2), (body_context(2), 1)):
        w = random_superform(ctx, p, RNG)
        want = max(np.linalg.norm(v) for v in w.stack)  # per-value reference
        assert abs(w.norm() - want) <= 1e-14 * want
    empty = SuperForm.zero_form(body_context(2), 4)
    assert empty.stack.size == 0 and type(empty.norm()) is float and empty.norm() == 0.0


# ---------------------------------------------------------------- d


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_d_squared_zero(p):
    for parity in (0, 1, None):
        w = random_superform(CTX, p, RNG, parity)
        assert exterior_d(exterior_d(w)).norm() < 1e-10


def test_structure_equation_for_duals():
    # d lambda^A = 1/2 sum_{B,C} c^A_{BC} lambda^C wedge lambda^B
    c = BASIS.constants
    for ai, a in enumerate(CTX.labels):
        lhs = exterior_d(lambda_form(CTX, a))
        rhs = SuperForm.zero_form(CTX, 2)
        for bi, b in enumerate(CTX.labels):
            for ci_, cc in enumerate(CTX.labels):
                coef = c[ai, bi, ci_]
                if coef != 0:
                    rhs = rhs + 0.5 * complex(coef) * wedge(
                        lambda_form(CTX, cc), lambda_form(CTX, b)
                    )
        assert (lhs - rhs).norm() < 1e-12


def test_d_on_scalars_is_commutator_with_generators():
    # (df)(D_a) = (-1)^{|a||f|} [E_a, f]: the derivation slides past f
    from fuzzsuper.graded import graded_commutator

    for pf in (0, 1):
        f = random_graded_matrix(CTX.dims, RNG, parity=pf)
        dw = exterior_d(SuperForm.from_scalar(CTX, f))
        for ai, a in enumerate(CTX.labels):
            sign = (-1.0) ** (par(a) * pf)
            want = sign * graded_commutator(CTX.generators[ai], f)
            assert (dw.evaluate((a,)) - want).norm() < 1e-12


# ---------------------------------------------------------------- cartan


def test_magic_formula():
    for p in (0, 1, 2):
        for parity in (0, 1):
            w = random_superform(CTX, p, RNG, parity)
            dw = exterior_d(w)
            for a in CTX.labels:
                lhs = interior(a, dw)
                rhs = ((-1.0) ** (par(a) * parity)) * lie_derivative(a, w)
                if p > 0:
                    rhs = rhs - exterior_d(interior(a, w))
                assert (lhs - rhs).norm() < 1e-10


def test_interior_graded_anticommutation():
    for parity in (0, 1):
        w = random_superform(CTX, 2, RNG, parity)
        for a, b in itertools.product(CTX.labels, CTX.labels):
            k = (-1.0) ** (par(a) * par(b))
            lhs = interior(a, interior(b, w))
            rhs = interior(b, interior(a, w))
            assert (lhs + k * rhs).norm() < 1e-12


def test_lie_interior_bracket():
    # L_a iota_b - iota_b L_a = (-1)^{|a| w} iota_{[a,b]}
    for p in (1, 2):
        for parity in (0, 1):
            w = random_superform(CTX, p, RNG, parity)
            for a, b in itertools.product(CTX.labels, CTX.labels):
                lhs = lie_derivative(a, interior(b, w)) - interior(
                    b, lie_derivative(a, w)
                )
                rhs = ((-1.0) ** (par(a) * parity)) * bracket_terms(a, b, w, interior)
                assert (lhs - rhs).norm() < 1e-10


def test_lie_lie_bracket():
    # graded commutator of Lie derivatives represents the bracket
    for p in (0, 1):
        for parity in (0, 1):
            w = random_superform(CTX, p, RNG, parity)
            for a, b in itertools.product(CTX.labels, CTX.labels):
                k = (-1.0) ** (par(a) * par(b))
                lhs = lie_derivative(a, lie_derivative(b, w)) - k * lie_derivative(
                    b, lie_derivative(a, w)
                )
                rhs = bracket_terms(a, b, w, lie_derivative)
                assert (lhs - rhs).norm() < 1e-10


# ---------------------------------------------------------------- leibniz


def test_wedge_associative():
    w1 = random_superform(CTX, 1, RNG)
    w2 = random_superform(CTX, 1, RNG)
    w3 = random_superform(CTX, 1, RNG)
    lhs = wedge(wedge(w1, w2), w3)
    rhs = wedge(w1, wedge(w2, w3))
    assert (lhs - rhs).norm() < 1e-10


def test_wedge_with_scalars_is_module_action():
    f = random_graded_matrix(CTX.dims, RNG)
    w = random_superform(CTX, 2, RNG)
    fw = wedge(SuperForm.from_scalar(CTX, f), w)
    for t in CTX.index_tuples(2):
        assert (fw.evaluate(t) - f @ w.evaluate(t)).norm() < 1e-12


def test_leibniz_for_d():
    for p1, p2 in ((0, 1), (1, 1), (1, 2), (2, 1)):
        for par1, par2 in itertools.product((0, 1), (0, 1)):
            w1 = random_superform(CTX, p1, RNG, par1)
            w2 = random_superform(CTX, p2, RNG, par2)
            lhs = exterior_d(wedge(w1, w2))
            rhs = wedge(exterior_d(w1), w2) + ((-1.0) ** p1) * wedge(
                w1, exterior_d(w2)
            )
            assert (lhs - rhs).norm() < 1e-10


def test_leibniz_for_lie():
    for p1, p2 in ((0, 1), (1, 1), (1, 2)):
        for par1, par2 in itertools.product((0, 1), (0, 1)):
            w1 = random_superform(CTX, p1, RNG, par1)
            w2 = random_superform(CTX, p2, RNG, par2)
            for a in CTX.labels:
                lhs = lie_derivative(a, wedge(w1, w2))
                rhs = wedge(lie_derivative(a, w1), w2) + (
                    (-1.0) ** (par(a) * par1)
                ) * wedge(w1, lie_derivative(a, w2))
                assert (lhs - rhs).norm() < 1e-10


def test_leibniz_for_interior():
    # iota_a (w1 ^ w2) = (-1)^{|a| w2} iota_a w1 ^ w2 + (-1)^{p1} w1 ^ iota_a w2
    for p1, p2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for par1, par2 in itertools.product((0, 1), (0, 1)):
            w1 = random_superform(CTX, p1, RNG, par1)
            w2 = random_superform(CTX, p2, RNG, par2)
            for a in CTX.labels:
                lhs = interior(a, wedge(w1, w2))
                rhs = ((-1.0) ** (par(a) * par2)) * wedge(interior(a, w1), w2) + (
                    (-1.0) ** p1
                ) * wedge(w1, interior(a, w2))
                assert (lhs - rhs).norm() < 1e-10


# ---------------------------------------------------------------- invariant form


def test_maurer_cartan_identities():
    lam = maurer_cartan(CTX)
    assert (exterior_d(lam) - wedge(lam, lam)).norm() < 1e-13
    f = SuperForm.from_scalar(CTX, random_graded_matrix(CTX.dims, RNG))
    df = exterior_d(f)
    assert (df - (wedge(lam, f) - wedge(f, lam))).norm() < 1e-12
    for a in CTX.labels:
        assert lie_derivative(a, lam).norm() < 1e-13


def test_invariant_one_form_space_is_a_line():
    dec = invariant_one_forms(CTX)
    dim = CTX.n**2 * len(CTX.index_tuples(1)) - dec.rank
    assert dim == 1
    assert not dec.inconclusive


def reference_invariant_one_forms(ctx, tol=1e-8):
    """The L_a of the original frame, complex, stacked into one rank decision."""
    return rank_decision(np.vstack([lie_matrix(ctx, a, 1) for a in ctx.labels]), tol)


@pytest.mark.parametrize("kind", ["super", "body"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_invariant_one_forms_in_the_ladder_frame_match_the_original(kind, q):
    ctx = (super_context if kind == "super" else body_context)(q)
    got, want = invariant_one_forms(ctx), reference_invariant_one_forms(ctx)
    assert got.rank == want.rank
    assert abs(got.gap - want.gap) <= 1e-12 * abs(want.gap)
    stacked = np.vstack([lie_matrix(ctx.ladder, a, 1) for a in ctx.labels])
    assert stacked.dtype == np.float64


def captured_blocks(monkeypatch, ctx):
    """The blocks invariant_one_forms hands to rank_decision, as a list, from any iterable."""
    seen = []
    real = calculus_module.rank_decision

    def spy(m, tol=1e-8):
        seen.append(m if isinstance(m, np.ndarray) else list(m))
        return real(seen[-1], tol)

    monkeypatch.setattr(calculus_module, "rank_decision", spy)
    invariant_one_forms(ctx)
    monkeypatch.setattr(calculus_module, "rank_decision", real)
    assert len(seen) == 1 and isinstance(seen[0], list)
    return seen[0]


@pytest.mark.parametrize("kind", ["super", "body"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_invariant_one_forms_blocks_are_the_weight_unions_of_the_pattern(monkeypatch, kind, q):
    ctx = (super_context if kind == "super" else body_context)(q)
    frame = ctx.ladder
    blocks = captured_blocks(monkeypatch, ctx)
    stack = np.vstack([lie_matrix(frame, a, 1) for a in frame.labels])
    # the column weight that each stack row answers to: its total weight minus weight(a)
    total = total_weights(frame, 1)
    row_weight = np.concatenate([total - frame.weights[a - 1] for a in frame.labels])
    weights = np.unique(total)
    # super: total weights -2q-2 .. 2q+2 in steps of 1; body: in steps of 2
    assert len(blocks) == len(weights) == (4 * q + 5 if kind == "super" else 2 * q + 3)
    components = nonzero_blocks(stack)
    for r, c in components:
        assert np.unique(total[c]).size == 1 and np.array_equal(np.unique(row_weight[r]), total[c[:1]])
    for w, block in zip(weights, blocks):
        mine = [(r, c) for r, c in components if total[c[0]] == w]
        rows = np.sort(np.concatenate([r for r, _ in mine]))
        cols = np.sort(np.concatenate([c for _, c in mine]))
        assert block.shape == (np.sum(row_weight == w), np.sum(total == w)), w
        kept = np.ix_(block.any(axis=1), block.any(axis=0))
        assert np.array_equal(block[kept], stack[np.ix_(rows, cols)]), w
    assert sum(np.count_nonzero(b) for b in blocks) == np.count_nonzero(stack)


def reference_weight_blocks(ctx):
    """The weight blocks gathered from whole L_a: each L_a on 1-forms assembled, then cut.

    The block of total weight w takes, from every L_a in turn, the rows of
    total weight w + weight(a) and the columns of weight w (np.ix_).
    """
    frame = ctx.ladder
    total = total_weights(frame, 1)
    weights = np.unique(total)
    pieces = {w: [] for w in weights}
    for a in frame.labels:
        lie = lie_matrix(frame, a, 1)
        for w in weights:
            pieces[w].append(lie[np.ix_(total == w + frame.weights[a - 1], total == w)])
    return [np.concatenate(pieces[w]) for w in weights]


@pytest.mark.parametrize("kind", ["super", "body"])
@pytest.mark.parametrize("q", range(1, 7))
def test_invariant_one_forms_blocks_are_the_bytes_of_the_dense_gather(monkeypatch, kind, q):
    ctx = (super_context if kind == "super" else body_context)(q)
    got, want = captured_blocks(monkeypatch, ctx), reference_weight_blocks(ctx)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype.str, g.shape, g.tobytes()) == (w.dtype.str, w.shape, w.tobytes())


def test_invariant_one_forms_allocates_no_whole_lie_matrix():
    # one L_a on 1-forms at q = 16 is 8 dim^2 bytes, 237 MB; the weight blocks sum to about
    # 26 MB, the largest is 1.0 MB, and they are ranked as they are assembled, so the peak
    # (3.0 MB) stays below four times the largest block
    ctx = super_context(16)
    dim = len(ctx.index_tuples(1)) * ctx.n**2
    tracemalloc.start()
    try:
        dec = invariant_one_forms(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.rank == dim - 1 and not dec.inconclusive
    assert peak < 2 * dim * dim
    frame = ctx.ladder
    sizes = [
        8 * _layout(frame, 1, w)[1] * sum(_layout(frame, 1, w + frame.weights[a - 1])[1] for a in frame.labels)
        for w in form_weights(frame, 1)
    ]
    assert 4 * max(sizes) < sum(sizes) / 5
    assert peak < 4 * max(sizes)


def recording_rows(join, rows):
    """join (np.vstack or np.concatenate), noting the row count of each matrix it forms."""
    def spy(arrays, *args, **kwargs):
        out = join(arrays, *args, **kwargs)
        if out.ndim == 2:
            rows.append(out.shape[0])
        return out
    return spy


def test_invariant_one_forms_stacks_no_whole_lie_matrix(monkeypatch):
    # one L_a on 1-forms is dim x dim; nothing stacked may reach dim rows
    ctx = super_context(4)
    dim = len(ctx.index_tuples(1)) * ctx.n**2
    rows = []
    for name in ("vstack", "concatenate"):
        monkeypatch.setattr(np, name, recording_rows(getattr(np, name), rows))
    dec = invariant_one_forms(ctx)
    monkeypatch.undo()
    assert dec.rank == dim - 1
    assert rows and max(rows) < dim


# ---------------------------------------------------------------- matrices


@pytest.mark.parametrize("p", [0, 1, 2])
def test_d_matrix_matches_pointwise(p):
    w = random_superform(CTX, p, RNG)
    via_matrix = vec_to_form(CTX, p + 1, d_matrix(CTX, p) @ form_to_vec(w))
    assert (via_matrix - exterior_d(w)).norm() < 1e-10


@pytest.mark.parametrize(
    "ctx, p",
    [(CTX, p) for p in range(4)] + [(BCTX, p) for p in range(2)],
    ids=[f"super-p{p}" for p in range(4)] + [f"body-p{p}" for p in range(2)],
)
def test_assembled_d_squared_zero(ctx, p):
    # the matrix path on its own: restricted adjoint blocks, twisted for odd
    # labels, and center scalars
    dd = d_matrix(ctx, p + 1) @ d_matrix(ctx, p)
    assert dd.shape[0] > 0 and np.abs(dd).max() < 1e-10
    cc = center_d_matrix(ctx, p + 1) @ center_d_matrix(ctx, p)
    assert np.abs(cc).max() < 1e-12


@pytest.mark.parametrize("p", [0, 1, 2])
def test_lie_matrix_matches_pointwise(p):
    w = random_superform(CTX, p, RNG)
    for a in CTX.labels:
        via_matrix = vec_to_form(CTX, p, lie_matrix(CTX, a, p) @ form_to_vec(w))
        assert (via_matrix - lie_derivative(a, w)).norm() < 1e-10


def test_coefficient_round_trip():
    for p in (1, 2, 3):
        w = random_superform(CTX, p, RNG)
        back = SuperForm.from_coefficients(CTX, p, w.coefficients())
        assert (back - w).norm() < 1e-12


def test_coefficient_expansion_reconstructs_by_wedge():
    # w = sum_T  c_T ^ lambda^{T_1} ^ ... ^ lambda^{T_p}
    for p in (1, 2):
        w = random_superform(CTX, p, RNG)
        total = SuperForm.zero_form(CTX, p)
        for t, coeff in w.coefficients().items():
            term = SuperForm.from_scalar(CTX, coeff)
            for a in t:
                term = wedge(term, lambda_form(CTX, a))
            total = total + term
        assert (total - w).norm() < 1e-10


# ---------------------------------------------------------------- cohomology


def test_betti_numbers_super():
    rep = cohomology_dims(CTX, 5)
    assert tuple(rep.betti) == EXPECTED_BETTI_SUPER
    assert not rep.inconclusive
    assert rep.min_gap > 1e-4


def test_betti_numbers_body():
    rep = cohomology_dims(BCTX, 3)
    assert tuple(rep.betti) == EXPECTED_BETTI_BODY
    assert not rep.inconclusive


def test_center_crosscheck_agrees():
    full = cohomology_dims(CTX, 5)
    center = center_cohomology_dims(CTX, 5)
    assert tuple(center.betti) == tuple(full.betti)
    assert not center.inconclusive


def full_report(ctx, p_max):
    """Betti numbers of the whole Cartesian complex, no frame change."""
    n2 = ctx.n * ctx.n
    dims = tuple(n2 * len(ctx.index_tuples(p)) for p in range(p_max + 1))
    return _betti_report(ctx.name, dims, lambda p: d_matrix(ctx, p), 1e-8)


def total_weights(frame, p):
    """Doubled total weight of each row of the stacked p-form vector."""
    two_m = entry_weights(frame.generators[2].mat).reshape(-1)
    rows = [two_m - sum(frame.weights[a - 1] for a in t) for t in frame.index_tuples(p)]
    return np.concatenate([np.zeros(0, dtype=int)] + rows)


CONTEXTS = {"super": (super_context, 5), "body": (body_context, 3)}


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_full_complex_agrees_with_weight_zero(kind, q):
    make, p_max = CONTEXTS[kind]
    ctx = make(q)
    full, zero = full_report(ctx, p_max), cohomology_dims(ctx, p_max)
    assert zero.name == f"{ctx.name} [weight 0]"
    assert zero.betti == full.betti
    assert not full.inconclusive and not zero.inconclusive
    assert all(z < f for z, f in zip(zero.dims, full.dims))


@pytest.mark.parametrize("kind", CONTEXTS)
def test_ladder_frame_conserves_weight(kind):
    frame = _ladder_frame(CONTEXTS[kind][0](1))
    w = frame.weights
    nonzero = np.argwhere(frame.constants != 0)
    assert len(nonzero) > 0
    for c, a, b in nonzero:
        assert w[c] == w[a] + w[b], (c + 1, a + 1, b + 1)
    assert jacobi_residual(OspBasis(frame.parities, frame.constants)) < 1e-12
    # the frame's generators close under its constants, and J_3 weighs them
    for a in frame.labels:
        ea = frame.generators[a - 1]
        assert (graded_commutator(frame.generators[2], ea) - 0.5 * w[a - 1] * ea).norm() < 1e-12
        for b in frame.labels:
            rhs = GradedMatrix.zero(frame.dims)
            for c in frame.labels:
                rhs = rhs + complex(frame.constants[c - 1, a - 1, b - 1]) * frame.generators[c - 1]
            lhs = graded_commutator(ea, frame.generators[b - 1])
            assert (lhs - rhs).norm() < 1e-12


LADDER_CASES = [("super", 1, p) for p in range(5)] + [("super", 2, p) for p in range(4)]
LADDER_CASES += [("body", q, p) for q in (1, 2) for p in range(3)]


@pytest.mark.parametrize(
    "kind, q, p", LADDER_CASES, ids=[f"{k}-q{q}-p{p}" for k, q, p in LADDER_CASES]
)
def test_ladder_d_is_unitarily_equivalent_and_weight_diagonal(kind, q, p):
    ctx = CONTEXTS[kind][0](q)
    frame = _ladder_frame(ctx)
    d_cart, d_lad = d_matrix(ctx, p), d_matrix(frame, p)
    s_cart = np.linalg.svd(d_cart, compute_uv=False)
    assert np.abs(np.linalg.svd(d_lad, compute_uv=False) - s_cart).max() < 1e-12
    rows, cols = total_weights(frame, p + 1), total_weights(frame, p)
    assert not d_lad[rows[:, None] != cols[None, :]].any()
    # so the spectrum is the union of the weight blocks' spectra
    blocks = []
    for w in np.union1d(rows, cols):
        block = d_matrix(frame, p, weight=int(w))
        assert block.shape == ((rows == w).sum(), (cols == w).sum())
        assert np.array_equal(block, d_lad[np.ix_(rows == w, cols == w)])
        if block.size:
            blocks.append(np.linalg.svd(block, compute_uv=False))
    union = np.zeros_like(s_cart)
    values = np.sort(np.concatenate(blocks))[::-1]
    union[: values.size] = values
    assert np.abs(union - s_cart).max() < 1e-12


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", [1, 2])
def test_nonzero_weight_subcomplexes_are_acyclic(kind, q):
    make, p_max = CONTEXTS[kind]
    frame = _ladder_frame(make(q))
    weights = np.unique(np.concatenate([total_weights(frame, p) for p in range(p_max + 2)]))
    assert 0 in weights and len(weights) > 1
    for w in weights[weights != 0].tolist():
        dims = tuple(_layout(frame, p, w)[1] for p in range(p_max + 1))
        rep = _betti_report(f"weight {w}", dims, lambda p: d_matrix(frame, p, weight=w), 1e-8)
        assert rep.betti == (0,) * (p_max + 1), w
        assert not rep.inconclusive, w


def kron_reference(ctx, terms, p_out, p_in):
    """The terms assembled with dense n^2 x n^2 kron operators on row-major vecs.

    [E_a, f] = E_a f - f E_a, with f grade-twisted in the right term when
    E_a is odd, is kron(E_a, 1) - kron(1, E_a^T) on vec(f); label 0 is the
    identity.
    """
    n2 = ctx.n * ctx.n
    eye, grade = np.eye(ctx.n), ctx.grade.reshape(-1)
    ops = {0: np.eye(n2)}
    for a in ctx.labels:
        e = ctx.generators[a - 1].mat
        right = np.kron(eye, e.T)
        if ctx.label_parity(a):
            right = right * grade
        ops[a] = np.kron(e, eye) - right
    dst = {t: i * n2 for i, t in enumerate(ctx.index_tuples(p_out))}
    src = {t: i * n2 for i, t in enumerate(ctx.index_tuples(p_in))}
    out = np.zeros((len(dst) * n2, len(src) * n2), dtype=complex)
    for target, source, label, twist, coef in terms:
        block = coef * ops[label]
        row, col = dst[target], src[source]
        out[row : row + n2, col : col + n2] += block * grade if twist else block
    return out


KRON_CASES = [(k, q, f) for k in CONTEXTS for q in (1, 2, 3) for f in ("cartesian", "ladder")]


@pytest.mark.parametrize(
    "kind, q, frame", KRON_CASES, ids=[f"{k}-q{q}-{f}" for k, q, f in KRON_CASES]
)
def test_assembly_matches_kron_reference(kind, q, frame):
    ctx = CONTEXTS[kind][0](q)
    if frame == "ladder":
        ctx = _ladder_frame(ctx)
    assert kind == "body" or ctx.label_parity(4) == ctx.label_parity(5) == 1
    for p in range(3):
        ref = kron_reference(ctx, ctx.d_terms(p), p + 1, p)
        assert np.array_equal(d_matrix(ctx, p), ref)
        if frame == "ladder":
            rows, cols = total_weights(ctx, p + 1), total_weights(ctx, p)
            for w in (0, 1, -1, 2, -2):
                block = d_matrix(ctx, p, weight=w)
                assert np.array_equal(block, ref[np.ix_(rows == w, cols == w)]), w
        for a in ctx.labels:
            want = kron_reference(ctx, ctx.lie_terms(a, p), p, p)
            assert np.array_equal(lie_matrix(ctx, a, p), want), a


def test_weight_needs_a_ladder_frame():
    with pytest.raises(ValueError):
        d_matrix(CTX, 0, weight=0)


@pytest.mark.parametrize("weight", [None, 0, 2])
def test_layout_is_cached_on_the_context_and_read_only(weight):
    frame = super_context(2).ladder
    for p in range(3):
        layout = _layout(frame, p, weight)
        assert _layout(frame, p, weight) is layout
        for _, _, entries in layout[0].values():
            assert all(not index.flags.writeable for index in entries)
            with pytest.raises(ValueError):
                entries[0][0] = 0
    assert _layout(frame, 1, weight) is not _layout(super_context(2).ladder, 1, weight)


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", [1, 2, 3, 8, 16])
def test_form_weights_are_the_total_weights_that_occur(kind, q):
    make, p_max = CONTEXTS[kind]
    frame = make(q).ladder
    for p in range(p_max + 1):
        assert form_weights(frame, p) == tuple(np.unique(total_weights(frame, p)).tolist()), p
    with pytest.raises(ValueError):
        form_weights(make(q), 1)


def test_form_weights_builds_no_layout():
    frame = super_context(3).ladder
    for p in range(4):
        form_weights(frame, p)
    assert frame._layouts == {}


def reference_layout(ctx, p, weight):
    """_layout by the entry-weight mask: for each tuple, np.nonzero(entry weight == key)."""
    two_m = entry_weights(ctx.generators[2].mat)
    out, offset = {}, 0
    for t in ctx.index_tuples(p):
        key = None if weight is None else weight + sum(ctx.weights[a - 1] for a in t)
        entries = np.nonzero(np.ones(two_m.shape, dtype=bool) if key is None else two_m == key)
        out[t] = (offset, key, entries)
        offset += entries[0].size
    return out, offset


def layout_bytes(layout):
    """A layout as plain values: offsets, keys, and each entry array's dtype, shape and bytes."""
    records, total = layout
    return total, [
        (t, offset, key, [(a.dtype.str, a.shape, a.tobytes()) for a in entries])
        for t, (offset, key, entries) in records.items()
    ]


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", range(1, 7))
def test_layout_is_the_bytes_of_the_mask_reference(kind, q):
    ctx = CONTEXTS[kind][0](q)
    for frame in (ctx, ctx.ladder):
        for p in range(4):
            bound = 2 * q + 2 * p + 2
            weights = [None] if frame.weights is None else [None, *range(-bound, bound + 1)]
            for weight in weights:
                got, want = layout_bytes(_layout(frame, p, weight)), layout_bytes(reference_layout(frame, p, weight))
                assert got == want, (p, weight)


# ---------------------------------------------------------------- the real ladder frame


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_restricted_adjoint_matches_the_reference_on_every_generator(kind, q):
    # every generator of both frames, between every pair of entry sets _layout keeps
    ctx = CONTEXTS[kind][0](q)
    for frame in (ctx, ctx.ladder):
        weights = [None] if frame.weights is None else [None, *range(-2 * q - 4, 2 * q + 5)]
        sets = {}
        for p in range(3):
            for weight in weights:
                for _, _, entries in _layout(frame, p, weight)[0].values():
                    sets[entries[0].tobytes() + entries[1].tobytes()] = entries
        for e in frame.generators:
            for target in sets.values():
                for source in sets.values():
                    want = reference_restricted_adjoint(e, target, source)
                    assert np.array_equal(restricted_adjoint(e, target, source), want)


def reference_assemble(ctx, terms, p_out, p_in, weight=None):
    """The terms assembled in complex arithmetic, one block and one add per term.

    Every block and coefficient stays complex whether or not the context is
    real, and no block is shared with the context's cache.
    """
    dst, n_rows = _layout(ctx, p_out, weight)
    src, n_cols = _layout(ctx, p_in, weight)
    out = np.zeros((n_rows, n_cols), dtype=complex)
    for target, source, label, twist, coef in terms:
        (row, _, rent), (col, _, cent) = dst[target], src[source]
        if label:
            block = reference_restricted_adjoint(ctx.generators[label - 1], rent, cent)
        else:
            block = np.eye(cent[0].size)
        if twist:
            block = block * ctx.grade[cent]
        h, w = block.shape
        out[row : row + h, col : col + w] += coef * block
    return out


def same_gap(got, want, rel=1e-12):
    """Gaps within rel relative; two infinite gaps count as equal."""
    return got == want or abs(got - want) <= rel * abs(want)


def same_decision(got, want):
    return got.rank == want.rank and same_gap(got.gap, want.gap)


@pytest.mark.parametrize("kind", CONTEXTS)
def test_ladder_frame_is_cached_and_real(kind):
    ctx = CONTEXTS[kind][0](1)
    frame = ctx.ladder
    assert frame is ctx.ladder and frame.ladder is frame
    assert frame.real and not ctx.real
    assert frame.weights is not None and ctx.weights is None
    with pytest.raises(ValueError):
        _ladder_frame(frame)
    # the original frame keeps the complex path
    assert d_matrix(ctx, 1).dtype == np.complex128
    assert lie_matrix(ctx, 1, 1).dtype == np.complex128
    assert center_d_matrix(ctx, 1).dtype == np.complex128
    assert lie_matrix(frame, 1, 1).dtype == np.float64


@pytest.mark.parametrize("kind", CONTEXTS)
def test_cohomology_on_a_frame_equals_the_original(kind):
    make, p_max = CONTEXTS[kind]
    ctx, frame = make(2), _ladder_frame(make(2))
    assert cohomology_dims(frame, p_max).to_json() == cohomology_dims(ctx, p_max).to_json()
    center = center_cohomology_dims(frame, p_max).to_json()
    assert center == center_cohomology_dims(ctx, p_max).to_json()


REAL_CASES = [(k, q) for k in CONTEXTS for q in (1, 2, 3, 4)]


@pytest.mark.parametrize("kind, q", REAL_CASES, ids=[f"{k}-q{q}" for k, q in REAL_CASES])
def test_weight_zero_d_is_the_real_part_of_the_complex_reference(kind, q):
    make, p_max = CONTEXTS[kind]
    frame = make(q).ladder
    for p in range(p_max + 1):
        got = d_matrix(frame, p, weight=0)
        want = reference_assemble(frame, frame.d_terms(p), p + 1, p, weight=0)
        assert got.dtype == np.float64, p
        assert not want.imag.any(), p
        assert np.array_equal(got, want.real), p
        assert same_decision(rank_decision(got), rank_decision(want)), p


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", range(1, 7))
def test_weight_zero_d_is_one_pattern_block_or_empty(kind, q):
    # cohomology_dims hands each weight-0 d matrix to rank_decision whole
    make, p_max = CONTEXTS[kind]
    frame = make(q).ladder
    for p in range(p_max + 1):
        assert len(nonzero_blocks(d_matrix(frame, p, weight=0))) <= 1, p


@pytest.mark.parametrize("kind, q", REAL_CASES, ids=[f"{k}-q{q}" for k, q in REAL_CASES])
def test_center_on_the_frame_matches_the_original_frame(kind, q):
    make, p_max = CONTEXTS[kind]
    ctx = make(q)
    for p in range(p_max + 1):
        got, want = center_d_matrix(ctx.ladder, p), center_d_matrix(ctx, p)
        assert got.dtype == np.float64 and want.dtype == np.complex128, p
        assert got.shape == want.shape, p
        assert same_decision(rank_decision(got), rank_decision(want)), p


def test_float_path_needs_exactly_zero_imaginary_parts():
    frame = super_context(1).ladder
    c = frame.constants.copy()
    c[tuple(np.argwhere(c != 0)[0])] += 1e-300j
    gens = [g.mat.copy() for g in frame.generators]
    gens[2][0, 0] += 1e-300j
    perturbed = [
        DerivationContext(
            frame.name, frame.labels, frame.parities, constants, generators, frame.sphere,
            frame.weights,
        )
        for constants, generators in (
            (c, frame.generators),
            (frame.constants, [GradedMatrix(frame.dims, g) for g in gens]),
        )
    ]
    want = d_matrix(frame, 1, weight=0)
    for ctx in perturbed:
        assert not ctx.real
        got = d_matrix(ctx, 1, weight=0)
        assert got.dtype == np.complex128
        assert np.array_equal(got.real, want)
    assert center_d_matrix(perturbed[0], 1).dtype == np.complex128


def test_cohomology_json_matches_the_complex_reference(tmp_path):
    path = tmp_path / "cohomology.json"
    argv = ["cohomology", "--q", "3", "--pmax", "5", "--format", "json", "--out", str(path)]
    assert cli_main(argv) == 0
    doc = json.loads(path.read_text())
    assert doc["ok"] is True
    tol = doc["meta"]["tol"]

    def weight_zero(ctx, p_max):
        frame = _ladder_frame(ctx)
        dims = tuple(_layout(frame, p, 0)[1] for p in range(p_max + 1))
        d_of = lambda p: reference_assemble(frame, frame.d_terms(p), p + 1, p, weight=0)
        return _betti_report(ctx.name, dims, d_of, tol)

    ctx = super_context(3)
    dims = tuple(len(ctx.index_tuples(p)) for p in range(6))
    want = {
        "super": weight_zero(ctx, 5),
        "body": weight_zero(body_context(3), 3),
        "center_crosscheck": _betti_report(ctx.name, dims, lambda p: center_d_matrix(ctx, p), tol),
    }
    for key, rep in want.items():
        got = doc[key]
        assert got["dims"] == list(rep.dims), key
        assert got["ranks"] == [dec.rank for dec in rep.decisions], key
        assert got["betti"] == list(rep.betti), key
        assert all(same_gap(g, dec.gap) for g, dec in zip(got["sv_gaps"], rep.decisions)), key


# ---------------------------------------------------------------- stacked plans


def loop_apply(w, p, terms, act):
    """The term list applied one term at a time: the reference for the stacked plans."""
    ctx = w.ctx
    out = {}
    for target, source, op, twist, coef in terms:
        f = w.evaluate(source)
        if twist:
            f = GradedMatrix(ctx.dims, f.mat * ctx.grade)
        out[target] = out.get(target, 0) + coef * act(op, f).mat
    return SuperForm(ctx, p, {t: GradedMatrix(ctx.dims, m) for t, m in out.items()})


def reference_derivation(ctx):
    """D_a f = [E_a, f] one value at a time, by graded_commutator; label 0 is the identity."""
    return lambda a, f: f if a == 0 else graded_commutator(ctx.generators[a - 1], f)


def permutation_wedge_terms(ctx, p, pp):
    """The wedge terms as the full alternating sum over all (p + pp)! permutations."""
    denom = math.factorial(p) * math.factorial(pp)
    entries = []
    for big in ctx.index_tuples(p + pp):
        pars = tuple(ctx.label_parity(a) for a in big)
        for sigma in itertools.permutations(range(p + pp)):
            lc, ls = reference_sort_signed(ctx, tuple(big[i] for i in sigma[:p]))
            rc, rs = reference_sort_signed(ctx, tuple(big[i] for i in sigma[p:]))
            if lc is None or rc is None:
                continue
            sgn = perm_sign(sigma) * commutation_factor(sigma, pars) * ls * rs
            entries.append((big, rc, lc, ctx.tuple_parity(lc), Fraction(sgn, denom)))
    return reference_collect(ctx, entries)


def plan_contexts(q):
    return {
        "super": super_context(q),
        "body": body_context(q),
        "ladder": _ladder_frame(super_context(q)),
        "body-ladder": _ladder_frame(body_context(q)),
    }


@pytest.mark.parametrize("kind", ["super", "body", "ladder", "body-ladder"])
def test_wedge_plan_sums_shuffles_like_all_permutations(kind):
    ctx = plan_contexts(1)[kind]
    for p, pp in itertools.product(range(4), range(4)):
        if p + pp <= 5:
            assert ctx.wedge_plan(p, pp) == permutation_wedge_terms(ctx, p, pp), (p, pp)


def close(got, want, scale):
    return (got - want).norm() <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["super", "body", "ladder", "body-ladder"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_stacked_operators_match_the_term_loop(kind, q):
    ctx = plan_contexts(q)[kind]
    rng = np.random.default_rng(q)
    forms = {
        (p, parity): random_superform(ctx, p, rng, parity)
        for p in range(4)
        for parity in (0, 1, None)
    }
    derivation = reference_derivation(ctx)
    for (p, _), w in forms.items():
        want = loop_apply(w, p + 1, ctx.d_terms(p), derivation)
        assert close(exterior_d(w), want, w.norm()), p
        for a in ctx.labels:
            want = loop_apply(w, p, ctx.lie_terms(a, p), derivation)
            assert close(lie_derivative(a, w), want, w.norm()), (p, a)
    for (p, par1), (pp, par2) in itertools.product(forms, forms):
        if p + pp <= 3:
            w1, w2 = forms[p, par1], forms[pp, par2]
            want = loop_apply(w2, p + pp, ctx.wedge_plan(p, pp), lambda lc, f: w1.evaluate(lc) @ f)
            assert close(wedge(w1, w2), want, w1.norm() * w2.norm()), (p, pp)


def reference_interior(a, w):
    """The stack of iota_a w, value by value through reference_sort_signed."""
    ctx = w.ctx
    pos = ctx.positions(w.p)
    out = np.zeros((len(ctx.index_tuples(w.p - 1)), ctx.n, ctx.n), dtype=complex)
    for i, t in enumerate(ctx.index_tuples(w.p - 1)):
        canon, sign = reference_sort_signed(ctx, (a,) + t)
        if canon is not None:
            out[i] = w.stack[pos[canon]] * sign
    return out


@pytest.mark.parametrize("kind", ["super", "body", "ladder", "body-ladder"])
@pytest.mark.parametrize("q", [1, 2])
def test_interior_equals_the_bubble_sorted_gather(kind, q):
    ctx = plan_contexts(q)[kind]
    rng = np.random.default_rng(q)
    for p in range(1, 5):
        w = random_superform(ctx, p, rng)
        for a in ctx.labels:
            assert np.array_equal(interior(a, w).stack, reference_interior(a, w)), (p, a)


# ---------------------------------------------------------------- reference term lists


def reference_collect(ctx, entries):
    """Entries merged per (target, source, op, twist) in first-seen order, zero sums dropped.

    A twisted entry takes the sign (-1)^|source tuple| here, the tuple part
    of the (-1)^|w| that its twist stands for.
    """
    acc = {}
    for target, source, op, twist, coef in entries:
        if twist and ctx.tuple_parity(source):
            coef = -coef
        k = (target, source, op, twist)
        acc[k] = acc.get(k, 0) + coef
    return tuple(k + (complex(c),) for k, c in acc.items() if c != 0)


def reference_substitutions(ctx, target, t, slot, a, b, sign, twist=0):
    """sign * sum_C c^C_ab times the value on t with C in place of t[slot], sorted by bubbles."""
    for c in ctx.labels:
        coef = ctx.constants[c - 1, a - 1, b - 1]
        if coef == 0:
            continue
        canon, s = reference_sort_signed(ctx, t[:slot] + (c,) + t[slot + 1 :])
        if canon is not None:
            yield (target, canon, 0, twist, sign * s * coef)


def reference_d_terms(ctx, p):
    """d_terms as a list of entries, each substitution bubble-sorted, then merged."""
    entries = []
    for big in ctx.index_tuples(p + 1):
        pars = [ctx.label_parity(b) for b in big]
        for l in range(p + 1):
            sign = (-1) ** (l + pars[l] * sum(pars[:l]))
            entries.append((big, big[:l] + big[l + 1 :], big[l], pars[l], sign))
            for lp in range(l + 1, p + 1):
                sub_sign = (-1) ** (lp + pars[lp] * sum(pars[l + 1 : lp]))
                rest = big[:lp] + big[lp + 1 :]
                entries += reference_substitutions(ctx, big, rest, l, big[l], big[lp], sub_sign)
    return reference_collect(ctx, entries)


def reference_lie_terms(ctx, a, p):
    """lie_terms as a list of entries, each substitution bubble-sorted, then merged."""
    par_a = ctx.label_parity(a)
    entries = []
    for t in ctx.index_tuples(p):
        entries.append((t, t, a, 0, 1))
        for slot, b in enumerate(t):
            sign = -((-1) ** (par_a * ctx.tuple_parity(t[:slot])))
            entries += reference_substitutions(ctx, t, t, slot, a, b, sign, par_a)
    return reference_collect(ctx, entries)


def reference_plan(ctx, terms, p_in, p_out, p_op=None):
    """The Plan of terms compiled one term at a time through dicts."""
    src, dst = ctx.positions(p_in), ctx.positions(p_out)
    pos = None if p_op is None else ctx.positions(p_op)
    keyed = [
        (dst[target], (op if pos is None else pos[op], twist, src[source]), coef)
        for target, source, op, twist, coef in terms
    ]
    inputs = sorted({k for _, k, _ in keyed})
    column = {k: j for j, k in enumerate(inputs)}
    coefs = np.zeros((len(dst), len(inputs)), dtype=complex)
    for row, k, coef in keyed:
        coefs[row, column[k]] += coef
    ops, twists, sources = np.array(inputs, dtype=np.intp).reshape(-1, 3).T
    labels, starts = np.unique(ops, return_index=True)
    stops = [*starts[1:], len(ops)]
    return Plan(
        sources=sources,
        twisted=twists == 1,
        ops=ops,
        groups=tuple((int(a), slice(int(i), int(j))) for a, i, j in zip(labels, starts, stops)),
        coefs=coefs,
    )


TERM_CASES = {"super": 5, "body": 3, "ladder": 5, "body-ladder": 3}


@pytest.mark.parametrize("kind", TERM_CASES)
def test_term_lists_equal_the_reference_builders(kind):
    # same terms, same order, same coefficients, from the shared record
    ctx, p_max = plan_contexts(1)[kind], TERM_CASES[kind]
    for p in range(p_max + 1):
        assert ctx.d_terms(p) == reference_d_terms(ctx, p), p
        for a in ctx.labels:
            assert ctx.lie_terms(a, p) == reference_lie_terms(ctx, a, p), (p, a)


@pytest.mark.parametrize("kind", TERM_CASES)
def test_plans_equal_the_loop_compiled_reference(kind):
    ctx, p_max = plan_contexts(1)[kind], TERM_CASES[kind]
    cases = [(("d", p), ctx.d_terms(p), p, p + 1, None) for p in range(p_max + 1)]
    cases += [
        (("lie", a, p), ctx.lie_terms(a, p), p, p, None)
        for p in range(p_max + 1)
        for a in ctx.labels
    ]
    cases += [
        (("wedge", p, pp), ctx.wedge_plan(p, pp), pp, p + pp, p)
        for p, pp in itertools.product(range(p_max + 1), repeat=2)
        if p + pp <= p_max + 1
    ]
    for key, terms, p_in, p_out, p_op in cases:
        got = ctx.plan(key, terms, p_in, p_out, p_op)
        want = reference_plan(ctx, terms, p_in, p_out, p_op)
        for field in ("sources", "twisted", "ops"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (key, field)
        assert got.groups == want.groups, key
        assert got.coefs.shape == want.coefs.shape and np.array_equal(got.coefs, want.coefs), key


# ---------------------------------------------------------------- the shared record


def compiled(ctx, p_max):
    """Every term list and Plan of ctx up to degree p_max, with the tuples and positions."""
    out = []
    for p in range(p_max + 1):
        out += [ctx.index_tuples(p), ctx.positions(p)]
        terms = ctx.d_terms(p)
        out += [terms, ctx.plan(("d", p), terms, p, p + 1)]
        for a in ctx.labels:
            terms = ctx.lie_terms(a, p)
            out += [terms, ctx.plan(("lie", a, p), terms, p, p)]
        for a in ctx.labels if p else ():
            terms = ctx.interior_terms(a, p)
            out += [terms, ctx.plan(("interior", a, p), terms, p, p - 1)]
        for pp in range(p_max + 1 - p):
            terms = ctx.wedge_plan(p, pp)
            out += [terms, ctx.plan(("wedge", p, pp), terms, pp, p + pp, p)]
    return out


@pytest.mark.parametrize("kind", CONTEXTS)
def test_every_level_and_ladder_frame_shares_one_record(kind):
    make, p_max = CONTEXTS[kind]
    contexts = [make(q) for q in (1, 2, 3)]
    for frames in (contexts, [ctx.ladder for ctx in contexts]):
        first = compiled(frames[0], p_max - 1)
        for ctx in frames[1:]:
            assert ctx._algebra is frames[0]._algebra
            assert all(got is want for got, want in zip(compiled(ctx, p_max - 1), first))
    assert contexts[0].ladder.constants.tobytes() == contexts[2].ladder.constants.tobytes()


def test_frames_and_other_constants_get_their_own_records():
    ctx, body = super_context(2), body_context(2)
    records = {id(c._algebra) for c in (ctx, ctx.ladder, body, body.ladder)}
    assert len(records) == 4
    assert ctx.d_terms(1) is not ctx.ladder.d_terms(1)
    copy = DerivationContext(
        "copy", ctx.labels, ctx.parities, ctx.constants.copy(), ctx.generators, ctx.sphere
    )
    assert copy._algebra is ctx._algebra  # keyed by content, not by the array
    scaled = DerivationContext(
        "scaled", ctx.labels, ctx.parities, 2 * ctx.constants, ctx.generators, ctx.sphere
    )
    assert scaled._algebra is not ctx._algebra
    assert scaled.d_terms(1) == reference_d_terms(scaled, 1) != ctx.d_terms(1)


@pytest.fixture
def cold(monkeypatch):
    """Call to empty the process-wide record dict; the shared one is restored after the test."""
    return lambda: monkeypatch.setattr(calculus_module, "_ALGEBRAS", {})


def operator_bytes(ctx, seed):
    """The bytes of exterior_d, lie_derivative, wedge, d_matrix and lie_matrix on ctx."""
    rng = np.random.default_rng(seed)
    out = []
    forms = [random_superform(ctx, p, rng) for p in range(3)]
    for w in forms:
        out += [exterior_d(w).stack, d_matrix(ctx, w.p)]
        out += [lie_derivative(a, w).stack for a in ctx.labels]
        out += [wedge(w1, w).stack for w1 in forms if w1.p + w.p <= 3]
    out += [lie_matrix(ctx, a, p) for a in ctx.labels for p in (0, 1)]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in out]


@pytest.mark.parametrize("kind", CONTEXTS)
@pytest.mark.parametrize("q", [1, 2, 3])
def test_a_warm_record_gives_the_bytes_of_a_cold_compile(cold, kind, q):
    make = CONTEXTS[kind][0]
    operator_bytes(make(q), 0)  # fills the shared record
    warm = make(q)
    want = operator_bytes(warm, q)
    cold()
    ctx = make(q)
    assert ctx._algebra is not warm._algebra and not ctx._algebra.terms
    assert operator_bytes(ctx, q) == want


def test_cached_plans_are_read_only():
    ctx = super_context(2)
    plans = [item for item in compiled(ctx, 2) if isinstance(item, Plan)]
    assert plans
    for plan in plans:
        for field in ("sources", "twisted", "ops", "coefs"):
            assert not getattr(plan, field).flags.writeable, field
    with pytest.raises(ValueError):
        plans[0].coefs[0, 0] = 1.0


def test_cohomology_scatters_each_block_once(monkeypatch):
    # one restricted_adjoint call per distinct (generator, row entries, column entries),
    # none of them empty, and one per cached (label, weight, row key, column key)
    calls = []
    real = calculus_module.restricted_adjoint

    def spy(e, target, source):
        calls.append((id(e),) + tuple(index.tobytes() for index in (*target, *source)))
        assert target[0].size and source[0].size
        return real(e, target, source)

    monkeypatch.setattr(calculus_module, "restricted_adjoint", spy)
    frames = []
    for q in (2, 3):
        for make, p_max in CONTEXTS.values():
            ctx = make(q)
            cohomology_dims(ctx, p_max)
            frames.append(ctx.ladder)
    assert len(calls) == len(set(calls))
    assert len(calls) == sum(1 for frame in frames for key in frame._blocks if key[0])


def test_unknown_labels_are_rejected():
    w = random_superform(CTX, 2, RNG)
    for a in (0, -1, 6):
        calls = [
            lambda: lie_derivative(a, w),
            lambda: lie_matrix(CTX, a, 1),
            lambda: interior(a, w),
            lambda: interior(a, SuperForm.zero_form(CTX, 0)),
            lambda: w.evaluate((1, a)),
            lambda: CTX.sort_signed((a,)),
            lambda: CTX.sort_signed((2, 2, a)),  # a later slot, past a repeated even label
            lambda: lambda_form(CTX, a),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"unknown label {a}"):
                call()
    wb = random_superform(BCTX, 1, RNG)
    for call in (
        lambda: lie_derivative(4, wb),
        lambda: lie_matrix(BCTX, 4, 1),
        lambda: interior(4, wb),
        lambda: BCTX.sort_signed((2, 1, 4)),
    ):
        with pytest.raises(ValueError, match="unknown label 4"):
            call()


def test_generators_must_have_their_labels_parity():
    gens = list(CTX.generators)
    gens[3] = gens[3] + gens[0]  # J_4 with an even part
    with pytest.raises(ValueError):
        DerivationContext("mixed", CTX.labels, CTX.parities, CTX.constants, gens, CTX.sphere)


def test_report_json_shape():
    rep = cohomology_dims(BCTX, 2)
    js = rep.to_json()
    assert js["betti"] == list(rep.betti)
    assert len(js["ranks"]) == len(js["sv_gaps"]) == 3
    assert js["inconclusive"] is False


# ---------------------------------------------------------------- body, eta


def test_body_cochain_commutes_with_d():
    q = 2
    ctx = super_context(q)
    bctx = body_context(q)
    for p in (0, 1, 2):
        w = random_superform(ctx, p, RNG)
        lhs = body_cochain_map(exterior_d(w), bctx)
        rhs = exterior_d(body_cochain_map(w, bctx))
        assert (lhs - rhs).norm() < 1e-10


def test_body_cochain_rejects_level_mismatch():
    w = random_superform(CTX, 1, RNG)
    with pytest.raises(ValueError):
        body_cochain_map(w, body_context(2))


def test_eta_forms_round_trip():
    ctx1 = super_context(1)
    ctx2 = super_context(2)
    w = random_superform(ctx1, 1, RNG)
    up = eta_forms(w, ctx2)
    back = eta_forms(up, ctx1)
    assert (back - w).norm() < 1e-10
