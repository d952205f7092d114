import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fuzzsuper.calculus import (
    EXPECTED_BETTI_BODY,
    EXPECTED_BETTI_SUPER,
    DerivationContext,
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
from fuzzsuper.graded import (
    GradedDims,
    GradedMatrix,
    commutation_factor,
    entry_weights,
    graded_commutator,
    perm_sign,
    random_graded_matrix,
)
from fuzzsuper.osp import OspBasis, build_osp_basis, jacobi_residual

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


def permutation_wedge_terms(ctx, p, pp):
    """The wedge terms as the full alternating sum over all (p + pp)! permutations."""
    denom = math.factorial(p) * math.factorial(pp)
    entries = []
    for big in ctx.index_tuples(p + pp):
        pars = tuple(ctx.label_parity(a) for a in big)
        for sigma in itertools.permutations(range(p + pp)):
            lc, ls = ctx.sort_signed(tuple(big[i] for i in sigma[:p]))
            rc, rs = ctx.sort_signed(tuple(big[i] for i in sigma[p:]))
            if lc is None or rc is None:
                continue
            sgn = perm_sign(sigma) * commutation_factor(sigma, pars) * ls * rs
            entries.append((big, rc, lc, ctx.tuple_parity(lc), Fraction(sgn, denom)))
    return ctx._collect(("permutation wedge", p, pp), entries)


def plan_contexts(q):
    return {
        "super": super_context(q),
        "body": body_context(q),
        "ladder": _ladder_frame(super_context(q)),
    }


@pytest.mark.parametrize("kind", ["super", "body", "ladder"])
def test_wedge_plan_sums_shuffles_like_all_permutations(kind):
    ctx = plan_contexts(1)[kind]
    for p, pp in itertools.product(range(4), range(4)):
        if p + pp <= 5:
            assert ctx.wedge_plan(p, pp) == permutation_wedge_terms(ctx, p, pp), (p, pp)


def close(got, want, scale):
    return (got - want).norm() <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["super", "body", "ladder"])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_stacked_operators_match_the_term_loop(kind, q):
    ctx = plan_contexts(q)[kind]
    rng = np.random.default_rng(q)
    forms = {
        (p, parity): random_superform(ctx, p, rng, parity)
        for p in range(4)
        for parity in (0, 1, None)
    }
    for (p, _), w in forms.items():
        want = loop_apply(w, p + 1, ctx.d_terms(p), ctx.derivation)
        assert close(exterior_d(w), want, w.norm()), p
        for a in ctx.labels:
            want = loop_apply(w, p, ctx.lie_terms(a, p), ctx.derivation)
            assert close(lie_derivative(a, w), want, w.norm()), (p, a)
    for (p, par1), (pp, par2) in itertools.product(forms, forms):
        if p + pp <= 3:
            w1, w2 = forms[p, par1], forms[pp, par2]
            want = loop_apply(w2, p + pp, ctx.wedge_plan(p, pp), lambda lc, f: w1.evaluate(lc) @ f)
            assert close(wedge(w1, w2), want, w1.norm() * w2.norm()), (p, pp)


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
