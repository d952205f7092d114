import math

import numpy as np
import pytest

from fuzzsuper.graded import EVEN, ODD, GradedDims, graded_commutator, superadjoint
from fuzzsuper.osp import (
    LADDER_STEPS,
    build_irrep,
    build_osp_basis,
    build_sl2_irrep,
    bracket_residual,
    grade_star_label,
    jacobi_residual,
    label_parity,
    osp_casimir,
    structure_constants,
    verify_grade_star,
    weight_elements,
)

BASIS = build_osp_basis()


def reference_irrep_arrays(two_j, index):
    """J_3, J_+, J_-, J_4, J_5 by one ladder loop over the columns: the reference for build_irrep."""
    n = 2 * two_j + 1
    j3, jp, jm, j4, j5 = (np.zeros((n, n), dtype=complex) for _ in range(5))
    for (two_l, two_m), col in index.items():
        l, m = two_l / 2.0, two_m / 2.0
        j3[col, col] = m
        if two_m + 2 <= two_l:
            jp[index[(two_l, two_m + 2)], col] = math.sqrt((l - m) * (l + m + 1))
        if two_m - 2 >= -two_l:
            jm[index[(two_l, two_m - 2)], col] = math.sqrt((l + m) * (l - m + 1))
        if two_l == two_j:
            if two_m + 1 <= two_j - 1:
                j4[index[(two_j - 1, two_m + 1)], col] = -0.5 * math.sqrt(l - m)
            if two_m - 1 >= -(two_j - 1):
                j5[index[(two_j - 1, two_m - 1)], col] = 0.5 * math.sqrt(l + m)
        else:
            jj = two_j / 2.0
            j4[index[(two_j, two_m + 1)], col] = -0.5 * math.sqrt(jj + m + 0.5)
            j5[index[(two_j, two_m - 1)], col] = -0.5 * math.sqrt(jj - m + 0.5)
    return j3, jp, jm, j4, j5


def reference_sl2_arrays(two_s):
    """J_3, J_+, J_- by one ladder loop over the columns: the reference for build_sl2_irrep."""
    n = two_s + 1
    s = two_s / 2.0
    j3, jp, jm = (np.zeros((n, n), dtype=complex) for _ in range(3))
    for col in range(n):
        m = s - col
        j3[col, col] = m
        if col > 0:
            jp[col - 1, col] = math.sqrt((s - m) * (s + m + 1))
        if col < n - 1:
            jm[col + 1, col] = math.sqrt((s + m) * (s - m + 1))
    return j3, jp, jm


def test_label_parities():
    assert [label_parity(a) for a in (1, 2, 3, 4, 5)] == [EVEN, EVEN, EVEN, ODD, ODD]


def test_structure_constants_rotation_block():
    c = structure_constants()
    # [J_1, J_2] = i J_3 and cyclic
    assert c[2, 0, 1] == pytest.approx(1j)
    assert c[0, 1, 2] == pytest.approx(1j)
    assert c[1, 2, 0] == pytest.approx(1j)
    assert c[2, 1, 0] == pytest.approx(-1j)


def test_structure_constants_graded_symmetry():
    # [A,B] = -(-1)^{|A||B|}[B,A]
    c = structure_constants()
    for a in range(5):
        for b in range(5):
            koszul = -1.0 if (a >= 3 and b >= 3) else 1.0
            assert np.allclose(c[:, a, b], -koszul * c[:, b, a])


def test_odd_odd_brackets_land_in_even():
    c = structure_constants()
    for a in (3, 4):
        for b in (3, 4):
            assert np.allclose(c[3:, a, b], 0.0)


def test_jacobi_residual_zero():
    assert jacobi_residual(BASIS) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6])
def test_irrep_satisfies_brackets(two_j):
    rep = build_irrep(two_j)
    assert bracket_residual(rep, BASIS) < 1e-12


@pytest.mark.parametrize("two_j", [1, 2, 3, 4])
def test_irrep_dims(two_j):
    rep = build_irrep(two_j)
    assert rep.dims.total == 2 * two_j + 1
    # even block carries the highest-weight parity flag
    assert rep.dims.even + rep.dims.odd == 2 * two_j + 1


def test_casimir_scalar_with_value():
    # eigenvalue j(j + 1/2) with j = two_j / 2, i.e. two_j(two_j + 1)/4
    for two_j in (1, 2, 3, 5):
        rep = build_irrep(two_j)
        cas = osp_casimir(rep)
        eig = two_j * (two_j + 1) / 4.0
        assert np.allclose(cas.mat, eig * np.eye(rep.dims.total), atol=1e-12)


def test_j3_spectrum():
    rep = build_irrep(3)
    eigs = sorted(np.real(np.diag(rep.matrix(3).mat)))
    assert np.allclose(eigs, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])


def test_generator_parities():
    rep = build_irrep(2)
    for a in (1, 2, 3):
        assert rep.matrix(a).homogeneous_parity() == EVEN
    for a in (4, 5):
        assert rep.matrix(a).homogeneous_parity() == ODD


def test_grade_star_label_table():
    assert grade_star_label(1, 0) == (1, 1.0)
    assert grade_star_label(4, 0) == (5, 1.0)
    assert grade_star_label(5, 0) == (4, -1.0)
    assert grade_star_label(4, 1) == (5, -1.0)
    assert grade_star_label(5, 1) == (4, 1.0)


def test_grade_star_zero_realized_by_superadjoint():
    for two_j in (1, 2, 3, 4):
        assert verify_grade_star(build_irrep(two_j), 0) < 1e-12


def test_grade_star_is_involutive_on_labels():
    for lam in (0, 1):
        for a in (1, 2, 3, 4, 5):
            b, s1 = grade_star_label(a, lam)
            c, s2 = grade_star_label(b, lam)
            sign = -1.0 if label_parity(a) == ODD else 1.0
            assert c == a
            # twice the star returns (-1)^{|a|} times the element
            assert s1 * s2 == pytest.approx(sign)


def test_superadjoint_matches_star_zero_matrixwise():
    rep = build_irrep(3)
    assert (superadjoint(rep.matrix(4)) - rep.matrix(5)).norm() < 1e-12
    assert (superadjoint(rep.matrix(5)) - (-rep.matrix(4))).norm() < 1e-12
    for a in (1, 2, 3):
        assert (superadjoint(rep.matrix(a)) - rep.matrix(a)).norm() < 1e-12


def test_odd_generators_square_to_rotations():
    # 2 J_4^2 = [J_4, J_4] = c^i_{44} J_i
    rep = build_irrep(4)
    c = structure_constants()
    lhs = graded_commutator(rep.matrix(4), rep.matrix(4))
    rhs = sum((rep.matrix(i + 1) * c[i, 3, 3] for i in range(3)), start=rep.matrix(1) * 0.0)
    assert (lhs - rhs).norm() < 1e-12


def test_ladder_matrices():
    rep = build_irrep(2)
    jp, jm = rep.matrix("+"), rep.matrix("-")
    j1, j2 = rep.matrix(1), rep.matrix(2)
    assert (jp - (j1 + j2 * 1j)).norm() < 1e-12
    assert (jm - (j1 - j2 * 1j)).norm() < 1e-12


def test_sl2_irrep():
    for two_s in (1, 2, 3, 4):
        rep = build_sl2_irrep(two_s)
        assert rep.dim == two_s + 1
        j1, j2, j3 = (rep.matrix(a).mat for a in (1, 2, 3))
        cas = j1 @ j1 + j2 @ j2 + j3 @ j3
        s = two_s / 2
        assert np.allclose(cas, s * (s + 1) * np.eye(rep.dim), atol=1e-12)
        comm = j1 @ j2 - j2 @ j1
        assert np.allclose(comm, 1j * j3, atol=1e-12)


@pytest.mark.parametrize("hw_parity", [EVEN, ODD])
def test_irrep_matches_reference_loop(hw_parity):
    for two_j in range(0, 21):
        rep = build_irrep(two_j, hw_parity)
        # even block first, m descending inside each block
        blocks = sorted(
            [(two_j, hw_parity)] + ([(two_j - 1, 1 - hw_parity)] if two_j else []),
            key=lambda b: b[1],
        )
        order = [(tl, tm) for tl, _ in blocks for tm in range(tl, -tl - 2, -2)]
        assert rep.index == {key: pos for pos, key in enumerate(order)}
        ref = reference_irrep_arrays(two_j, rep.index)
        for a, want in zip((3, "+", "-", 4, 5), ref):
            assert rep.matrix(a).mat.tobytes() == want.tobytes(), (two_j, a)
        assert np.array_equal(rep.matrix(1).mat, 0.5 * (ref[1] + ref[2]))
        assert np.array_equal(rep.matrix(2).mat, -0.5j * (ref[1] - ref[2]))


def test_sl2_irrep_matches_reference_loop():
    for two_s in range(0, 21):
        rep = build_sl2_irrep(two_s)
        j3, jp, jm = reference_sl2_arrays(two_s)
        for a, want in zip((3, "+", "-"), (j3, jp, jm)):
            assert rep.matrix(a).mat.tobytes() == want.tobytes(), (two_s, a)
        assert np.array_equal(rep.matrix(1).mat, 0.5 * (jp + jm))
        assert np.array_equal(rep.matrix(2).mat, -0.5j * (jp - jm))


@pytest.mark.parametrize("two_j", range(0, 7))
def test_every_irrep_generator_is_one_frozen_graded_matrix(two_j):
    """matrix(a) hands out the same read-only object on every call, J_1 and J_2 too."""
    for rep, labels in (
        (build_irrep(two_j, ODD), (1, 2, 3, 4, 5, "+", "-")),
        (build_sl2_irrep(two_j), (1, 2, 3, "+", "-")),
    ):
        for a in labels:
            g = rep.matrix(a)
            assert rep.matrix(a) is g, (rep, a)
            assert not g.mat.flags.writeable, (rep, a)
            with pytest.raises(ValueError, match="read-only"):
                g.mat[0, 0] = 1.0
    assert build_sl2_irrep(two_j).matrix(1).dims == GradedDims(two_j + 1, 0)


@pytest.mark.parametrize("label", [0, 6, "x", None, [1]])
def test_matrix_rejects_an_unknown_label(label):
    for rep in (build_irrep(2), build_sl2_irrep(2)):
        with pytest.raises(ValueError, match="unknown basis label"):
            rep.matrix(label)
    with pytest.raises(ValueError, match="unknown basis label 4"):
        build_sl2_irrep(2).matrix(4)


def elements_as_matrix(two_j, a, where, **kwargs):
    """The matrix that weight_elements gives on the basis with v(w) at where[w]; fails on an element without a target."""
    n = len(where)
    out = np.zeros((n, n))
    for w, col in where.items():
        value, _ = weight_elements(two_j, a, w, **kwargs)
        if w + LADDER_STEPS[a] in where:
            out[where[w + LADDER_STEPS[a]], col] = value
        else:
            assert value == 0, (two_j, a, w)
    return out


@pytest.mark.parametrize("two_j", range(13))
def test_weight_elements_are_the_entries_of_the_irreps(two_j):
    weights = np.arange(-two_j - 3, two_j + 4)
    # the elements do not depend on the parity of the highest weight
    for hw_parity in (EVEN, ODD):
        rep = build_irrep(two_j, hw_parity)
        where = {two_m: pos for (_, two_m), pos in rep.index.items()}
        for a in LADDER_STEPS:
            assert np.array_equal(rep.matrix(a).mat, elements_as_matrix(two_j, a, where)), a
            values, _ = weight_elements(two_j, a, weights)
            assert not values[np.abs(weights) > two_j].any(), a
    # the parities are those of the summand of End V(q/2), build_irrep(two_j, two_j % 2)
    rep = build_irrep(two_j, two_j % 2)
    live = weights[np.abs(weights) <= two_j]
    _, parities = weight_elements(two_j, 3, live)
    odd = [rep.index[(two_j - (two_j - w) % 2, w)] >= rep.dims.even for w in live.tolist()]
    assert parities.tolist() == [int(x) for x in odd] == [w % 2 for w in live.tolist()]
    rep = build_sl2_irrep(two_j)
    where = {two_j - 2 * k: k for k in range(two_j + 1)}
    for a in ("+", "-", 3):
        assert np.array_equal(rep.matrix(a).mat, elements_as_matrix(two_j, a, where, sl2=True)), a
        values, parities = weight_elements(two_j, a, weights, sl2=True)
        assert not values[(np.abs(weights) > two_j) | ((two_j - weights) % 2 == 1)].any()
        assert not parities.any()


def test_weight_elements_broadcast_over_spins_and_weights():
    two_js, weights = np.arange(9)[:, None], np.arange(-5, 6)
    for a in LADDER_STEPS:
        values, parities = weight_elements(two_js, a, weights)
        assert values.shape == parities.shape == (9, 11)
        for k in range(9):
            row, par = weight_elements(k, a, weights)
            assert values[k].tobytes() == row.tobytes() and np.array_equal(parities[k], par)


@pytest.mark.parametrize("label, sl2", [(1, False), (2, False), ("x", False), (4, True), (5, True)])
def test_weight_elements_reject_a_label_off_the_weight_vectors(label, sl2):
    with pytest.raises(ValueError):
        weight_elements(2, label, 0, sl2=sl2)
