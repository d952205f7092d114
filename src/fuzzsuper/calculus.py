"""Derivation-based Cartan calculus on the matrix (super)spheres.

Differential forms are graded-alternating multilinear maps from the five
basis derivations (three on the body) into the matrix algebra.  A p-form
is stored by its values on canonical index tuples: even labels strictly
increasing, odd labels non-decreasing, so odd labels may repeat and the
complex does not terminate at the top even degree.  The values are one
read-only (S, n, n) array, SuperForm.stack, in index_tuples order; flattened,
it is the vector that d_matrix and lie_matrix act on.

Signs follow one commutation-factor convention throughout: permuting
arguments costs the permutation sign times (-1) for every transposed pair
of odd slots, and moving an odd object past a form w costs (-1)^|w|, where
|w| is the value parity plus the tuple parity.  The context writes d, L_a
and the wedge out once per degree as cached term lists; the part of a
sign that depends on the value parity is a grade twist of the source
value (even part minus odd part), so no operator splits a form by parity.
The pointwise operators apply each term list to a form's stack through its
Plan: one batched product per derivation label, or one for the wedge, and
one coefficient matrix that sums them into the result's stack.  d_matrix
and lie_matrix assemble the same terms into matrices on coefficient space.

The cohomology ranks are computed in the ladder frame of weight vectors
(J_+/sqrt2, J_-/sqrt2, J_3, J_4, J_5), on the weight-0 block of d only:
there L_3 = d iota_3 + iota_3 d acts on each form component by its total
weight, so every subcomplex of nonzero weight is acyclic.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .fuzzy import FuzzySphere, FuzzySuperSphere, body_map_fuzzy, eta
from .graded import (
    EVEN,
    ODD,
    GradedDims,
    GradedMatrix,
    RankDecision,
    commutation_factor,
    entry_weights,
    graded_commutator,
    perm_sign,
    rank_decision,
    random_graded_matrix,
    restricted_adjoint,
)
from .osp import build_osp_basis

Label = int
IndexTuple = Tuple[Label, ...]
#: (target tuple, source tuple, operator, twist, coefficient); see DerivationContext
Term = Tuple[IndexTuple, IndexTuple, Union[Label, IndexTuple], int, complex]


class Plan(NamedTuple):
    """A term list compiled for _apply, which runs it on a form's stack.

    The inputs are the distinct (op, twist, source) triples of the terms,
    sorted by op.  Input k reads row rows[k] of [X; tau X], the source
    form's stack X over its grade twist; twins[k] is the row of the same
    value with the other twist.  ops[k] is its derivation label, or for the
    wedge the row of its left tuple in the left factor's stack, and groups
    holds each op with its run of inputs.  coefs is the (targets x inputs)
    matrix that sums the inputs, acted on, into the rows of the result.
    """

    rows: np.ndarray
    twins: np.ndarray
    ops: np.ndarray
    groups: Tuple[Tuple[int, slice], ...]
    coefs: np.ndarray


class DerivationContext:
    """A matrix algebra together with its distinguished basis derivations.

    Carries the structure constants of the derivation algebra and caches
    canonical index tuples, sorting signs, and the term lists of d
    (d_terms), L_a (lie_terms) and the wedge (wedge_plan).  A term
    (target, source, op, twist, coefficient) adds coefficient times op
    applied to the source value into the target value; op is a derivation
    label, 0 for none, or for the wedge the left factor's tuple.  These
    lists hold the whole sign convention: a term with twist 1 carries the
    sign (-1)^|w| of its source form, the tuple part of which is folded into
    the coefficient, while the value part is the grade twist (even part
    minus odd part) of the source value.  Two flavors exist: the five
    osp(1|2) derivations on the graded algebra and their three even
    companions on the body.  In a frame of weight vectors (_ladder_frame)
    the context also knows the doubled J_3 weight of each label, which
    d_matrix adds to the entry weights to keep one total weight.

    The pointwise operators read each term list through its Plan (plan),
    compiled once and cached next to the term list.  Each generator must be
    homogeneous of its label's parity, so that [E_a, X] is E_a X - X E_a
    with X grade-twisted on the right when E_a is odd.
    """

    def __init__(
        self,
        name: str,
        labels: Sequence[Label],
        parities: Sequence[int],
        constants: np.ndarray,
        generators: Sequence[GradedMatrix],
        sphere: Union[FuzzySuperSphere, FuzzySphere],
        weights: Optional[Sequence[int]] = None,
    ):
        self.name = name
        self.labels = tuple(labels)
        self.parities = tuple(parities)
        self.constants = constants
        self.generators = tuple(generators)
        self.sphere = sphere
        self.dims: GradedDims = generators[0].dims
        self.n = self.dims.total
        for a, g in zip(self.labels, self.generators):
            if g.part(1 - self.label_parity(a)).mat.any():
                raise ValueError(f"generator {a} is not homogeneous of its label's parity")
        self.unit = GradedMatrix.identity(self.dims)
        #: +1 on even matrix entries, -1 on odd ones: the grade twist
        self.grade = self.dims.twist
        #: in a frame of weight vectors: the doubled J_3 weights of the labels
        self.weights = None if weights is None else tuple(weights)
        self._tuples: Dict[int, Tuple[IndexTuple, ...]] = {}
        self._positions: Dict[int, Dict[IndexTuple, int]] = {}
        self._sort_cache: Dict[IndexTuple, Tuple[Optional[IndexTuple], int]] = {}
        self._terms: Dict[tuple, Tuple[Term, ...]] = {}
        self._plans: Dict[tuple, Plan] = {}
        self._blocks: Dict[tuple, np.ndarray] = {}  # of _assemble, shared by its calls

    # -- labels and tuples

    def label_parity(self, a: Label) -> int:
        return self.parities[a - 1]

    def tuple_parity(self, t: IndexTuple) -> int:
        return sum(self.label_parity(a) for a in t) % 2

    def index_tuples(self, p: int) -> Tuple[IndexTuple, ...]:
        """Canonical tuples: strictly increasing evens then repeatable odds."""
        if p not in self._tuples:
            evens = [a for a in self.labels if self.label_parity(a) == EVEN]
            odds = [a for a in self.labels if self.label_parity(a) == ODD]
            out = []
            for k in range(min(len(evens), p), -1, -1):
                for ev in itertools.combinations(evens, k):
                    for od in itertools.combinations_with_replacement(odds, p - k):
                        out.append(ev + od)
            self._tuples[p] = tuple(sorted(out))
        return self._tuples[p]

    def positions(self, p: int) -> Dict[IndexTuple, int]:
        """The row of each canonical p-tuple in the stack of a p-form."""
        if p not in self._positions:
            self._positions[p] = {t: i for i, t in enumerate(self.index_tuples(p))}
        return self._positions[p]

    def sort_signed(self, t: IndexTuple) -> Tuple[Optional[IndexTuple], int]:
        """Canonical form and reordering sign; (None, 0) for a vanishing slot.

        Each adjacent transposition contributes the permutation sign, and
        one more sign when both entries are odd; a repeated even label
        kills the form value.
        """
        try:
            return self._sort_cache[t]
        except KeyError:
            pass
        arr = list(t)
        sign = 1
        for i in range(1, len(arr)):
            j = i
            while j > 0 and arr[j - 1] > arr[j]:
                # two odd slots commute at no cost
                if not (self.label_parity(arr[j - 1]) and self.label_parity(arr[j])):
                    sign = -sign
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
                j -= 1
        for i in range(1, len(arr)):
            if arr[i - 1] == arr[i] and self.label_parity(arr[i]) == EVEN:
                result = (None, 0)
                self._sort_cache[t] = result
                return result
        result = (tuple(arr), sign)
        self._sort_cache[t] = result
        return result

    # -- the derivations

    def derivation(self, a: Label, f: GradedMatrix) -> GradedMatrix:
        """D_a f = [E_a, f]; label 0, as in the term lists, is the identity."""
        return graded_commutator(self.generators[a - 1], f) if a else f

    # -- term lists

    def _collect(self, key: tuple, entries: Iterable[Term]) -> Tuple[Term, ...]:
        """Cache the entries, merged per (target, source, op, twist).

        A twisted entry takes the sign (-1)^|source tuple| here, the tuple
        part of the (-1)^|w| that its twist stands for.
        """
        acc: Dict[tuple, complex] = {}
        for target, source, op, twist, coef in entries:
            if twist and self.tuple_parity(source):
                coef = -coef
            k = (target, source, op, twist)
            acc[k] = acc.get(k, 0) + coef
        terms = tuple(k + (complex(c),) for k, c in acc.items() if c != 0)
        self._terms[key] = terms
        return terms

    def _substitutions(
        self, target: IndexTuple, t: IndexTuple, slot: int, a: Label, b: Label, sign: int, twist=0
    ) -> Iterable[Term]:
        """sign * sum_C c^C_ab times the value on t with C in place of t[slot]."""
        for c in self.labels:
            coef = self.constants[c - 1, a - 1, b - 1]
            if coef == 0:
                continue
            canon, s = self.sort_signed(t[:slot] + (c,) + t[slot + 1 :])
            if canon is not None:
                yield (target, canon, 0, twist, sign * s * coef)

    def d_terms(self, p: int) -> Tuple[Term, ...]:
        """Terms of d: Omega^p -> Omega^(p+1).

        On each canonical (p+1)-tuple: D_l of the value with slot l left
        out, signed by the slots it passes and twisted when D_l is odd, and
        the bracket [D_l, D_l'] substituted into slot l for each l < l'.
        """
        key = ("d", p)
        if key in self._terms:
            return self._terms[key]
        entries = []
        for big in self.index_tuples(p + 1):
            pars = [self.label_parity(b) for b in big]
            for l in range(p + 1):
                sign = (-1) ** (l + pars[l] * sum(pars[:l]))
                entries.append((big, big[:l] + big[l + 1 :], big[l], pars[l], sign))
                for lp in range(l + 1, p + 1):
                    sub_sign = (-1) ** (lp + pars[lp] * sum(pars[l + 1 : lp]))
                    rest = big[:lp] + big[lp + 1 :]
                    entries += self._substitutions(big, rest, l, big[l], big[lp], sub_sign)
        return self._collect(key, entries)

    def lie_terms(self, a: Label, p: int) -> Tuple[Term, ...]:
        """Terms of L_a on Omega^p.

        D_a of the value minus [D_a, D_b] substituted into each slot b,
        twisted when D_a is odd and signed by the slots before b.
        """
        key = ("lie", a, p)
        if key in self._terms:
            return self._terms[key]
        par_a = self.label_parity(a)
        entries = []
        for t in self.index_tuples(p):
            entries.append((t, t, a, 0, 1))
            for slot, b in enumerate(t):
                sign = -((-1) ** (par_a * self.tuple_parity(t[:slot])))
                entries += self._substitutions(t, t, slot, a, b, sign, par_a)
        return self._collect(key, entries)

    def wedge_plan(self, p: int, pp: int) -> Tuple[Term, ...]:
        """Terms of (p-form) wedge (pp-form).

        The signed sum over the (p, pp)-shuffles of each canonical tuple:
        a shuffle puts the slots I, in order, before the rest, so both
        factors' tuples are canonical already, and the p! pp! permutations
        of the full alternating sum that reorder within the factors add the
        same term.  Each term multiplies the right factor's value at source
        from the left by the left factor's value at op, and twists it when
        the left tuple is odd.
        """
        key = ("wedge", p, pp)
        if key in self._terms:
            return self._terms[key]
        entries = []
        for big in self.index_tuples(p + pp):
            pars = tuple(self.label_parity(a) for a in big)
            for left in itertools.combinations(range(p + pp), p):
                sigma = left + tuple(i for i in range(p + pp) if i not in left)
                lc = tuple(big[i] for i in left)
                rc = tuple(big[i] for i in sigma[p:])
                sgn = perm_sign(sigma) * commutation_factor(sigma, pars)
                entries.append((big, rc, lc, self.tuple_parity(lc), sgn))
        return self._collect(key, entries)

    def plan(
        self, key: tuple, terms: Sequence[Term], p_in: int, p_out: int, p_op: Optional[int] = None
    ) -> Plan:
        """The Plan of the term list cached under key, compiled on first use.

        terms map p_in-forms to p_out-forms; for the wedge, p_op is the
        degree of the left factor, whose tuples the ops are.
        """
        if key in self._plans:
            return self._plans[key]
        src, dst = self.positions(p_in), self.positions(p_out)
        pos = None if p_op is None else self.positions(p_op)
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
        plan = Plan(
            rows=twists * len(src) + sources,
            twins=(1 - twists) * len(src) + sources,
            ops=ops,
            groups=tuple((int(a), slice(int(i), int(j))) for a, i, j in zip(labels, starts, stops)),
            coefs=coefs,
        )
        self._plans[key] = plan
        return plan


def super_context(q: int, rho: float = 1.0) -> DerivationContext:
    """All five osp(1|2) derivations acting on End(V(q/2))."""
    sphere = FuzzySuperSphere(q, rho)
    basis = build_osp_basis()
    return DerivationContext(
        name=f"supersphere(q={q})",
        labels=(1, 2, 3, 4, 5),
        parities=basis.parities,
        constants=basis.constants,
        generators=tuple(sphere.generator(a) for a in (1, 2, 3, 4, 5)),
        sphere=sphere,
    )


def body_context(q: int, rho: float = 1.0) -> DerivationContext:
    """The three rotation derivations on the bosonic companion algebra."""
    sphere = FuzzySphere(q, rho)
    basis = build_osp_basis()
    dims = GradedDims(sphere.n, 0)
    gens = tuple(GradedMatrix(dims, sphere.rep.matrix(a)) for a in (1, 2, 3))
    return DerivationContext(
        name=f"sphere(q={q})",
        labels=(1, 2, 3),
        parities=(EVEN, EVEN, EVEN),
        constants=basis.constants[:3, :3, :3],
        generators=gens,
        sphere=sphere,
    )


#: doubled J_3 weights of J_+/sqrt2, J_-/sqrt2, J_3, J_4, J_5
_LADDER_WEIGHTS = (2, -2, 0, 1, -1)


def _ladder_frame(ctx: DerivationContext) -> DerivationContext:
    """ctx in the frame (J_+/sqrt2, J_-/sqrt2, J_3[, J_4, J_5]) of weight vectors.

    The label change U is unitary on labels 1 and 2 and the identity on the
    rest, so the frame's d has the singular values of ctx's.  Rounding residue
    in the transformed constants is snapped to exact zero: _substitutions
    skips only zero constants, and a residue would couple different weights.
    """
    k = len(ctx.labels)
    u = np.eye(k, dtype=complex)
    u[:2, :2] = np.array([[1, 1j], [1, -1j]]) / math.sqrt(2)
    gens = np.einsum("ab,bij->aij", u, np.array([g.mat for g in ctx.generators]))
    c = np.einsum("xC,ay,bz,xyz->Cab", u.conj().T, u, u, ctx.constants)
    c.real[np.abs(c.real) < 1e-12] = 0.0
    c.imag[np.abs(c.imag) < 1e-12] = 0.0
    return DerivationContext(
        name=ctx.name,
        labels=ctx.labels,
        parities=ctx.parities,
        constants=c,
        generators=tuple(GradedMatrix(ctx.dims, g) for g in gens),
        sphere=ctx.sphere,
        weights=_LADDER_WEIGHTS[:k],
    )


# ---------------------------------------------------------------------------
# forms


@dataclasses.dataclass(frozen=True, eq=False)
class SuperForm:
    """A p-form as one read-only (S, n, n) stack of values, in index_tuples order.

    Built from S*n*n entries or from {canonical p-tuple: GradedMatrix}, missing
    tuples zero, other keys or dims rejected; the values are copied and frozen.
    """

    ctx: DerivationContext
    p: int
    stack: np.ndarray

    def __post_init__(self) -> None:
        ctx, n = self.ctx, self.ctx.n
        pos = ctx.positions(self.p)
        if isinstance(self.stack, Mapping):
            out = np.zeros((len(pos), n, n), dtype=complex)
            for t, v in self.stack.items():
                if t not in pos:
                    raise ValueError(f"{t!r} is not a canonical {self.p}-tuple of {ctx.name}")
                if v.dims != ctx.dims:
                    raise ValueError(f"value on {t!r} has dims {v.dims}, expected {ctx.dims}")
                out[pos[t]] = v.mat
        else:
            out = np.array(np.reshape(self.stack, (len(pos), n, n)), dtype=complex)
        out.setflags(write=False)
        object.__setattr__(self, "stack", out)

    @classmethod
    def zero_form(cls, ctx: DerivationContext, p: int) -> "SuperForm":
        return cls(ctx, p, {})

    @classmethod
    def from_scalar(cls, ctx: DerivationContext, f: GradedMatrix) -> "SuperForm":
        """A 0-form, i.e. an algebra element."""
        return cls(ctx, 0, {(): f})

    def value(self) -> GradedMatrix:
        """The value of a 0-form."""
        return self.evaluate(())

    def evaluate(self, t: Sequence[Label]) -> GradedMatrix:
        """Value on an arbitrary tuple of basis derivations."""
        if len(t) != self.p:
            raise ValueError(f"expected {self.p} arguments, got {len(t)}")
        canon, sign = self.ctx.sort_signed(tuple(t))
        if canon is None:
            return GradedMatrix.zero(self.ctx.dims)
        return GradedMatrix(self.ctx.dims, self.stack[self.ctx.positions(self.p)[canon]] * sign)

    def __add__(self, other: "SuperForm") -> "SuperForm":
        self._check(other)
        return SuperForm(self.ctx, self.p, self.stack + other.stack)

    def __sub__(self, other: "SuperForm") -> "SuperForm":
        self._check(other)
        return SuperForm(self.ctx, self.p, self.stack - other.stack)

    def __mul__(self, s: complex) -> "SuperForm":
        return SuperForm(self.ctx, self.p, self.stack * s)

    __rmul__ = __mul__

    def __neg__(self) -> "SuperForm":
        return self * (-1)

    def _check(self, other: "SuperForm") -> None:
        if self.ctx is not other.ctx or self.p != other.p:
            raise ValueError("form mismatch")

    def norm(self) -> float:
        """The largest Frobenius norm of a value; 0.0 for a form with no values."""
        return float(np.linalg.norm(self.stack, axis=(1, 2)).max(initial=0.0))

    # -- coefficients in the dual-basis expansion

    def coefficients(self) -> Dict[IndexTuple, GradedMatrix]:
        """Coefficient table of the left-coefficient dual-basis expansion."""
        ctx = self.ctx
        return {t: _coeff_scalar(ctx, t) * self.evaluate(t) for t in ctx.index_tuples(self.p)}

    @classmethod
    def from_coefficients(
        cls, ctx: DerivationContext, p: int, coeffs: Mapping[IndexTuple, GradedMatrix]
    ) -> "SuperForm":
        return cls(ctx, p, {t: (1.0 / _coeff_scalar(ctx, t)) * v for t, v in coeffs.items()})


def _coeff_scalar(ctx: DerivationContext, t: IndexTuple) -> float:
    """Coefficient over value on t: (-1)^(k(k-1)/2) / (odd multiplicities)! for k odd labels."""
    odd = [a for a in t if ctx.label_parity(a)]
    mult = math.prod(math.factorial(len(list(grp))) for _, grp in itertools.groupby(odd))
    return (-1.0) ** (len(odd) * (len(odd) - 1) // 2) / mult


def random_superform(
    ctx: DerivationContext,
    p: int,
    rng: np.random.Generator,
    parity: Optional[int] = None,
) -> SuperForm:
    """Random p-form; homogeneous of the given parity when requested."""
    vals = {}
    for t in ctx.index_tuples(p):
        value_parity = None if parity is None else (parity + ctx.tuple_parity(t)) % 2
        vals[t] = random_graded_matrix(ctx.dims, rng, parity=value_parity)
    return SuperForm(ctx, p, vals)


def lambda_form(ctx: DerivationContext, a: Label) -> SuperForm:
    """Dual 1-form: unit on derivation a, zero on the others."""
    if a not in ctx.labels:
        raise ValueError(f"unknown label {a!r}")
    return SuperForm(ctx, 1, {(a,): ctx.unit})


def maurer_cartan(ctx: DerivationContext) -> SuperForm:
    """The invariant 1-form picking out each generator: Lambda(D_a) = E_a."""
    return SuperForm(ctx, 1, {(a,): ctx.generators[a - 1] for a in ctx.labels})


# ---------------------------------------------------------------------------
# the Cartan operations


def _apply(w: SuperForm, p: int, plan: Plan, act: Callable[[np.ndarray], np.ndarray]) -> SuperForm:
    """The p-form whose stack is plan.coefs @ act([X; tau X]), X the stack of w.

    act returns the (inputs, n, n) stack of the plan's inputs, acted on.
    """
    ctx = w.ctx
    y = act(np.concatenate([w.stack, w.stack * ctx.grade]))
    return SuperForm(ctx, p, plan.coefs @ y.reshape(len(y), ctx.n * ctx.n))


def _derive(ctx: DerivationContext, x: np.ndarray, plan: Plan) -> np.ndarray:
    """The inputs of a derivation plan acted on: E_a X - X' E_a per label a.

    X is the label's run of inputs, gathered from the stack x, and X' is X
    with the other twist (plan.twins) when E_a is odd, else X; label 0 is
    the identity.
    """
    y = np.empty((len(plan.rows), ctx.n, ctx.n), dtype=complex)
    for a, run in plan.groups:
        f = x[plan.rows[run]]
        if a == 0:
            y[run] = f
            continue
        e = ctx.generators[a - 1].mat
        right = x[plan.twins[run]] if ctx.label_parity(a) else f
        y[run] = e @ f - right @ e
    return y


def wedge(w1: SuperForm, w2: SuperForm) -> SuperForm:
    """Graded wedge; on 0-forms it is left/right multiplication."""
    ctx = w1.ctx
    if ctx is not w2.ctx:
        raise ValueError("forms live on different contexts")
    p, pp = w1.p, w2.p
    plan = ctx.plan(("wedge", p, pp), ctx.wedge_plan(p, pp), pp, p + pp, p)
    return _apply(w2, p + pp, plan, lambda x: w1.stack[plan.ops] @ x[plan.rows])


def lie_derivative(a: Label, w: SuperForm) -> SuperForm:
    """L_a: derivation of the value minus substitution into each slot."""
    ctx = w.ctx
    plan = ctx.plan(("lie", a, w.p), ctx.lie_terms(a, w.p), w.p, w.p)
    return _apply(w, w.p, plan, lambda x: _derive(ctx, x, plan))


def interior(a: Label, w: SuperForm) -> SuperForm:
    """iota_a: plug derivation a into the first slot; zero on 0-forms."""
    ctx = w.ctx
    if w.p == 0:
        return SuperForm.zero_form(ctx, 0)
    pos = ctx.positions(w.p)
    out = np.zeros((len(ctx.index_tuples(w.p - 1)), ctx.n, ctx.n), dtype=complex)
    for i, t in enumerate(ctx.index_tuples(w.p - 1)):
        canon, sign = ctx.sort_signed((a,) + t)
        if canon is not None:
            out[i] = w.stack[pos[canon]] * sign
    return SuperForm(ctx, w.p - 1, out)


def exterior_d(w: SuperForm) -> SuperForm:
    """The graded exterior derivative.

    Alternating sum of derivations of punctured values plus the bracket
    substitution sum (DerivationContext.d_terms); matches the recursion
    through the Lie derivative and interior product, which the tests pin
    down.
    """
    ctx = w.ctx
    plan = ctx.plan(("d", w.p), ctx.d_terms(w.p), w.p, w.p + 1)
    return _apply(w, w.p + 1, plan, lambda x: _derive(ctx, x, plan))


# ---------------------------------------------------------------------------
# d and L as matrices on coefficient space


def _layout(
    ctx: DerivationContext, p: int, weight: Optional[int]
) -> Tuple[Dict[IndexTuple, tuple], int]:
    """Where each canonical p-tuple's value sits in a stacked vector, and its length.

    Maps each tuple to (offset, key, kept entries), the entries as row-major
    (rows, cols) index arrays for graded.restricted_adjoint.  Without a weight
    all are kept (key None); with a doubled total weight, only those whose
    entry weight minus the tuple's label weight (key) equals it.
    """
    if weight is not None and ctx.weights is None:
        raise ValueError("a weight needs a frame of weight vectors")
    two_m = entry_weights(ctx.generators[2].mat)
    out, offset, kept = {}, 0, {}
    for t in ctx.index_tuples(p):
        key = None if weight is None else sum(ctx.weights[a - 1] for a in t)
        if key not in kept:
            keep = np.ones(two_m.shape, dtype=bool) if key is None else two_m == weight + key
            kept[key] = np.nonzero(keep)
        out[t] = (offset, key, kept[key])
        offset += kept[key][0].size
    return out, offset


def _assemble(
    ctx: DerivationContext,
    terms: Iterable[Term],
    p_out: int,
    p_in: int,
    weight: Optional[int] = None,
) -> np.ndarray:
    """Terms as a matrix from Omega^p_in to Omega^p_out on stacked value vectors.

    A term adds its coefficient times a block: graded.restricted_adjoint of
    E_a between the kept entries (see _layout), or the identity for label 0,
    with columns scaled by the grade signs if twisted.  With a weight, only
    the rows and columns of that total weight are kept.
    """
    dst, n_rows = _layout(ctx, p_out, weight)
    src, n_cols = _layout(ctx, p_in, weight)
    out = np.zeros((n_rows, n_cols), dtype=complex)
    blocks = ctx._blocks
    for target, source, label, twist, coef in terms:
        (row, rkey, rent), (col, ckey, cent) = dst[target], src[source]
        key = (label, twist, weight, rkey, ckey)
        if key not in blocks:
            if label:
                block = restricted_adjoint(ctx.generators[label - 1], rent, cent)
            else:
                block = np.eye(cent[0].size)
            blocks[key] = block * ctx.grade[cent] if twist else block
        h, w = blocks[key].shape
        out[row : row + h, col : col + w] += coef * blocks[key]
    return out


def form_to_vec(w: SuperForm) -> np.ndarray:
    """The stack of w as one read-only vector, the layout of d_matrix."""
    return w.stack.reshape(-1)


def vec_to_form(ctx: DerivationContext, p: int, vec: np.ndarray) -> SuperForm:
    """The p-form whose stack is vec, copied, in the layout of d_matrix."""
    return SuperForm(ctx, p, vec)


def d_matrix(ctx: DerivationContext, p: int, weight: Optional[int] = None) -> np.ndarray:
    """d: Omega^p -> Omega^(p+1) on stacked value vectors, or its block of one weight.

    d commutes with L_3, so in a frame of weight vectors it keeps the total
    weight, and the weight block is d on that subcomplex (see _layout).
    """
    return _assemble(ctx, ctx.d_terms(p), p + 1, p, weight)


def lie_matrix(ctx: DerivationContext, a: Label, p: int) -> np.ndarray:
    """L_a on Omega^p as a matrix, same vec layout as d_matrix."""
    return _assemble(ctx, ctx.lie_terms(a, p), p, p)


def invariant_one_forms(ctx: DerivationContext, tol: float = 1e-8) -> RankDecision:
    """Rank decision for the joint kernel of all L_a on 1-forms.

    The kernel dimension is dim Omega^1 minus the rank; the invariant
    Maurer-Cartan form spans it when the kernel is one-dimensional.
    """
    stacked = np.vstack([lie_matrix(ctx, a, 1) for a in ctx.labels])
    return rank_decision(stacked, tol)


# ---------------------------------------------------------------------------
# maps between complexes


def body_cochain_map(w: SuperForm, bctx: DerivationContext) -> SuperForm:
    """Restrict to the even derivations and push values through the body map.

    Canonical body tuples are strictly increasing even labels, which are
    canonical upstairs too, so the restriction is value-wise.
    """
    ctx = w.ctx
    if not isinstance(ctx.sphere, FuzzySuperSphere) or not isinstance(bctx.sphere, FuzzySphere):
        raise ValueError("body_cochain_map goes from the super context to the body context")
    if ctx.sphere.q != bctx.sphere.q:
        raise ValueError("levels must agree")
    pos = ctx.positions(w.p)
    values = [
        body_map_fuzzy(GradedMatrix(ctx.dims, w.stack[pos[t]]), ctx.sphere, bctx.sphere)
        for t in bctx.index_tuples(w.p)
    ]
    return SuperForm(bctx, w.p, values)


def eta_forms(w: SuperForm, ctx_to: DerivationContext) -> SuperForm:
    """Change of level applied value-wise through the coefficient maps."""
    ctx = w.ctx
    if not isinstance(ctx.sphere, FuzzySuperSphere) or not isinstance(
        ctx_to.sphere, FuzzySuperSphere
    ):
        raise ValueError("eta_forms moves between super contexts")
    values = []
    for v in w.stack:
        e = ctx.sphere.decompose(GradedMatrix(ctx.dims, v))
        values.append(ctx_to.sphere.reconstruct(eta(e, ctx_to.sphere.q)).mat)
    return SuperForm(ctx_to, w.p, values)


# ---------------------------------------------------------------------------
# cohomology


@dataclasses.dataclass(frozen=True)
class CohomologyReport:
    """Betti numbers with the rank decisions that produced them."""

    name: str
    p_max: int
    dims: Tuple[int, ...]
    betti: Tuple[int, ...]
    decisions: Tuple[RankDecision, ...]
    tol: float

    @property
    def inconclusive(self) -> bool:
        return any(dec.inconclusive for dec in self.decisions)

    @property
    def min_gap(self) -> float:
        return min((dec.gap for dec in self.decisions), default=math.inf)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "p_max": self.p_max,
            "dims": list(self.dims),
            "betti": list(self.betti),
            "ranks": [dec.rank for dec in self.decisions],
            "sv_gaps": [dec.gap for dec in self.decisions],
            "tol": self.tol,
            "inconclusive": self.inconclusive,
        }


def _betti_report(
    name: str, dims: Tuple[int, ...], d_of: Callable[[int], np.ndarray], tol: float
) -> CohomologyReport:
    """betti_p = dims[p] - rank d_p - rank d_(p-1), for p < len(dims)."""
    decisions = tuple(rank_decision(d_of(p), tol) for p in range(len(dims)))
    betti = tuple(
        dims[p] - decisions[p].rank - (decisions[p - 1].rank if p > 0 else 0)
        for p in range(len(dims))
    )
    return CohomologyReport(
        name=name, p_max=len(dims) - 1, dims=dims, betti=betti, decisions=decisions, tol=tol
    )


def cohomology_dims(ctx: DerivationContext, p_max: int, tol: float = 1e-8) -> CohomologyReport:
    """Betti numbers of the derivation complex for p = 0..p_max.

    Computed on the weight-0 subcomplex of the ladder frame (_ladder_frame).
    There L_3 acts on each form component by its total weight, the entry's
    weight minus its labels' weights, and L_3 = d iota_3 + iota_3 d commutes
    with d.  So each subcomplex of nonzero weight w is acyclic (iota_3 / w is
    a contracting homotopy), and the cohomology is that of the weight-0 part.
    dims are the weight-0 dimensions, and betti_p = dims[p] - rank d_p -
    rank d_(p-1), each rank backed by a singular-value gap decision; the
    frame change is unitary, so each block's spectrum is part of the full
    one.
    """
    frame = _ladder_frame(ctx)
    dims = tuple(_layout(frame, p, 0)[1] for p in range(p_max + 1))
    return _betti_report(
        f"{ctx.name} [weight 0]", dims, lambda p: d_matrix(frame, p, weight=0), tol
    )


def center_d_matrix(ctx: DerivationContext, p: int) -> np.ndarray:
    """d restricted to forms valued in multiples of the unit.

    The derivation terms vanish on the center, leaving the label-0 bracket
    substitution scalars of d_terms: the trivial-coefficient complex of the
    derivation algebra, independent of the level.
    """
    src, dst = ctx.positions(p), ctx.positions(p + 1)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for target, source, label, _, coef in ctx.d_terms(p):
        if label == 0:
            out[dst[target], src[source]] += coef
    return out


def center_cohomology_dims(
    ctx: DerivationContext, p_max: int, tol: float = 1e-8
) -> CohomologyReport:
    """Betti numbers of the center-valued subcomplex, as a cross-check.

    Only the unit-multiple block of the algebra can carry cohomology, so
    these must agree with the full computation.
    """
    dims = tuple(len(ctx.index_tuples(p)) for p in range(p_max + 1))
    return _betti_report(f"{ctx.name} [center]", dims, lambda p: center_d_matrix(ctx, p), tol)


EXPECTED_BETTI_SUPER = (1, 0, 0, 1, 0, 0)
EXPECTED_BETTI_BODY = (1, 0, 0, 1)
