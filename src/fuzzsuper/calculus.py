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
|w| is the value parity plus the tuple parity.  d, L_a, iota_a and the
wedge are written out once per degree as cached term lists; the part of a
sign that depends on the value parity is a grade twist of the source value
(even part minus odd part), so no operator splits a form by parity.
Each list is compiled in one pass over the canonical tuples: a bracket
substitution inserts the one new label into the canonical remainder by
bisection, and each term is added straight into the merged list.
The same insertion (_insert) places an interior product's label and, folded
over a tuple, gives sort_signed: one reordering rule.  The pointwise
operators apply each term list to a form's stack through its Plan: one
gather of its inputs, the twisted ones times the grade signs in place, one
batched product per derivation label, or one for the wedge, and one
coefficient matrix that sums them into the result's stack, which the new
form adopts without a copy (SuperForm._adopt).

_assemble is the one builder of matrices on the full coefficient space:
d_matrix and lie_matrix come from it.  No rank reads them: verify's
"matrix assembly" row checks d_matrix against exterior_d, and the tests
check both.  The center complex is the exception: center_d_matrix builds
its small matrix on its own, from the label-0 terms of d_terms, because on
multiples of the unit only those terms survive.
In a frame of weight vectors it builds one total weight at a time, the
entry weight minus the label weight of its tuple (the one sum of label
weights, DerivationContext.tuple_weight).  That rule lives in _layout
alone: _assemble reads the shift of the total weight from its term list,
and form_weights lists the weights that _layout finds entries for.  The
entries of each entry weight come from one place, the buckets that J_3
caches (graded.GradedMatrix.weight_buckets); the fuzzy weight tables read
the same buckets.

The canonical tuples, their positions, the bracket table, the term lists
and their Plans follow from the labels, parities and structure constants
alone, not from the level.  They are compiled once per derivation algebra,
into one record (_Algebra) that every context with the same constants
shares: every level q, and every ladder frame, whose snapped constants are
the same bytes at every q.  The first context of an algebra makes its
record, and each list is compiled when first asked for.  What depends on
the matrix algebra stays per context: the sphere, the ladder frame, and
the layouts and blocks that d_matrix and lie_matrix are assembled from.
The generators are the sphere's own: super_context and body_context pass
each frozen sphere.rep.matrix(a) through, and the ladder frame forms only
J_+/sqrt2 and J_-/sqrt2 and passes the rest through, so a level has one
object per generator and each cache on it (weight_buckets,
adjoint_stencil) is built once.

Both ranks, the cohomology's and the invariant 1-forms', are computed in
the ladder frame of weight vectors (J_+/sqrt2, J_-/sqrt2, J_3, J_4, J_5),
on weight-0 forms only: there L_3 = d iota_3 + iota_3 d acts on each form
component by its total weight, so every subcomplex of nonzero weight is
acyclic, and no 1-form of nonzero weight is invariant.  The
weight-0 blocks of d, and of the L_a on 1-forms, are ranked one
irreducible summand V(j) of the matrix algebra at a time: the derivations
act on the values alone, so both are block diagonal over the summands.
Each block is built from its term list, compiled as SummandTerms next to
the Plans (every term of d or of one L_a shifts the total weight alike),
and the irrep's closed-form matrix elements (osp.weight_elements), with no
matrix of the level formed.  The frame's structure constants and
generators are exactly real, so these blocks, its d and L_a matrices and
those of the center cross-check in the same frame are assembled and ranked
in float64.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from typing import (
    Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .fuzzy import FuzzySphere, FuzzySuperSphere, body_map_fuzzy, eta
from .graded import (
    EVEN,
    ODD,
    GradedDims,
    GradedMatrix,
    RankDecision,
    graded_commutator,  # noqa: F401 -- kept as a name of this module; perfbench's span test reads it
    rank_decision,
    random_graded_matrix,
    restricted_adjoint,
)
from .osp import LABELS, LADDER_STEPS, build_osp_basis, weight_elements

Label = int
IndexTuple = Tuple[Label, ...]
#: (target tuple, source tuple, operator, twist, coefficient); see DerivationContext
Term = Tuple[IndexTuple, IndexTuple, Union[Label, IndexTuple], int, complex]


class Plan(NamedTuple):
    """A term list compiled for _apply, which runs it on a form's stack.

    The inputs are the distinct (op, twist, source) triples of the terms,
    sorted by op.  Input k is row sources[k] of the source form's stack,
    multiplied by the grade signs (its grade twist) where twisted[k].
    ops[k] is its derivation label, or for the wedge the row of its left
    tuple in the left factor's stack, and groups holds each op with its run
    of inputs.  coefs is the (targets x inputs) matrix that sums the inputs,
    acted on, into the rows of the result.
    """

    sources: np.ndarray
    twisted: np.ndarray
    ops: np.ndarray
    groups: Tuple[Tuple[int, slice], ...]
    coefs: np.ndarray


class SummandTerms(NamedTuple):
    """A term list of one weight shift, compiled for the summand blocks V(j) on weight-0 forms.

    The list is d on p-forms or L_a on p-forms (DerivationContext.summand_terms).
    Each of its terms moves the total weight by the same shift: 0 for d and
    weight(a) for L_a.  A weight-0 p-form valued in an irrep V(j) has one
    value on each canonical tuple t with |weight(t)| <= 2j, a multiple of the
    weight vector v(weight(t)): each weight occurs once in V(j).  Its image
    has total weight shift, so its value on a tuple t is a multiple of
    v(weight(t) + shift), kept where |weight(t) + shift| <= 2j: only the
    row reach depends on the shift.  The tuples are numbered by ascending
    reach, in a stable sort, so those that V(j) keeps are a prefix; in_reach
    and out_reach hold the sorted reaches of the source and target tuples.
    Term k adds coefs[k] times the element of its op (0: the identity) on
    v(weights[k]), the weight of its source tuple, at (rows[k], cols[k]),
    signed by the parity of v(weights[k]) where twisted[k].  That parity is
    the parity of the weight (osp.weight_elements; every weight is even on
    the body), so the twist of an identity term, which L_a of an odd a has,
    is folded into its coefficient, and only terms with an odd op are
    twisted.  The terms are sorted by op, and groups holds each op with its
    run, as in Plan.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    twisted: np.ndarray
    coefs: np.ndarray
    groups: Tuple[Tuple[int, slice], ...]
    in_reach: np.ndarray
    out_reach: np.ndarray


@dataclasses.dataclass(eq=False)
class _Algebra:
    """The caches of one derivation algebra, shared by all of its contexts.

    Everything here follows from the labels, their parities and the
    structure constants alone, not from the matrix algebra the derivations
    act on: the bracket table, built with the record, and, compiled as
    contexts first ask for them, the canonical tuples and their positions
    per degree, the term lists (keyed ("d", p), ("lie", a, p), ("interior",
    a, p) and ("wedge", p, pp)), their Plans and, in a frame of weight
    vectors, the SummandTerms of d per degree, all arrays read-only.  A
    frame's label weights follow from its constants (the brackets with J_3),
    so they are the algebra's too.
    """

    #: (a, b) -> ((c, c^C_ab), ...): the nonzero brackets, c ascending
    brackets: Dict[Tuple[Label, Label], Tuple[Tuple[Label, complex], ...]]
    tuples: Dict[int, Tuple[IndexTuple, ...]] = dataclasses.field(default_factory=dict)
    positions: Dict[int, Dict[IndexTuple, int]] = dataclasses.field(default_factory=dict)
    terms: Dict[tuple, Tuple[Term, ...]] = dataclasses.field(default_factory=dict)
    plans: Dict[tuple, Plan] = dataclasses.field(default_factory=dict)
    summands: Dict[tuple, SummandTerms] = dataclasses.field(default_factory=dict)


#: the _Algebra of each derivation algebra met in this process, keyed by
#: content: labels, parities and the constants' dtype, shape and bytes
_ALGEBRAS: Dict[tuple, _Algebra] = {}


def _algebra(
    labels: Tuple[Label, ...], parities: Tuple[int, ...], constants: np.ndarray
) -> _Algebra:
    """The shared record of the derivation algebra with these constants, made on first use."""
    key = (labels, parities, constants.dtype.str, constants.shape, constants.tobytes())
    if key not in _ALGEBRAS:
        brackets: Dict[Tuple[Label, Label], Tuple[Tuple[Label, complex], ...]] = {}
        for a, b, c in np.argwhere(np.transpose(constants, (1, 2, 0)) != 0).tolist():
            entry = (c + 1, complex(constants[c, a, b]))
            brackets[a + 1, b + 1] = brackets.get((a + 1, b + 1), ()) + (entry,)
        _ALGEBRAS[key] = _Algebra(brackets)
    return _ALGEBRAS[key]


class DerivationContext:
    """A matrix algebra together with its distinguished basis derivations.

    Carries the structure constants of the derivation algebra and serves
    the canonical index tuples and the term lists of d (d_terms), L_a
    (lie_terms), iota_a (interior_terms) and the wedge (wedge_plan).  These
    and their Plans depend on the algebra alone, so they are cached in the
    record (_Algebra) that every context with the same labels, parities and
    constants shares; the context itself caches only what depends on its
    generators: its ladder frame and the layouts and blocks of the
    assembled matrices.  A term (target, source, op, twist, coefficient)
    adds coefficient times op applied to the source value into the target
    value; op is a derivation label, 0 for none, or for the wedge the left
    factor's tuple.  These
    lists hold the whole sign convention: a term with twist 1 carries the
    sign (-1)^|w| of its source form, the tuple part of which is folded into
    the coefficient, while the value part is the grade twist (even part
    minus odd part) of the source value.  Two flavors exist: the five
    osp(1|2) derivations on the graded algebra and their three even
    companions on the body.  In a frame of weight vectors (_ladder_frame,
    cached as ladder) the context also knows the doubled J_3 weight of each
    label, which _layout subtracts from the entry weights to give each
    entry its total weight.  The ladder frame has exactly real constants
    and generators; such a context is flagged real, and its d matrices are
    float64.  A label outside labels is rejected with a ValueError
    (check_label).

    Each list is compiled in one pass, terms merged per (target, source, op,
    twist) in the order they are first met.  The structure constants are
    read once into a table of the nonzero brackets (a, b) -> ((c, c^C_ab),
    ...).  A substitution puts c into a tuple with one slot taken out, which
    is still canonical, so its canonical form and sign come from moving c
    alone to its place (_insert), as in interior and sort_signed.  The slot
    parity sums are prefix sums, formed once per tuple.

    The pointwise operators read each term list through its Plan (plan),
    compiled once and cached next to the term list, with read-only arrays:
    every context of the algebra reads the same Plan.  Each generator must be
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
        self._parity = dict(zip(self.labels, self.parities))
        for a, g in zip(self.labels, self.generators):
            if g.part(1 - self.label_parity(a)).mat.any():
                raise ValueError(f"generator {a} is not homogeneous of its label's parity")
        self._algebra = _algebra(self.labels, self.parities, constants)
        self.unit = GradedMatrix.identity(self.dims)
        #: +1 on even matrix entries, -1 on odd ones: the grade twist
        self.grade = self.dims.twist
        #: in a frame of weight vectors: the doubled J_3 weights of the labels
        self.weights = None if weights is None else tuple(weights)
        #: constants and generators have exactly zero imaginary part, so
        #: d_matrix and center_d_matrix are assembled in float64
        self.real = not np.imag(constants).any() and not any(
            np.imag(g.mat).any() for g in self.generators
        )
        self._ladder: Optional[DerivationContext] = None
        self._blocks: Dict[tuple, np.ndarray] = {}  # of _assemble, shared by its calls
        self._layouts: Dict[tuple, tuple] = {}  # of _layout, per (p, weight)

    @property
    def ladder(self) -> "DerivationContext":
        """This context in its frame of weight vectors (_ladder_frame), built once.

        A context that already has weights is its own frame.
        """
        if self.weights is not None:
            return self
        if self._ladder is None:
            self._ladder = _ladder_frame(self)
        return self._ladder

    # -- labels and tuples

    def check_label(self, a: Label) -> None:
        """Reject a label that is not one of labels, naming it."""
        if a not in self._parity:
            raise ValueError(f"unknown label {a!r} of {self.name}")

    def label_parity(self, a: Label) -> int:
        self.check_label(a)
        return self._parity[a]

    def tuple_parity(self, t: IndexTuple) -> int:
        return sum(self.label_parity(a) for a in t) % 2

    def tuple_weight(self, t: IndexTuple) -> int:
        """The doubled J_3 weight of a label tuple in a frame of weight vectors: its labels' sum."""
        return sum(self.weights[a - 1] for a in t)

    def index_tuples(self, p: int) -> Tuple[IndexTuple, ...]:
        """Canonical tuples: strictly increasing evens then repeatable odds."""
        tuples = self._algebra.tuples
        if p not in tuples:
            evens = [a for a in self.labels if self.label_parity(a) == EVEN]
            odds = [a for a in self.labels if self.label_parity(a) == ODD]
            out = []
            for k in range(min(len(evens), p), -1, -1):
                for ev in itertools.combinations(evens, k):
                    for od in itertools.combinations_with_replacement(odds, p - k):
                        out.append(ev + od)
            tuples[p] = tuple(sorted(out))
        return tuples[p]

    def positions(self, p: int) -> Dict[IndexTuple, int]:
        """The row of each canonical p-tuple in the stack of a p-form."""
        positions = self._algebra.positions
        if p not in positions:
            positions[p] = {t: i for i, t in enumerate(self.index_tuples(p))}
        return positions[p]

    def sort_signed(self, t: IndexTuple) -> Tuple[Optional[IndexTuple], int]:
        """Canonical form and reordering sign; (None, 0) for a vanishing slot.

        Each label of t is inserted (_insert) into the canonical tuple of the
        labels before it; every label is checked (check_label).
        """
        for a in t:
            self.check_label(a)
        canon, sign = (), 1
        for a in t:
            canon, s = self._insert(canon, len(canon), a)
            if not s:
                return None, 0
            sign *= s
        return canon, sign

    # -- term lists

    def _keep(self, key: tuple, acc: Dict[tuple, complex]) -> Tuple[Term, ...]:
        """Cache the merged terms of acc, in insertion order, dropping zero sums."""
        terms = tuple(k + (complex(c),) for k, c in acc.items() if c != 0)
        self._algebra.terms[key] = terms
        return terms

    def d_terms(self, p: int) -> Tuple[Term, ...]:
        """Terms of d: Omega^p -> Omega^(p+1).

        On each canonical (p+1)-tuple: D_l of the value with slot l left
        out, signed by the slots it passes and twisted when D_l is odd, and
        the bracket [D_l, D_l'] substituted into slot l for each l < l'.
        """
        key = ("d", p)
        if key in self._algebra.terms:
            return self._algebra.terms[key]
        par, brackets, insert = self._parity, self._algebra.brackets, self._insert
        acc: Dict[tuple, complex] = {}
        for big in self.index_tuples(p + 1):
            pars = [par[b] for b in big]
            before = list(itertools.accumulate(pars, initial=0))  # odd slots before each
            for l in range(p + 1):
                source = big[:l] + big[l + 1 :]
                sign = -1 if (l + pars[l] * before[l]) % 2 else 1
                if pars[l] and (before[-1] - 1) % 2:  # the twist's (-1)^|source|
                    sign = -sign
                k = (big, source, big[l], pars[l])
                acc[k] = acc.get(k, 0) + sign
                for lp in range(l + 1, p + 1):
                    subs = brackets.get((big[l], big[lp]))
                    if subs is None:
                        continue
                    sign = -1 if (lp + pars[lp] * (before[lp] - before[l + 1])) % 2 else 1
                    rest = source[: lp - 1] + source[lp:]
                    for c, coef in subs:
                        canon, s = insert(rest, l, c)
                        if s:
                            k = (big, canon, 0, 0)
                            acc[k] = acc.get(k, 0) + sign * s * coef
        return self._keep(key, acc)

    def lie_terms(self, a: Label, p: int) -> Tuple[Term, ...]:
        """Terms of L_a on Omega^p.

        D_a of the value minus [D_a, D_b] substituted into each slot b,
        twisted when D_a is odd and signed by the slots before b.
        """
        key = ("lie", a, p)
        if key in self._algebra.terms:
            return self._algebra.terms[key]
        par_a = self.label_parity(a)
        par, brackets, insert = self._parity, self._algebra.brackets, self._insert
        acc: Dict[tuple, complex] = {}
        for t in self.index_tuples(p):
            acc[(t, t, a, 0)] = 1
            odd = sum(par[b] for b in t) % 2
            before = 0  # parity of the slots before b
            for slot, b in enumerate(t):
                subs = brackets.get((a, b))
                if subs is not None:
                    sign = 1 if par_a and before else -1
                    rest = t[:slot] + t[slot + 1 :]
                    for c, coef in subs:
                        canon, s = insert(rest, slot, c)
                        if s:
                            value = sign * s * coef
                            if par_a and (odd + par[b] + par[c]) % 2:  # (-1)^|canon|
                                value = -value
                            k = (t, canon, 0, par_a)
                            acc[k] = acc.get(k, 0) + value
                before ^= par[b]
        return self._keep(key, acc)

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
        if key in self._algebra.terms:
            return self._algebra.terms[key]
        par = self._parity
        slots = range(p + pp)
        acc: Dict[tuple, complex] = {}
        for big in self.index_tuples(p + pp):
            pars = [par[a] for a in big]
            odd_before = list(itertools.accumulate(pars, initial=0))
            for left in itertools.combinations(slots, p):
                # slot i, the j-th of I, moves past the i - j slots of the rest
                # before it, odd_before[i] - odd_left of them odd; each flips
                # the sign unless both are odd
                flips = odd_left = 0
                for j, i in enumerate(left):
                    flips += i - j
                    if pars[i]:
                        flips -= odd_before[i] - odd_left
                        odd_left += 1
                twist = odd_left % 2
                if twist and (odd_before[-1] - odd_left) % 2:  # (-1)^|right tuple|
                    flips += 1
                lc = tuple(big[i] for i in left)
                rc = tuple(big[i] for i in slots if i not in left)
                k = (big, rc, lc, twist)
                acc[k] = acc.get(k, 0) + (-1 if flips % 2 else 1)
        return self._keep(key, acc)

    def interior_terms(self, a: Label, p: int) -> Tuple[Term, ...]:
        """Terms of iota_a: Omega^p -> Omega^(p-1), for p >= 1.

        The value on each canonical (p-1)-tuple t is the value on a put into
        slot 0 of t, at its canonical place (_insert) and signed by the
        labels it passes; no op, no twist.
        """
        key = ("interior", a, p)
        if key in self._algebra.terms:
            return self._algebra.terms[key]
        self.check_label(a)
        acc: Dict[tuple, complex] = {}
        for t in self.index_tuples(p - 1):
            canon, sign = self._insert(t, 0, a)
            if sign:
                acc[(t, canon, 0, 0)] = sign
        return self._keep(key, acc)

    def _insert(self, rest: IndexTuple, slot: int, c: Label) -> Tuple[IndexTuple, int]:
        """Canonical form and sign of canonical rest with c put in at slot: c moves alone.

        c passes the labels of rest[:slot] greater than it or those of
        rest[slot:] less than it, and each flips the sign unless both are
        odd; an even c already in rest gives (None, 0).
        """
        par = self._parity
        at = bisect.bisect_right(rest, c, 0, slot)
        if at < slot:
            passed = rest[at:slot]
        else:
            at = bisect.bisect_left(rest, c, slot)
            passed = rest[slot:at]
        if par[c]:
            flips = len(passed) - sum(map(par.__getitem__, passed))  # the even ones
        elif c in rest:
            return None, 0
        else:
            flips = len(passed)
        return rest[:at] + (c,) + rest[at:], -1 if flips % 2 else 1

    def plan(
        self, key: tuple, terms: Sequence[Term], p_in: int, p_out: int, p_op: Optional[int] = None
    ) -> Plan:
        """The Plan of the term list cached under key, compiled on first use.

        terms map p_in-forms to p_out-forms; for the wedge, p_op is the
        degree of the left factor, whose tuples the ops are.  Each input is
        keyed by one integer, (op * 2 + twist) * len(source tuples) + source,
        so that sorting the keys sorts the (op, twist, source) triples.
        """
        plans = self._algebra.plans
        if key in plans:
            return plans[key]
        src, dst = self.positions(p_in), self.positions(p_out)
        pos = None if p_op is None else self.positions(p_op)
        size = len(src)
        ops = [t[2] for t in terms] if pos is None else [pos[t[2]] for t in terms]
        keys = np.array(ops, dtype=np.intp) * 2 + np.array([t[3] for t in terms], dtype=np.intp)
        keys = keys * size + np.array([src[t[1]] for t in terms], dtype=np.intp)
        inputs, column = np.unique(keys, return_inverse=True)
        coefs = np.zeros((len(dst), len(inputs)), dtype=complex)
        targets = np.array([dst[t[0]] for t in terms], dtype=np.intp)
        np.add.at(coefs, (targets, column), np.array([t[4] for t in terms], dtype=complex))
        ops, rows = np.divmod(inputs, 2 * size)
        twists, sources = np.divmod(rows, size)
        labels, starts = np.unique(ops, return_index=True)
        stops = [*starts[1:], len(ops)]
        plan = Plan(
            sources=sources,
            twisted=twists.astype(bool),
            ops=ops,
            groups=tuple((int(a), slice(int(i), int(j))) for a, i, j in zip(labels, starts, stops)),
            coefs=coefs,
        )
        for array in (plan.sources, plan.twisted, plan.ops, plan.coefs):
            array.setflags(write=False)
        plans[key] = plan
        return plan

    def summand_terms(self, p: int, a: Optional[Label] = None) -> SummandTerms:
        """d_terms(p), or lie_terms(a, p) with a label, as SummandTerms, compiled on first use.

        The shift of the total weight is 0 for d and weight(a) for L_a.
        Needs a frame of weight vectors.  The coefficients of such a frame
        are exactly real (_ladder_frame), and so are those compiled here: a
        term with an imaginary part is rejected (ValueError).
        """
        if self.weights is None:
            raise ValueError("summand blocks need a frame of weight vectors")
        key = ("d", p) if a is None else ("lie", a, p)
        cache = self._algebra.summands
        if key in cache:
            return cache[key]
        if a is None:
            terms, p_out, shift = self.d_terms(p), p + 1, 0
        else:
            terms, p_out, shift = self.lie_terms(a, p), p, self.weights[a - 1]
        terms = sorted(terms, key=lambda t: t[2])  # by op, stably

        def by_reach(degree: int, shift: int) -> Tuple[Dict[IndexTuple, int], np.ndarray]:
            tuples = self.index_tuples(degree)
            reach = np.abs([self.tuple_weight(t) + shift for t in tuples]).astype(np.intp)
            order = np.argsort(reach, kind="stable")
            return {tuples[i]: k for k, i in enumerate(order.tolist())}, reach[order]

        (src, in_reach), (dst, out_reach) = by_reach(p, 0), by_reach(p_out, shift)
        coefs = np.array([t[4] for t in terms], dtype=complex)
        if coefs.imag.any():
            what = "d" if a is None else f"L_{a}"
            raise ValueError(f"the terms of {what} on {p}-forms of {self.name} are not real")
        ops = np.array([t[2] for t in terms], dtype=np.intp)
        weights = np.array([self.tuple_weight(t[1]) for t in terms], dtype=np.intp)
        twisted = np.array([t[3] for t in terms], dtype=bool)
        folded = twisted & (ops == 0)  # the identity keeps v(w), of the parity of w
        labels, starts = np.unique(ops, return_index=True)
        stops = [*starts[1:], len(terms)]
        compiled = SummandTerms(
            rows=np.array([dst[t[0]] for t in terms], dtype=np.intp),
            cols=np.array([src[t[1]] for t in terms], dtype=np.intp),
            weights=weights,
            twisted=twisted & ~folded,
            coefs=np.where(folded & (weights % 2 == 1), -coefs.real, coefs.real),
            groups=tuple((int(b), slice(int(i), int(j))) for b, i, j in zip(labels, starts, stops)),
            in_reach=in_reach,
            out_reach=out_reach,
        )
        for array in compiled:
            if isinstance(array, np.ndarray):
                array.setflags(write=False)
        cache[key] = compiled
        return compiled


def _context(name: str, sphere: Union[FuzzySuperSphere, FuzzySphere], k: int) -> DerivationContext:
    """The first k osp(1|2) derivations acting through the sphere's own generators."""
    basis = build_osp_basis()
    return DerivationContext(
        name=name,
        labels=LABELS[:k],
        parities=basis.parities[:k],
        constants=basis.constants[:k, :k, :k],
        generators=tuple(sphere.rep.matrix(a) for a in LABELS[:k]),
        sphere=sphere,
    )


def super_context(q: int) -> DerivationContext:
    """All five osp(1|2) derivations acting on End(V(q/2))."""
    return _context(f"supersphere(q={q})", FuzzySuperSphere(q), 5)


def body_context(q: int) -> DerivationContext:
    """The three rotation derivations on the bosonic companion algebra."""
    return _context(f"sphere(q={q})", FuzzySphere(q), 3)


#: each label of the ladder frame as (osp label, norm): its generator is J_op / norm,
#: so J_+/sqrt2, J_-/sqrt2, J_3, J_4, J_5
_LADDER_OPS = (("+", math.sqrt(2)), ("-", math.sqrt(2)), (3, 1.0), (4, 1.0), (5, 1.0))
#: their doubled J_3 weights
_LADDER_WEIGHTS = tuple(LADDER_STEPS[op] for op, _ in _LADDER_OPS)


def _ladder_frame(ctx: DerivationContext) -> DerivationContext:
    """ctx in the frame (J_+/sqrt2, J_-/sqrt2, J_3[, J_4, J_5]) of weight vectors.

    The norms of J_+ and J_- are read from _LADDER_OPS, the one definition of
    the frame that _summand_blocks also reads.

    The label change U is unitary on labels 1 and 2 and the identity on the
    rest, so the frame's d has the singular values of ctx's.  Only the two
    new generators, (J_1 +- i J_2)/sqrt2, are formed; ctx's generators 3 on
    are passed through as the same objects, so the frame's J_3 is the
    sphere's and its caches (weight_buckets, adjoint_stencil) are shared.
    Rounding residue in the transformed constants is snapped to exact zero:
    the bracket table keeps every nonzero constant, and a residue would
    couple different weights.  ctx must not be a frame already: its labels 1
    and 2 would be mixed again but keep their weights.  Use ctx.ladder,
    which returns such a frame itself.
    """
    if ctx.weights is not None:
        raise ValueError(f"{ctx.name} is a frame of weight vectors already")
    k = len(ctx.labels)
    (_, plus_norm), (_, minus_norm) = _LADDER_OPS[:2]
    u = np.eye(k, dtype=complex)
    u[:2, :2] = np.array([[1, 1j], [1, -1j]]) / np.array([[plus_norm], [minus_norm]])
    c = np.einsum("xC,ay,bz,xyz->Cab", u.conj().T, u, u, ctx.constants)
    c.real[np.abs(c.real) < 1e-12] = 0.0
    c.imag[np.abs(c.imag) < 1e-12] = 0.0
    j1, j2 = ctx.generators[:2]
    ladder = ((j1 + 1j * j2) / plus_norm, (j1 - 1j * j2) / minus_norm)
    return DerivationContext(
        name=ctx.name,
        labels=ctx.labels,
        parities=ctx.parities,
        constants=c,
        generators=ladder + ctx.generators[2:],
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
    _adopt freezes a fresh stack in place without copying it, as
    GradedMatrix._adopt does; it is for the stacks that the operators below
    have just computed and no one else holds.
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
    def _adopt(cls, ctx: DerivationContext, p: int, stack: np.ndarray) -> "SuperForm":
        """Wrap a fresh complex (S, n, n) stack that nothing else references, frozen in place."""
        shape = (len(ctx.index_tuples(p)), ctx.n, ctx.n)
        if stack.shape != shape or stack.dtype != complex:
            raise ValueError(f"expected a complex stack of shape {shape}, got {stack.dtype} {stack.shape}")
        stack.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "ctx", ctx)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "stack", stack)
        return out

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
        return SuperForm._adopt(self.ctx, self.p, self.stack + other.stack)

    def __sub__(self, other: "SuperForm") -> "SuperForm":
        self._check(other)
        return SuperForm._adopt(self.ctx, self.p, self.stack - other.stack)

    def __mul__(self, s: complex) -> "SuperForm":
        return SuperForm._adopt(self.ctx, self.p, self.stack * s)

    __rmul__ = __mul__

    def __neg__(self) -> "SuperForm":
        return self * (-1)

    def _check(self, other: "SuperForm") -> None:
        if self.ctx is not other.ctx or self.p != other.p:
            raise ValueError("form mismatch")

    def norm(self) -> float:
        """The largest Frobenius norm of a value; 0.0 for a form with no values.

        Each value's squared norm is the dot product of its real and imaginary
        parts with themselves, read as one float64 row.
        """
        flat = self.stack.reshape(len(self.stack), self.ctx.n**2).view(np.float64)
        return math.sqrt(np.einsum("ij,ij->i", flat, flat).max(initial=0.0))

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
    ctx.check_label(a)
    return SuperForm(ctx, 1, {(a,): ctx.unit})


def maurer_cartan(ctx: DerivationContext) -> SuperForm:
    """The invariant 1-form picking out each generator: Lambda(D_a) = E_a."""
    return SuperForm(ctx, 1, {(a,): ctx.generators[a - 1] for a in ctx.labels})


# ---------------------------------------------------------------------------
# the Cartan operations


def _apply(w: SuperForm, p: int, plan: Plan, act: Callable[[np.ndarray], np.ndarray]) -> SuperForm:
    """The p-form whose stack is plan.coefs @ act(x), x the plan's inputs.

    x gathers the rows plan.sources of the stack of w and multiplies the
    twisted ones by the grade signs, in place; act returns the (inputs, n,
    n) stack of the inputs, acted on.  The result is fresh, so it is
    adopted, not copied.
    """
    ctx, n = w.ctx, w.ctx.n
    x = w.stack[plan.sources]
    np.multiply(x, ctx.grade, out=x, where=plan.twisted[:, None, None])
    y = act(x)
    return SuperForm._adopt(ctx, p, (plan.coefs @ y.reshape(len(y), n * n)).reshape(-1, n, n))


def _derive(ctx: DerivationContext, x: np.ndarray, plan: Plan) -> np.ndarray:
    """The inputs x of a derivation plan acted on: E_a X - X' E_a per label a.

    X is the label's run of inputs and X' is X with the other twist (X
    times the +-1 grade signs, exactly) when E_a is odd, else X; label 0
    is the identity.
    """
    y = np.empty_like(x)
    for a, run in plan.groups:
        f = x[run]
        if a == 0:
            y[run] = f
            continue
        e = ctx.generators[a - 1].mat
        right = f * ctx.grade if ctx.label_parity(a) else f
        y[run] = e @ f - right @ e
    return y


def wedge(w1: SuperForm, w2: SuperForm) -> SuperForm:
    """Graded wedge; on 0-forms it is left/right multiplication."""
    ctx = w1.ctx
    if ctx is not w2.ctx:
        raise ValueError("forms live on different contexts")
    p, pp = w1.p, w2.p
    plan = ctx.plan(("wedge", p, pp), ctx.wedge_plan(p, pp), pp, p + pp, p)
    return _apply(w2, p + pp, plan, lambda x: w1.stack[plan.ops] @ x)


def lie_derivative(a: Label, w: SuperForm) -> SuperForm:
    """L_a: derivation of the value minus substitution into each slot."""
    ctx = w.ctx
    plan = ctx.plan(("lie", a, w.p), ctx.lie_terms(a, w.p), w.p, w.p)
    return _apply(w, w.p, plan, lambda x: _derive(ctx, x, plan))


def interior(a: Label, w: SuperForm) -> SuperForm:
    """iota_a: plug derivation a into the first slot; zero on 0-forms."""
    ctx = w.ctx
    ctx.check_label(a)
    if w.p == 0:
        return SuperForm.zero_form(ctx, 0)
    plan = ctx.plan(("interior", a, w.p), ctx.interior_terms(a, w.p), w.p, w.p - 1)
    return _apply(w, w.p - 1, plan, lambda x: x)


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


#: the kept entries of a weight that no entry has, read-only like every layout's
_NO_ENTRIES = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
for _index in _NO_ENTRIES:
    _index.setflags(write=False)


def _layout(
    ctx: DerivationContext, p: int, weight: Optional[int]
) -> Tuple[Dict[IndexTuple, tuple], int]:
    """Where each canonical p-tuple's value sits in a stacked vector, and its length.

    Maps each tuple to (offset, entry weight, kept entries), the entries as
    row-major (rows, cols) index arrays, the order graded.restricted_adjoint
    needs of its sources.  Without a weight all are kept (entry weight None).
    With a doubled total weight, only the entries whose entry weight minus
    the tuple's label weight equals it: this is the one place of that rule.
    Those entries are the bucket of that entry weight that J_3,
    ctx.generators[2], caches (graded.GradedMatrix.weight_buckets, which
    the fuzzy weight tables read too), or none.  Cached on ctx per (p,
    weight), with read-only index arrays.
    """
    if weight is not None and ctx.weights is None:
        raise ValueError("a weight needs a frame of weight vectors")
    if (p, weight) in ctx._layouts:
        return ctx._layouts[p, weight]
    if weight is None:
        kept = {None: np.nonzero(np.ones((ctx.n, ctx.n), dtype=bool))}
        for index in kept[None]:
            index.setflags(write=False)
    else:
        kept = ctx.generators[2].weight_buckets
    out, offset = {}, 0
    for t in ctx.index_tuples(p):
        key = None if weight is None else weight + ctx.tuple_weight(t)
        out[t] = (offset, key, kept.get(key, _NO_ENTRIES))
        offset += out[t][2][0].size
    ctx._layouts[p, weight] = out, offset
    return ctx._layouts[p, weight]


def form_weights(ctx: DerivationContext, p: int) -> Tuple[int, ...]:
    """The doubled total weights that p-forms of a frame of weight vectors carry, ascending.

    Those w with an entry in _layout(ctx, p, w): each weight of the buckets
    of J_3 (graded.GradedMatrix.weight_buckets) minus the label weight of
    each canonical p-tuple.  No layout is built.
    """
    if ctx.weights is None:
        raise ValueError("weights need a frame of weight vectors")
    labels = {ctx.tuple_weight(t) for t in ctx.index_tuples(p)}
    return tuple(sorted({m - s for m in ctx.generators[2].weight_buckets for s in labels}))


def _assemble(
    ctx: DerivationContext,
    terms: Sequence[Term],
    p_out: int,
    p_in: int,
    weight: Optional[int] = None,
) -> np.ndarray:
    """Terms as a matrix from Omega^p_in to Omega^p_out on stacked value vectors.

    A term adds its coefficient times a block: graded.restricted_adjoint of
    E_a between the kept entries (see _layout), or the identity for label 0,
    with columns scaled by the grade signs if twisted.  Each plain block is
    scattered from the nonzeros of E_a once per context, keyed by (label,
    row entry weight, column entry weight), and a twisted term scales it on
    use; a term with no kept row or column adds nothing and is skipped.

    With a weight, only the columns of that total weight are kept, and the
    rows of that weight plus the list's shift.  A term moves the entry
    weight of its source value by weight(op), so it moves the total weight
    by weight(op) + weight(source) - weight(target), label weights summed
    over each tuple.  Every term of one list has the same shift: 0 for d,
    weight(a) for L_a.  On a real context the blocks and coefficients are
    the real parts, exactly, and the matrix is float64.
    """
    src, n_cols = _layout(ctx, p_in, weight)
    rows = weight
    if weight is not None and terms:
        target, source, label, _, _ = terms[0]
        op = (label,) if label else ()
        rows += ctx.tuple_weight(op + source) - ctx.tuple_weight(target)
    dst, n_rows = _layout(ctx, p_out, rows)
    real = ctx.real
    out = np.zeros((n_rows, n_cols), dtype=float if real else complex)
    blocks = ctx._blocks
    for target, source, label, twist, coef in terms:
        (row, rkey, rent), (col, ckey, cent) = dst[target], src[source]
        if not (rent[0].size and cent[0].size):
            continue
        key = (label, rkey, ckey)
        if key not in blocks:
            if label:
                block = restricted_adjoint(ctx.generators[label - 1], rent, cent)
                blocks[key] = block.real.copy() if real else block
            else:
                blocks[key] = np.eye(cent[0].size)
        block = blocks[key] * ctx.grade[cent] if twist else blocks[key]
        h, w = block.shape
        out[row : row + h, col : col + w] += (coef.real if real else coef) * block
    return out


def form_to_vec(w: SuperForm, weight: Optional[int] = None) -> np.ndarray:
    """The stack of w as one read-only vector, in the layout of d_matrix(ctx, p, weight).

    With a weight, a fresh vector of w's values on the entries of that total weight.
    """
    if weight is None:
        return w.stack.reshape(-1)
    pos, layout = w.ctx.positions(w.p), _layout(w.ctx, w.p, weight)[0]
    return np.concatenate([w.stack[pos[t]][entries] for t, (_, _, entries) in layout.items()])


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
    name: str, dims: Tuple[int, ...], decisions: Sequence[RankDecision], tol: float
) -> CohomologyReport:
    """betti_p = dims[p] - rank d_p - rank d_(p-1), for p < len(dims), from the decisions on d_p."""
    betti = tuple(
        dims[p] - decisions[p].rank - (decisions[p - 1].rank if p > 0 else 0)
        for p in range(len(dims))
    )
    return CohomologyReport(
        name=name, p_max=len(dims) - 1, dims=dims, betti=betti, decisions=tuple(decisions), tol=tol
    )


def _summands(ctx: DerivationContext) -> Tuple[range, bool]:
    """The doubled spins 2j of the irreducible summands of ctx's matrix algebra, and if they are sl(2)'s.

    Under the derivations, End V(q/2) is the sum of the osp(1|2) irreps V(j)
    with 2j = 0..2q, each once, and the body's End V_(q/2) that of the sl(2)
    irreps V_l with l = 0..q: such modules are completely reducible
    (Scheunert, The Theory of Lie Superalgebras, LNM 716, 1979), and the
    superspin-j harmonics span V(j) (fuzzy.label_action).
    """
    q = ctx.sphere.q
    if isinstance(ctx.sphere, FuzzySuperSphere):
        return range(2 * q + 1), False
    return range(0, 2 * q + 1, 2), True


def _summand_blocks(
    frame: DerivationContext, p: int, two_js: Sequence[int], sl2: bool, a: Optional[Label] = None
) -> List[np.ndarray]:
    """The block of d, or of L_a with a label, on weight-0 p-forms valued in V(j), per 2j in two_js.

    Its rows and columns are the target and source tuples of reach at most
    2j, numbered as in frame.summand_terms(p, a).  Each entry sums coef *
    <v(w_target)|E_op|v(w_source)> over its terms, the element read from
    osp.weight_elements over the label's norm in the frame (_LADDER_OPS),
    or 1 for the identity, and signed by the parity of v(w_source) where
    twisted (SummandTerms): the derivations act on the values alone, and a
    weight-0 value on a tuple of weight w is a multiple of v(w).  All the
    summands' entries are computed in one pass and summed into one float64
    stack.
    """
    st = frame.summand_terms(p, a)
    two_js = np.asarray(two_js, dtype=np.intp)
    values = np.empty((len(two_js), len(st.rows)))
    for op, run in st.groups:
        if op == 0:
            values[:, run] = st.coefs[run]
            continue
        label, norm = _LADDER_OPS[op - 1]
        elements, parities = weight_elements(two_js[:, None], label, st.weights[run], sl2=sl2)
        signs = np.where(st.twisted[run] & (parities == 1), -1.0, 1.0)
        values[:, run] = st.coefs[run] * elements * signs / norm
    n_out, n_in = len(st.out_reach), len(st.in_reach)
    flat = np.arange(len(two_js))[:, None] * (n_out * n_in) + st.rows * n_in + st.cols
    stack = np.bincount(flat.ravel(), values.ravel(), minlength=len(two_js) * n_out * n_in)
    stack = stack.reshape(len(two_js), n_out, n_in)
    rows = np.searchsorted(st.out_reach, two_js, side="right")
    cols = np.searchsorted(st.in_reach, two_js, side="right")
    return [stack[k, : rows[k], : cols[k]] for k in range(len(two_js))]


#: the summands whose blocks _chunked_summand_blocks builds at once
_SUMMAND_CHUNK = 16


def _chunked_summand_blocks(
    frame: DerivationContext, p: int, labels: Sequence[Optional[Label]]
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Per summand of frame (_summands), in order, its _summand_blocks on p-forms for each of labels.

    A label of None stands for d.  The blocks are built _SUMMAND_CHUNK
    summands at a time, so the memory held does not grow with the level;
    each summand's blocks are the ones a single call over all summands
    gives, bit for bit, since every entry is computed and summed per summand.
    """
    two_js, sl2 = _summands(frame)
    for start in range(0, len(two_js), _SUMMAND_CHUNK):
        chunk = two_js[start : start + _SUMMAND_CHUNK]
        yield from zip(*(_summand_blocks(frame, p, chunk, sl2, a) for a in labels))


def cohomology_dims(ctx: DerivationContext, p_max: int, tol: float = 1e-8) -> CohomologyReport:
    """Betti numbers of the derivation complex for p = 0..p_max.

    Computed on the weight-0 subcomplex of the ladder frame (ctx.ladder).
    There L_3 acts on each form component by its total weight, the entry's
    weight minus its labels' weights, and L_3 = d iota_3 + iota_3 d commutes
    with d.  So each subcomplex of nonzero weight w is acyclic (iota_3 / w is
    a contracting homotopy), and the cohomology is that of the weight-0 part.

    The derivations act on the values alone, and the matrix algebra is the
    sum of irreducible summands V(j), each once (_summands).  So the complex
    is the sum of the complexes K_j = C(osp(1|2), V(j)) (body: C(sl(2),
    V_l)), none of which depends on the level, and d is block diagonal over
    them.  Each summand's weight-0 block (_summand_blocks) is built from the
    closed-form matrix elements of its irrep, with no matrix of the level
    formed, _SUMMAND_CHUNK summands at a time (_chunked_summand_blocks), and
    gets its own rank decision; the degree's decision sums their ranks and
    keeps their least gap.  dims are the weight-0 dimensions, the
    sum of the blocks' column counts, and betti_p = dims[p] - rank d_p -
    rank d_(p-1).  The ranks are those of the entry-basis weight-0 d, whose
    spectrum is different: the harmonics that span each V(j) are not
    orthonormal in the Hilbert-Schmidt pairing.
    """
    frame = ctx.ladder
    dims, decisions = [], []
    for p in range(p_max + 1):
        dim, rank, gap = 0, 0, math.inf
        for (block,) in _chunked_summand_blocks(frame, p, (None,)):
            dec = rank_decision(block, tol)
            dim, rank, gap = dim + block.shape[1], rank + dec.rank, min(gap, dec.gap)
        dims.append(dim)
        decisions.append(RankDecision(rank=rank, gap=gap, tol=tol))
    return _betti_report(f"{ctx.name} [weight 0]", tuple(dims), decisions, tol)


def invariant_one_forms(ctx: DerivationContext, tol: float = 1e-8) -> RankDecision:
    """Rank decision for the joint kernel of all L_a on 1-forms.

    The kernel dimension is dim Omega^1 = n^2 * |1-tuples| minus the rank;
    the invariant Maurer-Cartan form spans it when the kernel is
    one-dimensional.  Computed in the ladder frame (ctx.ladder), whose change
    is unitary, so the rank is that of ctx.  There L_3 acts on a 1-form of
    total weight w as w/2 (see cohomology_dims), so the joint kernel lies in
    the weight-0 forms, and the stack of all L_a has full column rank on
    every nonzero weight exactly.  The L_a act on the values alone, so on
    weight-0 1-forms they are block diagonal over the summands V(j)
    (_summands), as d is.  Each summand's L_a blocks (_summand_blocks) are
    stacked and get their own rank decision: the rank returned is dim
    Omega^1 minus the sum of their kernels, and the gap is their least.
    That spectrum is the summand blocks', not that of the entry-basis L_a.
    The blocks are built _SUMMAND_CHUNK summands at a time
    (_chunked_summand_blocks), so the memory held does not grow with the
    level.
    """
    frame = ctx.ladder
    kernel, gap = 0, math.inf
    for blocks in _chunked_summand_blocks(frame, 1, frame.labels):
        dec = rank_decision(np.concatenate(blocks), tol)
        kernel += blocks[0].shape[1] - dec.rank
        gap = min(gap, dec.gap)
    dim = ctx.n**2 * len(frame.index_tuples(1))
    return RankDecision(rank=dim - kernel, gap=gap, tol=tol)


def center_d_matrix(ctx: DerivationContext, p: int) -> np.ndarray:
    """d restricted to forms valued in multiples of the unit.

    The derivation terms vanish on the center, leaving the label-0 bracket
    substitution scalars of d_terms: the trivial-coefficient complex of the
    derivation algebra, independent of the level.  On a real context, such
    as the ladder frame, the matrix is float64.
    """
    src, dst = ctx.positions(p), ctx.positions(p + 1)
    real = ctx.real
    out = np.zeros((len(dst), len(src)), dtype=float if real else complex)
    for target, source, label, _, coef in ctx.d_terms(p):
        if label == 0:
            out[dst[target], src[source]] += coef.real if real else coef
    return out


def center_cohomology_dims(
    ctx: DerivationContext, p_max: int, tol: float = 1e-8
) -> CohomologyReport:
    """Betti numbers of the center-valued subcomplex, as a cross-check.

    Only the unit-multiple block of the algebra can carry cohomology, so
    these must agree with the full computation.  Computed in the ladder
    frame (ctx.ladder), reusing the d_terms that cohomology_dims compiled
    there; the frame change is unitary on the canonical tuples, so the
    spectrum is that of the original frame's center complex.  The frame is
    real, so the matrices are float64.
    """
    frame = ctx.ladder
    dims = tuple(len(frame.index_tuples(p)) for p in range(p_max + 1))
    decisions = [rank_decision(center_d_matrix(frame, p), tol) for p in range(p_max + 1)]
    return _betti_report(f"{ctx.name} [center]", dims, decisions, tol)


EXPECTED_BETTI_SUPER = (1, 0, 0, 1, 0, 0)
EXPECTED_BETTI_BODY = (1, 0, 0, 1)
