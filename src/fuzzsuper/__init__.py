"""Graded matrix truncations of the (2|2)-dimensional supersphere.

The package builds the family of Z2-graded matrix algebras End(V(q/2, odd))
together with everything needed to check their geometry numerically:
superspherical harmonics and their fuzzy products, the exact polynomial
model of the commutative supersphere they converge to, the body map onto
the fuzzy sphere, a graded derivation-based differential calculus, and the
cohomology of the resulting complexes.
"""

from .graded import (
    EVEN,
    ODD,
    GradedDims,
    GradedMatrix,
    commutation_factor,
    graded_commutator,
    hs_inner,
    indefinite_inner,
    numerical_rank,
    rank_decision,
    superadjoint,
    supertrace,
)
from .osp import OspBasis, Irrep, Sl2Irrep, build_osp_basis, build_irrep, build_sl2_irrep, osp_casimir
from .fuzzy import (
    FuzzyElement,
    FuzzySphere,
    FuzzySuperSphere,
    HarmonicLabel,
    body_map_fuzzy,
    eta,
    fuzzy_product,
    structure_constant_fuzzy,
)
from .continuum import (
    SpherePolyClass,
    SuperPoly,
    berezin_sphere_integral,
    body_map_classical,
    classical_harmonic,
    cross_involution,
    inner_S,
    normal_form,
    structure_constant_classical,
    vector_field_action,
)
from .calculus import (
    DerivationContext,
    SuperForm,
    body_cochain_map,
    body_context,
    cohomology_dims,
    eta_forms,
    exterior_d,
    interior,
    lie_derivative,
    maurer_cartan,
    super_context,
    wedge,
)

__version__ = "0.1.0"
