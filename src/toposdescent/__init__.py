"""Simplicial descent machinery over finite presheaf topoi.

Finite presheaves on a finite poset form a topos in which everything here
is computed by direct enumeration: nerves of covers and their strict
dualities, span refinements and the hypercover conditions, fundamental
groupoid presentations with a bounded word problem, descent data at the
index, family, and cover levels with the correspondences between them,
gluing and covering projections, and diagrams of groupoids over chains
of hypercovers.
"""

from .errors import (
    BaseMismatchError,
    ClosureError,
    ConditionGFailure,
    EmptyComponentError,
    IncompatibleFamilyError,
    InvariantError,
    UndeterminedError,
)
from .fintopos import (
    Family,
    FamilyMorphism,
    FinPoset,
    Presheaf,
    PresheafMap,
    connected_components,
    constant_presheaf,
    coproduct,
    cover_is_epi,
    family_components,
    family_from_parts,
    find_isomorphism,
    hom_enumerate,
    initial_presheaf,
    is_connected,
    is_epi_family,
    is_isomorphic,
    product,
    product_list,
    quotient_by_pairs,
    representable,
    terminal_presheaf,
)
from .simplicial import (
    ContravariantMap,
    SimplicialMap,
    StrictDuality,
    TruncSSet,
    cech_nerve,
    check_selfdual_groupoid_condition,
    validate,
    validate_contravariant_map,
    validate_duality,
    validate_simplicial_map,
)
from .family import (
    ClassSpan,
    SelfDualFamily,
    SimplicialFamily,
    SimplicialFamilyMorphism,
    Span2,
    cech_simplicial_family,
    condition_g,
    counit,
    morphism_commutes_with_dualities,
    span_morphism_exists,
    span_morphism_pairs,
    span_of_1simplex,
    span_of_2simplex,
    validate_family,
    validate_selfdual,
    validate_simplicial_family_morphism,
)
from .hypercover import (
    CoskData,
    SpanClass,
    SpanClassSp,
    check_epi_criteria,
    connected_refinement,
    cosk_data,
    hypercover_report,
    is_hypercover,
    one_span_refinement,
    representable_spans,
    zero_span_refinement,
)
from .groupoid import (
    GroupoidAction,
    GroupoidPresentation,
    Verdict,
    Word,
    act,
    enumerate_actions,
    fundamental_presentation,
    g_fundamental_presentation,
    validate_action,
    word_equal,
)
from .descent import (
    HDescentDatum,
    SDescentDatum,
    UDescentDatum,
    action_to_consistent,
    action_to_s,
    consistent_to_g_action,
    enumerate_h_descent_data,
    enumerate_s_descent_data,
    enumerate_u_descent_data,
    h_to_u,
    induced_h_from_s,
    is_consistent,
    s_to_action,
    u_to_h,
    validate_h_descent,
    validate_s_descent,
    validate_u_descent,
)
from .covering import (
    ActionSpan,
    LocallyConstant,
    MainTwoReport,
    action_span_test,
    all_action_spans,
    extract_descent,
    glue,
    is_covering_projection,
    main1_forward,
    main2_equivalence,
    sieve_check,
    validate_trivialization,
)
from .progroupoid import (
    CategoryData,
    FunctorData,
    HypercoverIndex,
    ProGroupoid,
    StrictnessReport,
    assemble,
    classifying_category,
    inclusion_morphism,
    is_strict,
    transition_functor,
    validate_index,
)

__version__ = "0.1.0"
