"""Finite normal covers of roses as Cayley graphs, with exact rational
homology, deck actions, and edge-slide maps that move homology classes on
provably infinite orbits."""

from .cover import (
    ComponentSubgraph,
    CoverGraph,
    Disconnected,
    EdgePath,
    Word,
    build_cover,
    commutator_word,
    free_reduce,
    lift_word,
    make_cover,
    path_end,
    petal_complement_components,
    standard_images,
    to_dot,
)
from .cwcheck import (
    CharacterReport,
    CommutatorReport,
    IsotypicReport,
    ObstructionReport,
    UnsupportedGroup,
    WrongRank,
    character_report_to_json,
    commutator_lift_check,
    elevation_class,
    elevation_rank_obstruction,
    isotypic_decomposition,
    isotypic_report_to_json,
    verify_chevalley_weil,
)
from .groups import (
    FiniteGroup,
    NotAGroup,
    UnsupportedFamily,
    builtin_group,
    builtin_group_from_string,
    element_order,
    from_mul_table,
    group_from_json,
    left_cosets,
    subgroup_generated,
)
from .homology import (
    HomologyBasis,
    InclusionReport,
    NotACycle,
    chain_boundary,
    chain_of_path,
    chain_to_class,
    character,
    class_to_chain,
    component_basis,
    cycle_basis,
    deck_action_matrix,
    inclusion_rank_test,
    orbit_rank,
    orbit_rank_of_chain,
    translate_chain,
)
from .mover import (
    CertificateCheck,
    CertificateFailed,
    MoveCertificate,
    RankTooSmall,
    SearchExhausted,
    ZeroVector,
    certificate_to_json,
    find_pairing_edge,
    find_slide_loop,
    fundamental_loop_word,
    move_vector,
    verify_certificate,
)
from .slides import (
    DoesNotLift,
    LiftedSlide,
    PetalInLoop,
    SlideAutomorphism,
    apply_automorphism,
    lifted_action_formula,
    lifted_action_oracle,
    lifted_slide_to_json,
    lifts_to_cover,
    make_slide,
    slide_increment,
)

__version__ = "0.1.0"
