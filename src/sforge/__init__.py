"""Steinberg words over finite rings: Peirce components, homotope towers,
Gauss factorizations and crossed-module verifiers."""

__version__ = "0.1.0"

from .rings import (
    GF,
    Localization,
    MatrixAlgebra,
    NotInvertible,
    SforgeError,
    Zmod,
    localize_finite,
    random_element,
    ring_from_json,
)
from .peirce import (
    BadFamily,
    IdempotentFamily,
    IndexClash,
    Refinement,
    family_from_json,
    morita_decompose,
)
from .words import (
    Context,
    DiagonalElement,
    Letter,
    NonInvertibleComponent,
    NotUnipotentSupport,
    RankTooSmall,
    SideConditionViolated,
    Word,
    diag_act,
    exhaustive_relation_grid,
    express_as_commutators,
    f_alpha,
    g_alpha,
    gen,
    random_relation_indices,
    random_word,
    reduce_word,
    sample_relations,
    st_eval,
    u_normal_form,
    word_to_json,
)
from .tower import (
    DiagActor,
    EquivVerdict,
    HomotopeTower,
    LevelBudgetExceeded,
    NoArrow,
    PowerSequenceTooLong,
    RootActor,
    actor_relation_suite,
    ad_equivariance_check,
    equal_after_localization,
    premorphism_equiv,
    scaled_operator_suite,
    split_naturality_suite,
    tower_ad,
    tower_relation_suite,
)
from .gauss import (
    GaussFactorization,
    PivotSearchFailed,
    enumerate_gl,
    gauss_decompose,
    lift_to_st,
    presentation_relation_check,
    sample_gl,
)
from .crossed import (
    CrossedModuleAction,
    ad_commutator_path,
    crossed_module_verify,
)
