"""Desk-scale certification of sum-like equivalence relations."""

from .core import (
    DEFAULT_TOL,
    FamilyDescription,
    FunctionModulus,
    IndicatorModulus,
    ModulusSample,
    PiecewiseModulus,
    PowerModulus,
    SumSplit,
    TableModulus,
    ToleranceConfig,
    family_from_json,
    family_to_json,
    finite_sum,
    sample_from_json,
)
from .conditions import (
    ClassifierThresholds,
    L1Witness,
    QuasiConstants,
    ThresholdRelation,
    TrichotomyReport,
    build_threshold_relation,
    classify_trichotomy,
    compare_moduli,
    compare_moduli_two_sided,
    mazur_orlicz_check,
    quasi_constants,
    search_l1_witness,
)
from .metrization import (
    LevelSets,
    MetrizationCertificate,
    NotEquivalenceInducingError,
    build_level_sets,
    certify_sandwich,
    frink_pseudometric,
    metrize,
    truncate_modulus,
)
from .reductions import (
    BlockPlan,
    BlockSelectionError,
    HolderEstimate,
    KochParams,
    block_reduce,
    clamp_reduce,
    estimate_holder,
    indicator_modulus,
    koch_interleave,
    koch_point,
    normalize_metric,
    select_blocks,
    verify_block_inequality,
)
from .catalog import (
    Example4Spec,
    build_example4,
    example4_ratio,
    verify_example4_inequalities,
)

__version__ = "0.1.0"
