"""Bohnenblust-Hille-type inequalities on finite slices of l_inf: exact real
multilinear norms, coefficient l_p sums with restrictions, extremal form
families, structural constructions, and seeded lower-bound search."""

from .constructions import (
    SlotEmbedding,
    diagonal_polynomial,
    disjointify,
    lift_polynomial,
    reconstruct_form,
)
from .core import (
    BHError,
    BudgetExceededError,
    FieldMismatchError,
    HomogeneousPolynomial,
    MultiIndex,
    MultilinearForm,
    ParseError,
    bh_exponent,
    distinct_count,
    dumps,
    load_any,
    load_form,
    load_poly,
    save_form,
    save_poly,
)
from .generators import (
    a_family,
    ksz_random,
    littlewood_s2,
    r_family,
    random_sparse,
    s_family,
)
from .norms import (
    NormResult,
    ascent_lower_bound,
    brute_force_norm_real,
    exact_norm_real,
    poly_lower_bound,
)
from .search import (
    ExperimentTable,
    SearchConfig,
    constant_table,
    ksz_scaling_experiment,
    maximize_ratio,
)
from .sums import (
    RatioReport,
    Restriction,
    block_sum,
    interpolation_bound,
    lp_sum,
    poly_restricted_sum,
    ratio_report,
    restricted_sum,
    restriction_sum,
    theorem_upper_bound,
)
from .verify import VerifyOutcome, run_suite

__version__ = "0.1.0"
