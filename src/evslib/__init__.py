"""Exact order-comparability of metrics and norms.

The package treats metric and norm spaces as partially ordered semigroups
with a scalar action, verifies the structure axioms on seeded samples with
exact rational arithmetic, and computes the comparability machinery: testing
sets, comparing functions, orderly (in)dependence, generators and bases, and
a family of pairwise independent weighted sup norms with explicit decay
witnesses.
"""

from .core import EvsInstance, check_axioms
from .errors import InputError, UndefinedRelativeElementError
from .metrics import (
    Carrier,
    LazyMetric,
    MetricMatrix,
    add_metrics,
    builtin_lazy,
    builtin_metric,
    cauchy_incompleteness_demo,
    classify_lazy_pair,
    classify_pair,
    comparing_function_metric,
    discrete_metric,
    grid_carrier,
    indexed_carrier,
    kappa_metric,
    leq_metrics,
    scale_metric,
    shrinking_metric,
    symmetric_grid_carrier,
    transform_bounded,
    transform_min,
    usual_metric,
    validate_metric,
)
from .norms import (
    FSVector,
    NormFamilyParams,
    PartitionSpec,
    WeightMap,
    embed_norm_to_metric,
    eval_weighted_norm,
    independence_witness,
)
from .order import (
    Universe,
    feasible_in_universe,
    generates,
    in_l,
    is_basis,
    minimal_elements,
    orderly_independent_set,
)

__version__ = "0.1.0"
