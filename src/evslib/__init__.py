"""Exact order-comparability of metrics and norms.

The package treats metric and norm spaces as partially ordered semigroups
with a scalar action, verifies the structure axioms on seeded samples with
exact rational arithmetic, and computes the comparability machinery: testing
sets, comparing functions, orderly (in)dependence, generators and bases, and
a family of pairwise independent weighted sup norms with explicit decay
witnesses.
"""

from .core import (
    EvsInstance,
    check_axioms,
    check_properties,
    minimal_elements,
    replay_counterexample,
)
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
    partial_comparing_function,
    scale_lazy,
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
    build_partition,
    embed_norm_to_metric,
    eval_weighted_norm,
    independence_witness,
    weight_function,
)
from .order import (
    LCertificate,
    Universe,
    down_set,
    feasible_in_universe,
    generates,
    in_l,
    is_basis,
    orderly_independent_set,
    replay_certificate,
    up_set,
)

__version__ = "0.1.0"
