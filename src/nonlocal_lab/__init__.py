"""Exact desk-scale simulation and verification of multipartite GHZ-type
nonlocality with imperfect detectors and broadcast communication.

Submodules:

* :mod:`nonlocal_lab.model`: correlation problems, local models, and the
  efficiency/error metrics (exact rationals throughout).
* :mod:`nonlocal_lab.ghz`: the GHZ measurement scenario, its ideal target
  correlations, and broadcast strategies that reproduce them.
* :mod:`nonlocal_lab.orbits`: the valid inputs up to permuting parties,
  one sorted representative and multiplicity per orbit.
* :mod:`nonlocal_lab.protocol`: broadcast protocol trees, cost accounting,
  and the conversion into inefficient-detector local models.
* :mod:`nonlocal_lab.rectangles`: rectangle advantage/bias combinatorics and
  the resulting communication/efficiency trade-off inequality.
* :mod:`nonlocal_lab.cyclic`: exact multiset sums over cyclic groups and
  near-uniformity (bias) bound verification.
* :mod:`nonlocal_lab.search`: optimal classical figures (eta* and the
  click-only minimum error) from rotation classes of tables, and the
  trade-off table.
* :mod:`nonlocal_lab.serialize`: JSON codecs for the files and reports the
  command line reads and writes.
* :mod:`nonlocal_lab.cli`: the ``nonlocal-lab`` command-line surface.
"""

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CrossCheckMismatch,
    DeltaOutOfRange,
    DivisionByZeroEfficiency,
    EmptyIntersection,
    EmptyWeight,
    FlavorMismatch,
    Infeasible,
    InvalidInput,
    LengthMismatch,
    MalformedTree,
    ModulusMismatch,
    NonlocalLabError,
    NotPowerOfTwo,
    PreconditionViolated,
    TooFewSets,
)
from .model import (
    CorrelationProblem,
    DeterministicLhv,
    Efficiency,
    MixedLhv,
    ModelDistribution,
    ModelMetrics,
    all_click,
    check_output_alphabet,
    detection_efficiency,
    error_probability,
    evaluate_mixed_lhv,
    mixed_lhv_metrics,
    total_variation_error,
    uniform_problem,
)
from .ghz import (
    Deviation,
    GhzInstance,
    PhaseMeasurement,
    broadcast_prefix_stats,
    broadcast_prefix_strategy,
    broadcast_strategy,
    broadcast_strategy_mixed,
    default_k,
    equivalence_max_deviation,
    ghz_problem,
    is_valid_input,
    promise_bit,
    quantum_probability,
    target_probability,
    valid_inputs,
)
from .protocol import (
    CostReport,
    Edge,
    Leaf,
    MixedProtocol,
    Node,
    ProtocolTree,
    cost,
    cost_details,
    distinct_leaves,
    execute,
    induced_distribution,
    induced_metrics,
    mixed_cost,
    to_detector_model,
)
from .rectangles import (
    Rectangle,
    RectangleStats,
    ScanResult,
    advantage,
    advantage_bias_relation,
    advantages,
    bias,
    eta_n_bound,
    involvement,
    iter_rectangles,
    rectangle_stats,
    rectangle_tradeoff_check,
    residue_counts,
    scan_rectangles,
    stats_to_csv,
)
from .cyclic import (
    AdditionReport,
    MultisetZ,
    Size2Report,
    Subgroup,
    check_coins_bound,
    coin_counts,
    coins_bound_sweep,
    ghz_bias_subgroup,
    iterated_sum,
    multiset_sum,
    random_subsets,
    repeated_pair_sum,
    subgroup_bias,
    verify_addition_theorem,
    verify_size2_sets,
)
from .search import (
    ClassPoints,
    SearchReport,
    TradeoffRow,
    TradeoffTable,
    class_points,
    click_only_minimum,
    eta_star,
    model_respects_rectangle_bound,
    tradeoff_table,
)

__version__ = "0.1.0"
