"""Calibration error measures for binary predictors.

Library layout: :mod:`empirical` (data model and ingestion), :mod:`basic`
(ECE family), :mod:`lipschitz` (weighted, smooth, low-degree, kernel CE
and the earthmover distance), :mod:`decision` (decision-loss measures),
:mod:`distance` (distance-to-calibration oracles and interval CE),
:mod:`online` (sequential episodes), :mod:`fixtures` (worked examples with
known values), :mod:`measures` (the measure-id registry), :mod:`cli` (the
``calmeasure`` command).
"""

from .basic import (
    binned_ece,
    bucket_midpoint,
    ece,
    ece_q,
    sign_witness_ce,
    surrogate_masses,
    tv_characterization,
)
from .decision import (
    ConvexPotential,
    DecisionTask,
    KLPotential,
    best_response,
    bregman,
    cdl,
    cfdl,
    cfdl_bregman,
    expected_payoff,
    quadratic_task,
    task_potential,
    threshold_task,
    v_divergence,
)
from .distance import (
    DEFAULT_ORACLE_CAP,
    CanonicalPredictor,
    IntervalPartition,
    OracleSizeError,
    canonical_predictor,
    ce_partition,
    dce_from_instance,
    dce_oracle,
    dce_upper_oracle,
    intce_opt,
    intce_partition,
    random_grid_intce,
    restricted_growth_strings,
)
from .empirical import (
    EmpiricalJoint,
    FiniteInstance,
    RecalibrationMap,
    from_samples,
    project,
    read_csv,
    read_instance_json,
    read_jsonl,
    recalibrate,
    recalibrated_joint,
    write_instance_json,
)
from .fixtures import FIXTURES, Fixture, evaluate, verify
from .lipschitz import (
    WeightFunction,
    emd_joints,
    gaussian_kernel,
    kernel_ce,
    laplace_kernel,
    low_degree_ce,
    residuals,
    smce,
    smce_lp_oracle,
    weighted_ce,
)
from .online import (
    Adversary,
    BernoulliAdversary,
    ConstantAdversary,
    ConstantForecaster,
    Forecaster,
    GridRandomForecaster,
    RunningMeanForecaster,
    ThresholdAdversary,
    Transcript,
    baseline_forecasters,
    prefix_curve,
    run,
    sequence_measure,
)

__version__ = "0.1.0"
