"""Calibration error measures for binary predictors.

Library layout: :mod:`empirical` (data model, the joint's level-set
columns every measure reads, ingestion), :mod:`basic` (ECE family),
:mod:`lipschitz` (smooth, low-degree and kernel CE and the earthmover
distance), :mod:`decision` (decision-loss measures),
:mod:`distance` (distance-to-calibration oracles and interval CE),
:mod:`online` (sequential episodes and the strategy-name tables),
:mod:`fixtures` (worked examples with known values), :mod:`measures` (the
measure-id registry), :mod:`cli` (the ``calmeasure`` command).

numpy is the only runtime dependency.  The generic LPs, brute-force
enumerations and other references that the tests check these modules
against live in the test tree, in ``tests/oracles.py``.
"""

from .basic import (
    binned_ece,
    bucket_midpoint,
    ece,
    ece_q,
    tv_characterization,
)
from .decision import (
    DecisionTask,
    best_response,
    cdl,
    cfdl,
    quadratic_task,
    threshold_task,
)
from .distance import (
    ORACLE_CAP,
    IntervalPartition,
    OracleSizeError,
    ce_partition,
    dce_oracle,
    dce_upper_oracle,
    intce_opt,
    intce_partition,
    random_grid_intce,
)
from .empirical import (
    EmpiricalJoint,
    FiniteInstance,
    from_samples,
    project,
    read_csv,
    read_instance_json,
    read_jsonl,
    recalibrate,
    write_instance_json,
)
from .fixtures import FIXTURES, Fixture, evaluate, verify
from .lipschitz import (
    emd_joints,
    gaussian_kernel,
    kernel_ce,
    laplace_kernel,
    low_degree_ce,
    residuals,
    smce,
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
    prefix_curve,
    prefix_curves,
    run,
    sequence_measure,
)

__version__ = "0.1.0"
