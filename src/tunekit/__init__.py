"""tunekit: local hyperparameter tuning jobs.

Gradient-free optimization of black-box objectives (external commands or
builtin benchmarks) via Gaussian-process Bayesian optimization or random
search, with asynchronous parallel trials, median-rule early stopping,
warm starting from previous jobs, and a crash-recoverable job store.
"""

from .acquisition import AcquisitionContext, expected_improvement, propose
from .benchmarks import Benchmark, UnknownBenchmarkError, get_benchmark
from .inference import McmcConfig, StepOutFailure, slice_sample, slice_sample_thetas
from .jobs import (
    JobConfigError,
    ObjectiveSpec,
    TrialRecord,
    TuningJobConfig,
    TuningJobState,
    job_config_from_dict,
    job_config_to_dict,
    validate_job_config,
)
from .jobstore import (
    AlreadyExistsError,
    CorruptStoreError,
    JobStore,
    NotFoundError,
    StoreError,
)
from .runner import (
    BuiltinExecutor,
    Executor,
    ExecutorSpec,
    ExternalExecutor,
    TrialEvent,
    make_executor,
)
from .scheduler import (
    JobAborted,
    ParentNotFoundError,
    merge_warm_start,
    next_candidate,
    run_job,
)
from .sobol import DimensionUnsupportedError, scrambled_sobol_points, sobol_points
from .space import (
    Configuration,
    Dimension,
    SearchSpace,
    categorical,
    continuous,
    decode,
    encode,
    integer,
    sample_random,
    validate_space,
)
from .stopping import CompletedCurves, MetricCurve, StopDecision, median_rule
from .surrogate import (
    CholeskyFailure,
    GpHyperParams,
    GpPosterior,
    fit_posterior,
    kumaraswamy_warp,
    log_marginal_likelihood,
    predict,
    predict_batch,
)

__version__ = "0.1.0"
