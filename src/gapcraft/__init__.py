"""gapcraft: queue-free admission control strategies and a traffic simulator."""

from .analysis import (
    RequirementVerdict,
    check_req_a,
    check_req_b,
    check_req_c,
    erlang_b,
    estimator_bias,
    survey_recovery,
)
from .errors import GapcraftError
from .estimator import EstimatorState, estimator_peek, estimator_update
from .harness import (
    BatchReport,
    RunResult,
    Scenario,
    StrategyConfig,
    StrategyResult,
    build_throttle,
    run_batch,
    run_once,
    run_stream,
)
from .scenario_io import ScenarioFile, load_scenario
from .throttles import (
    DecisionRecord,
    MixedGapper,
    RateGapper,
    TokenBucket,
    compute_bound_rates,
    probe_recovery_times,
)
from .traffic import (
    IntensityProfile,
    PriorityMix,
    StreamSpec,
    generate_stream,
    stream_columns,
    stream_to_file,
)
from .types import (
    CapacityProfile,
    Decision,
    Offer,
    PriorityParams,
    ShareVector,
)

__version__ = "0.1.0"

__all__ = [
    "BatchReport", "CapacityProfile", "Decision", "DecisionRecord",
    "EstimatorState", "GapcraftError", "IntensityProfile", "MixedGapper",
    "Offer", "PriorityMix", "PriorityParams", "RateGapper",
    "RequirementVerdict", "RunResult", "Scenario", "ScenarioFile",
    "ShareVector", "StrategyConfig", "StrategyResult", "StreamSpec",
    "TokenBucket", "build_throttle",
    "check_req_a", "check_req_b", "check_req_c", "compute_bound_rates",
    "erlang_b", "estimator_bias", "estimator_peek", "estimator_update",
    "generate_stream", "load_scenario", "probe_recovery_times", "run_batch",
    "run_once", "run_stream",
    "stream_columns", "stream_to_file", "survey_recovery",
]
