"""driftrisk: runtime accuracy and risk assessment for deployed models.

Estimates the live rate of adverse data events (distributional shift)
from imperfect detector verdicts, corrects for detector bias, and
propagates the corrected rate through probabilistic event trees to yield
label-free accuracy and monetary-risk estimates, with a simulation and
sweep harness for error analysis at desk scale.
"""

from .errors import (
    CalibrationError,
    ConfigurationError,
    DriftRiskError,
    EstimationError,
    SnapshotError,
    UninformativeDetectorError,
    ValidationError,
)
from .estimation import (
    ConditionalAccuracyTable,
    DetectorProfile,
    RateEstimate,
    VerdictTrace,
    calibrate_profile,
    conditional_accuracy,
    empirical_mean,
    forward_bias,
    rogan_gladen,
    weighted_mean,
)
from .event_tree import (
    Condition,
    EventTree,
    IND,
    IND_NEG,
    IND_POS,
    OOD,
    OOD_NEG,
    OOD_POS,
    TreeParams,
    build_base_tree,
    build_rv_tree,
    expected_accuracy,
    expected_risk,
    leaf_distribution,
    sensitivity,
)
from .detectors import SyntheticDetector, detector_grid
from .monitor import Assessment, Monitor, MonitorConfig
from .simulation import (
    AccuracyOracle,
    DeploymentTrace,
    OodFold,
    Stream,
    StreamConfig,
    batch_correct_probability,
    generate_stream,
    ind_percentile_threshold,
    run_deployment,
)
from .experiments import (
    ErrorReport,
    SweepGrid,
    accuracy_error_sweep,
    cba_surface,
    crossing_rate,
    mae,
    rate_error_sweep,
    risk_curve,
)

__version__ = "0.1.0"
