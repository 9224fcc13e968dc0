"""Parking-slot discovery from repeated vehicle detections, plus occupancy classification."""

from .clustering import NOISE, ClusterAssignment, DbscanParams, cluster_stats, dbscan
from .detections import (
    DETECTION_DTYPE,
    DetectionFilter,
    DetectionLog,
    FrameDetections,
    filter_detections,
    parse_detections,
    serialize_detections,
)
from .errors import ConfigError, ValidationError
from .geometry import (
    Box,
    Homography,
    Point2,
    apply_homography_array,
    box_iou,
    estimate_homography_dlt,
    homography_from_config,
    invert_homography,
)
from .metrics import (
    ClassificationCounts,
    SlotMatchResult,
    accuracy,
    default_match_tolerance,
    format_percent,
    match_slots,
    precision_recall,
    roc_auc,
)
from .occupancy import (
    ClassifierAdapter,
    FileScoreClassifier,
    GeometricOracleClassifier,
    OccupancyRecord,
    OccupancyStatus,
    aggregate_report,
    classify_frame,
)
from .simulator import GroundTruth, ScenarioConfig, ViolationSite, generate_scenario
from .slots import (
    ParkingSlot,
    SlotDetectionConfig,
    iqr_filter,
    run_slot_detection,
    select_n_bottom,
)

__version__ = "0.1.0"
