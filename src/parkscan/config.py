"""Run configuration: one JSON document covering ingest, geometry, and thresholds.

Precedence is CLI flag > config key > built-in default.  Example document:

    {
      "filter": {"classes": ["car", "truck"], "min_confidence": 0.5},
      "homography": {"identity": true},
      "eps": null,
      "min_points": null,
      "n_bottom": 40,
      "threshold": 0.5,
      "iou_threshold": 0.3,
      "tolerance": null
    }
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Union

from .detections import DetectionFilter
from .errors import ConfigError, ValidationError, check_keys
from .geometry import Homography, homography_from_config
from .occupancy import DEFAULT_DECISION_THRESHOLD, DEFAULT_IOU_THRESHOLD
from .slots import SlotDetectionConfig


@dataclass(frozen=True)
class RunConfig:
    det_filter: DetectionFilter
    homography: Homography
    n_bottom: Union[int, None] = None
    eps: Union[float, None] = None
    min_points: Union[int, None] = None
    threshold: float = DEFAULT_DECISION_THRESHOLD
    iou_threshold: float = DEFAULT_IOU_THRESHOLD
    tolerance: Union[float, None] = None

    def __post_init__(self):
        for name in ("threshold", "iou_threshold"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValidationError(name, f"{name} must be in (0, 1), got {value!r}")

    def slot_detection_config(self) -> SlotDetectionConfig:
        if self.n_bottom is None:
            raise ConfigError('slot detection needs "n_bottom" (config key or --n-bottom)')
        return SlotDetectionConfig(
            n_bottom=self.n_bottom,
            homography=self.homography,
            eps=self.eps,
            min_points=self.min_points,
        )


def default_run_config() -> RunConfig:
    return RunConfig(det_filter=DetectionFilter(), homography=Homography.identity())


_KEYS = {"filter", "homography", "n_bottom", "eps", "min_points", "threshold", "iou_threshold",
         "tolerance"}
_FILTER_KEYS = {"classes", "min_confidence"}


def run_config_from_document(doc: Mapping) -> RunConfig:
    check_keys(doc, _KEYS, "run config")
    filter_doc = doc.get("filter", {})
    check_keys(filter_doc, _FILTER_KEYS, 'run config "filter"')
    try:
        det_filter = DetectionFilter(
            allowed_classes=frozenset(filter_doc.get("classes", ("car", "truck"))),
            min_confidence=float(filter_doc.get("min_confidence", 0.5)),
        )
        homography = (
            homography_from_config(doc["homography"])
            if "homography" in doc
            else Homography.identity()
        )
        return RunConfig(
            det_filter=det_filter,
            homography=homography,
            n_bottom=None if doc.get("n_bottom") is None else int(doc["n_bottom"]),
            eps=None if doc.get("eps") is None else float(doc["eps"]),
            min_points=None if doc.get("min_points") is None else int(doc["min_points"]),
            threshold=float(doc.get("threshold", DEFAULT_DECISION_THRESHOLD)),
            iou_threshold=float(doc.get("iou_threshold", DEFAULT_IOU_THRESHOLD)),
            tolerance=None if doc.get("tolerance") is None else float(doc["tolerance"]),
        )
    except ValidationError as exc:
        raise ConfigError(f"invalid run config: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run config value: {exc}") from exc


def load_run_config(path: Union[str, Path, None]) -> RunConfig:
    if path is None:
        return default_run_config()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
    return run_config_from_document(doc)


def apply_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Apply non-None CLI overrides on top of a loaded config."""
    try:
        updates = {k: v for k, v in overrides.items() if v is not None}
        if "classes" in updates:
            updates["det_filter"] = replace(
                cfg.det_filter, allowed_classes=frozenset(updates.pop("classes"))
            )
        if "min_confidence" in updates:
            base = updates.get("det_filter", cfg.det_filter)
            updates["det_filter"] = replace(
                base, min_confidence=updates.pop("min_confidence")
            )
        return replace(cfg, **updates)
    except ValidationError as exc:
        raise ConfigError(f"invalid override: {exc}") from exc


def config_echo(cfg: RunConfig, eps: float, min_points: int) -> dict:
    """Effective configuration as echoed into output documents."""
    return {
        "filter": {
            "classes": sorted(cfg.det_filter.allowed_classes),
            "min_confidence": cfg.det_filter.min_confidence,
        },
        "homography": cfg.homography.flat(),
        "n_bottom": cfg.n_bottom,
        "eps": eps,
        "min_points": min_points,
    }
