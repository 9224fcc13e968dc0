"""Run configuration: one JSON document covering ingest, geometry, and thresholds.

It is the only source of these parameters; a key left out takes its built-in
default.  Example document:

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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

from .detections import DetectionFilter
from .errors import ConfigError, ValidationError, check_keys, json_number
from .geometry import Homography, homography_from_config
from .occupancy import DEFAULT_DECISION_THRESHOLD, DEFAULT_IOU_THRESHOLD
from .slots import SlotDetectionConfig, check_detection_parameters

_DEFAULT_FILTER = DetectionFilter()


@dataclass(frozen=True)
class RunConfig:
    homography: Homography = field(default_factory=Homography.identity)
    classes: frozenset = _DEFAULT_FILTER.allowed_classes
    min_confidence: float = _DEFAULT_FILTER.min_confidence
    n_bottom: Union[int, None] = None
    eps: Union[float, None] = None
    min_points: Union[int, None] = None
    threshold: float = DEFAULT_DECISION_THRESHOLD
    iou_threshold: float = DEFAULT_IOU_THRESHOLD
    tolerance: Union[float, None] = None

    def __post_init__(self):
        object.__setattr__(self, "classes", self.det_filter.allowed_classes)  # checks the filter
        for name in ("threshold", "iou_threshold"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValidationError(name, f"{name} must be in (0, 1), got {value!r}")
        if self.tolerance is not None and not (0.0 < self.tolerance < math.inf):
            raise ValidationError("tolerance", f"tolerance must be finite and > 0, got {self.tolerance!r}")
        check_detection_parameters(self.n_bottom, self.eps, self.min_points)

    @property
    def det_filter(self) -> DetectionFilter:
        """The class allow-list and confidence floor the detect stage applies."""
        return DetectionFilter(self.classes, self.min_confidence)

    def slot_detection_config(self) -> SlotDetectionConfig:
        if self.n_bottom is None:
            raise ConfigError('slot detection needs "n_bottom" in the run config')
        return SlotDetectionConfig(
            n_bottom=self.n_bottom,
            homography=self.homography,
            eps=self.eps,
            min_points=self.min_points,
        )


_KEYS = {"filter", "homography", "n_bottom", "eps", "min_points", "threshold", "iou_threshold",
         "tolerance"}
_FILTER_KEYS = {"classes", "min_confidence"}
_NULLABLE_KEYS = {"n_bottom", "eps", "min_points", "tolerance"}  # where null means the key is absent
_INTEGER_KEYS = {"n_bottom", "min_points"}


def _checked(key: str, value):
    """The RunConfig field for a document key and its value, which must have the key's JSON type."""
    if key == "homography":
        return homography_from_config(value)
    if key == "classes":
        if not (isinstance(value, list) and all(isinstance(c, str) for c in value)):
            raise TypeError(f"classes must be a list of strings, got {value!r}")
        return value
    if value is None and key in _NULLABLE_KEYS:
        return None
    if key in _INTEGER_KEYS:
        return json_number(value, key, int)
    return json_number(value, key)


def run_config_from_document(doc: Mapping) -> RunConfig:
    """Nothing is coerced: ``n_bottom`` and ``min_points`` must be JSON integers, the
    other numbers JSON numbers (a bool is neither), and ``classes`` a list of strings."""
    check_keys(doc, _KEYS, "run config")
    filter_doc = doc.get("filter", {})
    check_keys(filter_doc, _FILTER_KEYS, 'run config "filter"')
    try:
        return RunConfig(**{key: _checked(key, value)
                            for key, value in [*doc.items(), *filter_doc.items()] if key != "filter"})
    except ValidationError as exc:
        raise ConfigError(f"invalid run config: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run config value: {exc}") from exc


def load_run_config(path: Union[str, Path, None]) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc.msg}, line {exc.lineno})") from exc
    except RecursionError:
        raise ConfigError(f"config {path}: invalid JSON (nested too deeply)") from None
    return run_config_from_document(doc)


def config_echo(cfg: RunConfig, eps: float, min_points: int) -> dict:
    """Effective configuration as echoed into output documents."""
    return {
        "filter": {
            "classes": sorted(cfg.classes),
            "min_confidence": cfg.min_confidence,
        },
        "homography": cfg.homography.flat(),
        "n_bottom": cfg.n_bottom,
        "eps": eps,
        "min_points": min_points,
    }
