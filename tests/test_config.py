import json

import numpy as np
import pytest

from parkscan.config import (
    RunConfig,
    load_run_config,
    run_config_from_document,
)
from parkscan.errors import ConfigError


def test_defaults():
    cfg = RunConfig()
    assert cfg.det_filter.allowed_classes == {"car", "truck"}
    assert cfg.det_filter.min_confidence == 0.5
    assert np.array_equal(cfg.homography.m, np.eye(3))
    assert cfg.n_bottom is None
    assert cfg.threshold == 0.5
    assert cfg.iou_threshold == 0.3


def test_document_round_trip():
    doc = {
        "filter": {"classes": ["car"], "min_confidence": 0.6},
        "homography": {"matrix": [2, 0, 0, 0, 2, 0, 0, 0, 1]},
        "n_bottom": 12,
        "eps": 10.0,
        "min_points": 4,
        "tolerance": 7.5,
    }
    cfg = run_config_from_document(doc)
    assert cfg.det_filter.allowed_classes == {"car"}
    assert cfg.n_bottom == 12 and cfg.eps == 10.0 and cfg.min_points == 4
    assert cfg.tolerance == 7.5
    slot_cfg = cfg.slot_detection_config()
    assert slot_cfg.n_bottom == 12 and (slot_cfg.eps, slot_cfg.min_points) == (10.0, 4)


def test_missing_n_bottom_raises_at_detection_time():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        cfg.slot_detection_config()


def test_invalid_documents_rejected():
    with pytest.raises(ConfigError):
        run_config_from_document({"filter": {"classes": []}})
    with pytest.raises(ConfigError):
        run_config_from_document({"homography": {"matrix": [1, 2]}})
    with pytest.raises(ConfigError):
        run_config_from_document([1, 2, 3])
    with pytest.raises(ConfigError):
        run_config_from_document({"filter": {"min_confidence": 3.0}})


def test_load_run_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n_bottom": 5}))
    assert load_run_config(good).n_bottom == 5
    assert load_run_config(None).n_bottom is None


def test_null_only_where_a_default_is_derived():
    cfg = run_config_from_document({"n_bottom": None, "eps": None, "min_points": None, "tolerance": None})
    assert (cfg.n_bottom, cfg.eps, cfg.min_points, cfg.tolerance) == (None, None, None, None)
    for doc in ({"threshold": None}, {"iou_threshold": None}, {"filter": {"min_confidence": None}},
                {"filter": {"classes": None}}):
        with pytest.raises(ConfigError):
            run_config_from_document(doc)


def test_numbers_read_as_floats_keep_the_echoed_bytes():
    cfg = run_config_from_document({"filter": {"min_confidence": 1}, "tolerance": 7, "eps": 15})
    assert [type(v) for v in (cfg.det_filter.min_confidence, cfg.tolerance, cfg.eps)] == [float] * 3
