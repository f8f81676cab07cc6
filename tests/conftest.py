"""Shared fixtures: synthetic datasets and a quickly trained bundle.

Session-scoped because simulation and training dominate suite runtime;
every consumer treats them as immutable.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import knitrect as kr
from knitrect import pipeline

SMALL_SEED = 7
SMALL_DURATION_S = 120.0


@pytest.fixture(scope="session")
def pes_small():
    """Three 2-minute PES recordings; fast enough for pipeline and CLI tests."""
    return kr.make_dataset(SMALL_SEED, kr.PES_PRESET, duration_s=SMALL_DURATION_S)


@pytest.fixture(scope="session")
def pes_small_dir(pes_small, tmp_path_factory):
    """The small dataset written out as train/test_a/test_b CSV files."""
    d = tmp_path_factory.mktemp("pes_small")
    for role, rec in zip(("train", "test_a", "test_b"), pes_small):
        kr.write_recording(rec, d / f"{role}.csv")
    return d


@pytest.fixture(scope="session")
def quick_config():
    """Default-best pipeline config with a reduced epoch budget."""
    cfg = kr.default_best_config()
    return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, max_iter=150))


@pytest.fixture(scope="session")
def small_bundle(pes_small, quick_config):
    """Rectifier trained on the small training recording."""
    bundle, _ = kr.fit_pipeline(pes_small[0], quick_config)
    return bundle


@pytest.fixture(scope="session")
def pes_8min():
    """Three 8-minute PES recordings with the calibration seed (acceptance data)."""
    return kr.make_dataset(42, kr.PES_PRESET, duration_s=480.0)


@pytest.fixture(scope="session")
def pes_23min_train():
    """(trajectory, recording) for the full-length training run, seed 42."""
    traj_seed, sensor_seed = kr.SimSeed(42).recording_seeds(0)
    traj = kr.gen_trajectory(traj_seed, 1380.0)
    rec = kr.simulate_sensor(traj, kr.PES_PRESET, sensor_seed, source_label="pes-train-seed42")
    return traj, rec


@pytest.fixture(
    params=[
        ({"hidden": [8, 8, 8, 8]}, "model hidden layer sizes disagree with the config's hidden"),
        ({"alpha_base": 5.0}, "bundle alphas disagree with the config's feature set"),
    ],
    ids=["hidden", "alpha_base"],
)
def config_model_mismatch(request, tmp_path):
    """(path, error text): the v1 bundle fixture with one config field edited and its checksum redone."""
    edit, message = request.param
    doc = json.loads((Path(__file__).parent / "data" / "bundle_v1.json").read_text())
    doc["payload"]["config"].update(edit)
    doc["sha256"] = pipeline._payload_checksum(doc["payload"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path, message


@pytest.fixture(params=[float("nan"), float("inf")], ids=["nan", "inf"])
def nonfinite_weight_bundle(request, tmp_path):
    """The v1 bundle fixture with one weight set to NaN or +inf and its checksum redone."""
    doc = json.loads((Path(__file__).parent / "data" / "bundle_v1.json").read_text())
    doc["payload"]["model"]["weights"][1][0][0] = request.param
    doc["sha256"] = pipeline._payload_checksum(doc["payload"])
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(doc))
    return path
