"""Setting checks end in DataError, also for an int past the float or repr range."""

import dataclasses

import numpy as np
import pytest

import knitrect as kr
from knitrect.errors import DataError

# float() refuses it with OverflowError, and repr with ValueError: it has
# more digits than sys.get_int_max_str_digits (4,300 by default)
HUGE = 10**5000


def _series():
    return kr.resample([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 2.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: kr.make_bank((HUGE,), (1,)), id="make_bank"),
        pytest.param(lambda: kr.make_bank((-HUGE,), (1,)), id="make_bank-negative"),
        pytest.param(lambda: kr.AlphaSet((HUGE,)), id="AlphaSet"),
        pytest.param(lambda: kr.AlphaSet((0.5,), base=HUGE), id="AlphaSet-base"),
        pytest.param(lambda: kr.feature_bank_with_windows(_series(), (HUGE,), (1,)), id="feature_bank_with_windows"),
        pytest.param(lambda: kr.combined_error(HUGE, 0.5), id="combined_error"),
        pytest.param(lambda: kr.alpha_set(HUGE, 2), id="alpha_set"),
        pytest.param(lambda: kr.init_window(HUGE, 20.0, 10), id="init_window"),
        pytest.param(lambda: kr.PipelineConfig(alpha_base=HUGE), id="PipelineConfig-alpha_base"),
        pytest.param(lambda: kr.PipelineConfig(hidden=HUGE), id="PipelineConfig-hidden"),
        pytest.param(lambda: dataclasses.replace(kr.PES_PRESET, offset_s=HUGE), id="SensorPreset-offset_s"),
        pytest.param(lambda: dataclasses.replace(kr.PES_PRESET, name=HUGE), id="SensorPreset-name"),
        pytest.param(lambda: kr.mlp_new(HUGE), id="mlp_new-sizes"),
        pytest.param(lambda: kr.mlp_new((7, HUGE, 1)), id="mlp_new-width"),
    ],
)
def test_an_int_past_the_float_and_repr_range_is_a_data_error(call):
    with pytest.raises(DataError):
        call()


NAN = float("nan")


def _recording():
    return kr.RawRecording([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [100.0, 110.0, 120.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: kr.prepare(_recording(), 20.0, "x"), "target must be one of", id="prepare-target"),
        pytest.param(lambda: kr.RawRecording([0.0, 1.0], [0.0], [1.0, 1.0], [0.0, 0.0]), "unequal lengths", id="RawRecording"),
        pytest.param(lambda: kr.resample([0.0, 1.0, 2.0], [1.0, 2.0], 2.0), "equal lengths", id="resample"),
        pytest.param(lambda: kr.scaler_fit([1.0]), "at least 2 values", id="scaler_fit-one"),
        pytest.param(lambda: kr.scaler_fit([1.0, NAN]), "non-finite value in scaler input", id="scaler_fit-nan"),
        pytest.param(lambda: kr.UniformSeries(1.0, 0.0, [1.0, NAN]), "non-finite value in uniform series", id="UniformSeries"),
        pytest.param(lambda: kr.Trajectory([0.0], [0.0]), ">= 2 matching samples", id="Trajectory-one"),
        pytest.param(lambda: kr.Trajectory([0, 0], [0, 0]), "strictly increasing", id="Trajectory-repeated-t"),
        pytest.param(lambda: kr.gen_trajectory(0, 0.014), "too short", id="gen_trajectory"),
        pytest.param(lambda: kr.AlphaSet(()), "at least one factor", id="AlphaSet-empty"),
        pytest.param(
            lambda: kr.FeatureMatrix(20.0, 0.0, (0.5,), np.zeros((3, 2))), "inconsistent with alpha count", id="FeatureMatrix"
        ),
        pytest.param(lambda: kr.BinnedCurve([0, 1], [1, 2], (None,)), "arrays inconsistent", id="BinnedCurve"),
    ],
)
def test_each_rejection_is_a_data_error_that_names_its_rule(call, match):
    with pytest.raises(DataError, match=match):
        call()
