"""Setting checks end in DataError, also for an int past the float or repr range."""

import dataclasses

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
