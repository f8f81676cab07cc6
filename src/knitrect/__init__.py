"""knitrect: rectify drift-, offset-, and hysteresis-corrupted knitted-sensor readings.

A bank of exponentially smoothed conductance signals feeds a minimal ReLU
MLP regressor that maps corrupted readings back onto the normalized target
(force or displacement).  Ships with a seeded synthetic sensor simulator
as ground-truth oracle, a deterministic hyperparameter grid runner, and a
CLI (`knitrect --help`).
"""

from .errors import DataError, NumericError, TrainingDiverged
from .gridsearch import (
    GridConfig,
    GridRow,
    SearchReport,
    enumerate_feature_sets,
    enumerate_topologies,
    grid_configs,
    parse_indices,
    run_grid,
    write_report_csv,
)
from .metrics import (
    BinnedCurve,
    ScoreCard,
    binned_rse,
    combined_error,
    gain,
    r_squared,
    write_binned_rse_csv,
    write_metric_rows_csv,
)
from .mlp import (
    MlpModel,
    TrainConfig,
    TrainReport,
    forward,
    forward_batch,
    gradient,
    mlp_new,
    mse_loss,
    train,
    train_many,
)
from .pipeline import (
    Evaluation,
    PipelineBundle,
    PipelineConfig,
    PreparedData,
    StreamSession,
    config_from_dict,
    config_to_dict,
    default_best_config,
    evaluate,
    fit_pipeline,
    load_bundle,
    load_config,
    open_stream,
    predict_batch,
    prepare,
    prepare_with_scalers,
    save_bundle,
    stream_push,
    write_prediction_csv,
)
from .series import (
    RawRecording,
    ScalerParams,
    UniformSeries,
    conductivity,
    load_recording,
    resample,
    scaler_fit,
    write_recording,
)
from .simulate import (
    LYCRA_PRESET,
    PES_PRESET,
    SensorPreset,
    SimSeed,
    Trajectory,
    gen_trajectory,
    load_presets,
    make_dataset,
    perlin1d,
    preset_by_name,
    role_name,
    simulate_sensor,
    write_presets,
)
from .smoothing import (
    AlphaSet,
    BankState,
    FeatureMatrix,
    alpha_set,
    bank_push,
    bank_windows,
    baseline_alpha_set,
    feature_bank_with_windows,
    init_window,
    make_bank,
    smooth,
)

__version__ = "0.1.0"
