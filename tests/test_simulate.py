"""Gradient noise, trajectories, the sensor model, and dataset generation."""

import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knitrect as kr
from knitrect import simulate
from knitrect.errors import DataError

# --- perlin noise ---------------------------------------------------------------


def test_perlin_single_octave_vanishes_at_lattice_points():
    t = np.arange(0.0, 11.0)  # integer lattice for base_freq 1
    out = kr.perlin1d(123, 1, 1.0, t)
    assert np.all(out == 0.0)


def test_perlin_is_deterministic_and_seed_sensitive():
    t = np.linspace(0.0, 30.0, 500)
    a = kr.perlin1d(7, 3, 0.1, t)
    b = kr.perlin1d(7, 3, 0.1, t)
    c = kr.perlin1d(8, 3, 0.1, t)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_perlin_scalar_and_array_calls_agree():
    val = kr.perlin1d(5, 3, 0.1, 12.34)
    arr = kr.perlin1d(5, 3, 0.1, np.array([12.34]))
    assert isinstance(val, float)
    assert val == arr[0]


def test_perlin_stays_in_unit_range_and_is_continuous():
    t = np.arange(0.0, 60.0, 0.001)  # 1 kHz scan over 60 s
    out = kr.perlin1d(99, 3, 0.1, t)
    assert out.min() >= -1.0 and out.max() <= 1.0
    assert np.abs(np.diff(out)).max() < 0.02


def test_perlin_emits_no_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kr.perlin1d(2**63 - 1, 4, 0.3, np.linspace(0, 100, 10000))


def test_perlin_validation():
    with pytest.raises(DataError):
        kr.perlin1d(0, 0, 0.1, 1.0)
    with pytest.raises(DataError):
        kr.perlin1d(0, 1, 0.0, 1.0)


@pytest.mark.parametrize("octaves, base_freq_hz", [(3, float("nan")), (3, float("inf")), (2.5, 0.05)])
def test_perlin_rejects_a_non_finite_frequency_or_a_fractional_octave_count(octaves, base_freq_hz):
    with pytest.raises(DataError):
        kr.perlin1d(0, octaves, base_freq_hz, [0.0])


# --- trajectories ---------------------------------------------------------------


def test_trajectory_sample_count_at_full_duration():
    traj = kr.gen_trajectory(3, 1380.0)
    assert len(traj) == 138_000


def test_trajectory_strain_stays_in_range(pes_23min_train):
    traj, _ = pes_23min_train
    strain = traj.strain()
    assert strain.min() >= 0.0
    assert strain.max() <= 0.30 + 1e-12


def test_trajectory_velocity_statistics(pes_23min_train):
    traj, _ = pes_23min_train
    v = np.diff(traj.d_mm) / np.diff(traj.t_s)
    assert 0.8 <= np.abs(v).mean() <= 1.2
    assert np.abs(v).max() < 5.0


def test_trajectory_is_deterministic():
    a = kr.gen_trajectory(11, 60.0)
    b = kr.gen_trajectory(11, 60.0)
    assert np.array_equal(a.d_mm, b.d_mm)


def test_trajectory_validation():
    with pytest.raises(DataError):
        kr.gen_trajectory(0, 0.0)
    for duration in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="duration"):
            kr.gen_trajectory(0, duration)
    for master in (-1, 1.5, "7", None):
        with pytest.raises(DataError, match="master seed"):
            kr.SimSeed(master)
    assert kr.SimSeed(7.0).recording_seeds(0) == kr.SimSeed(7).recording_seeds(0)
    with pytest.raises(DataError):
        kr.Trajectory([0.0, 0.01], [0.0, 40.0])  # strain above max


@pytest.mark.parametrize("seed", [2.5, True, -1, None, "7"])
def test_simulator_seeds_must_be_integers(seed):
    traj = kr.gen_trajectory(1, 2.0)
    with pytest.raises(DataError, match="seed must be an integer"):
        kr.simulate_sensor(traj, kr.PES_PRESET, seed)
    with pytest.raises(DataError, match="recording index must be an integer"):
        kr.SimSeed(7).recording_seeds(seed)


def test_simulator_seeds_take_an_integral_float():
    traj = kr.gen_trajectory(1, 2.0)
    a, b = kr.simulate_sensor(traj, kr.PES_PRESET, 3.0), kr.simulate_sensor(traj, kr.PES_PRESET, 3)
    assert np.array_equal(a.resistance_ohm, b.resistance_ohm)
    assert kr.SimSeed(7).recording_seeds(2.0) == kr.SimSeed(7).recording_seeds(2)


# --- sensor model ---------------------------------------------------------------


def _clean_preset(**overrides):
    base = kr.PES_PRESET.noise_free()
    return dataclasses.replace(base, **overrides)


def test_sensor_affine_regime_reaches_perfect_agreement():
    # with F = k*sqrt(eps) and instant contact relaxation, conductance and
    # force are affine images of each other, so standardization makes the
    # pre-pipeline agreement exact
    preset = _clean_preset(stiffness_exponent=0.5, tau_load_s=1e-4, tau_unload_s=1e-4, drift_magnitude=0.0)
    traj = kr.gen_trajectory(5, 120.0)
    rec = kr.simulate_sensor(traj, preset, 1, jittered_timestamps=False)
    prep = kr.prepare(rec, 20.0, "force")
    assert kr.r_squared(prep.target_bar, prep.g_bar) >= 0.99


def test_sensor_conductance_is_affine_in_root_strain():
    preset = _clean_preset(tau_load_s=1e-4, tau_unload_s=1e-4, drift_magnitude=0.0)
    traj = kr.gen_trajectory(5, 120.0)
    rec = kr.simulate_sensor(traj, preset, 1, jittered_timestamps=False)
    g = 1.0 / rec.resistance_ohm
    root = np.sqrt(traj.strain())
    design = np.vstack([root, np.ones_like(root)]).T
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    resid = np.abs(g - design @ coef).max()
    assert resid <= 1e-9 * (g.max() - g.min())


def test_sensor_pre_pipeline_agreement_lands_in_calibrated_band(pes_23min_train):
    _, rec = pes_23min_train
    prep = kr.prepare(rec, 20.0, "force")
    r2 = kr.r_squared(prep.target_bar, prep.g_bar)
    assert 0.35 <= r2 <= 0.60


def test_sensor_frozen_trajectory_shows_logarithmic_drift():
    t = np.arange(0.0, 120.0, 0.01)
    traj = kr.Trajectory(t, np.full(t.size, 15.0))
    rec = kr.simulate_sensor(traj, _clean_preset(), 0, jittered_timestamps=False)
    g = 1.0 / rec.resistance_ohm
    assert np.all(np.diff(g) > 0.0)  # strictly increasing
    steps = g[::1000]
    increments = np.diff(steps)
    assert np.all(np.diff(increments) < 0.0)  # increments shrink over equal steps
    assert np.allclose(rec.force_n, rec.force_n[0], rtol=1e-12)


def test_sensor_drift_factor_is_nondecreasing_with_shrinking_increments():
    t = np.linspace(0.0, 600.0, 2000)
    factor = 1.0 + kr.PES_PRESET.drift_magnitude * np.log1p(t / kr.PES_PRESET.drift_timescale_s)
    assert np.all(np.diff(factor) >= 0.0)
    assert np.all(np.diff(np.diff(factor)) < 0.0)


def _triangle_loop_area(tau_load, tau_unload):
    t = np.arange(0.0, 40.0, 0.01)
    up = t <= 20.0
    d = np.where(up, t / 20.0, (40.0 - t) / 20.0) * 30.0
    traj = kr.Trajectory(t, d)
    preset = _clean_preset(tau_load_s=tau_load, tau_unload_s=tau_unload, drift_magnitude=0.0)
    rec = kr.simulate_sensor(traj, preset, 0, jittered_timestamps=False)
    eps = traj.strain()
    g = 1.0 / rec.resistance_ohm
    n = t.size // 2
    grid = np.linspace(0.02, 0.28, 200)
    g_up = np.interp(grid, eps[:n], g[:n])
    g_dn = np.interp(grid, eps[n:][::-1], g[n:][::-1])
    gap = np.abs(g_up - g_dn)
    # the trapezoid rule as np.trapezoid computes it; that name is numpy 2's
    return float(np.sum(np.diff(grid) * (gap[1:] + gap[:-1]) / 2.0)), float(gap.max())


def test_sensor_hysteresis_loop_opens_with_asymmetric_relaxation():
    area_wide, gap_wide = _triangle_loop_area(2.5, 0.5)
    area_mid, _ = _triangle_loop_area(1.0, 0.5)
    area_sym, _ = _triangle_loop_area(0.5, 0.5)
    area_fast, _ = _triangle_loop_area(0.05, 0.05)
    assert gap_wide > 1e-7  # loading and unloading branches clearly split
    # the loop closes monotonically toward the symmetric-lag floor, and the
    # floor itself vanishes as both relaxation times shrink
    assert area_wide > area_mid > area_sym
    assert area_fast < 0.1 * area_wide


def _contact_state_reference(eps, target, a_load, a_unload):
    """The contact-state loop on numpy scalars, as simulate_sensor ran it before its Python-float loop."""
    c = np.empty_like(eps)
    c[0] = target[0]
    for i in range(1, eps.size):
        a = a_load[i - 1] if eps[i] > eps[i - 1] else a_unload[i - 1]
        c[i] = c[i - 1] + (target[i] - c[i - 1]) * a
    return c


# displacements in mm; repeats and the strain limits exercise the unloading branch on flat stretches
_displacements = st.lists(
    st.one_of(st.sampled_from([0.0, 15.0, simulate.REST_LENGTH_MM * simulate.MAX_STRAIN]), st.floats(min_value=0.0, max_value=30.0)),
    min_size=2,
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(
    d_mm=st.one_of(_displacements, st.integers(min_value=0, max_value=2**32)),
    preset=st.sampled_from([kr.PES_PRESET, kr.LYCRA_PRESET]),
    sensor_seed=st.integers(min_value=0, max_value=2**32),
)
def test_simulate_sensor_matches_the_numpy_scalar_contact_loop(d_mm, preset, sensor_seed):
    # d_mm is a drawn displacement list (on the trajectory's own time base,
    # since jitter could leave fewer than 2 rows) or the seed of a
    # 30-second gen_trajectory, sampled with jitter
    jitter = isinstance(d_mm, int)
    if jitter:
        traj = kr.gen_trajectory(d_mm, 30.0)
    else:
        traj = kr.Trajectory(np.arange(len(d_mm)) / simulate.TRAJECTORY_RATE_HZ, d_mm)
    got = kr.simulate_sensor(traj, preset, sensor_seed, jittered_timestamps=jitter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_contact_state", _contact_state_reference)
        want = kr.simulate_sensor(traj, preset, sensor_seed, jittered_timestamps=jitter)
    for name in ("t_s", "force_n", "resistance_ohm", "displacement_mm"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_sensor_rejects_presets_with_non_positive_conductance():
    bad = _clean_preset(offset_s=-1e-5)
    traj = kr.gen_trajectory(0, 10.0)
    with pytest.raises(DataError, match="non-positive conductance"):
        kr.simulate_sensor(traj, bad, 0)


def test_sensor_outputs_satisfy_recording_invariants(pes_small):
    for rec in pes_small:
        assert np.all(rec.resistance_ohm > 0)
        assert np.all(rec.force_n >= 0)
        assert np.all(np.diff(rec.t_s) > 0)


def test_jittered_timestamp_rate_statistics(pes_23min_train):
    _, rec = pes_23min_train
    rates = 1.0 / np.diff(rec.t_s)
    assert abs(rates.mean() - 41.5) <= 2.0
    assert abs(rates.std() - 14.2) <= 3.0


# --- presets and datasets -------------------------------------------------------


def test_shipped_presets_lookup():
    assert kr.preset_by_name("pes") is kr.PES_PRESET
    assert kr.preset_by_name("LYCRA") is kr.LYCRA_PRESET
    with pytest.raises(DataError, match="unknown preset"):
        kr.preset_by_name("wool")
    with pytest.raises(DataError, match=r"unknown preset 'pes '; known: \['lycra', 'pes'\]"):
        kr.preset_by_name("pes ")


def test_preset_registry_roundtrip(tmp_path):
    path = tmp_path / "presets.ini"
    kr.write_presets([kr.PES_PRESET, kr.LYCRA_PRESET], path)
    back = kr.load_presets(path)
    assert back["PES"] == kr.PES_PRESET
    assert back["Lycra"] == kr.LYCRA_PRESET


def test_preset_registry_rejects_incomplete_sections():
    with pytest.raises(DataError, match="missing field"):
        kr.load_presets(io.StringIO("[custom]\nstiffness_n = 10\n"))


def test_preset_registry_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "presets.ini"
    path.write_bytes(b"[custom]\nstiffness_n = 1\xff\n")
    with pytest.raises(DataError, match="presets.ini is not utf-8 text"):
        kr.load_presets(path)


def test_preset_validation():
    with pytest.raises(DataError):
        dataclasses.replace(kr.PES_PRESET, stiffness_n=0.0)
    with pytest.raises(DataError):
        dataclasses.replace(kr.PES_PRESET, tau_load_s=0.0)
    with pytest.raises(DataError):
        dataclasses.replace(kr.PES_PRESET, resistance_noise_frac=-0.1)
    non_finite = (("stiffness_n", float("nan")), ("tau_load_s", float("inf")), ("offset_s", "1e-7"), ("drift_magnitude", True))
    for field, value in non_finite:
        with pytest.raises(DataError, match=f"preset field {field} must be a finite number"):
            dataclasses.replace(kr.PES_PRESET, **{field: value})


_PRESET_KEYS = [f.name for f in dataclasses.fields(kr.SensorPreset)[1:]]


def _preset_ini(values: dict) -> str:
    return "[custom]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


def test_preset_registry_reads_values_verbatim():
    fields = {name: repr(getattr(kr.PES_PRESET, name)) for name in _PRESET_KEYS}
    with pytest.raises(DataError, match="non-numeric"):
        kr.load_presets(io.StringIO(_preset_ini({**fields, "offset_s": "2e-7%"})))
    with pytest.raises(DataError, match="stiffness_n must be a finite number"):
        kr.load_presets(io.StringIO(_preset_ini({**fields, "stiffness_n": "nan"})))


# INI-shaped text: sections of preset keys with arbitrary values, between arbitrary lines
_ini_text = st.lists(
    st.one_of(
        st.text(max_size=30).map(lambda t: f"[{t}]"),
        st.tuples(st.sampled_from(_PRESET_KEYS), st.one_of(st.text(max_size=12), st.floats().map(repr))).map(
            lambda kv: f"{kv[0]} = {kv[1]}"
        ),
        st.text(max_size=30),
    ),
    max_size=30,
).map("\n".join)


# a section whose values all ask for interpolation
_interpolating = st.lists(st.sampled_from(_PRESET_KEYS)).map(lambda keys: _preset_ini(dict.fromkeys(keys, "%(x)s")))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), _ini_text, _interpolating))
def test_load_presets_returns_presets_or_raises_data_error(text):
    try:
        presets = kr.load_presets(io.StringIO(text))
    except DataError:
        return
    assert all(isinstance(p, kr.SensorPreset) for p in presets.values())


def test_preset_by_name_on_a_loaded_registry():
    soft = dataclasses.replace(kr.PES_PRESET, name="Soft", stiffness_n=20.0)
    stiff = dataclasses.replace(kr.PES_PRESET, name="SOFT", stiffness_n=90.0)
    sink = io.StringIO()
    kr.write_presets([soft, stiff, kr.LYCRA_PRESET], sink)
    registry = kr.load_presets(io.StringIO(sink.getvalue()))
    assert kr.preset_by_name("Soft", registry) == soft  # exact keys win over each other's case
    assert kr.preset_by_name("SOFT", registry) == stiff
    assert kr.preset_by_name("LYCRA", registry) == kr.LYCRA_PRESET
    with pytest.raises(DataError, match=r"preset 'soft' is ambiguous up to case: \['SOFT', 'Soft'\]"):
        kr.preset_by_name("soft", registry)
    with pytest.raises(DataError, match=r"unknown preset 'pes'; known: \['Lycra', 'SOFT', 'Soft'\]"):
        kr.preset_by_name("pes", registry)


@pytest.mark.parametrize("name", ["", "DEFAULT", "two\nlines", "cr\r", "nel\x85", 7, None])
def test_preset_name_is_one_line_other_than_default(name):
    with pytest.raises(DataError, match="preset name must be one non-empty line"):
        dataclasses.replace(kr.PES_PRESET, name=name)


def test_write_presets_rejects_two_presets_with_one_name():
    twin = dataclasses.replace(kr.LYCRA_PRESET, name="PES")
    with pytest.raises(DataError, match="two presets are named 'PES'"):
        kr.write_presets([kr.PES_PRESET, twin], io.StringIO())


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_presets = st.builds(
    kr.SensorPreset,
    name=st.text(min_size=1, max_size=12).filter(lambda n: n.splitlines() == [n] and n != "DEFAULT"),
    stiffness_n=_positive_floats,
    stiffness_exponent=_finite_floats,
    base_conductance_s=_positive_floats,
    strain_sensitivity=_finite_floats,
    drift_magnitude=_finite_floats,
    drift_timescale_s=_positive_floats,
    tau_load_s=_positive_floats,
    tau_unload_s=_positive_floats,
    offset_s=_finite_floats,
    resistance_noise_frac=st.floats(min_value=0.0, allow_infinity=False),
    force_noise_n=st.floats(min_value=0.0, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(presets=st.lists(_presets, max_size=4, unique_by=lambda p: p.name))
def test_write_then_load_presets_gives_the_presets_back(presets):
    sink = io.StringIO()
    kr.write_presets(presets, sink)
    assert kr.load_presets(io.StringIO(sink.getvalue())) == {p.name: p for p in presets}


def test_make_dataset_is_reproducible_with_distinct_recordings(pes_small):
    again = kr.make_dataset(7, kr.PES_PRESET, duration_s=120.0)
    for a, b in zip(pes_small, again):
        assert np.array_equal(a.t_s, b.t_s)
        assert np.array_equal(a.resistance_ohm, b.resistance_ohm)
    # pairwise distinct displacement streams
    assert not np.allclose(
        pes_small[0].displacement_mm[:500], pes_small[1].displacement_mm[:500]
    )
    assert not np.allclose(
        pes_small[1].displacement_mm[:500], pes_small[2].displacement_mm[:500]
    )


def test_make_dataset_role_labels(pes_small):
    labels = [rec.source_label for rec in pes_small]
    assert labels == ["pes-train-seed7", "pes-test_a-seed7", "pes-test_b-seed7"]
    assert [kr.role_name(i) for i in (0, 1, 26)] == ["train", "test_a", "test_z"]


def test_make_dataset_needs_two_recordings():
    with pytest.raises(DataError):
        kr.make_dataset(0, kr.PES_PRESET, n_recordings=1, duration_s=10.0)
    with pytest.raises(DataError, match="n_recordings must be an integer >= 2, got 2.5"):
        kr.make_dataset(42, kr.PES_PRESET, n_recordings=2.5)


def test_lycra_force_range_roughly_doubles_pes():
    traj = kr.gen_trajectory(4, 120.0)
    pes = kr.simulate_sensor(traj, kr.PES_PRESET.noise_free(), 2, jittered_timestamps=False)
    lycra = kr.simulate_sensor(traj, kr.LYCRA_PRESET.noise_free(), 2, jittered_timestamps=False)
    ratio = lycra.force_n.max() / pes.force_n.max()
    assert 1.8 <= ratio <= 2.7
