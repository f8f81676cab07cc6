"""Synthetic actuation trajectories and knitted-sensor recordings.

Serves as the ground-truth oracle for the whole toolkit: a smooth
gradient-noise trajectory drives a lumped phenomenological sensor model
that exhibits the corruptions the pipeline must undo — logarithmic
baseline drift, additive offset, load/unload relaxation asymmetry
(hysteresis), multiplicative resistance noise — plus jittered acquisition
timestamps.  Everything is deterministic given the seeds.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import RawRecording, _open_text, fmt

# --- 1-d gradient noise ------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_OCTAVE_SALT = 0xD1B54A32D192ED03
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Stateless 64-bit mixer; x is a uint64 array (wrap-around intended)."""
    x = (x + np.uint64(_GOLDEN)).astype(np.uint64)
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)).astype(np.uint64)
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)).astype(np.uint64)
    return x ^ (x >> np.uint64(31))


def _lattice_gradients(seed: int, octave: int, idx: np.ndarray) -> np.ndarray:
    """Deterministic slope in [-1, 1) at each integer lattice index."""
    # mix the key in plain python ints so numpy never sees a scalar overflow
    key = ((int(seed) & _U64_MASK) ^ ((octave * _OCTAVE_SALT) & _U64_MASK)) & _U64_MASK
    h = _splitmix64(idx.astype(np.uint64) ^ np.uint64(key))
    return h.astype(np.float64) / float(2**63) - 1.0


def _fade(u: np.ndarray) -> np.ndarray:
    return u * u * u * (u * (u * 6.0 - 15.0) + 10.0)


def perlin1d(seed: int, octaves: int, base_freq_hz: float, t) -> np.ndarray:
    """Multi-octave 1-d gradient noise in [-1, 1], zero at lattice points.

    Octave o runs at base_freq*2^o with amplitude 0.5^o; the sum is divided
    by its worst-case bound so the range is [-1, 1] regardless of octave
    count.  Deterministic in (seed, t); continuous and smooth in t.
    """
    if octaves < 1:
        raise DataError("octaves must be >= 1")
    if base_freq_hz <= 0:
        raise DataError("base_freq_hz must be positive")
    t_arr = np.asarray(t, dtype=np.float64)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    total = np.zeros_like(t_arr)
    amp = 1.0
    norm = 0.0
    for o in range(octaves):
        x = t_arr * (base_freq_hz * (2.0**o))
        x0 = np.floor(x)
        u = x - x0
        i0 = x0.astype(np.int64)
        g0 = _lattice_gradients(seed, o, i0)
        g1 = _lattice_gradients(seed, o, i0 + 1)
        n0 = g0 * u
        n1 = g1 * (u - 1.0)
        total += amp * (n0 + _fade(u) * (n1 - n0))
        norm += amp * 0.5  # one octave's value is bounded by +-0.5
        amp *= 0.5
    out = total / norm
    return float(out[0]) if scalar else out


# --- trajectories ------------------------------------------------------------

TRAJECTORY_RATE_HZ = 100.0

# maps noise in [-1,1] to a strain fraction; >1 widens coverage of the
# strain range and sets actuation speed, the clip keeps strain in [0, max]
_AMPLITUDE_GAIN = 1.6
_BASE_FREQ_HZ = 0.05
_OCTAVES = 3


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled actuator displacement profile."""

    rest_length_mm: float
    t_s: np.ndarray
    d_mm: np.ndarray
    max_strain: float

    def __post_init__(self):
        object.__setattr__(self, "t_s", np.asarray(self.t_s, dtype=float))
        object.__setattr__(self, "d_mm", np.asarray(self.d_mm, dtype=float))
        if self.t_s.size != self.d_mm.size or self.t_s.size < 2:
            raise DataError("trajectory needs >= 2 matching samples")
        if np.any(np.diff(self.t_s) <= 0):
            raise DataError("trajectory timestamps must be strictly increasing")
        if self.rest_length_mm <= 0:
            raise DataError("rest length must be positive")
        strain = self.d_mm / self.rest_length_mm
        if strain.min() < 0 or strain.max() > self.max_strain + 1e-12:
            raise DataError("trajectory strain out of [0, max_strain]")

    def strain(self) -> np.ndarray:
        return self.d_mm / self.rest_length_mm

    def __len__(self) -> int:
        return int(self.t_s.size)


def gen_trajectory(
    seed: int,
    duration_s: float,
    rest_length_mm: float = 100.0,
    max_strain: float = 0.30,
    speed_scale: float = 1.0,
) -> Trajectory:
    """Non-repetitive smooth displacement profile at 100 Hz.

    With the defaults (rest length 100 mm, max strain 0.30) the mean
    absolute velocity lands in [0.8, 1.2] mm/s and the peak stays below
    5 mm/s.  speed_scale multiplies the noise base frequency, speeding up
    or slowing down the actuation proportionally.
    """
    if duration_s <= 0:
        raise DataError("duration must be positive")
    if not (0.0 < max_strain <= 1.0):
        raise DataError("max_strain must lie in (0, 1]")
    if speed_scale <= 0:
        raise DataError("speed_scale must be positive")
    n = int(round(duration_s * TRAJECTORY_RATE_HZ))
    if n < 2:
        raise DataError("duration too short for the trajectory rate")
    t = np.arange(n) / TRAJECTORY_RATE_HZ
    noise = perlin1d(seed, _OCTAVES, _BASE_FREQ_HZ * speed_scale, t)
    frac = np.clip((_AMPLITUDE_GAIN * noise + 1.0) / 2.0, 0.0, 1.0)
    return Trajectory(rest_length_mm, t, rest_length_mm * max_strain * frac, max_strain)


# --- sensor model ------------------------------------------------------------


@dataclass(frozen=True)
class SensorPreset:
    """Lumped parameters of one simulated sensor variant.

    Force law F = k*eps^p; conductance G = g0*(1+s*c)*(1+beta*ln(1+t/tau_d))
    + offset, where the contact state c relaxes toward sqrt(eps) with
    tau_load on loading and tau_unload on unloading.
    """

    name: str
    stiffness_n: float  # k
    stiffness_exponent: float  # p
    base_conductance_s: float  # g0
    strain_sensitivity: float  # s
    drift_magnitude: float  # beta
    drift_timescale_s: float  # tau_d
    tau_load_s: float
    tau_unload_s: float
    offset_s: float
    resistance_noise_frac: float  # sigma_R
    force_noise_n: float  # sigma_F

    def __post_init__(self):
        if self.stiffness_n <= 0 or self.base_conductance_s <= 0:
            raise DataError("stiffness and base conductance must be positive")
        if min(self.drift_timescale_s, self.tau_load_s, self.tau_unload_s) <= 0:
            raise DataError("all timescales must be positive")
        if self.resistance_noise_frac < 0 or self.force_noise_n < 0:
            raise DataError("noise levels must be >= 0")

    def noise_free(self) -> "SensorPreset":
        return dataclasses.replace(self, resistance_noise_frac=0.0, force_noise_n=0.0)


# calibrated so the raw (pre-pipeline) trend agreement lands in the bands the
# rectifier is expected to start from; peak forces ~11 N / ~25 N
PES_PRESET = SensorPreset(
    name="PES",
    stiffness_n=65.0,
    stiffness_exponent=1.4,
    base_conductance_s=1e-6,
    strain_sensitivity=2.0,
    drift_magnitude=0.08,
    drift_timescale_s=30.0,
    tau_load_s=0.5,
    tau_unload_s=2.5,
    offset_s=2e-7,
    resistance_noise_frac=0.008,
    force_noise_n=0.05,
)

LYCRA_PRESET = SensorPreset(
    name="Lycra",
    stiffness_n=130.0,
    stiffness_exponent=1.3,
    base_conductance_s=2e-6,
    strain_sensitivity=2.5,
    drift_magnitude=0.06,
    drift_timescale_s=40.0,
    tau_load_s=0.25,
    tau_unload_s=0.8,
    offset_s=3e-7,
    resistance_noise_frac=0.006,
    force_noise_n=0.08,
)

SHIPPED_PRESETS = {"pes": PES_PRESET, "lycra": LYCRA_PRESET}


def preset_by_name(name: str) -> SensorPreset:
    try:
        return SHIPPED_PRESETS[name.strip().lower()]
    except KeyError:
        raise DataError(f"unknown preset {name!r}; shipped: {sorted(SHIPPED_PRESETS)}") from None


def write_presets(presets, sink) -> None:
    """Write presets as an editable INI file, one section per preset."""
    cp = configparser.ConfigParser()
    for pr in presets:
        cp[pr.name] = {
            f.name: fmt(getattr(pr, f.name))
            for f in dataclasses.fields(pr)
            if f.name != "name"
        }
    with _open_text(sink, "w") as stream:
        cp.write(stream)


def load_presets(source) -> dict[str, SensorPreset]:
    """Read a preset INI written by write_presets (or edited by hand)."""
    cp = configparser.ConfigParser()
    try:
        with _open_text(source, "r") as stream:
            cp.read_file(stream)
    except configparser.Error as exc:
        raise DataError(f"bad preset file: {exc}") from None
    out = {}
    field_names = [f.name for f in dataclasses.fields(SensorPreset) if f.name != "name"]
    for section in cp.sections():
        try:
            kwargs = {name: float(cp[section][name]) for name in field_names}
        except KeyError as exc:
            raise DataError(f"preset {section!r} is missing field {exc}") from None
        except ValueError:
            raise DataError(f"preset {section!r} has a non-numeric field") from None
        out[section] = SensorPreset(name=section, **kwargs)
    return out


# --- seeded recording generation ---------------------------------------------

JITTER_RATE_MEAN_HZ = 41.5
JITTER_RATE_SD_HZ = 14.2
JITTER_RATE_MIN_HZ = 2.0
JITTER_RATE_MAX_HZ = 200.0  # i.e. intervals never shorter than 5 ms


@dataclass(frozen=True)
class SimSeed:
    """Deterministic fan-out of one master seed into per-recording streams."""

    master: int

    def recording_seeds(self, index: int) -> tuple[int, int]:
        """(trajectory seed, sensor seed) for recording `index`."""
        ss = np.random.SeedSequence([int(self.master), int(index)])
        a, b = ss.generate_state(2, dtype=np.uint64)
        return int(a), int(b)


def simulate_sensor(
    traj: Trajectory,
    preset: SensorPreset,
    seed: int,
    jittered_timestamps: bool = True,
    source_label: str = "",
) -> RawRecording:
    """Run the sensor model over a trajectory and emit an acquisition-style recording.

    The seed expands into three independent streams: timestamp jitter,
    force noise, resistance noise.  Setting the preset noise levels to 0
    and jittered_timestamps=False yields a fully clean recording on the
    trajectory's own time base.
    """
    t = traj.t_s
    eps = traj.strain()
    ss = np.random.SeedSequence(int(seed))
    jitter_rng, force_rng, resist_rng = (np.random.default_rng(c) for c in ss.spawn(3))

    # contact state: first-order relaxation toward sqrt(strain), asymmetric taus
    target = np.sqrt(eps)
    dts = np.diff(t)
    a_load = 1.0 - np.exp(-dts / preset.tau_load_s)
    a_unload = 1.0 - np.exp(-dts / preset.tau_unload_s)
    c = np.empty_like(eps)
    c[0] = target[0]
    for i in range(1, eps.size):
        a = a_load[i - 1] if eps[i] > eps[i - 1] else a_unload[i - 1]
        c[i] = c[i - 1] + (target[i] - c[i - 1]) * a

    drift = 1.0 + preset.drift_magnitude * np.log1p(t / preset.drift_timescale_s)
    g_clean = preset.base_conductance_s * (1.0 + preset.strain_sensitivity * c) * drift + preset.offset_s
    if g_clean.min() <= 0:
        raise DataError(
            f"preset {preset.name!r} produced non-positive conductance "
            f"(min {g_clean.min():g} S); check offset/drift signs"
        )
    f_clean = preset.stiffness_n * eps**preset.stiffness_exponent

    if jittered_timestamps:
        n_draws = int(math.ceil((t[-1] - t[0]) * 100.0)) + 1
        rates = np.clip(
            jitter_rng.normal(JITTER_RATE_MEAN_HZ, JITTER_RATE_SD_HZ, size=n_draws),
            JITTER_RATE_MIN_HZ,
            JITTER_RATE_MAX_HZ,
        )
        ts = np.cumsum(1.0 / rates)
        ts = np.concatenate(([0.0], ts[ts <= t[-1]]))
    else:
        ts = t

    g_s = np.interp(ts, t, g_clean)
    f_s = np.interp(ts, t, f_clean)
    d_s = np.interp(ts, t, traj.d_mm)
    f_noisy = np.maximum(f_s + force_rng.normal(0.0, preset.force_noise_n, size=ts.size), 0.0)
    # multiplicative resistance noise, floored so R stays positive
    r_noisy = (1.0 / g_s) * np.maximum(1.0 + resist_rng.normal(0.0, preset.resistance_noise_frac, size=ts.size), 0.1)
    return RawRecording(ts, f_noisy, r_noisy, d_s, source_label=source_label)


def _role(index: int) -> str:
    return "train" if index == 0 else f"test_{chr(ord('a') + index - 1)}"


def make_dataset(
    master_seed: int,
    preset: SensorPreset,
    n_recordings: int = 3,
    duration_s: float = 1380.0,
    jittered_timestamps: bool = True,
) -> list[RawRecording]:
    """Independent recordings over one preset: first is train, rest are tests.

    Trajectories use distinct derived seeds; the drift clock restarts at
    zero for every recording.
    """
    if n_recordings < 2:
        raise DataError("need at least a train and one test recording")
    sim_seed = SimSeed(master_seed)
    out = []
    for i in range(n_recordings):
        traj_seed, sensor_seed = sim_seed.recording_seeds(i)
        traj = gen_trajectory(traj_seed, duration_s)
        label = f"{preset.name.lower()}-{_role(i)}-seed{master_seed}"
        out.append(
            simulate_sensor(
                traj,
                preset,
                sensor_seed,
                jittered_timestamps=jittered_timestamps,
                source_label=label,
            )
        )
    return out
