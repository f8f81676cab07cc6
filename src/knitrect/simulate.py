"""Synthetic actuation trajectories and knitted-sensor recordings.

Serves as the ground-truth oracle for the whole toolkit: a smooth
gradient-noise trajectory drives a lumped phenomenological sensor model
that exhibits the corruptions the pipeline must undo — logarithmic
baseline drift, additive offset, load/unload relaxation asymmetry
(hysteresis), multiplicative resistance noise — plus jittered acquisition
timestamps.  Everything is deterministic given the seeds.

Simulation works in fixed-size blocks of _BLOCK (2**14) trajectory
samples, 164 s at 100 Hz: only the arrays it returns grow with the
duration.  A trajectory holds 16 bytes per sample and a recording 32
bytes per row (about 41.5 rows a second with jitter); beside them, one
recording needs about 1.6 MiB of working memory at any duration (traced
at 23, 30 and 240 minutes; the one-shot code needed 12, 16 and 125 MiB).
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _finite, _integer, _positive, _shown
from .series import _BLOCK, MAX_SAMPLES, RawRecording, _open_text

# --- 1-d gradient noise ------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_OCTAVE_SALT = 0xD1B54A32D192ED03
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Stateless 64-bit mixer; x is a uint64 array (wrap-around intended)."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
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
    count.  Deterministic in (seed, t); continuous and smooth in t.  The
    seed is an integer >= 0 (8.0 passes; else DataError).
    """
    seed = _integer("seed", seed, 0)
    octaves = _integer("octaves", octaves, 1)
    _positive("base_freq_hz", base_freq_hz)
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
REST_LENGTH_MM = 100.0
MAX_STRAIN = 0.30

# maps noise in [-1,1] to a strain fraction; >1 widens coverage of the
# strain range and sets actuation speed, the clip keeps strain in [0, max]
_AMPLITUDE_GAIN = 1.6
_BASE_FREQ_HZ = 0.05
_OCTAVES = 3


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled actuator displacement profile.

    The sample is REST_LENGTH_MM long at rest, and its strain d_mm /
    REST_LENGTH_MM must stay within [0, MAX_STRAIN].
    """

    t_s: np.ndarray
    d_mm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_s", np.asarray(self.t_s, dtype=float))
        object.__setattr__(self, "d_mm", np.asarray(self.d_mm, dtype=float))
        if self.t_s.size != self.d_mm.size or self.t_s.size < 2:
            raise DataError("trajectory needs >= 2 matching samples")
        if np.any(np.diff(self.t_s) <= 0):
            raise DataError("trajectory timestamps must be strictly increasing")
        strain = self.strain()
        if strain.min() < 0 or strain.max() > MAX_STRAIN + 1e-12:
            raise DataError("trajectory strain out of [0, MAX_STRAIN]")

    def strain(self) -> np.ndarray:
        return self.d_mm / REST_LENGTH_MM

    def __len__(self) -> int:
        return int(self.t_s.size)


def gen_trajectory(seed: int, duration_s: float) -> Trajectory:
    """Non-repetitive smooth displacement profile at 100 Hz.

    The sample's rest length is REST_LENGTH_MM (100 mm) and its strain
    stays within [0, MAX_STRAIN] (0.30); the mean absolute velocity lands
    in [0.8, 1.2] mm/s and the peak stays below 5 mm/s.  The seed is
    checked as perlin1d checks it.  The noise is computed _BLOCK samples
    at a time, straight into the displacement array.
    """
    _positive("duration", duration_s)
    samples = duration_s * TRAJECTORY_RATE_HZ
    if samples > MAX_SAMPLES:
        raise DataError(f"duration {duration_s!r} s asks for more than {MAX_SAMPLES} samples")
    n = int(round(samples))
    if n < 2:
        raise DataError("duration too short for the trajectory rate")
    t = np.arange(n, dtype=float)
    t /= TRAJECTORY_RATE_HZ
    d = np.empty(n)
    for lo in range(0, n, _BLOCK):
        noise = perlin1d(seed, _OCTAVES, _BASE_FREQ_HZ, t[lo : lo + _BLOCK])
        frac = np.clip((_AMPLITUDE_GAIN * noise + 1.0) / 2.0, 0.0, 1.0)
        d[lo : lo + _BLOCK] = REST_LENGTH_MM * MAX_STRAIN * frac
    return Trajectory(t, d)


# --- sensor model ------------------------------------------------------------


@dataclass(frozen=True)
class SensorPreset:
    """Lumped parameters of one simulated sensor variant.

    Force law F = k*eps^p; conductance G = g0*(1+s*c)*(1+beta*ln(1+t/tau_d))
    + offset, where the contact state c relaxes toward sqrt(eps) with
    tau_load on loading and tau_unload on unloading.  The name is one
    line of text, neither empty nor configparser's "DEFAULT", so that it
    survives write_presets and load_presets; every other field must be a
    finite number.  Anything else raises DataError.
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
        if not isinstance(self.name, str) or self.name.splitlines() != [self.name] or self.name == "DEFAULT":
            raise DataError(f"preset name must be one non-empty line other than 'DEFAULT', got {_shown(self.name)}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name != "name" and not _finite(value):
                raise DataError(f"preset field {f.name} must be a finite number, got {_shown(value)}")
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


def preset_by_name(name: str, presets: dict[str, SensorPreset] | None = None) -> SensorPreset:
    """The preset keyed name in presets (default: the shipped ones).

    The exact key wins; otherwise the one key equal to name up to case.
    A name that is not a string, no match, or more than one up to case,
    raises DataError.
    """
    if not isinstance(name, str):
        raise DataError(f"preset name must be a string, got {_shown(name)}")
    presets = SHIPPED_PRESETS if presets is None else presets
    if name in presets:
        return presets[name]
    matches = [key for key in presets if key.lower() == name.lower()]
    if len(matches) == 1:
        return presets[matches[0]]
    if matches:
        raise DataError(f"preset {name!r} is ambiguous up to case: {sorted(matches)}")
    raise DataError(f"unknown preset {name!r}; known: {sorted(presets)}")


def write_presets(presets, sink) -> None:
    """Write presets as an editable INI file, one section per preset.

    Values are written exactly (repr), so load_presets gives the presets
    back.  Two presets with one name raise DataError.
    """
    cp = configparser.ConfigParser()
    for pr in presets:
        if cp.has_section(pr.name):
            raise DataError(f"two presets are named {pr.name!r}")
        cp[pr.name] = {
            f.name: repr(float(getattr(pr, f.name)))
            for f in dataclasses.fields(pr)
            if f.name != "name"
        }
    with _open_text(sink, "w") as stream:
        cp.write(stream)


def load_presets(source) -> dict[str, SensorPreset]:
    """Read a preset INI written by write_presets (or edited by hand).

    Values are read verbatim: a `%` is no interpolation.  Text that is not
    such a file raises DataError.
    """
    cp = configparser.ConfigParser(interpolation=None)
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

    def __post_init__(self):
        object.__setattr__(self, "master", _integer("master seed", self.master, 0))

    def recording_seeds(self, index: int) -> tuple[int, int]:
        """(trajectory seed, sensor seed) for recording `index`, an integer >= 0 (8.0 passes; else DataError)."""
        ss = np.random.SeedSequence([self.master, _integer("recording index", index, 0)])
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

    The seed, an integer >= 0 (8.0 passes; else DataError), expands into
    three independent streams: timestamp jitter, force noise, resistance
    noise.  Setting the preset noise levels to 0
    and jittered_timestamps=False yields a fully clean recording on the
    trajectory's own time base.

    The model runs over _clean_blocks' blocks of the trajectory, and each
    block's acquisition rows are interpolated and given their noise in
    row order, so only the returned columns grow with the duration.
    """
    t = traj.t_s
    ss = np.random.SeedSequence(_integer("seed", seed, 0))
    jitter_rng, force_rng, resist_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    ts = _jittered_times(jitter_rng, t) if jittered_timestamps else t
    f_noisy, r_noisy, d_s = np.empty(ts.size), np.empty(ts.size), np.empty(ts.size)
    blocks = _clean_blocks(traj, preset)
    start = 0
    for tb, g_clean, f_clean, db in blocks:
        if g_clean.min() <= 0:
            lowest = min([g_clean.min(), *(rest[1].min() for rest in blocks)])
            raise DataError(
                f"preset {preset.name!r} produced non-positive conductance "
                f"(min {lowest:g} S); check offset/drift signs"
            )
        # a row at a block's last time falls to the next block, which starts there
        stop = ts.size if tb[-1] == t[-1] else int(np.searchsorted(ts, tb[-1]))
        rows = ts[start:stop]
        g_s = np.interp(rows, tb, g_clean)
        f_s = np.interp(rows, tb, f_clean)
        d_s[start:stop] = np.interp(rows, tb, db)
        f_noisy[start:stop] = np.maximum(f_s + force_rng.normal(0.0, preset.force_noise_n, size=rows.size), 0.0)
        # multiplicative resistance noise, floored so R stays positive
        r_noisy[start:stop] = (1.0 / g_s) * np.maximum(
            1.0 + resist_rng.normal(0.0, preset.resistance_noise_frac, size=rows.size), 0.1
        )
        start = stop
    return RawRecording(ts, f_noisy, r_noisy, d_s, source_label=source_label)


def _clean_blocks(traj: Trajectory, preset: SensorPreset) -> Iterator[tuple[np.ndarray, ...]]:
    """The trajectory's times, clean conductance, clean force and displacement, _BLOCK steps at a time.

    Each block starts at the sample where the one before it ended, and
    the contact state carries over that sample, so every value is the one
    that the model gives over the whole trajectory at once.
    """
    t, d = traj.t_s, traj.d_mm
    c = None
    for lo in range(0, t.size - 1, _BLOCK):
        tb, db = t[lo : lo + _BLOCK + 1], d[lo : lo + _BLOCK + 1]
        eps = db / REST_LENGTH_MM
        # contact state: first-order relaxation toward sqrt(strain), asymmetric taus
        target = np.sqrt(eps)
        dts = np.diff(tb)
        a_load = 1.0 - np.exp(-dts / preset.tau_load_s)
        a_unload = 1.0 - np.exp(-dts / preset.tau_unload_s)
        c = _contact_state(float(target[0]) if c is None else float(c[-1]), eps, target, a_load, a_unload)
        drift = 1.0 + preset.drift_magnitude * np.log1p(tb / preset.drift_timescale_s)
        g_clean = preset.base_conductance_s * (1.0 + preset.strain_sensitivity * c) * drift + preset.offset_s
        yield tb, g_clean, preset.stiffness_n * eps**preset.stiffness_exponent, db


def _jittered_times(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Acquisition times from 0 s to t[-1]: a running sum of 1/rate, each rate a clipped normal draw.

    The rates are drawn _BLOCK at a time, at most one per 10 ms that t
    spans, and the drawing stops once the clock passes t[-1].  The clock
    carries from block to block as cumsum's running sum, so the times are
    those of one cumsum over every draw.  A t that spans more than
    MAX_SAMPLES draws raises DataError.
    """
    span = (t[-1] - t[0]) * 100.0
    if not span <= MAX_SAMPLES:
        raise DataError(f"trajectory spans {float(t[-1] - t[0]):g} s; its jitter asks for more than {MAX_SAMPLES} draws")
    n_draws = int(math.ceil(span)) + 1
    pieces = [np.zeros(1)]
    clock = 0.0
    while n_draws > 0:
        rates = np.clip(
            rng.normal(JITTER_RATE_MEAN_HZ, JITTER_RATE_SD_HZ, size=min(n_draws, _BLOCK)),
            JITTER_RATE_MIN_HZ,
            JITTER_RATE_MAX_HZ,
        )
        n_draws -= rates.size
        steps = 1.0 / rates
        steps[0] += clock
        ts = np.cumsum(steps)
        kept = ts[: np.searchsorted(ts, t[-1], side="right")]
        pieces.append(kept)
        if kept.size < ts.size:
            break
        clock = ts[-1]
    return np.concatenate(pieces)


def _contact_state(c: float, eps: np.ndarray, target: np.ndarray, a_load: np.ndarray, a_unload: np.ndarray) -> np.ndarray:
    """c, then c[i] = c[i-1] + (target[i] - c[i-1])*a[i-1], where a[i-1] is
    a_load[i-1] if eps[i] > eps[i-1] and a_unload[i-1] otherwise.

    One np.where picks every step's rate, and the loop runs on Python
    floats read from memoryviews and feeds np.fromiter, as
    smoothing._filter_pass does; the arithmetic is IEEE double as on
    numpy scalars, so the array is the same bit for bit.  A block passes
    the state at its first sample as c.
    """
    rates = np.where(eps[1:] > eps[:-1], a_load, a_unload)

    def steps(c: float) -> Iterator[float]:
        yield c
        for goal, a in zip(memoryview(target)[1:], memoryview(rates)):
            c = c + (goal - c) * a
            yield c

    return np.fromiter(steps(c), dtype=float, count=eps.size)


def role_name(index: int) -> str:
    """The role of recording index in a dataset: train, then test_a, test_b, ..., test_z.

    The index is an integer in 0..26 (8.0 passes); anything else raises DataError.
    """
    index = _integer("recording index", index, 0)
    if index > 26:
        raise DataError(f"recording index must be at most 26 (test_z), got {_shown(index)}")
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
    n_recordings = _integer("n_recordings", n_recordings, 2)
    if n_recordings > 27:
        raise DataError("at most 27 recordings: train and test_a to test_z")
    sim_seed = SimSeed(master_seed)
    out = []
    for i in range(n_recordings):
        traj_seed, sensor_seed = sim_seed.recording_seeds(i)
        traj = gen_trajectory(traj_seed, duration_s)
        label = f"{preset.name.lower()}-{role_name(i)}-seed{sim_seed.master}"
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
