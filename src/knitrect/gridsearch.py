"""Hyperparameter space enumeration and the deterministic grid runner.

The space is 8 smoothing-factor sets x 114 hidden-size tuples = 912
configurations.  Hidden sizes come from multiplying base sizes with
fraction vectors and flooring; tuples containing a width below 2 are
dropped and duplicates collapse.  Every configuration trains on the same
prepared training set with its own deterministic seed stream, scores both
test sets, and is ranked by the combined error E.  Configurations of one
depth and similar widths train together in lockstep (`mlp.train_many`,
grouped by `mlp.lockstep_groups`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, TrainingDiverged, _integer
from .metrics import combined_error, r_squared
from .mlp import TrainConfig, forward_batch, lockstep_groups, mlp_new, train_many
from .pipeline import PreparedData
from .series import _open_text, fmt
from .smoothing import AlphaSet, alpha_set, bank_windows, baseline_alpha_set, feature_bank_with_windows

FEATURE_SET_PARAMS = ((2.5, 4), (2.5, 7), (2.5, 10), (5, 4), (5, 7), (10, 3), (10, 4))

TOPOLOGY_BASES = (2, 3, 4, 6, 8, 12, 16, 32)

# fraction vectors as published; the repeated (1, 1/2, 1/2, 1/2) collapses
FRACTION_VECTORS = (
    (1, 1),
    (1, 0.5),
    (1, 0.25),
    (1, 1, 1),
    (1, 1, 0.5),
    (1, 0.5, 0.5),
    (1, 0.5, 0.25),
    (0.5, 1, 1),
    (0.5, 1, 0.5),
    (0.5, 1, 0.25),
    (1, 1, 1, 1),
    (1, 1, 1, 0.5),
    (1, 1, 0.5, 0.5),
    (1, 0.5, 0.5, 0.5),
    (1, 0.5, 0.5, 0.25),
    (1, 0.5, 0.25, 0.25),
    (1, 0.25, 0.25, 0.25),
    (0.5, 1, 1, 1),
    (0.5, 1, 1, 0.5),
    (0.5, 1, 0.5, 0.5),
    (1, 0.5, 0.5, 0.5),
)

MIN_WIDTH = 2

REPORT_HEADER = "config_id,feature_set,alphas,hidden_sizes,r2_train,r2_testA,r2_testB,E,seconds,status"


@dataclass(frozen=True)
class TopologySpec:
    """One base-size x fraction-vector product with its resolved widths."""

    base: int
    fractions: tuple[float, ...]
    resolved: tuple[int, ...]


def enumerate_feature_sets() -> list[AlphaSet]:
    """The 8 smoothing-factor sets, geometric ones first, baseline last."""
    return [alpha_set(a, n) for a, n in FEATURE_SET_PARAMS] + [baseline_alpha_set()]


def enumerate_topologies() -> list[TopologySpec]:
    """All retained hidden-size tuples: floor products, drop widths < 2, dedupe.

    Deduplication keeps the first (base, fractions) pair producing each
    resolved tuple; enumeration order is base-major over unique vectors.
    """
    vectors = list(dict.fromkeys(FRACTION_VECTORS))
    seen: dict[tuple[int, ...], TopologySpec] = {}
    for base in TOPOLOGY_BASES:
        for vec in vectors:
            resolved = tuple(int(np.floor(base * f)) for f in vec)
            if any(w < MIN_WIDTH for w in resolved):
                continue
            if resolved not in seen:
                seen[resolved] = TopologySpec(base, tuple(float(f) for f in vec), resolved)
    return list(seen.values())


@dataclass(frozen=True)
class GridConfig:
    """One grid point: a feature set plus a hidden-size tuple."""

    feature_set: AlphaSet
    feature_set_index: int
    hidden: tuple[int, ...]


def parse_indices(text: str | None) -> list[int] | None:
    """Parse '0,2,5-8' style index lists; None passes through."""
    if text is None:
        return None
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, _, hi = part.partition("-")
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise DataError(f"bad index range {part!r}") from None
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise DataError(f"bad index {part!r}") from None
    if not out:
        raise DataError("empty index list")
    return out


def grid_configs(
    feature_set_indices=None,
    topology_indices=None,
) -> list[GridConfig]:
    """The canonical config list (feature-set major), optionally subset by index."""
    sets = enumerate_feature_sets()
    topos = enumerate_topologies()
    fs_idx = range(len(sets)) if feature_set_indices is None else list(feature_set_indices)
    tp_idx = range(len(topos)) if topology_indices is None else list(topology_indices)
    if any(not 0 <= i < len(sets) for i in fs_idx):
        raise DataError(f"feature set index out of range 0..{len(sets) - 1}")
    if any(not 0 <= j < len(topos) for j in tp_idx):
        raise DataError(f"topology index out of range 0..{len(topos) - 1}")
    return [
        GridConfig(sets[i], i, topos[j].resolved)
        for i in fs_idx
        for j in tp_idx
    ]


@dataclass(frozen=True)
class GridRow:
    """One scored configuration, as reported."""

    config_id: int
    feature_set: str
    alphas: tuple[float, ...]
    hidden: tuple[int, ...]
    r2_train: float | None
    r2_test_a: float | None
    r2_test_b: float | None
    error: float | None  # combined two-test error E
    seconds: float | None
    status: str
    feature_set_index: int = -1


def _row_rank_key(row: GridRow):
    # minimal E; ties prefer fewer neurons, then the lexicographically
    # smaller hidden tuple, then the earlier feature set
    return (row.error, sum(row.hidden), row.hidden, row.feature_set_index)


@dataclass(frozen=True)
class SearchReport:
    rows: list[GridRow]
    master_seed: int

    def ranked(self) -> list[GridRow]:
        """The scored rows, best first."""
        return sorted((r for r in self.rows if r.status == "ok" and r.error is not None), key=_row_rank_key)

    @property
    def best(self) -> int | None:
        """config_id of the best scored row, or None if none scored."""
        ranked = self.ranked()
        return ranked[0].config_id if ranked else None


def _config_seeds(master_seed: int, index: int) -> tuple[int, int]:
    # the trailing 0 keeps every config's streams what they have always been
    ss = np.random.SeedSequence([int(master_seed), int(index), 0])
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def _check_shared_provenance(train: PreparedData, test_a: PreparedData, test_b: PreparedData) -> None:
    for ds in (test_a, test_b):
        if ds.rate_hz != train.rate_hz:
            raise DataError("grid datasets must share one sample rate")
        if ds.target != train.target:
            raise DataError("grid datasets must share one target")
        if (ds.scaler_source, ds.scaler_g, ds.scaler_t) != (train.scaler_source, train.scaler_g, train.scaler_t):
            raise DataError("test sets must be prepared with the training recording's scalers")


def run_grid(
    train: PreparedData,
    test_a: PreparedData,
    test_b: PreparedData,
    configs: list[GridConfig],
    master_seed: int = 0,
    parallelism: int = 1,
    max_iter: int | None = None,
    include_timing: bool = False,
) -> SearchReport:
    """Train and score every config; report order follows config order.

    Configs are split into lockstep groups of one depth and similar widths
    (mlp.lockstep_groups), and each group is trained by one train_many
    call.  Each config's RNG streams derive from (master_seed, config
    index), so a row matches training that config alone to within
    rounding: zero padding to its group's widths can move the last bits
    of raw values (by at most 1e-12 in the tests), and the formatted
    report is reproducible byte-for-byte.  parallelism has no effect; it
    is kept only because the benchmark harness still passes it.
    Diverging configs are recorded with a failure marker instead of
    being dropped or retried, and do not stop their group.
    include_timing fills the seconds column, at the cost of byte-for-byte
    report reproducibility, with the group's training wall time divided
    by its size plus the row's own scoring time.
    """
    if not configs:
        raise DataError("empty config list")
    master_seed = _integer("master_seed", master_seed, 0)
    _check_shared_provenance(train, test_a, test_b)
    datasets = (train, test_a, test_b)

    # one feature bank per distinct alpha set, shared by all its topologies;
    # init windows always come from the training set's length
    banks: dict[tuple[float, ...], tuple[np.ndarray, ...]] = {}
    for cfg in configs:
        key = cfg.feature_set.alphas
        if key not in banks:
            windows = bank_windows(cfg.feature_set, train.rate_hz, len(train))
            banks[key] = tuple(
                feature_bank_with_windows(ds.g_series(), key, windows).values for ds in datasets
            )

    sizes = [(len(cfg.feature_set.alphas), *cfg.hidden, 1) for cfg in configs]
    tc = TrainConfig(max_iter=max_iter if max_iter is not None else 10000)
    rows: list[GridRow | None] = [None] * len(configs)

    def record(index: int, scores, status: str, seconds: float) -> None:
        cfg = configs[index]
        r2_tr, r2_a, r2_b, err = scores
        rows[index] = GridRow(
            config_id=index,
            feature_set=cfg.feature_set.label,
            alphas=cfg.feature_set.alphas,
            hidden=cfg.hidden,
            r2_train=r2_tr,
            r2_test_a=r2_a,
            r2_test_b=r2_b,
            error=err,
            seconds=seconds if include_timing else None,
            status=status,
            feature_set_index=cfg.feature_set_index,
        )

    failed = (None, None, None, None)
    for indices in lockstep_groups(sizes):
        started = time.perf_counter()
        members, models, shuffle_seeds = [], [], []
        for index in indices:
            init_seed, shuffle_seed = _config_seeds(master_seed, index)
            try:
                models.append(mlp_new(sizes[index], init_seed))
            except DataError:
                record(index, failed, "failed", 0.0)
                continue
            members.append(index)
            shuffle_seeds.append(shuffle_seed)
        if not members:
            continue
        xs = [banks[configs[index].feature_set.alphas] for index in members]
        try:
            outcomes = train_many(models, [x[0] for x in xs], train.target_bar, tc, shuffle_seeds)
        except (NumericError, DataError):
            outcomes = [None] * len(members)
        share = (time.perf_counter() - started) / len(members)
        for index, x, outcome in zip(members, xs, outcomes):
            started = time.perf_counter()
            if outcome is None:
                scores, status = failed, "failed"
            elif isinstance(outcome, TrainingDiverged):
                scores, status = failed, "diverged"
            else:
                trained = outcome[0]
                try:
                    r2_tr = r_squared(train.target_bar, forward_batch(trained, x[0]))
                    r2_a = r_squared(test_a.target_bar, forward_batch(trained, x[1]))
                    r2_b = r_squared(test_b.target_bar, forward_batch(trained, x[2]))
                    scores, status = (r2_tr, r2_a, r2_b, combined_error(r2_a, r2_b)), "ok"
                except (NumericError, DataError):
                    scores, status = failed, "failed"
            record(index, scores, status, share + time.perf_counter() - started)
    return SearchReport(rows=rows, master_seed=master_seed)


def _cell(x: float | None) -> str:
    return "" if x is None else fmt(x)


def write_report_csv(report: SearchReport, sink) -> None:
    with _open_text(sink, "w") as stream:
        stream.write(REPORT_HEADER + "\n")
        for r in report.rows:
            alphas = " ".join(fmt(a) for a in r.alphas)
            hidden = "x".join(str(h) for h in r.hidden)
            stream.write(
                f"{r.config_id},{r.feature_set},{alphas},{hidden},"
                f"{_cell(r.r2_train)},{_cell(r.r2_test_a)},{_cell(r.r2_test_b)},"
                f"{_cell(r.error)},{_cell(r.seconds)},{r.status}\n"
            )

