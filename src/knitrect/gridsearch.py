"""Hyperparameter space enumeration and the deterministic grid runner.

The space is 8 smoothing-factor sets x 114 hidden-size tuples = 912
configurations.  Hidden sizes come from multiplying base sizes with
fraction vectors and flooring; tuples containing a width below 2 are
dropped and duplicates collapse.  Every configuration trains on the same
prepared training set with its own deterministic seed stream, scores both
test sets, and is ranked by the combined error E.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, TrainingDiverged
from .metrics import combined_error, r_squared
from .mlp import TrainConfig, forward_batch, mlp_new
from .mlp import train as train_mlp
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
    """One grid point: a feature set plus a hidden-size tuple.

    seed is an extra per-config offset folded into the run's master seed;
    leave it 0 for the canonical grid.
    """

    feature_set: AlphaSet
    feature_set_index: int
    hidden: tuple[int, ...]
    seed: int = 0


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


@dataclass(frozen=True)
class SearchReport:
    rows: list[GridRow]
    configs: list[GridConfig]
    best: int | None  # config_id of the best successful row
    master_seed: int


def _config_seeds(master_seed: int, index: int, config_seed: int) -> tuple[int, int]:
    ss = np.random.SeedSequence([int(master_seed), int(index), int(config_seed)])
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def _check_shared_provenance(train: PreparedData, test_a: PreparedData, test_b: PreparedData) -> None:
    for ds in (test_a, test_b):
        if ds.rate_hz != train.rate_hz:
            raise DataError("grid datasets must share one sample rate")
        if ds.target != train.target:
            raise DataError("grid datasets must share one target")
        if ds.scaler_source != train.scaler_source or ds.scaler_g != train.scaler_g:
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

    Each config's RNG streams derive from (master_seed, config index), so
    the report is identical for any parallelism degree.  Diverging configs
    are recorded with a failure marker instead of being dropped or retried.
    include_timing fills the seconds column at the cost of byte-for-byte
    report reproducibility.
    """
    if not configs:
        raise DataError("empty config list")
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

    def run_one(item: tuple[int, GridConfig]) -> GridRow:
        index, cfg = item
        xs = banks[cfg.feature_set.alphas]
        init_seed, shuffle_seed = _config_seeds(master_seed, index, cfg.seed)
        tc = TrainConfig(max_iter=max_iter if max_iter is not None else 10000, seed=shuffle_seed)
        started = time.perf_counter()
        try:
            model = mlp_new((len(cfg.feature_set.alphas), *cfg.hidden, 1), init_seed)
            trained, _ = train_mlp(model, xs[0], train.target_bar, tc)
            r2_tr = r_squared(train.target_bar, forward_batch(trained, xs[0]))
            r2_a = r_squared(test_a.target_bar, forward_batch(trained, xs[1]))
            r2_b = r_squared(test_b.target_bar, forward_batch(trained, xs[2]))
            err = combined_error(r2_a, r2_b)
            status = "ok"
        except TrainingDiverged:
            r2_tr = r2_a = r2_b = err = None
            status = "diverged"
        except (NumericError, DataError):
            r2_tr = r2_a = r2_b = err = None
            status = "failed"
        seconds = time.perf_counter() - started if include_timing else None
        return GridRow(
            config_id=index,
            feature_set=cfg.feature_set.label,
            alphas=cfg.feature_set.alphas,
            hidden=cfg.hidden,
            r2_train=r2_tr,
            r2_test_a=r2_a,
            r2_test_b=r2_b,
            error=err,
            seconds=seconds,
            status=status,
            feature_set_index=cfg.feature_set_index,
        )

    items = list(enumerate(configs))
    if parallelism <= 1:
        rows = [run_one(it) for it in items]
    else:
        with ThreadPoolExecutor(max_workers=int(parallelism)) as pool:
            rows = list(pool.map(run_one, items))
    return SearchReport(rows=rows, configs=list(configs), best=_best_id(rows), master_seed=master_seed)


def _row_rank_key(row: GridRow):
    # minimal E; ties prefer fewer neurons, then the lexicographically
    # smaller hidden tuple, then the earlier feature set
    return (row.error, sum(row.hidden), row.hidden, row.feature_set_index)


def _best_id(rows: list[GridRow]) -> int | None:
    ok = [r for r in rows if r.status == "ok" and r.error is not None]
    if not ok:
        return None
    return min(ok, key=_row_rank_key).config_id


def best_config(report: SearchReport) -> GridConfig:
    """The winning configuration of a finished run."""
    if report.best is None:
        raise DataError("every configuration failed; no best config")
    return report.configs[report.best]


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


def read_report_csv(source) -> list[GridRow]:
    """Parse rows written by write_report_csv.

    The feature-set index is recovered by matching each row's alphas
    against enumerate_feature_sets(); alphas outside it keep index -1.
    """
    import csv

    set_index = {aset.alphas: i for i, aset in enumerate(enumerate_feature_sets())}
    with _open_text(source, "r") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or ",".join(header) != REPORT_HEADER:
            raise DataError("bad report header")
        rows = []
        for rec in reader:
            if not rec:
                continue
            if len(rec) != 10:
                raise DataError("malformed report row")
            cid, fs, alphas, hidden, r2t, r2a, r2b, err, secs, status = rec
            alphas = tuple(float(a) for a in alphas.split())
            rows.append(
                GridRow(
                    config_id=int(cid),
                    feature_set=fs,
                    alphas=alphas,
                    hidden=tuple(int(h) for h in hidden.split("x") if h),
                    r2_train=float(r2t) if r2t else None,
                    r2_test_a=float(r2a) if r2a else None,
                    r2_test_b=float(r2b) if r2b else None,
                    error=float(err) if err else None,
                    seconds=float(secs) if secs else None,
                    status=status,
                    feature_set_index=set_index.get(alphas, -1),
                )
            )
    return rows
