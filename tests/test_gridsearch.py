"""Hyperparameter enumeration and the deterministic grid runner."""

import io
import threading

import numpy as np
import pytest

import knitrect as kr
from knitrect import gridsearch, mlp
from knitrect.errors import DataError, NumericError
from knitrect.gridsearch import GridRow, SearchReport

# --- enumeration -----------------------------------------------------------------


def test_feature_set_enumeration():
    sets = kr.enumerate_feature_sets()
    assert len(sets) == 8
    assert sets[0].label == "a2.5_n4"
    assert len(sets[1]) == 7
    assert sets[1].alphas[-1] == pytest.approx(0.0016384, abs=1e-18)
    assert sets[5].label == "a10_n3"
    assert sets[-1].label == "baseline"
    assert sets[-1].alphas == (0.5, 0.1, 0.025, 0.0025)


def test_topology_enumeration_counts_and_constraints():
    topos = kr.enumerate_topologies()
    assert len(topos) == 114
    resolved = [tp.resolved for tp in topos]
    assert len(set(resolved)) == len(resolved)  # deduplicated
    for tp in topos:
        assert 2 <= len(tp.resolved) <= 4
        assert all(2 <= w <= 32 for w in tp.resolved)
    assert (3, 6, 1) not in resolved


def test_topology_smallest_base_keeps_only_full_width_tuples():
    base2 = [tp.resolved for tp in kr.enumerate_topologies() if tp.base == 2]
    assert base2 == [(2, 2), (2, 2, 2), (2, 2, 2, 2)]


def test_grid_config_enumeration_is_feature_set_major():
    configs = kr.grid_configs()
    topos = kr.enumerate_topologies()
    assert len(configs) == 912
    for i in (0, 113, 114, 911):
        assert configs[i].feature_set_index == i // 114
        assert configs[i].hidden == topos[i % 114].resolved
    assert configs[0].feature_set.label == "a2.5_n4"
    assert configs[-1].feature_set.label == "baseline"


def test_parse_indices():
    assert kr.parse_indices(None) is None
    assert kr.parse_indices("0,2,5-8") == [0, 2, 5, 6, 7, 8]
    assert kr.parse_indices(" 3 , ,1") == [3, 1]
    for bad in ("", " , ", "a", "2-x"):
        with pytest.raises(DataError):
            kr.parse_indices(bad)


def test_grid_configs_subsets_and_range_checks():
    sub = kr.grid_configs([0, 7], [0, 1, 2])
    assert len(sub) == 6
    assert [c.feature_set_index for c in sub] == [0, 0, 0, 7, 7, 7]
    with pytest.raises(DataError, match="feature set index"):
        kr.grid_configs([8])
    with pytest.raises(DataError, match="topology index"):
        kr.grid_configs(topology_indices=[114])
    with pytest.raises(DataError, match="feature set index"):
        kr.grid_configs([-1])


# --- the runner ------------------------------------------------------------------


@pytest.fixture(scope="module")
def prepared_trio(pes_small):
    train = kr.prepare(pes_small[0], 20.0, "force")
    tests = [
        kr.prepare_with_scalers(
            rec, 20.0, "force", train.scaler_g, train.scaler_t, train.scaler_source
        )
        for rec in pes_small[1:]
    ]
    return train, tests[0], tests[1]


@pytest.fixture(scope="module")
def tiny_grid_report(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0, 7], [0, 1, 2])
    return kr.run_grid(train, test_a, test_b, configs, master_seed=3, max_iter=40)


def test_run_grid_scores_every_config_in_order(tiny_grid_report):
    rep = tiny_grid_report
    assert [r.config_id for r in rep.rows] == list(range(6))
    assert all(r.status == "ok" for r in rep.rows)
    for row in rep.rows:
        assert row.error == kr.combined_error(row.r2_test_a, row.r2_test_b)
        assert row.seconds is None
    assert rep.best == min(
        (r for r in rep.rows), key=lambda r: (r.error, sum(r.hidden), r.hidden)
    ).config_id


def test_run_grid_is_parallelism_invariant(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([1], [0, 1, 2, 3])
    serial = kr.run_grid(train, test_a, test_b, configs, master_seed=5, max_iter=30)
    threaded = kr.run_grid(
        train, test_a, test_b, configs, master_seed=5, max_iter=30, parallelism=4
    )
    a, b = io.StringIO(), io.StringIO()
    kr.write_report_csv(serial, a)
    kr.write_report_csv(threaded, b)
    assert a.getvalue() == b.getvalue()


def test_run_grid_master_seed_changes_outcomes(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0], [0])
    r1 = kr.run_grid(train, test_a, test_b, configs, master_seed=1, max_iter=20)
    r2 = kr.run_grid(train, test_a, test_b, configs, master_seed=2, max_iter=20)
    assert r1.rows[0].r2_train != r2.rows[0].r2_train


def test_run_grid_single_config(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0], [0])
    rep = kr.run_grid(train, test_a, test_b, configs, max_iter=20)
    assert rep.best == 0
    assert kr.best_config(rep) is rep.configs[0]


def test_run_grid_rejects_empty_config_list(prepared_trio):
    train, test_a, test_b = prepared_trio
    with pytest.raises(DataError, match="empty config list"):
        kr.run_grid(train, test_a, test_b, [])


def _solo_r2(prepared_trio, configs, index, master_seed, max_iter):
    """r2 on train, test A and test B of configs[index] trained alone with its grid seeds."""
    train = prepared_trio[0]
    cfg = configs[index]
    init_seed, shuffle_seed = gridsearch._config_seeds(master_seed, index, cfg.seed)
    windows = kr.bank_windows(cfg.feature_set, train.rate_hz, len(train))
    xs = [
        kr.feature_bank_with_windows(ds.g_series(), cfg.feature_set.alphas, windows).values
        for ds in prepared_trio
    ]
    model = kr.mlp_new((len(cfg.feature_set), *cfg.hidden, 1), init_seed)
    trained, _ = kr.train(model, xs[0], train.target_bar, kr.TrainConfig(max_iter=max_iter, seed=shuffle_seed))
    return [kr.r_squared(ds.target_bar, kr.forward_batch(trained, x)) for ds, x in zip(prepared_trio, xs)]


def _poison(monkeypatch, hidden_sizes):
    """Make gridsearch's models with these hidden sizes start with overflowing weights."""
    real_new = gridsearch.mlp_new

    def new(sizes, seed=0):
        model = real_new(sizes, seed)
        if tuple(sizes[1:-1]) in hidden_sizes:
            model.weights = [w * 1e200 for w in model.weights]
        return model

    monkeypatch.setattr(gridsearch, "mlp_new", new)


def test_run_grid_marks_diverged_and_failed(prepared_trio, monkeypatch):
    train, test_a, test_b = prepared_trio
    # hidden (2, 2), (3, 3) and (4, 4) train as one stacked group
    configs = kr.grid_configs([0], [0, 3, 6])
    assert mlp.lockstep_groups([(4, *c.hidden, 1) for c in configs]) == [[0, 1, 2]]

    _poison(monkeypatch, {(3, 3)})
    with np.errstate(over="ignore", invalid="ignore"):
        rep = kr.run_grid(train, test_a, test_b, configs, master_seed=3, max_iter=10)
    assert [r.status for r in rep.rows] == ["ok", "diverged", "ok"]
    assert rep.rows[1].error is None and rep.rows[1].r2_train is None
    for row in (rep.rows[0], rep.rows[2]):
        solo = _solo_r2(prepared_trio, configs, row.config_id, 3, 10)
        assert [row.r2_train, row.r2_test_a, row.r2_test_b] == pytest.approx(solo, rel=0, abs=1e-12)
        assert row.error == kr.combined_error(row.r2_test_a, row.r2_test_b)
    assert rep.best in (0, 2)

    _poison(monkeypatch, {c.hidden for c in configs})
    with np.errstate(over="ignore", invalid="ignore"):
        rep = kr.run_grid(train, test_a, test_b, configs, max_iter=10)
    assert [r.status for r in rep.rows] == ["diverged"] * 3
    assert all(r.error is None for r in rep.rows)
    assert rep.best is None
    with pytest.raises(DataError, match="no best config"):
        kr.best_config(rep)

    monkeypatch.undo()
    for exc in (NumericError, DataError):

        def bad_score(truth, estimate, exc=exc):
            raise exc("cannot score")

        monkeypatch.setattr(gridsearch, "r_squared", bad_score)
        rep = kr.run_grid(train, test_a, test_b, configs[:2], max_iter=10)
        assert [r.status for r in rep.rows] == ["failed", "failed"]
        assert all(r.error is None for r in rep.rows)


def test_run_grid_fails_an_unbuildable_config_alone(prepared_trio):
    train, test_a, test_b = prepared_trio
    (good,) = kr.grid_configs([0], [0])
    bad = gridsearch.GridConfig(good.feature_set, good.feature_set_index, (1, 2))
    configs = [bad, good]
    rep = kr.run_grid(train, test_a, test_b, configs, master_seed=3, max_iter=10)
    assert [r.status for r in rep.rows] == ["failed", "ok"]
    assert rep.rows[0].error is None and rep.rows[0].r2_train is None
    solo = _solo_r2(prepared_trio, configs, 1, 3, 10)
    assert [rep.rows[1].r2_train, rep.rows[1].r2_test_a, rep.rows[1].r2_test_b] == pytest.approx(solo, rel=0, abs=1e-12)
    assert rep.best == 1


def test_run_grid_starts_no_threads(prepared_trio, monkeypatch):
    train, test_a, test_b = prepared_trio

    def no_threads(self):
        raise RuntimeError("run_grid must not start threads")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    configs = kr.grid_configs([0, 7], [0, 1])
    rep = kr.run_grid(train, test_a, test_b, configs, max_iter=5, parallelism=4)
    assert [r.status for r in rep.rows] == ["ok"] * 4


def test_run_grid_rejects_foreign_scalers(prepared_trio, pes_small):
    train, test_a, _ = prepared_trio
    self_scaled = kr.prepare(pes_small[2], 20.0, "force")
    configs = kr.grid_configs([0], [0])
    with pytest.raises(DataError, match="training recording's scalers"):
        kr.run_grid(train, test_a, self_scaled, configs)


def test_run_grid_rejects_mixed_rate_or_target(prepared_trio, pes_small):
    train, test_a, _ = prepared_trio
    configs = kr.grid_configs([0], [0])
    off_rate = kr.prepare_with_scalers(
        pes_small[2], 10.0, "force", train.scaler_g, train.scaler_t, train.scaler_source
    )
    with pytest.raises(DataError, match="share one sample rate"):
        kr.run_grid(train, test_a, off_rate, configs)
    off_target = kr.prepare_with_scalers(
        pes_small[2], 20.0, "displacement", train.scaler_g, train.scaler_t, train.scaler_source
    )
    with pytest.raises(DataError, match="share one target"):
        kr.run_grid(train, test_a, off_target, configs)


# --- ranking ---------------------------------------------------------------------


def _row(cid, error, hidden, fs_index=0, status="ok"):
    return GridRow(
        config_id=cid,
        feature_set=f"set{fs_index}",
        alphas=(0.4,),
        hidden=hidden,
        r2_train=0.9,
        r2_test_a=0.9,
        r2_test_b=0.9,
        error=error,
        seconds=None,
        status=status,
        feature_set_index=fs_index,
    )


def test_best_picks_minimal_error():
    rows = [_row(0, 0.3, (2, 2)), _row(1, 0.2, (4, 4, 2)), _row(2, 0.25, (2, 2))]
    assert gridsearch._best_id(rows) == 1


def test_best_tie_breaks_on_fewer_neurons_then_lex_then_feature_set():
    rows = [
        _row(0, 0.2, (4, 4, 2)),  # 10 neurons
        _row(1, 0.2, (4, 2, 2)),  # 8 neurons, lex larger
        _row(2, 0.2, (2, 4, 2)),  # 8 neurons, lex smaller
        _row(3, 0.2, (2, 4, 2), fs_index=1),  # identical but later feature set
    ]
    assert gridsearch._best_id(rows) == 2
    assert gridsearch._best_id(list(reversed(rows))) == 2


def test_best_skips_rows_without_scores():
    rows = [
        GridRow(0, "s", (0.4,), (2, 2), None, None, None, None, None, "diverged"),
        _row(1, 0.5, (8, 8)),
    ]
    assert gridsearch._best_id(rows) == 1
    only_bad = [rows[0]]
    assert gridsearch._best_id(only_bad) is None


# --- report csv ------------------------------------------------------------------


def test_report_header_is_stable():
    assert (
        gridsearch.REPORT_HEADER
        == "config_id,feature_set,alphas,hidden_sizes,r2_train,r2_testA,r2_testB,E,seconds,status"
    )


def test_report_csv_round_trip(tiny_grid_report):
    buf = io.StringIO()
    kr.write_report_csv(tiny_grid_report, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == gridsearch.REPORT_HEADER
    back = kr.read_report_csv(io.StringIO(text))
    assert len(back) == len(tiny_grid_report.rows)
    for got, want in zip(back, tiny_grid_report.rows):
        assert got.config_id == want.config_id
        assert got.feature_set == want.feature_set
        assert got.alphas == want.alphas  # short decimal factors survive exactly
        assert got.hidden == want.hidden
        assert got.r2_train == pytest.approx(want.r2_train, rel=1e-9)
        assert got.error == pytest.approx(want.error, rel=1e-9)
        assert got.seconds is None
        assert got.status == want.status
        assert got.feature_set_index == want.feature_set_index
    assert gridsearch._best_id(back) == tiny_grid_report.best


def test_report_csv_leaves_failed_cells_empty():
    rows = [GridRow(4, "a2.5_n4", (0.4, 0.16), (4, 2), None, None, None, None, None, "diverged")]
    rep = SearchReport(rows=rows, configs=[], best=None, master_seed=0)
    buf = io.StringIO()
    kr.write_report_csv(rep, buf)
    assert buf.getvalue().splitlines()[1] == "4,a2.5_n4,0.4 0.16,4x2,,,,,,diverged"
    back = kr.read_report_csv(io.StringIO(buf.getvalue()))
    assert back[0].r2_train is None and back[0].error is None
    assert back[0].status == "diverged"
    assert back[0].feature_set_index == -1  # (0.4, 0.16) is not an enumerated set


def test_report_csv_rejects_garbage():
    with pytest.raises(DataError, match="bad report header"):
        kr.read_report_csv(io.StringIO("nope,nope\n"))
    bad_row = gridsearch.REPORT_HEADER + "\n1,fs,0.4\n"
    with pytest.raises(DataError, match="malformed report row"):
        kr.read_report_csv(io.StringIO(bad_row))


@pytest.mark.parametrize(
    "column, value",
    [
        ("config_id", "x"),
        ("alphas", "0.4 abc"),
        ("hidden_sizes", "4xq"),
        ("r2_train", "abc"),
        ("r2_testA", "abc"),
        ("r2_testB", "abc"),
        ("E", "abc"),
        ("seconds", "abc"),
    ],
)
def test_report_csv_rejects_non_numeric_cells(column, value):
    cells = dict(zip(gridsearch.REPORT_HEADER.split(","), "3,a2.5_n4,0.4 0.16,4x2,0.9,0.8,0.7,0.05,1.5,ok".split(",")))
    cells[column] = value
    text = gridsearch.REPORT_HEADER + "\n" + ",".join(cells.values()) + "\n"
    with pytest.raises(DataError, match=f"bad {column} cell"):
        kr.read_report_csv(io.StringIO(text))


def test_report_timing_column_is_opt_in(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0], [0])
    rep = kr.run_grid(train, test_a, test_b, configs, max_iter=10, include_timing=True)
    assert rep.rows[0].seconds is not None and rep.rows[0].seconds > 0
