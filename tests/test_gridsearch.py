"""Hyperparameter enumeration and the deterministic grid runner."""

import io
import threading
from pathlib import Path

import numpy as np
import pytest

import knitrect as kr
from knitrect import gridsearch, mlp, smoothing
from knitrect.errors import DataError, NumericError
from knitrect.gridsearch import GridConfig, GridRow, SearchReport

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
    assert len(set(topos)) == len(topos)  # deduplicated
    for hidden in topos:
        assert 2 <= len(hidden) <= 4
        assert all(2 <= w <= 32 for w in hidden)
    assert (3, 6, 1) not in topos


def test_topology_smallest_base_keeps_only_full_width_tuples():
    # base-major order: base 2's tuples come first, then base 3's (3, 3)
    assert kr.enumerate_topologies()[:4] == [(2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3)]


def test_grid_config_enumeration_is_feature_set_major():
    configs = kr.grid_configs()
    topos = kr.enumerate_topologies()
    assert len(configs) == 912
    for i in (0, 113, 114, 911):
        assert configs[i].feature_set_index == i // 114
        assert configs[i].hidden == topos[i % 114]
    assert configs[0].feature_set.label == "a2.5_n4"
    assert configs[-1].feature_set.label == "baseline"


def test_parse_indices():
    assert kr.parse_indices(None) is None
    assert kr.parse_indices("0,2,5-8") == [0, 2, 5, 6, 7, 8]
    assert kr.parse_indices(" 3 , ,1") == [3, 1]
    assert kr.parse_indices("4-4") == [4]
    for bad in ("", " , ", "a", "2-x"):
        with pytest.raises(DataError):
            kr.parse_indices(bad)
    # a reversed range is an error, not an empty range
    for bad in ("5-2", "0,5-2"):
        with pytest.raises(DataError, match="bad index range '5-2'"):
            kr.parse_indices(bad)
    # a negative index is named as one, not as a range
    for bad in ("-1", "0, -1"):
        with pytest.raises(DataError, match=r"^bad index '-1' \(negative\)$"):
            kr.parse_indices(bad)
    with pytest.raises(DataError, match="bad index range '-1-3'"):
        kr.parse_indices("-1-3")
    assert kr.parse_indices("-0") == [0]


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
    # an index given twice would train and report one config twice
    with pytest.raises(DataError, match="topology index 1 given twice"):
        kr.grid_configs([0], [1, 1])
    with pytest.raises(DataError, match="feature set index 0 given twice"):
        kr.grid_configs([0, 0], [1])
    with pytest.raises(DataError, match="topology index 3 given twice"):
        kr.grid_configs([0], kr.parse_indices("2-4,3"))


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
        (r for r in rep.rows), key=lambda r: (r.error, sum(r.config.hidden), r.config.hidden)
    ).config_id


def test_run_grid_rows_of_three_depths_match_solo_training(prepared_trio, tiny_grid_report):
    configs = kr.grid_configs([0, 7], [0, 1, 2])
    assert sorted({len(c.hidden) for c in configs}) == [2, 3, 4]
    for row in tiny_grid_report.rows:
        solo = _solo_r2(prepared_trio, configs, row.config_id, 3, 40)
        assert [row.r2_train, row.r2_test_a, row.r2_test_b] == pytest.approx(solo, rel=0, abs=1e-12)


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


def test_run_grid_smooths_each_shared_column_once(prepared_trio, monkeypatch):
    # sets 0 and 1 share base 2.5's first 4 alphas, and the baseline shares
    # 0.1 with set 5: 18 columns per dataset, 13 of them distinct, so one
    # filter pass per dataset runs the 13
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0, 1, 5, 7], [3])
    passes = []
    filter_pass = smoothing._filter_pass

    def counting_pass(xs, alphas, windows):
        passes.append(list(zip(alphas, windows)))
        return filter_pass(xs, alphas, windows)

    monkeypatch.setattr(smoothing, "_filter_pass", counting_pass)
    report = kr.run_grid(train, test_a, test_b, configs, master_seed=1, max_iter=10)
    assert sum(len(c.feature_set.alphas) for c in configs) == 18
    assert len(passes) == 3
    assert all(len(columns) == len(set(columns)) == 13 for columns in passes)
    assert passes[0] == passes[1] == passes[2]
    buf = io.StringIO()
    kr.write_report_csv(report, buf)
    # the report the code gave before it shared columns between alpha sets
    assert buf.getvalue() == (Path(__file__).parent / "data" / "grid_shared_alphas_report.csv").read_text()


def test_run_grid_single_config(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0], [0])
    rep = kr.run_grid(train, test_a, test_b, configs, max_iter=20)
    assert rep.best == 0
    assert rep.ranked() == rep.rows


def test_run_grid_rejects_empty_config_list(prepared_trio):
    train, test_a, test_b = prepared_trio
    with pytest.raises(DataError, match="empty config list"):
        kr.run_grid(train, test_a, test_b, [])


def _solo_r2(prepared_trio, configs, index, master_seed, max_iter):
    """r2 on train, test A and test B of configs[index] trained alone with its grid seeds."""
    train = prepared_trio[0]
    cfg = configs[index]
    init_seed, shuffle_seed = gridsearch._config_seeds(master_seed, index)
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
    assert rep.ranked() == []

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


def test_run_grid_fails_every_row_when_no_config_can_be_built(prepared_trio):
    # with no model to train, train_many raises and run_grid fails all configs
    train, test_a, test_b = prepared_trio
    configs = [GridConfig(c.feature_set, c.feature_set_index, (1, 2)) for c in kr.grid_configs([0, 7], [0])]
    rep = kr.run_grid(train, test_a, test_b, configs, max_iter=10)
    assert [(r.config_id, r.config, r.status) for r in rep.rows] == [(0, configs[0], "failed"), (1, configs[1], "failed")]
    assert all(r.r2_train is None and r.error is None for r in rep.rows)
    assert rep.best is None


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
    # the training scaler_g with the test set's own target scaler
    own_target = kr.prepare_with_scalers(
        pes_small[2], 20.0, "force", train.scaler_g, self_scaled.scaler_t, train.scaler_source
    )
    with pytest.raises(DataError, match="training recording's scalers"):
        kr.run_grid(train, test_a, own_target, configs)


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
        config=GridConfig(kr.alpha_set(2.5, 1), fs_index, hidden),
        r2_train=0.9,
        r2_test_a=0.9,
        r2_test_b=0.9,
        error=error,
        seconds=None,
        status=status,
    )


def _ranked_ids(rows):
    rep = SearchReport(rows=rows)
    return [r.config_id for r in rep.ranked()], rep.best


def test_best_picks_minimal_error():
    rows = [_row(0, 0.3, (2, 2)), _row(1, 0.2, (4, 4, 2)), _row(2, 0.25, (2, 2))]
    assert _ranked_ids(rows) == ([1, 2, 0], 1)


def test_best_tie_breaks_on_fewer_neurons_then_lex_then_feature_set():
    rows = [
        _row(0, 0.2, (4, 4, 2)),  # 10 neurons
        _row(1, 0.2, (4, 2, 2)),  # 8 neurons, lex larger
        _row(2, 0.2, (2, 4, 2)),  # 8 neurons, lex smaller
        _row(3, 0.2, (2, 4, 2), fs_index=1),  # identical but later feature set
    ]
    assert _ranked_ids(rows) == ([2, 3, 1, 0], 2)
    assert _ranked_ids(list(reversed(rows))) == ([2, 3, 1, 0], 2)


def test_best_skips_rows_without_scores():
    rows = [
        GridRow(0, GridConfig(kr.alpha_set(2.5, 1), 0, (2, 2)), None, None, None, None, None, "diverged"),
        _row(1, 0.5, (8, 8)),
    ]
    assert _ranked_ids(rows) == ([1], 1)
    assert _ranked_ids(rows[:1]) == ([], None)


# --- report csv ------------------------------------------------------------------


def test_report_header_is_stable():
    assert (
        gridsearch.REPORT_HEADER
        == "config_id,feature_set,alphas,hidden_sizes,r2_train,r2_testA,r2_testB,E,seconds,status"
    )


def test_report_csv_round_trip(tiny_grid_report):
    buf = io.StringIO()
    kr.write_report_csv(tiny_grid_report, buf)
    header, *lines = buf.getvalue().splitlines()
    assert header == gridsearch.REPORT_HEADER
    assert len(lines) == len(tiny_grid_report.rows)
    for line, want in zip(lines, tiny_grid_report.rows):
        cid, fs, alphas, hidden, r2_train, r2_a, r2_b, err, seconds, status = line.split(",")
        assert int(cid) == want.config_id
        assert fs == want.config.feature_set.label
        assert tuple(float(a) for a in alphas.split()) == want.config.feature_set.alphas  # short decimal factors survive exactly
        assert tuple(int(h) for h in hidden.split("x")) == want.config.hidden
        for cell, value in zip((r2_train, r2_a, r2_b, err), (want.r2_train, want.r2_test_a, want.r2_test_b, want.error)):
            assert float(cell) == pytest.approx(value, rel=1e-9)
        assert seconds == ""
        assert status == want.status


def test_report_csv_leaves_failed_cells_empty():
    rows = [GridRow(4, GridConfig(kr.alpha_set(2.5, 2), 0, (4, 2)), None, None, None, None, None, "diverged")]
    rep = SearchReport(rows=rows)
    buf = io.StringIO()
    kr.write_report_csv(rep, buf)
    assert buf.getvalue().splitlines()[1] == "4,a2.5_n2,0.4 0.16,4x2,,,,,,diverged"


def test_report_timing_column_is_opt_in(prepared_trio):
    train, test_a, test_b = prepared_trio
    configs = kr.grid_configs([0], [0])
    rep = kr.run_grid(train, test_a, test_b, configs, max_iter=10, include_timing=True)
    assert rep.rows[0].seconds is not None and rep.rows[0].seconds > 0
