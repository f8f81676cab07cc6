"""The six-subcommand CLI, driven in process through main()."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import knitrect as kr
from knitrect import pipeline
from knitrect.cli import main
from knitrect.gridsearch import REPORT_HEADER

pytestmark = pytest.mark.usefixtures("capsys")


@pytest.fixture(scope="module")
def cli_bundle(pes_small_dir, tmp_path_factory):
    """A bundle trained through the CLI itself, shared by the read-only tests."""
    path = tmp_path_factory.mktemp("cli") / "bundle.json"
    rc = main(
        [
            "train",
            "--train",
            str(pes_small_dir / "train.csv"),
            "--default-best",
            "--max-iter",
            "120",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


# --- simulate --------------------------------------------------------------------


def test_simulate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(
        ["simulate", "--seed", "5", "--duration-min", "0.5", "--recordings", "2", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "train.csv").exists() and (out / "test_a.csv").exists()
    rec = kr.load_recording(out / "train.csv")
    assert rec.t_s[-1] >= 29.0
    wrote = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wrote ")]
    assert len(wrote) == 2


def test_simulate_no_jitter_gives_uniform_timestamps(tmp_path):
    out = tmp_path / "clean"
    rc = main(
        ["simulate", "--seed", "1", "--duration-min", "0.2", "--no-jitter", "--out", str(out)]
    )
    assert rc == 0
    rec = kr.load_recording(out / "train.csv")
    assert np.abs(np.diff(rec.t_s) - 0.01).max() < 1e-9


def test_simulate_with_custom_preset_file(tmp_path):
    ini = tmp_path / "presets.ini"
    soft = dataclasses.replace(kr.PES_PRESET, name="Soft", stiffness_n=20.0)
    kr.write_presets([soft], ini)
    out = tmp_path / "soft"
    rc = main(
        [
            "simulate",
            "--preset",
            "soft",  # case-insensitive lookup against the INI section
            "--preset-file",
            str(ini),
            "--seed",
            "2",
            "--duration-min",
            "0.2",
            "--recordings",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rec = kr.load_recording(out / "train.csv")
    assert rec.source_label.endswith("train.csv")  # loaded recordings are labeled by path
    assert rec.force_n.max() < 8.0  # the softer stiffness actually took effect


@pytest.mark.parametrize("flags", [["--recordings", "28"], ["--seed", "-1"]], ids=["28 recordings", "negative seed"])
def test_simulate_rejected_settings_leave_no_directory(flags, tmp_path, capsys):
    out = tmp_path / "simx"
    assert main(["simulate", "--duration-min", "0.1", *flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_simulate_unknown_preset_is_a_data_error(tmp_path, capsys):
    rc = main(["simulate", "--preset", "wool", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "unknown preset" in capsys.readouterr().err


# --- train -----------------------------------------------------------------------


def test_train_produces_a_loadable_bundle(cli_bundle):
    bundle = kr.load_bundle(cli_bundle)
    assert bundle.config.hidden == (4, 2, 2)
    assert bundle.provenance["train_source"].endswith("train.csv")


def test_train_with_config_json(pes_small_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"alpha_base": 5.0, "alpha_count": 4, "hidden": [4, 2], "train": {"max_iter": 60}})
    )
    out = tmp_path / "b.json"
    rc = main(
        ["train", "--train", str(pes_small_dir / "train.csv"), "--config", str(cfg_path), "--out", str(out)]
    )
    assert rc == 0
    bundle = kr.load_bundle(out)
    assert bundle.config.alpha_base == 5.0
    assert bundle.config.hidden == (4, 2)
    assert len(bundle.alphas) == 4


def test_train_seed_override_lands_in_provenance(pes_small_dir, tmp_path):
    out = tmp_path / "b.json"
    rc = main(
        [
            "train",
            "--train",
            str(pes_small_dir / "train.csv"),
            "--default-best",
            "--seed",
            "11",
            "--max-iter",
            "30",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    prov = kr.load_bundle(out).provenance
    assert prov["init_seed"] == 11 and prov["shuffle_seed"] == 11


def test_train_rejects_conflicting_config_flags(pes_small_dir, tmp_path, capsys):
    rc = main(
        [
            "train",
            "--train",
            str(pes_small_dir / "train.csv"),
            "--config",
            "whatever.json",
            "--default-best",
            "--out",
            str(tmp_path / "b.json"),
        ]
    )
    assert rc == 3
    assert "not both" in capsys.readouterr().err


def test_train_config_with_a_base_of_one_is_refused_before_the_recording_is_read(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"alpha_base": 1.0}')
    rc = main(["train", "--train", str(tmp_path / "missing.csv"), "--config", str(cfg_path), "--out", str(tmp_path / "b.json")])
    assert rc == 3
    assert "base a must be a finite number > 1, got 1.0" in capsys.readouterr().err.splitlines()[0]


def test_train_missing_input_file(tmp_path):
    rc = main(
        ["train", "--train", str(tmp_path / "nope.csv"), "--default-best", "--out", str(tmp_path / "b.json")]
    )
    assert rc == 3


def test_train_config_that_is_not_utf8_is_a_data_error(pes_small_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"hidden": [4, 2], "target": "\xff"}')
    rc = main(
        ["train", "--train", str(pes_small_dir / "train.csv"), "--config", str(cfg_path), "--out", str(tmp_path / "b.json")]
    )
    assert rc == 3
    assert "cfg.json is not utf-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", [[1000000000000], [2, 10**40]], ids=["10**12", "2,10**40"])
def test_train_with_a_net_past_the_size_bound_is_a_data_error(hidden, pes_small_dir, tmp_path, capsys):
    # numpy refused these nets' weight arrays (50.9 TiB; a dimension past
    # its maximum) with a traceback and exit code 1
    cfg_path = tmp_path / "wide.json"
    cfg_path.write_text(json.dumps({"hidden": hidden}))
    out = tmp_path / "b.json"
    rc = main(["train", "--train", str(pes_small_dir / "train.csv"), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    assert "parameters" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_maps_to_numeric_exit_code(pes_small_dir, tmp_path, capsys):
    cfg_path = tmp_path / "hot.json"
    cfg_path.write_text(json.dumps({"train": {"learning_rate": 1e9, "max_iter": 30}}))
    rc = main(
        ["train", "--train", str(pes_small_dir / "train.csv"), "--config", str(cfg_path), "--out", str(tmp_path / "b.json")]
    )
    assert rc == 4
    assert "numeric failure" in capsys.readouterr().err


def test_train_dead_network_maps_to_numeric_exit_code(pes_small_dir, tmp_path, capsys):
    out = tmp_path / "b.json"
    rc = main(["train", "--train", str(pes_small_dir / "train.csv"), "--default-best", "--seed", "1", "--out", str(out)])
    assert rc == 4
    assert "init seed 1 gave a dead network" in capsys.readouterr().err
    assert not out.exists()


# --- predict / evaluate ------------------------------------------------------------


def test_predict_writes_csv_and_scorecard(cli_bundle, pes_small_dir, tmp_path, capsys):
    out = tmp_path / "pred.csv"
    rc = main(
        ["predict", "--bundle", str(cli_bundle), "--in", str(pes_small_dir / "test_a.csv"), "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,g_bar,p,target_bar"
    assert len(lines) > 100
    err = capsys.readouterr().err
    assert "r2_pre=" in err and "gain=" in err


def test_predict_missing_bundle(pes_small_dir, tmp_path):
    rc = main(
        ["predict", "--bundle", str(tmp_path / "no.json"), "--in", str(pes_small_dir / "test_a.csv"), "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 3


def test_evaluate_writes_metrics_and_binned_rse(cli_bundle, pes_small_dir, tmp_path):
    metrics_out = tmp_path / "metrics.csv"
    rse_out = tmp_path / "rse.csv"
    rc = main(
        [
            "evaluate",
            "--bundle",
            str(cli_bundle),
            "--test-a",
            str(pes_small_dir / "test_a.csv"),
            "--test-b",
            str(pes_small_dir / "test_b.csv"),
            "--out",
            str(metrics_out),
            "--rse-out",
            str(rse_out),
            "--bin-width",
            "2.0",
        ]
    )
    assert rc == 0
    lines = metrics_out.read_text().splitlines()
    assert lines[0] == "metric,value"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == [
        "r2_pre_test_a",
        "r2_post_test_a",
        "gain_test_a",
        "r2_pre_test_b",
        "r2_post_test_b",
        "gain_test_b",
        "combined_error",
    ]
    values = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
    want_e = kr.combined_error(values["r2_post_test_a"], values["r2_post_test_b"])
    assert values["combined_error"] == pytest.approx(want_e, rel=1e-9)

    rse_lines = rse_out.read_text().splitlines()
    assert rse_lines[0] == "bin_lo_n,bin_hi_n,count,rse_pre,rse_post"
    assert len(rse_lines) > 1
    assert sum(int(ln.split(",")[2]) for ln in rse_lines[1:]) > 0


def test_evaluate_rse_csv_of_the_v1_bundle_is_pinned(tmp_path):
    # bundle_v1_rse.csv holds the output of the same command before the
    # paired binned-RSE type was removed
    data = Path(__file__).parent / "data"
    recording = str(data / "bundle_v1_input.csv")
    rse_out = tmp_path / "rse.csv"
    rc = main(
        [
            "evaluate",
            "--bundle",
            str(data / "bundle_v1.json"),
            "--test-a",
            recording,
            "--test-b",
            recording,
            "--out",
            str(tmp_path / "metrics.csv"),
            "--rse-out",
            str(rse_out),
        ]
    )
    assert rc == 0
    assert rse_out.read_bytes() == (data / "bundle_v1_rse.csv").read_bytes()


def test_predict_input_with_an_oversized_field_is_a_data_error(tmp_path, capsys):
    infile = tmp_path / "big.csv"
    infile.write_text("t_s,force_n,resistance_ohm,displacement_mm\n0," + "1" * 200_000 + ",1e6,0\n1,1,1e6,0\n")
    bundle = Path(__file__).parent / "data" / "bundle_v1.json"
    rc = main(["predict", "--bundle", str(bundle), "--in", str(infile), "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "line 2" in err and "field limit" in err
    assert "Traceback" not in err


def test_predict_on_a_span_beyond_the_float_range_exits_3_without_a_warning(tmp_path):
    infile = tmp_path / "wide.csv"
    infile.write_text("t_s,force_n,resistance_ohm,displacement_mm\n-9e307,1,1,1\n9e307,1,1,1\n")
    bundle = Path(__file__).parent / "data" / "bundle_v1.json"
    proc = subprocess.run(
        [sys.executable, "-m", "knitrect", "predict", "--bundle", str(bundle), "--in", str(infile), "--out", str(tmp_path / "p.csv")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(kr.__file__).parents[1])},
    )
    assert proc.returncode == 3
    assert "more than 10000000 samples" in proc.stderr
    assert "Warning" not in proc.stderr


def test_predict_input_that_is_not_utf8_is_a_data_error(cli_bundle, tmp_path, capsys):
    infile = tmp_path / "in.csv"
    infile.write_bytes(b"t_s,force_n,resistance_ohm,displacement_mm\n0,1,1e6,0\n\xff,1,1e6,0\n")
    rc = main(["predict", "--bundle", str(cli_bundle), "--in", str(infile), "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "in.csv is not utf-8 text" in capsys.readouterr().err


def test_predict_rejects_a_bundle_with_misshapen_weights(cli_bundle, pes_small_dir, tmp_path, capsys):
    doc = json.loads(cli_bundle.read_text())
    doc["payload"]["model"]["biases"][0].append(0.0)
    doc["sha256"] = pipeline._payload_checksum(doc["payload"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["predict", "--bundle", str(bad), "--in", str(pes_small_dir / "test_a.csv"), "--out", str(tmp_path / "p.csv")])
    assert rc == 3
    assert "disagree with its layer sizes" in capsys.readouterr().err


def test_predict_and_stream_reject_a_bundle_with_a_non_finite_weight(nonfinite_weight_bundle, pes_small_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "p.csv"
    rc = main(["predict", "--bundle", str(nonfinite_weight_bundle), "--in", str(pes_small_dir / "test_a.csv"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "weights and biases must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()
    monkeypatch.setattr(sys, "stdin", io.StringIO("0,1e6\n"))
    rc = main(["stream", "--bundle", str(nonfinite_weight_bundle)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_predict_rejects_a_bundle_whose_config_disagrees_with_its_model(config_model_mismatch, pes_small_dir, tmp_path, capsys):
    bad, message = config_model_mismatch
    rc = main(["predict", "--bundle", str(bad), "--in", str(pes_small_dir / "test_a.csv"), "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# --- gridsearch --------------------------------------------------------------------


def test_gridsearch_subset_run(pes_small_dir, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        [
            "gridsearch",
            "--train",
            str(pes_small_dir / "train.csv"),
            "--test-a",
            str(pes_small_dir / "test_a.csv"),
            "--test-b",
            str(pes_small_dir / "test_b.csv"),
            "--feature-sets",
            "0",
            "--topologies",
            "0-2",
            "--epochs",
            "25",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 4  # header + 3 configs
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].endswith(": 3 configs, 3 ok")
    best_id = int(stdout[1].split()[2])  # "best: config <id> [...]"
    table = stdout[stdout.index("top configurations by combined error E:") + 2 :]
    assert len(table) == 3
    assert int(table[0].split()[0]) == best_id
    rows = {int(ln.split(",")[0]): ln.split(",") for ln in lines[1:]}
    assert [float(rows[int(ln.split()[0])][7]) for ln in table] == sorted(float(r[7]) for r in rows.values())


def test_gridsearch_bad_index_text(pes_small_dir, tmp_path):
    args = [
        "gridsearch",
        "--train",
        str(pes_small_dir / "train.csv"),
        "--test-a",
        str(pes_small_dir / "test_a.csv"),
        "--test-b",
        str(pes_small_dir / "test_b.csv"),
        "--out",
        str(tmp_path / "r.csv"),
    ]
    assert main(args + ["--feature-sets", "9"]) == 3
    assert main(args + ["--topologies", "abc"]) == 3
    assert main(args + ["--topologies", "0,5-2"]) == 3
    assert main(args + ["--topologies", "1,1"]) == 3
    assert main(args + ["--topologies", "-1"]) == 3
    # checked before it is expanded: 10**14 indices would need 800 TB as a list
    assert main(args + ["--topologies", "0-99999999999999"]) == 3


def test_gridsearch_parallel_flag_is_a_usage_error(pes_small_dir, tmp_path, capsys):
    rc = main(
        [
            "gridsearch",
            "--train",
            str(pes_small_dir / "train.csv"),
            "--test-a",
            str(pes_small_dir / "test_a.csv"),
            "--test-b",
            str(pes_small_dir / "test_b.csv"),
            "--parallel",
            "2",
            "--out",
            str(tmp_path / "r.csv"),
        ]
    )
    assert rc == 2
    assert "--parallel" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_gridsearch_timing_flag_is_a_usage_error(pes_small_dir, tmp_path, capsys):
    train, test_a, test_b = (str(pes_small_dir / f"{role}.csv") for role in ("train", "test_a", "test_b"))
    out = tmp_path / "r.csv"
    argv = ["gridsearch", "--train", train, "--test-a", test_a, "--test-b", test_b, "--timing", "--out", str(out)]
    assert main(argv) == 2
    assert "--timing" in capsys.readouterr().err
    assert not out.exists()


# --- stream ------------------------------------------------------------------------


def test_stream_rectifies_stdin(cli_bundle, pes_small_dir, monkeypatch, capsys):
    bundle = kr.load_bundle(cli_bundle)
    rec = kr.load_recording(pes_small_dir / "test_a.csv")
    rate = bundle.config.rate_hz
    r_series = kr.resample(rec.t_s, rec.resistance_ohm, rate)
    n = 200
    lines = []
    for i in range(n):
        t = r_series.t0 + i / rate
        sep = "," if i % 2 == 0 else " "  # both separators are accepted
        lines.append(f"{t}{sep}{r_series.values[i]}")
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n\n"))
    rc = main(["stream", "--bundle", str(cli_bundle)])
    assert rc == 0
    out_lines = capsys.readouterr().out.splitlines()
    warmup = max(bundle.init_windows) - 1
    assert len(out_lines) == n - warmup
    batch, _ = kr.predict_batch(bundle, rec)
    got = np.array([float(x) for x in out_lines])
    assert np.abs(got - batch.values[warmup:n]).max() <= 1e-9


def test_stream_rejects_malformed_lines(cli_bundle, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1.0,2.0,3.0\n"))
    assert main(["stream", "--bundle", str(cli_bundle)]) == 3
    monkeypatch.setattr(sys, "stdin", io.StringIO("a,b\n"))
    assert main(["stream", "--bundle", str(cli_bundle)]) == 3
    assert "bad stream line" in capsys.readouterr().err


def test_stream_rejects_a_resistance_whose_conductance_overflows(cli_bundle, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.0,1e-320\n"))
    assert main(["stream", "--bundle", str(cli_bundle)]) == 3
    assert "R=1e-320" in capsys.readouterr().err


def test_stream_survives_a_closed_consumer(cli_bundle, pes_small_dir):
    """Piping into a consumer that exits early must not crash the process."""
    rec = kr.load_recording(pes_small_dir / "test_a.csv")
    bundle = kr.load_bundle(cli_bundle)
    r_series = kr.resample(rec.t_s, rec.resistance_ohm, bundle.config.rate_hz)
    feed = "\n".join(f"{i},{v}" for i, v in enumerate(r_series.values)) + "\n"
    proc = subprocess.run(
        f"{sys.executable} -m knitrect stream --bundle {cli_bundle} | head -n 2",
        shell=True,
        input=feed,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 2


# --- top-level ---------------------------------------------------------------------


# {data}, {bundle}, {config} and {tmp} are filled in by the test; {config}
# holds the text of CONFIGS[...] named by the config= entry
MALFORMED_SETTINGS = {
    "config hidden not a list": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"hidden": 5}'),
    "config init_seed text": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"init_seed": "z"}'),
    "config rate_hz text": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"rate_hz": "fast"}'),
    "config fractional width": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"hidden": [4, 2.5]}'),
    "config nan alpha_base": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"alpha_base": NaN}'),
    "config bool seed": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"train": {"seed": true}}'),
    "config inf learning_rate": (
        "train --train {data}/train.csv --config {config} --out {tmp}/b.json",
        '{"train": {"learning_rate": Infinity}}',
    ),
    "config overflowing alpha_base": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", '{"alpha_base": 1e308}'),
    "config not an object": ("train --train {data}/train.csv --config {config} --out {tmp}/b.json", "[1, 2]"),
    "train negative seed": ("train --train {data}/train.csv --default-best --seed -1 --out {tmp}/b.json", None),
    "train nan rate": ("train --train {data}/train.csv --default-best --rate nan --out {tmp}/b.json", None),
    "train huge rate": ("train --train {data}/train.csv --default-best --rate 1e300 --out {tmp}/b.json", None),
    "gridsearch nan rate": (
        "gridsearch --train {data}/train.csv --test-a {data}/test_a.csv --test-b {data}/test_b.csv"
        " --rate nan --out {tmp}/g.csv",
        None,
    ),
    "gridsearch negative seed": (
        "gridsearch --train {data}/train.csv --test-a {data}/test_a.csv --test-b {data}/test_b.csv"
        " --seed -1 --feature-sets 0 --topologies 0 --epochs 1 --out {tmp}/g.csv",
        None,
    ),
    "simulate negative seed": ("simulate --seed -1 --duration-min 0.1 --out {tmp}/sim", None),
    "simulate nan duration": ("simulate --duration-min nan --out {tmp}/sim", None),
    "simulate inf duration": ("simulate --duration-min inf --out {tmp}/sim", None),
    "simulate huge duration": ("simulate --duration-min 1e300 --out {tmp}/sim", None),
    "simulate 28 recordings": ("simulate --recordings 28 --duration-min 0.1 --out {tmp}/sim", None),
    **{
        f"evaluate bin width {w}": (
            "evaluate --bundle {bundle} --test-a {data}/test_a.csv --test-b {data}/test_b.csv"
            f" --out {{tmp}}/m.csv --rse-out {{tmp}}/r.csv --bin-width={w}",
            None,
        )
        for w in ("nan", "inf", "1e-300")
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SETTINGS))
def test_malformed_settings_are_data_errors(case, pes_small_dir, cli_bundle, tmp_path, capsys):
    template, config = MALFORMED_SETTINGS[case]
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(config)
    argv = template.format(data=pes_small_dir, bundle=cli_bundle, config=cfg_path, tmp=tmp_path).split()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_usage_errors_exit_with_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["train"]) == 2
    capsys.readouterr()
