"""Command-line surface: exit codes, output files, determinism basics."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densfar
import densfar.bootstrap as bootstrap
import densfar.cli as cli
from densfar.cli import _build_parser, main
from densfar.grid import make_grid
from densfar.io import load_model, save_grid_function, save_model
from densfar.simulate import acceptance_sample, make_cosine_generator, simulate_far

from conftest import triangular_density


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    # synthetic persistent panel written in the observation CSV schema
    out = tmp_path_factory.mktemp("data") / "panel.csv"
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(
        grid, strengths=(0.85, 0.7), noise_sds=(0.05, 0.04)
    )
    panel = simulate_far(gen, 44, seed=100, burn_in=60)
    lines = ["period,value"]
    for t, (label, f) in enumerate(zip(panel.labels, panel.densities)):
        for x in acceptance_sample(f, 220, seed=(100, t)):
            lines.append(f"{label},{float(x)!r}")
    out.write_text("\n".join(lines) + "\n")
    return out


def test_unknown_flag_exits_one(capsys):
    code = main(["estimate", "--frobnicate"])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_estimate_smoke(tmp_path, panel_csv):
    model_path = tmp_path / "model.bin"
    code = main(
        [
            "estimate",
            "--input", str(panel_csv),
            "--grid-n", "64",
            "--K", "2",
            "--out", str(model_path),
        ]
    )
    assert code == 0
    assert model_path.exists()
    scree = model_path.parent / (model_path.name + ".scree.csv")
    assert scree.exists()
    lines = scree.read_text().splitlines()
    assert lines[0] == "k,eigenvalue"
    assert len(lines) >= 3


def test_estimate_missing_input_exits_one(tmp_path, capsys):
    out = tmp_path / "m.bin"
    code = main(
        ["estimate", "--input", str(tmp_path / "none.csv"), "--K", "1",
         "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()  # validation failure leaves no partial output


def test_estimate_and_sample_byte_identical(tmp_path, panel_csv):
    def run_estimate(out):
        assert main(
            ["estimate", "--input", str(panel_csv), "--grid-n", "48",
             "--K", "2", "--out", str(out)]
        ) == 0

    run_estimate(tmp_path / "m1.bin")
    run_estimate(tmp_path / "m2.bin")
    assert (tmp_path / "m1.bin").read_bytes() == (tmp_path / "m2.bin").read_bytes()
    s1 = (tmp_path / "m1.bin.scree.csv").read_bytes()
    s2 = (tmp_path / "m2.bin.scree.csv").read_bytes()
    assert s1 == s2

    grid = make_grid(0.0, 1.0, 64)
    density_path = tmp_path / "d.json"
    save_grid_function(triangular_density(grid), density_path)
    for name in ("draws1.csv", "draws2.csv"):
        assert main(
            ["sample", "--density", str(density_path), "--n", "200",
             "--seed", "4", "--out", str(tmp_path / name)]
        ) == 0
    assert (tmp_path / "draws1.csv").read_bytes() == (tmp_path / "draws2.csv").read_bytes()


def test_forecast_and_analyze(tmp_path, panel_csv):
    model_path = tmp_path / "model.json"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "64",
         "--K", "2", "--out", str(model_path)]
    ) == 0

    fc_dir = tmp_path / "fc"
    code = main(
        ["forecast", "--model", str(model_path), "--input", str(panel_csv),
         "--horizon", "2", "--out-dir", str(fc_dir)]
    )
    assert code == 0
    assert (fc_dir / "forecast.csv").exists()
    assert (fc_dir / "intervals.csv").exists()
    meta = json.loads((fc_dir / "forecast_meta.json").read_text())
    assert meta["horizon"] == 2

    an_dir = tmp_path / "features"
    assert main(
        ["analyze", "features", "--model", str(model_path),
         "--out-dir", str(an_dir), "-m", "2"]
    ) == 0
    assert (an_dir / "features.csv").exists()
    meta = json.loads((an_dir / "analyze_meta.json").read_text())
    assert len(meta["strengths"]) == 2

    irf_dir = tmp_path / "irf"
    assert main(
        ["analyze", "irf", "--model", str(model_path), "--out-dir", str(irf_dir),
         "--functional", "moment:1", "left:0.05"]
    ) == 0
    assert (irf_dir / "irf_moment_1.csv").exists()
    assert (irf_dir / "irf_left_tail_0.05.csv").exists()

    vd_dir = tmp_path / "vd"
    assert main(
        ["analyze", "vardecomp", "--model", str(model_path), "--out-dir", str(vd_dir),
         "--kmax", "2", "--functional", "moment:2"]
    ) == 0
    body = (vd_dir / "vardecomp_moment_2.csv").read_text().splitlines()
    assert body[0] == "k,point"
    meta = json.loads((vd_dir / "analyze_meta.json").read_text())
    assert "moment_2" in meta["r_squared"]

    tails_dir = tmp_path / "tails"
    assert main(
        ["analyze", "tails", "--model", str(model_path), "--out-dir", str(tails_dir),
         "--kmax", "2"]
    ) == 0
    for name in (
        "tails_left_irf.csv",
        "tails_right_irf.csv",
        "tails_left_vardecomp.csv",
        "tails_right_vardecomp.csv",
    ):
        assert (tails_dir / name).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["vardecomp", "--kmax", "12"],
        ["features", "-m", "500"],
        ["irf", "--functional", "moment:abc"],
    ],
)
def test_analyze_bad_option_exits_one(tmp_path, panel_csv, capsys, argv):
    model_path = tmp_path / "model.bin"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "64",
         "--K", "2", "--out", str(model_path)]
    ) == 0
    capsys.readouterr()
    code = main(
        ["analyze", argv[0], "--model", str(model_path),
         "--out-dir", str(tmp_path / "out"), *argv[1:]]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_with_bootstrap_band(tmp_path, panel_csv):
    model_path = tmp_path / "model.bin"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "48",
         "--K", "2", "--out", str(model_path)]
    ) == 0
    out_dir = tmp_path / "irf_band"
    assert main(
        ["analyze", "irf", "--model", str(model_path), "--out-dir", str(out_dir),
         "--functional", "moment:1", "--bootstrap", "100", "--seed", "3"]
    ) == 0
    header = (out_dir / "irf_moment_1.csv").read_text().splitlines()[0]
    assert header == "x,point,lower,upper"


def test_tails_bootstrap_records_every_drop_count(tmp_path, panel_csv):
    # tails bands four statistics, one per side and kind, and records the
    # dropped replications of each, as irf and vardecomp do
    model_path = tmp_path / "model.bin"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "48",
         "--K", "2", "--out", str(model_path)]
    ) == 0
    out_dir = tmp_path / "tails_band"
    assert main(
        ["analyze", "tails", "--model", str(model_path), "--out-dir", str(out_dir),
         "--kmax", "2", "--bootstrap", "100", "--seed", "3"]
    ) == 0
    meta = json.loads((out_dir / "analyze_meta.json").read_text())
    assert sorted(meta["dropped"]) == [
        "left_irf", "left_vardecomp", "right_irf", "right_vardecomp"
    ]
    assert all(isinstance(n, int) and 0 <= n <= 5 for n in meta["dropped"].values())
    for name in ("tails_left_irf.csv", "tails_right_vardecomp.csv"):
        header = (out_dir / name).read_text().splitlines()[0]
        assert header.endswith(",point,lower,upper")


@pytest.mark.parametrize("mode", ["tails", "vardecomp"])
def test_analyze_bootstrap_refits_once_per_replication(tmp_path, panel_csv, monkeypatch,
                                                        forks, mode):
    # one set of B refits serves every table: tails writes four band tables
    # and the default vardecomp two, but each replication is refitted once
    model_path = tmp_path / "model.bin"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "48",
         "--K", "2", "--out", str(model_path)]
    ) == 0
    refits, refit = [], bootstrap.fit

    def counting_fit(panel, K, start=None, *, out=None):
        refits.append(K)
        return refit(panel, K, start, out=out)

    monkeypatch.setattr(bootstrap, "fit", counting_fit)
    forks(1)
    assert main(
        ["analyze", mode, "--model", str(model_path), "--out-dir", str(tmp_path / mode),
         "--kmax", "2", "--bootstrap", "100", "--seed", "3"]
    ) == 0
    assert len(refits) == 100


def test_backtest_report(tmp_path, panel_csv):
    report = tmp_path / "report.csv"
    code = main(
        ["backtest", "--input", str(panel_csv), "--grid-n", "48",
         "--n-test", "6", "--K-candidates", "1,2", "--out", str(report)]
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "predictor,measure,mean,median"
    assert len(lines) == 1 + 3 * 6
    predictors = {line.split(",")[0] for line in lines[1:]}
    assert predictors == {"FAR", "AVE", "LAST"}
    meta = json.loads((report.parent / "report.csv.meta.json").read_text())
    assert len(meta["selected_K"]) == 6


def test_simulate_synthetic_config(tmp_path):
    config = {
        "seed": 5,
        "iterations": 2,
        "T_values": [20],
        "N_values": [80],
        "burn_in": 30,
        "K": 2,
        "kernel": "normal",
        "generator": {
            "synthetic": {
                "support": [0.0, 1.0],
                "grid_n": 48,
                "strengths": [0.8, 0.6],
                "noise_sds": [0.05, 0.04],
            }
        },
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "study.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("T,measure,N80_FAR_mean,N80_FAR_median")
    assert len(lines) == 1 + 6


def test_simulate_model_generator(tmp_path, panel_csv):
    model_path = tmp_path / "gen_model.bin"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "48",
         "--K", "2", "--out", str(model_path)]
    ) == 0
    config = {
        "seed": 6,
        "iterations": 1,
        "T_values": [15],
        "N_values": [60],
        "burn_in": 20,
        "K": 2,
        "generator": {"model": str(model_path)},
    }
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "study.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0


def test_simulate_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
    cfg.write_text(json.dumps({"seed": 1}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


def test_sample_command(tmp_path):
    grid = make_grid(0.0, 1.0, 128)
    density_path = tmp_path / "density.json"
    save_grid_function(triangular_density(grid), density_path)
    out = tmp_path / "draws.csv"
    assert main(
        ["sample", "--density", str(density_path), "--n", "500",
         "--seed", "9", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value"
    draws = np.array([float(v) for v in lines[1:]])
    assert draws.size == 500
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_runtime_error_exits_two(tmp_path, capsys):
    # valid inputs but an infeasible pipeline: K far beyond usable rank
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.05,))
    panel = simulate_far(gen, 9, seed=11, burn_in=20)
    lines = ["period,value"]
    for t, (label, f) in enumerate(zip(panel.labels, panel.densities)):
        for x in acceptance_sample(f, 60, seed=(11, t)):
            lines.append(f"{label},{float(x)!r}")
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    code = main(
        ["estimate", "--input", str(csv_path), "--grid-n", "32",
         "--K", "30", "--out", str(tmp_path / "m.bin")]
    )
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("written, renamed", [("json", "bin"), ("bin", "json")])
def test_model_is_read_by_its_bytes_not_its_name(tmp_path, panel_csv, written, renamed):
    # a JSON model under a .bin name, or a binary one under a .json name,
    # runs as the same file under its own name and writes the same bytes
    own = tmp_path / f"model.{written}"
    assert main(["estimate", "--input", str(panel_csv), "--grid-n", "64",
                 "--K", "2", "--out", str(own)]) == 0
    other = tmp_path / f"other.{renamed}"
    other.write_bytes(own.read_bytes())
    outputs = []
    for path in (own, other):
        out = tmp_path / f"out_{path.suffix[1:]}"
        assert main(["forecast", "--model", str(path), "--input", str(panel_csv),
                     "--out-dir", str(out / "fc")]) == 0
        assert main(["analyze", "irf", "--model", str(path), "--out-dir", str(out / "irf")]) == 0
        outputs.append({f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()})
    assert len(outputs[0]) == 6 and outputs[0] == outputs[1]


def test_estimate_has_no_format_flag(tmp_path, panel_csv, capsys):
    # a file's name alone sets the format it is written in
    out = tmp_path / "model.bin"
    capsys.readouterr()
    assert main(["estimate", "--input", str(panel_csv), "--grid-n", "64", "--K", "2",
                 "--out", str(out), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--format" in err
    assert not out.exists()


def test_json_density_under_a_bin_name_samples(tmp_path):
    grid = make_grid(0.0, 1.0, 64)
    save_grid_function(triangular_density(grid), tmp_path / "d.json")
    (tmp_path / "d.bin").write_bytes((tmp_path / "d.json").read_bytes())
    draws = []
    for name in ("d.json", "d.bin"):
        out = tmp_path / f"{name}.csv"
        assert main(["sample", "--density", str(tmp_path / name), "--n", "50",
                     "--seed", "2", "--out", str(out)]) == 0
        draws.append(out.read_bytes())
    assert draws[0] == draws[1]


@pytest.fixture(scope="module")
def json_model(tmp_path_factory, panel_csv):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(
        ["estimate", "--input", str(panel_csv), "--grid-n", "64",
         "--K", "2", "--out", str(path)]
    ) == 0
    return json.loads(path.read_text())


def _analyze_model(tmp_path, obj):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return ["analyze", "features", "--model", str(path),
            "--out-dir", str(tmp_path / "out")]


def _v1_model(tmp_path, obj):
    argv = _analyze_model(tmp_path, obj)
    path = tmp_path / "model.bin"
    save_model(load_model(argv[3]), path)
    data = bytearray(path.read_bytes())
    data[8:12] = (1).to_bytes(4, "little")  # the version after the magic tag
    path.write_bytes(bytes(data))
    argv[3] = str(path)
    return argv


def _sample(tmp_path, density, n=10):
    path = tmp_path / "density.json"
    path.write_text(json.dumps(density))
    return ["sample", "--density", str(path), "--n", str(n), "--seed", "1",
            "--out", str(tmp_path / "draws.csv")]


def _density(**edits):
    grid = make_grid(0.0, 1.0, 64)
    obj = {"format": "grid-function", "version": 1,
           "grid": {"a": 0.0, "b": 1.0, "n": 64},
           "values": triangular_density(grid).values.tolist()}
    obj.update(edits)
    return {k: v for k, v in obj.items() if v is not None}


def _non_utf8_csv(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(b"period,value\n1,0.5\n\xff\xfe,0.25\n")
    return ["estimate", "--input", str(path), "--K", "1",
            "--out", str(tmp_path / "m.bin")]


def _csv_estimate(tmp_path, data: bytes):
    path = tmp_path / "panel.csv"
    path.write_bytes(data)
    return ["estimate", "--input", str(path), "--K", "1", "--out", str(tmp_path / "m.bin")]


def _too_few_periods_estimate(tmp_path):
    # enough observations for the KDE, too few periods for K selection
    values = np.random.default_rng(1).normal(size=(4, 40)).tolist()
    rows = [f"{t + 1},{x!r}" for t, block in enumerate(values) for x in block]
    argv = _csv_estimate(tmp_path, ("\n".join(["period,value", *rows]) + "\n").encode())
    return argv[:argv.index("--K")] + ["--grid-n", "32", "--out", argv[-1]]


def _huge_grid_estimate(tmp_path):
    path = tmp_path / "panel.csv"
    values = np.random.default_rng(0).normal(size=(3, 60)).tolist()
    rows = [f"{t + 1},{x!r}" for t, block in enumerate(values) for x in block]
    path.write_text("\n".join(["period,value", *rows]) + "\n")
    return ["estimate", "--input", str(path), "--grid-n", "100000000", "--K", "2",
            "--out", str(tmp_path / "m.bin")]


def _over_cap_bad_csv(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("period,value\n1,0.5\n1,not-a-number\n")
    return ["estimate", "--input", str(path), "--grid-n", "5000", "--K", "2",
            "--out", str(tmp_path / "m.bin")]


def _labelled_estimate(tmp_path, labels):
    # too few observations to estimate: a label that parses ends in that error
    path = tmp_path / "panel.csv"
    rows = [f"{label},{x!r}" for label in labels for x in (0.1, 0.5, 0.9)]
    path.write_text("\n".join(["period,value", *rows]) + "\n")
    return ["estimate", "--input", str(path), "--K", "1", "--out", str(tmp_path / "m.bin")]


def _estimate_on_support(tmp_path, a, b):
    argv = _huge_grid_estimate(tmp_path)
    argv[argv.index("--grid-n") + 1] = "32"
    return argv + [f"--grid-a={a}", f"--grid-b={b}"]


def _study(tmp_path, **edits):
    config = {
        "seed": 5, "iterations": 1, "T_values": [20], "N_values": [80],
        "burn_in": 30, "K": 2, "kernel": "normal",
        "generator": {"synthetic": {"support": [0.0, 1.0], "grid_n": 32,
                                    "strengths": [0.8], "noise_sds": [0.05]}},
        **edits,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "study.csv")]


def _noise_study(tmp_path, obj, noise):
    # a study on the saved model whose noise is neither residuals nor gaussian
    model = _analyze_model(tmp_path, obj)[3]
    return _study(tmp_path, generator={"model": model, "noise": noise})


def _huge_grid_study(tmp_path):
    config = {
        "seed": 5, "iterations": 1, "T_values": [20], "N_values": [80],
        "burn_in": 30, "K": 2, "kernel": "normal",
        "generator": {"synthetic": {"support": [0.0, 1.0], "grid_n": 100000000,
                                    "strengths": [0.8], "noise_sds": [0.05]}},
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "study.csv")]


def _edited_study(tmp_path, edit):
    # the valid config of _study, changed in place by edit(config)
    argv = _study(tmp_path)
    path = Path(argv[2])
    config = json.loads(path.read_text())
    edit(config)
    path.write_text(json.dumps(config))
    return argv


BAD_INPUTS = {
    "model_v1": _v1_model,
    "model_v2": lambda tmp, obj: _analyze_model(tmp, {**obj, "version": 2}),
    "model_kernel_unknown": lambda tmp, obj: _analyze_model(tmp, {**obj, "kernel": "box"}),
    "model_k99": lambda tmp, obj: _analyze_model(tmp, {**obj, "K": 99}),
    "model_missing_key": lambda tmp, obj: _analyze_model(
        tmp, {k: v for k, v in obj.items() if k != "mean_density"}),
    "model_truncated_w": lambda tmp, obj: _analyze_model(
        tmp, {**obj, "demeaned": obj["demeaned"][:-1]}),
    "model_top_level_list": lambda tmp, obj: _analyze_model(tmp, [obj]),
    "density_no_grid": lambda tmp, obj: _sample(tmp, _density(grid=None)),
    "density_short_values": lambda tmp, obj: _sample(
        tmp, _density(values=[1.0] * 5)),
    "density_negative": lambda tmp, obj: _sample(tmp, _density(values=[1.0] * 63 + [-0.5])),
    "density_zero": lambda tmp, obj: _sample(tmp, _density(values=[0.0] * 64)),
    "csv_not_utf8": lambda tmp, obj: _non_utf8_csv(tmp),
    "csv_field_over_limit": lambda tmp, obj: _csv_estimate(
        tmp, b"period,value\n1,0.5\n1," + b"9" * 200_000 + b"\n"),
    "csv_nul_byte": lambda tmp, obj: _csv_estimate(tmp, b"period,value\n1,0.5\x00\n"),
    "csv_too_few_periods": lambda tmp, obj: _too_few_periods_estimate(tmp),
    "sample_n_zero": lambda tmp, obj: _sample(tmp, _density(), n=0),
    "estimate_grid_n_huge": lambda tmp, obj: _huge_grid_estimate(tmp),
    "estimate_over_cap_bad_csv": lambda tmp, obj: _over_cap_bad_csv(tmp),
    "study_grid_n_huge": lambda tmp, obj: _huge_grid_study(tmp),
    "csv_labels_collide": lambda tmp, obj: _labelled_estimate(tmp, ["1", "01"]),
    "csv_label_superscript": lambda tmp, obj: _labelled_estimate(tmp, ["1", "²"]),
    "study_iterations_float": lambda tmp, obj: _study(tmp, iterations=2.5),
    "study_seed_float": lambda tmp, obj: _study(tmp, seed=1.5),
    "study_K_float": lambda tmp, obj: _study(tmp, K=2.5),
    "study_burn_in_float": lambda tmp, obj: _study(tmp, burn_in=10.5),
    "study_kernel_number": lambda tmp, obj: _study(tmp, kernel=5),
    "study_T_float": lambda tmp, obj: _study(tmp, T_values=[20.7]),
    "study_burn_in_huge": lambda tmp, obj: _study(tmp, burn_in=10**10),
    "study_T_huge": lambda tmp, obj: _study(tmp, T_values=[10**9]),
    "study_N_huge": lambda tmp, obj: _study(tmp, N_values=[10**10]),
    "study_T_times_N_huge": lambda tmp, obj: _study(tmp, T_values=[10_000], N_values=[1_000_000]),
    "study_iterations_huge": lambda tmp, obj: _study(tmp, iterations=10**9),
    "study_noise_capitalised": lambda tmp, obj: _noise_study(tmp, obj, "Gaussian"),
    "study_noise_misspelt": lambda tmp, obj: _noise_study(tmp, obj, "gausian"),
    "sample_n_huge": lambda tmp, obj: _sample(tmp, _density(), n=10**10),
    "estimate_support_overflows": lambda tmp, obj: _estimate_on_support(tmp, "-1e308", "1e308"),
    "estimate_support_infinite": lambda tmp, obj: _estimate_on_support(tmp, "-inf", "inf"),
    "study_kernel_misspelt": lambda tmp, obj: _edited_study(
        tmp, lambda c: c.update(kernal=c.pop("kernel"))),
    "study_burn_in_misspelt": lambda tmp, obj: _edited_study(
        tmp, lambda c: c.update(burnin=c.pop("burn_in"))),
    "study_noise_in_synthetic": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"]["synthetic"].update(noise="gausian")),
    "study_noise_beside_synthetic": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"].update(noise="gausian")),
    "study_model_and_synthetic": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"].update(model=_analyze_model(tmp, obj)[3])),
    "model_extra_field": lambda tmp, obj: _analyze_model(tmp, {**obj, "extra": 1}),
    "density_extra_field": lambda tmp, obj: _sample(tmp, _density(extra=1)),
    "study_grid_n_float": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"]["synthetic"].update(grid_n=32.7)),
    "study_grid_n_string": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"]["synthetic"].update(grid_n="32")),
    "study_support_strings": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"]["synthetic"].update(support=["0", "1"])),
    "model_grid_n_string": lambda tmp, obj: _analyze_model(
        tmp, {**obj, "grid": {**obj["grid"], "n": "64"}}),
    "model_grid_n_float": lambda tmp, obj: _analyze_model(
        tmp, {**obj, "grid": {**obj["grid"], "n": 64.0}}),
    "model_grid_a_string": lambda tmp, obj: _analyze_model(
        tmp, {**obj, "grid": {**obj["grid"], "a": str(obj["grid"]["a"])}}),
    "density_grid_n_string": lambda tmp, obj: _sample(
        tmp, _density(grid={"a": 0.0, "b": 1.0, "n": "64"})),
    "density_grid_a_string": lambda tmp, obj: _sample(
        tmp, _density(grid={"a": "0.0", "b": 1.0, "n": 64})),
    "study_strengths_strings": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"]["synthetic"].update(strengths=["0.8"], noise_sds=["0.05"])),
    "study_strengths_bool": lambda tmp, obj: _edited_study(
        tmp, lambda c: c["generator"]["synthetic"].update(strengths=[True])),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one(tmp_path, json_model, capsys, case):
    argv = BAD_INPUTS[case](tmp_path, json_model)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# what the error line of each unknown or misplaced key says
UNKNOWN_KEY_MESSAGES = {
    "study_kernel_misspelt": "unknown key 'kernal' in the config; did you mean 'kernel'?",
    "study_burn_in_misspelt": "unknown key 'burnin' in the config; did you mean 'burn_in'?",
    "study_noise_in_synthetic": "unknown key 'noise' in generator.synthetic",
    "study_noise_beside_synthetic": "unknown key 'noise' in a synthetic generator",
    "study_model_and_synthetic": "exactly one of 'model' and 'synthetic'",
    "model_extra_field": "unknown key 'extra' in the far-model file",
    "density_extra_field": "unknown key 'extra' in the grid-function file",
}


@pytest.mark.parametrize("case, version", [("model_v1", 1), ("model_v2", 2)])
def test_old_model_version_is_named(tmp_path, json_model, capsys, case, version):
    capsys.readouterr()
    assert main(BAD_INPUTS[case](tmp_path, json_model)) == 1
    assert f"unsupported far-model version {version}, expected 3" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEY_MESSAGES))
def test_unknown_key_error_names_the_key_and_its_block(tmp_path, json_model, capsys, case):
    capsys.readouterr()
    assert main(BAD_INPUTS[case](tmp_path, json_model)) == 1
    assert UNKNOWN_KEY_MESSAGES[case] in capsys.readouterr().err


def test_study_on_a_json_model_under_a_bin_name(tmp_path, json_model):
    studies = []
    for name in ("model.json", "model.bin"):
        run = tmp_path / name.replace(".", "_")
        run.mkdir()
        (run / name).write_text(json.dumps(json_model))
        assert main(_study(run, generator={"model": str(run / name)})) == 0
        studies.append((run / "study.csv").read_bytes())
    assert studies[0] == studies[1]


# the wrong-type value each grid error line shows
WRONG_TYPE_MESSAGES = {
    "study_grid_n_float": "grid size must be an integer, got 32.7",
    "study_grid_n_string": "grid size must be an integer, got '32'",
    "study_support_strings": "grid bounds must be real numbers, got '0'",
    "model_grid_n_string": "bad grid header: grid size must be an integer, got '64'",
    "density_grid_a_string": "bad grid header: grid bounds must be real numbers, got '0.0'",
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_MESSAGES))
def test_wrong_type_grid_error_shows_the_value(tmp_path, json_model, capsys, case):
    capsys.readouterr()
    assert main(BAD_INPUTS[case](tmp_path, json_model)) == 1
    assert WRONG_TYPE_MESSAGES[case] in capsys.readouterr().err


def test_grid_n_checked_before_the_csv_is_read(tmp_path, capsys):
    # the CSV is malformed, so the error shows which check ran first
    assert main(_over_cap_bad_csv(tmp_path)) == 1
    assert capsys.readouterr().err == "error: --grid-n must be in 16..4096, got 5000\n"


def _negative_seed_sample(tmp_path, obj):
    argv = _sample(tmp_path, _density(), n=5)
    argv[argv.index("--seed") + 1] = "-3"
    return argv


def _negative_seed_irf(tmp_path, obj):
    argv = _analyze_model(tmp_path, obj)
    argv[1] = "irf"
    return argv + ["--functional", "moment:1", "--bootstrap", "100", "--seed", "-1"]


@pytest.mark.parametrize("make_argv", [_negative_seed_sample, _negative_seed_irf])
def test_negative_seed_exits_one(tmp_path, json_model, capsys, make_argv):
    argv = make_argv(tmp_path, json_model)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--seed" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "draws.csv").exists()


def test_cli_import_loads_no_scipy():
    # the command line needs numpy only; scipy is a test dependency
    env = {**os.environ, "PYTHONPATH": str(Path(densfar.__file__).resolve().parents[1])}
    code = "import sys, densfar.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _corrupted_csvs(data: bytes, count: int):
    # derandomized: truncations, then runs of bytes overwritten with CSV hazards
    rng = np.random.default_rng(11)
    hazards = np.frombuffer(b'",\r\n\x00\xff .e-+x9', dtype=np.uint8)
    for i in range(count):
        if i % 3 == 0:
            yield data[: rng.integers(0, len(data))]
            continue
        buf = np.frombuffer(data, dtype=np.uint8).copy()
        spots = rng.integers(0, len(buf), size=rng.integers(1, 6))
        buf[spots] = rng.choice(hazards, size=len(spots))
        yield buf.tobytes()


def test_corrupted_csv_ends_in_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(10)
    rows = [f"{t},{x!r}" for t in range(1, 9) for x in rng.normal(size=40).tolist()]
    valid = ("\n".join(["period,value", *rows]) + "\n").encode()
    codes = []
    for data in _corrupted_csvs(valid, 60):
        capsys.readouterr()
        codes.append(main(_csv_estimate(tmp_path, data) + ["--grid-n", "32"]))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (codes[-1], err) == (0, "") or (
            codes[-1] == 1 and err.startswith("error: ") and err.count("\n") == 1)
    assert 0 in codes and 1 in codes


def _damaged(data: bytes, other: bytes, rng):
    """Derandomized byte-level damage of a binary file: truncations,
    single-bit flips (the magic, version, grid and CRC among them) and
    splices with `other`, a file of the same kind and size."""
    n = len(data)
    for cut in sorted({0, 7, 12, n // 2, n - 4, n - 1, *rng.integers(0, n, 6).tolist()}):
        yield data[:cut]
    for spot in sorted({0, 9, 20, 36, n - 5, n - 1, *rng.integers(0, n, 30).tolist()}):
        buf = bytearray(data)
        buf[spot] ^= 1 << int(rng.integers(8))
        yield bytes(buf)
    for _ in range(20):
        i, j = sorted(rng.integers(0, n + 1, 2).tolist())
        yield data[:i] + other[i:j] + data[j:]
    yield data + other


def _outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_damaged_binary_files_end_in_the_same_output_or_one_error_line(tmp_path, panel_csv,
                                                                       bin_model, capsys):
    # a damaged model or density either reads as the one it was written as
    # or is one error line; it never gives other output
    other_model = tmp_path / "other.bin"
    assert main(_estimate_argv(panel_csv, other_model, "--K", "1")) == 0
    grid = make_grid(0.0, 1.0, 32)
    density, other_density = tmp_path / "density.bin", tmp_path / "other_density.bin"
    save_grid_function(triangular_density(grid), density)
    save_grid_function(grid.function(np.full(grid.n, 1.0)), other_density)
    damaged = tmp_path / "damaged.bin"
    commands = [
        (bin_model, other_model, lambda out: ["analyze", "irf", "--model", str(damaged),
                                              "--functional", "moment:1", "--out-dir", str(out)]),
        (density, other_density, lambda out: ["sample", "--density", str(damaged), "--n", "20",
                                              "--seed", "1", "--out", str(out / "draws.csv")]),
    ]
    rng = np.random.default_rng(12)
    codes = []
    for k, (original, other, argv) in enumerate(commands):
        damaged.write_bytes(original.read_bytes())
        (tmp_path / f"want{k}").mkdir()
        assert main(argv(tmp_path / f"want{k}")) == 0
        want = _outputs(tmp_path / f"want{k}")
        for i, data in enumerate(_damaged(original.read_bytes(), other.read_bytes(), rng)):
            damaged.write_bytes(data)
            out = tmp_path / f"run{len(codes)}"
            out.mkdir()
            capsys.readouterr()
            codes.append(main(argv(out)))
            err = capsys.readouterr().err
            if codes[-1] == 0:
                assert err == "" and _outputs(out) == want, i
            else:
                assert codes[-1] == 1 and err.startswith("error: ") and err.count("\n") == 1, (i, err)
    assert 1 in codes


def _key_mutations(obj, inner, rng):
    """Single-key mutations of a JSON object with two blocks of leaf keys, its
    top level and the block at the key path `inner`: each leaf key dropped,
    renamed at edit distance 1, moved to the other block, or given a value of
    another type. Yields (kind, mutated copy)."""
    wrong = {int: str, float: str, str: len, list: str}
    for here, there in (((), inner), (inner, ())):
        for key, value in _block(obj, here).items():
            if isinstance(value, dict):
                continue
            for kind in ("drop", "rename", "move", "type"):
                out = json.loads(json.dumps(obj))
                block = _block(out, here)
                del block[key]
                if kind == "rename":
                    i = int(rng.integers(0, len(key)))
                    letter = next(c for c in rng.permutation(list("xqzjw")) if c not in key)
                    block[key[:i] + letter + key[i + 1:]] = value
                elif kind == "move":
                    _block(out, there)[key] = value
                elif kind == "type":
                    block[key] = wrong[type(value)](value)
                yield kind, out


def _block(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def test_single_key_mutations_end_in_success_or_one_error_line(tmp_path, json_model, capsys):
    # derandomized; a renamed or moved key is never silently ignored, and a
    # value of the wrong type is never converted
    rng = np.random.default_rng(3)
    study = _study(tmp_path)

    def write_study(config):
        Path(study[2]).write_text(json.dumps(config))
        return study

    cases = [(write_study, json.loads(Path(study[2]).read_text()), ("generator", "synthetic")),
             (lambda model: _analyze_model(tmp_path, model), json_model, ("grid",))]
    codes = []
    for write, valid, inner in cases:
        for kind, obj in _key_mutations(valid, inner, rng):
            capsys.readouterr()
            code = main(write(obj))
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (
                code == 1 and err.startswith("error: ") and err.count("\n") == 1), (kind, obj, err)
            assert code == 1 or kind == "drop", (kind, obj)
            codes.append(code)
    assert 0 in codes and 1 in codes


# -- one error line for every bad flag ---------------------------------------------


def _estimate_argv(panel_csv, out, *options):
    return ["estimate", "--input", str(panel_csv), "--grid-n", "32", *options, "--out", str(out)]


@pytest.fixture(scope="module")
def bin_model(tmp_path_factory, panel_csv):
    path = tmp_path_factory.mktemp("bin_model") / "model.bin"
    assert main(_estimate_argv(panel_csv, path, "--K", "2")) == 0
    return path


def _assert_one_error_line(capsys, code, argv):
    err = capsys.readouterr().err
    assert code == 1, (argv, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)


@pytest.mark.parametrize("case", ["empty", "unknown_command", "missing_out", "kmax_not_int",
                                  "unknown_kernel"])
def test_usage_error_is_one_line(tmp_path, panel_csv, bin_model, capsys, case):
    argv = {
        "empty": [],
        "unknown_command": ["frobnicate"],
        "missing_out": ["estimate", "--input", str(panel_csv)],
        "kmax_not_int": ["analyze", "irf", "--model", str(bin_model),
                         "--out-dir", str(tmp_path / "out"), "--kmax", "x"],
        "unknown_kernel": _estimate_argv(panel_csv, tmp_path / "m.bin", "--kernel", "box"),
    }[case]
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)
    assert not (tmp_path / "out").exists() and not (tmp_path / "m.bin").exists()


def test_forecast_kernel_other_than_the_models_exits_one(tmp_path, panel_csv, bin_model,
                                                        capsys):
    # bin_model was fitted to Epanechnikov densities, so a start state
    # estimated with the normal kernel would not be the fit's
    argv = ["forecast", "--model", str(bin_model), "--input", str(panel_csv),
            "--kernel", "normal", "--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)
    assert not (tmp_path / "out").exists()


def test_forecast_starts_with_the_models_kernel(tmp_path, panel_csv):
    model = tmp_path / "normal.bin"
    assert main(_estimate_argv(panel_csv, model, "--K", "2", "--kernel", "normal")) == 0
    outputs = []
    for options in ([], ["--kernel", "normal"]):
        out = tmp_path / f"fc{len(outputs)}"
        assert main(["forecast", "--model", str(model), "--input", str(panel_csv),
                     "--out-dir", str(out), *options]) == 0
        outputs.append(_outputs(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("noise", ["residuals", "gaussian"])
def test_study_on_a_model_takes_either_noise(tmp_path, bin_model, noise):
    argv = _study(tmp_path, generator={"model": str(bin_model), "noise": noise})
    assert main(argv) == 0 and (tmp_path / "study.csv").exists()


def test_help_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: densfar analyze") and "--tail-quantile" in out


def test_tail_quantile_too_small_for_its_complement_exits_one(tmp_path, bin_model, capsys):
    # 1 - 1e-300 rounds to 1, where the right-tail quantile is undefined
    argv = ["analyze", "tails", "--model", str(bin_model), "--out-dir", str(tmp_path / "out"),
            "--tail-quantile", "1e-300"]
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)


def test_overflowing_moment_functional_exits_one_without_warning(tmp_path, bin_model, capsys):
    # warnings are errors under pytest, so an overflow warning fails the run here
    argv = ["analyze", "irf", "--model", str(bin_model), "--out-dir", str(tmp_path / "out"),
            "--functional", "moment:100000"]
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)


def test_alpha_too_small_for_its_complement_exits_one(tmp_path, panel_csv, bin_model, capsys):
    # found by the argv property: the normal quantile at 1 - 1e-300/2 = 1 raised
    argv = ["forecast", "--model", str(bin_model), "--input", str(panel_csv),
            "--out-dir", str(tmp_path / "fc"), "--alpha", "1e-300"]
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)
    assert not (tmp_path / "fc").exists()


@pytest.mark.parametrize("command", ["forecast", "analyze"])
def test_out_dir_naming_a_file_exits_one(tmp_path, panel_csv, bin_model, capsys, command):
    out_dir = tmp_path / "taken"
    out_dir.write_text("keep\n")
    argv = (["forecast", "--model", str(bin_model), "--input", str(panel_csv)]
            if command == "forecast" else ["analyze", "irf", "--model", str(bin_model)])
    argv += ["--out-dir", str(out_dir)]
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)
    assert out_dir.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_K_candidates_above_the_grid_cap_exit_one(tmp_path, panel_csv, capsys):
    # no K above MAX_GRID_SIZE is usable; the range is rejected before it is built
    argv = _estimate_argv(panel_csv, tmp_path / "m.bin", "--K-candidates", "1..5000")
    capsys.readouterr()
    _assert_one_error_line(capsys, main(argv), argv)
    assert not (tmp_path / "m.bin").exists()


def test_horizon_above_the_cap_exits_one(tmp_path, panel_csv, bin_model, capsys):
    # every step keeps two grid functions and one CSV column; the cap is
    # checked while the command line is parsed, before the model is read
    argv = ["forecast", "--model", str(bin_model), "--input", str(panel_csv),
            "--out-dir", str(tmp_path / "fc"), "--horizon", "1001"]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --horizon must lie in 1..1000, got 1001\n"
    assert not (tmp_path / "fc").exists()
    assert main(argv[:-1] + ["1000"]) == 0
    meta = json.loads((tmp_path / "fc" / "forecast_meta.json").read_text())
    assert meta["horizon"] == 1000


@pytest.mark.parametrize("command, flag", [("estimate", "--out"), ("estimate", "--scree"),
                                           ("backtest", "--out"), ("simulate", "--out"),
                                           ("sample", "--out")])
def test_output_in_a_missing_directory_exits_one_before_any_work(tmp_path, monkeypatch, capsys,
                                                                 argv_bases, command, flag):
    # the directory is checked while the command line is parsed, so nothing
    # is read, computed or written
    reads = []
    for module, name in ((cli.dfio, "read_observations"), (cli.dfio, "load_grid_function"),
                         (cli, "_load_study_config")):
        monkeypatch.setattr(module, name, lambda *a: reads.append(a))
    monkeypatch.chdir(tmp_path)
    path = os.path.join("nodir", "out.csv")
    argv = _with_hazard(argv_bases[command], flag, path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag}: directory of {path} does not exist\n"
    assert reads == []
    assert list(tmp_path.iterdir()) == []


# -- the argv property: any flag value ends in exit 0, or one stderr line -----------

# flag values that probe parsing and range checks; None gives the flag no value
# and "drop" leaves a flag of the base command out. No value is a large valid
# size, so no run can grow with the hazard.
ARGV_HAZARDS = ("-1", "0", "nan", "inf", "-inf", "1e308", "1e-300", "x", "", None, "drop")


@pytest.fixture(scope="module")
def argv_bases(tmp_path_factory, panel_csv, bin_model):
    # one small valid command line per subcommand (and analyze mode)
    root = tmp_path_factory.mktemp("argv_inputs")
    density = root / "density.json"
    save_grid_function(triangular_density(make_grid(0.0, 1.0, 32)), density)
    study = _study(root)[2]
    panel = ["--input", str(panel_csv), "--grid-n", "32"]
    cv = ["--K-candidates", "1,2", "--n-validation", "2"]
    bases = {
        "estimate": ["estimate", *panel, *cv, "--out", "m.bin"],
        "forecast": ["forecast", "--model", str(bin_model), "--input", str(panel_csv),
                     "--out-dir", "fc"],
        "backtest": ["backtest", *panel, "--n-test", "2", *cv, "--out", "r.csv"],
        "simulate": ["simulate", "--config", study, "--out", "s.csv"],
        "sample": ["sample", "--density", str(density), "--n", "20", "--seed", "1",
                   "--out", "d.csv"],
    }
    for mode in ("features", "irf", "vardecomp", "tails"):
        bases[f"analyze {mode}"] = ["analyze", mode, "--model", str(bin_model),
                                    "--out-dir", "an", "--kmax", "2"]
    return bases


def _parser_flags():
    # every option string each subcommand's parser accepts, except --help
    (commands,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[-1] for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, parser in commands.choices.items()}


def _with_hazard(argv, flag, value):
    # replace the flag's values in argv (all of them, for nargs="+") by value
    argv = list(argv)
    if flag in argv:
        i = argv.index(flag)
        j = i + 1
        while j < len(argv) and not argv[j].startswith("--"):
            j += 1
        del argv[i:j]
    if value == "drop":
        return argv
    return argv + [flag] + ([] if value is None else [value])


def _run_argv(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr()
    if code == 0:
        assert out.err == "", (argv, out.err)
    else:
        prefix = "error: " if code == 1 else "runtime error: "
        assert code in (1, 2) and out.err.startswith(prefix), (argv, code, out.err)
        assert out.err.count("\n") == 1 and out.err.endswith("\n"), (argv, out.err)
    return code


def test_every_flag_value_ends_in_success_or_one_error_line(tmp_path, monkeypatch, capsys,
                                                            argv_bases):
    # derandomized: each flag of each parser with each hazard, then random
    # combinations of up to three; outputs land in the temporary directory
    monkeypatch.chdir(tmp_path)
    flags = _parser_flags()
    cases = [(base, [(flag, value)])
             for name, base in argv_bases.items() for flag in flags[base[0]]
             for value in ARGV_HAZARDS]
    rng = np.random.default_rng(15)
    names = sorted(argv_bases)
    for _ in range(80):
        base = argv_bases[names[rng.integers(len(names))]]
        options = flags[base[0]]
        picks = rng.choice(options, size=rng.integers(2, min(4, len(options) + 1)), replace=False)
        cases.append((base, [(f, ARGV_HAZARDS[rng.integers(len(ARGV_HAZARDS))]) for f in picks]))
    codes = set()
    for base, hazards in cases:
        argv = base
        for flag, value in hazards:
            argv = _with_hazard(argv, flag, value)
        codes.add(_run_argv(capsys, argv))
    assert codes == {0, 1, 2}
