"""File formats: observation CSV, model persistence, table output."""

import json

import numpy as np
import pytest

from densfar.errors import EmptyFile, FormatError, IoError, ParseError
from densfar.estimation import fit
from densfar.grid import make_grid
from densfar.io import (
    fmt17,
    load_grid_function,
    load_model,
    load_operator,
    read_observations,
    save_grid_function,
    save_model,
    save_operator,
    write_csv,
)
from densfar.simulate import make_cosine_generator, simulate_far


def _model(T=30, seed=0, n=32):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(grid, strengths=(0.7, 0.5), noise_sds=(0.02, 0.015))
    return fit(simulate_far(gen, T - 1, seed=seed, burn_in=40), 2)


# -- observation CSV ------------------------------------------------------------

def test_read_observations_minimal(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("period,value\n1,0.5\n")
    panel = read_observations(path)
    assert panel.labels == ("1",)
    assert panel.blocks[0].tolist() == [0.5]


def test_read_observations_interleaved_sorted(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "period,value\n10,1.0\n2,2.0\n10,3.0\n2,4.0\n"
    )
    panel = read_observations(path)
    assert panel.labels == ("2", "10")
    assert panel.blocks[0].tolist() == [2.0, 4.0]
    assert panel.blocks[1].tolist() == [1.0, 3.0]


def test_read_observations_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0.5\n2,0.25\n")
    with pytest.raises(ParseError) as err:
        read_observations(path)
    assert err.value.line == 1


def test_read_observations_bad_row_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("period,value\n1,0.5\n1,not-a-number\n")
    with pytest.raises(ParseError) as err:
        read_observations(path)
    assert err.value.line == 3


def test_read_observations_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyFile):
        read_observations(path)
    path.write_text("period,value\n")
    with pytest.raises(EmptyFile):
        read_observations(path)


def test_read_observations_missing_file(tmp_path):
    with pytest.raises(IoError):
        read_observations(tmp_path / "nope.csv")


def test_read_observations_monthly_scale_shape(tmp_path):
    # shape contract: 212 periods of ~1880 rows parse into a 212-period panel
    rng = np.random.default_rng(0)
    counts = rng.integers(1550, 1905, size=212)
    lines = ["period,value"]
    for t, count in enumerate(counts):
        label = f"{t + 1:03d}"
        values = rng.normal(0.0, 0.001, size=count)
        lines.extend(f"{label},{v!r}" for v in values.tolist())
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    panel = read_observations(path)
    assert len(panel) == 212
    assert panel.labels[0] == "001" and panel.labels[-1] == "212"
    assert np.array_equal(panel.counts, counts)


# -- grid function / operator files ------------------------------------------------

def test_grid_function_roundtrip(tmp_path):
    grid = make_grid(-1.0, 1.0, 64)
    f = grid.function(np.sin(grid.points))
    for name, mode in (("f.bin", "binary"), ("f.json", "json")):
        path = tmp_path / name
        save_grid_function(f, path, mode)
        back = load_grid_function(path, mode)
        assert back.grid == grid
        assert np.array_equal(back.values, f.values)


def test_operator_roundtrip(tmp_path):
    grid = make_grid(0.0, 2.0, 32)
    rng = np.random.default_rng(1)
    from densfar.grid import OperatorRep

    K = OperatorRep(grid, rng.standard_normal((grid.n, grid.n)))
    for name in ("k.bin", "k.json"):
        path = tmp_path / name
        save_operator(K, path)
        back = load_operator(path)
        assert np.array_equal(back.kernel, K.kernel)


# -- model persistence ------------------------------------------------------------------

def test_model_binary_roundtrip_bit_exact(tmp_path):
    model = _model()
    path = tmp_path / "model.bin"
    save_model(model, path, "binary")
    back = load_model(path, "binary")
    assert back.grid == model.grid
    assert back.K == model.K and back.sample_size == model.sample_size
    assert np.array_equal(back.mean_density.values, model.mean_density.values)
    assert np.array_equal(back.eigen.eigenvalues, model.eigen.eigenvalues)
    for f1, f2 in zip(back.eigen.functions, model.eigen.functions):
        assert np.array_equal(f1.values, f2.values)
    for name in ("A_hat", "Q_hat", "P_hat", "Sigma_hat"):
        assert np.array_equal(getattr(back, name).kernel, getattr(model, name).kernel)
    assert len(back.residuals) == len(model.residuals)
    for r1, r2 in zip(back.residuals, model.residuals):
        assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(back.w_initial.values, model.w_initial.values)
    assert np.array_equal(back.w_last.values, model.w_last.values)
    # and the file itself is byte-stable across saves
    path2 = tmp_path / "model2.bin"
    save_model(back, path2, "binary")
    assert path.read_bytes() == path2.read_bytes()


def test_model_json_roundtrip(tmp_path):
    model = _model(seed=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.abs(back.A_hat.kernel - model.A_hat.kernel).max() < 1e-15 * (
        1 + np.abs(model.A_hat.kernel).max()
    )
    assert np.abs(back.Sigma_hat.kernel - model.Sigma_hat.kernel).max() < 1e-15


def test_model_truncated_file(tmp_path):
    model = _model(seed=2)
    path = tmp_path / "model.bin"
    save_model(model, path, "binary")
    data = path.read_bytes()
    broken = tmp_path / "broken.bin"
    broken.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError) as err:
        load_model(broken, "binary")
    assert err.value.offset is not None


def test_model_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_model(path, "binary")


# -- tables ------------------------------------------------------------------------------

def test_fmt17_round_trip():
    for x in (0.1, 1.0 / 3.0, 2.3449e-5, -1.7976931348623157e308):
        assert float(fmt17(x)) == x


def test_write_csv_deterministic(tmp_path):
    rows = [{"a": 1.0 / 3.0, "b": "x"}, {"a": 0.25, "b": "y"}]
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    write_csv(p1, ["a", "b"], rows)
    write_csv(p2, ["a", "b"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "0.33333333333333331" in text


def test_model_edited_k_refits(tmp_path):
    grid = make_grid(0.0, 1.0, 32)
    gen = make_cosine_generator(grid, strengths=(0.7, 0.5), noise_sds=(0.02, 0.015))
    panel = simulate_far(gen, 29, seed=3, burn_in=40)
    path = tmp_path / "model.json"
    save_model(fit(panel, 2), path)
    obj = json.loads(path.read_text())
    obj["K"] = 1
    path.write_text(json.dumps(obj))
    back = load_model(path)
    assert back.K == 1
    assert np.array_equal(back.A_hat.kernel, fit(panel, 1).A_hat.kernel)
