"""File formats: observation CSV, model persistence, table output."""

import dataclasses
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densfar import io as dfio
from densfar.errors import DensfarError, EmptyFile, FormatError, IoError, ParseError
from densfar.estimation import fit
from densfar.forecast import make_forecast
from densfar.grid import make_grid
from densfar.io import (
    fmt17,
    load_grid_function,
    load_model,
    read_observations,
    save_grid_function,
    save_model,
    write_csv,
)
from densfar.simulate import make_cosine_generator, simulate_far

from reference import model_P_hat, model_residuals


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


def test_read_observations_colliding_labels(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("period,value\n7,1.0\n1,0.5\n01,0.25\n")
    with pytest.raises(ParseError, match="'1' and '01'"):
        read_observations(path)


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


def test_read_observations_monthly_scale_shape(tmp_path, monkeypatch):
    # shape contract: 212 periods of ~1880 rows parse into a 212-period panel,
    # on the C path, so its allocation bound does not decline a panel this size
    monkeypatch.setattr(dfio, "_read_rows", _no_loop)
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


def test_read_observations_skips_utf8_bom(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfperiod,value\n1,0.5\n2,0.25\n")
    panel = read_observations(path)
    assert panel.labels == ("1", "2")
    assert dfio._read_rows(path).labels == ("1", "2")


def test_quoted_line_break_reports_the_physical_line(tmp_path):
    # the bad value is the third record but sits on the fourth line
    path = tmp_path / "quoted.csv"
    path.write_text('period,value\n"a\nb",1\nx,bad\n')
    with pytest.raises(ParseError, match="not a number: 'bad'") as err:
        read_observations(path)
    assert err.value.line == 4


def test_read_observations_csv_error_has_line_number(tmp_path):
    path = tmp_path / "wide.csv"
    # a padded label that strips to "1" is still one field over the limit
    path.write_text("period,value\n1,0.5\n1" + " " * 200_000 + ",0.25\n")
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        read_observations(path)
    assert err.value.line == 3


def _no_loop(path):
    # a fallback to the csv loop would hide a slowdown, so make the loop fail
    raise AssertionError("plain file read by the csv loop")


def test_plain_layout_takes_the_c_path(tmp_path, monkeypatch):
    monkeypatch.setattr(dfio, "_read_rows", _no_loop)
    path = tmp_path / "plain.csv"
    path.write_bytes(b"Period, Value\r\n 2 ,0.5\r\n10,-1e-3\r\n2, 7\r\nb,3\r\n")
    panel = read_observations(path)
    assert panel.labels == ("2", "10", "b")
    assert [b.tolist() for b in panel.blocks] == [[0.5, 7.0], [-1e-3], [3.0]]


def test_c_path_keeps_file_order_of_shuffled_periods(tmp_path):
    # labels that strip to one period merge in file order, as in the loop
    rng = np.random.default_rng(4)
    labels = rng.choice(["1", " 1", "2", "10 ", "10", "b"], size=3000)
    rows = [f"{label},{x!r}" for label, x in zip(labels, rng.normal(size=3000).tolist())]
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(["period,value", *rows]) + "\n")
    panel = dfio._read_plain(path)
    assert panel is not None and panel.labels == ("1", "2", "10", "b")
    assert _outcome(lambda _: panel, path) == _outcome(dfio._read_rows, path)


def test_one_long_label_in_a_long_file_goes_to_the_loop(tmp_path, monkeypatch):
    # its label array would cost rows x label width, far more than the file
    def no_loadtxt(*args, **kwargs):
        raise AssertionError("loadtxt called")

    path = tmp_path / "long-label.csv"
    path.write_text("period,value\n" + "1,0.5\n" * 20_000 + "x" * 5000 + ",0.25\n")
    expected = _outcome(dfio._read_rows, path)
    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    assert _outcome(read_observations, path) == expected


def test_cr_only_file_is_declined_within_one_block(tmp_path, monkeypatch):
    # a file without LF must not be carried, and copied, block after block
    sizes = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size):
            data = self.fh.read(size)
            sizes.append(len(data))
            return data

    real_open = open
    monkeypatch.setattr(dfio, "_SCAN_BYTES", 1 << 14)
    monkeypatch.setattr(dfio, "open", lambda p, mode: Counting(real_open(p, mode)),
                        raising=False)
    path = tmp_path / "cr.csv"
    path.write_bytes(b"period,value\r" + b"12,0.125\r" * 8000)
    assert path.stat().st_size > 4 * dfio._SCAN_BYTES
    assert dfio._scan_plain(path) is None
    assert sum(sizes) <= len(dfio._BOM) + dfio._SCAN_BYTES
    monkeypatch.undo()
    assert _outcome(read_observations, path) == _outcome(dfio._read_rows, path)


def _outcome(read, path):
    try:
        panel = read(path)
    except DensfarError as exc:
        return type(exc), str(exc)
    return panel.labels, [block.tobytes() for block in panel.blocks]


_LABELS = ["1", "2", "10", "01", " 3 ", "a b", "é", "x" * 40]
_VALUES = ["0.5", "-1e-3", " 2 ", "3.", "1e300"]
_HAZARD_LABELS = ["", "  ", '"4"', "5\x00", "\t6", "7\x1c", "\ufeff1", "8\u2028", "x" * 200]
_HAZARD_VALUES = ["1_000", "nan", "inf", "-Infinity", "1e999", "", "abc", "٣", "1\x1c",
                  "0.5\xa0", '"0.25"', "1\x0b", "1\x00", "2e", "0x1p3"]
_PLAIN_ROW = st.tuples(st.sampled_from(_LABELS), st.sampled_from(_VALUES)).map(",".join)
_HAZARD_ROW = st.one_of(
    st.tuples(st.sampled_from(_HAZARD_LABELS), st.sampled_from(_VALUES)).map(",".join),
    st.tuples(st.sampled_from(_LABELS), st.sampled_from(_HAZARD_VALUES)).map(",".join),
    st.sampled_from(["", "  ", "1", "1,0.5,2", ",", "1,2\r3,4", '"1,2",3', "1\r,0.5"]),
)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # the plain header and line ends are listed twice, so most files are plain
    header=st.sampled_from(["period,value", "\ufeffperiod,value", " Period , VALUE ",
                            "period,value", "\ufeffperiod,value", "time,value",
                            "period;value", ""]),
    rows=st.lists(_PLAIN_ROW, max_size=12),
    hazard=st.one_of(st.none(), st.tuples(st.integers(0, 12), _HAZARD_ROW)),
    end=st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]),
    final=st.booleans(),
)
def test_c_path_agrees_with_csv_loop(tmp_path, header, rows, hazard, end, final):
    # plain files with at most one hazard: a quote, a control byte, a blank
    # line, a lone CR, a value float() and the tokenizer may read differently
    if hazard is not None:
        rows.insert(*hazard)
    path = tmp_path / "hazard.csv"
    path.write_bytes((end.join([header, *rows]) + (end if final else "")).encode())
    assert _outcome(read_observations, path) == _outcome(dfio._read_rows, path)


# -- grid function files --------------------------------------------------------------

def test_grid_function_roundtrip(tmp_path):
    grid = make_grid(-1.0, 1.0, 64)
    f = grid.function(np.sin(grid.points))
    for name in ("f.bin", "f.json"):
        path = tmp_path / name
        save_grid_function(f, path)
        back = load_grid_function(path)
        assert back.grid == grid
        assert np.array_equal(back.values, f.values)


# -- model persistence ------------------------------------------------------------------

def test_model_binary_roundtrip_bit_exact(tmp_path):
    model = _model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.grid == model.grid
    assert back.K == model.K and back.sample_size == model.sample_size
    assert np.array_equal(back.mean_density.values, model.mean_density.values)
    assert np.array_equal(back.eigen.eigenvalues, model.eigen.eigenvalues)
    for f1, f2 in zip(back.eigen.functions, model.eigen.functions):
        assert np.array_equal(f1.values, f2.values)
    for name in ("A_hat", "Q_hat", "Sigma_hat"):
        assert np.array_equal(getattr(back, name).kernel, getattr(model, name).kernel)
    assert np.array_equal(model_P_hat(back).kernel, model_P_hat(model).kernel)
    assert len(model_residuals(back)) == len(model_residuals(model))
    for r1, r2 in zip(model_residuals(back), model_residuals(model)):
        assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(back.demeaned, model.demeaned)
    assert np.array_equal(back.w_last.values, model.w_last.values)
    # and the file itself is byte-stable across saves
    path2 = tmp_path / "model2.bin"
    save_model(back, path2)
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


@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(16, 96), T=st.integers(12, 90), K=st.integers(1, 3),
       seed=st.integers(0, 99), mode=st.sampled_from(["json", "binary"]))
def test_loaded_model_forecasts_bit_for_bit(tmp_path, n, T, K, seed, mode):
    # a model file carries what the fit is computed from, so a loaded model
    # forecasts exactly as the fitted one, in either format
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(grid, strengths=(0.8, 0.6, 0.4),
                                noise_sds=(0.02, 0.015, 0.01))
    model = fit(simulate_far(gen, T - 1, seed=seed, burn_in=40), K)
    path = tmp_path / f"model.{'json' if mode == 'json' else 'bin'}"
    save_model(model, path)
    back = load_model(path)
    for got, want in zip(make_forecast(back, model.w_last, 3),
                         make_forecast(model, model.w_last, 3)):
        assert np.array_equal(got.w_forecast.values, want.w_forecast.values)
        assert np.array_equal(got.f_forecast.values, want.f_forecast.values)


@pytest.mark.parametrize("cut", ["half", "8-bytes"])
def test_model_truncated_file(tmp_path, cut):
    model = _model(seed=2)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    keep = len(data) // 2 if cut == "half" else len(data) - 8
    broken = tmp_path / "broken.bin"
    broken.write_bytes(data[:keep])
    with pytest.raises(FormatError) as err:
        load_model(broken)
    # both cuts fall in the compressed arrays, so the last four bytes kept
    # are read as the CRC of the bytes before them, which they are not
    assert err.value.offset == keep - 4
    assert str(err.value) == (f"{broken}: checksum mismatch: the file is truncated or "
                              f"corrupt (at offset {keep - 4})")


def test_binary_layout(tmp_path):
    # magic, version, grid, K, T, kernel index, one zlib stream of the
    # byte-shuffled arrays, and a CRC-32 of every byte before it
    model = _model(seed=2)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    head = struct.pack("<IddIIII", 3, model.grid.a, model.grid.b, model.grid.n,
                       model.K, model.sample_size, 0)
    assert data[:8] == b"FARMODL2" and data[8:8 + len(head)] == head
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])
    raw = np.frombuffer(zlib.decompress(data[8 + len(head):-4]), dtype=np.uint8)
    # each array on its own: byte 0 of every value, then byte 1, ...
    arrays = (model.mean_density.values, model.demeaned.ravel())
    for array, planes in zip(arrays, np.split(raw, [8 * model.grid.n])):
        assert np.array_equal(planes.reshape(8, -1),
                              array.astype("<f8").view(np.uint8).reshape(-1, 8).T)
    # the exponent bytes repeat, so the file is well under the raw doubles
    assert len(data) < 0.9 * len(raw)


@pytest.mark.parametrize("name", ["model.bin", "model.json"])
def test_model_keeps_its_kernel(tmp_path, name):
    model = dataclasses.replace(_model(seed=3), kernel="normal")
    path = tmp_path / name
    save_model(model, path)
    assert load_model(path).kernel == "normal"


@pytest.mark.parametrize("save, load, obj, magic", [
    (save_model, load_model, "model", b"FARMODL1"),
    (save_grid_function, load_grid_function, "density", b"FARFUNC1"),
])
def test_old_binary_layout_is_named(tmp_path, save, load, obj, magic):
    # the uncompressed layout of earlier releases: its tag, then raw doubles
    model = _model(seed=4)
    path = tmp_path / "old.bin"
    save(model if obj == "model" else model.mean_density, path)
    path.write_bytes(magic + path.read_bytes()[8:])
    with pytest.raises(FormatError, match=f"binary layout {magic!r} is not read") as err:
        load(path)
    assert err.value.offset == 0


def _resealed(data: bytes, header: bytes, stream: bytes) -> bytes:
    # a forged file: a new header and stream behind the old magic and version,
    # with a CRC that matches
    body = data[:12] + header + stream
    return body + struct.pack("<I", zlib.crc32(body))


def test_forged_header_cannot_make_a_large_allocation(tmp_path, monkeypatch):
    model = _model(seed=4)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    grid, stream = data[12:32], data[44:-4]
    inflated = []
    real = zlib.decompressobj
    monkeypatch.setattr(zlib, "decompressobj", lambda: inflated.append(1) or real())
    for T in (2**32 - 1, 10**6):
        path.write_bytes(_resealed(data, grid + struct.pack("<III", model.K, T, 0), stream))
        with pytest.raises(FormatError, match="compressed bytes can hold"):
            load_model(path)
    assert not inflated
    # a stream short enough for the ratio that inflates to too few bytes
    path.write_bytes(_resealed(data, data[12:44], zlib.compress(b"\0" * 64)))
    with pytest.raises(FormatError, match="do not hold exactly"):
        load_model(path)
    assert len(inflated) == 1


@pytest.mark.parametrize("T_delta", [-1, 1])
def test_stream_must_inflate_to_exactly_the_header_size(tmp_path, T_delta):
    model = _model(seed=4)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    header = data[12:32] + struct.pack("<III", model.K, model.sample_size + T_delta, 0)
    path.write_bytes(_resealed(data, header, data[44:-4]))
    need = 8 * model.grid.n * (model.sample_size + T_delta + 1)
    with pytest.raises(FormatError, match=f"exactly the {need} bytes"):
        load_model(path)


@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (0.0, float("inf"))])
def test_model_nonfinite_support(tmp_path, a, b):
    path = tmp_path / "model.json"
    save_model(_model(seed=4), path)
    obj = json.loads(path.read_text())
    obj["grid"].update(a=a, b=b)
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="bad grid header"):
        load_model(path)


def test_model_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_model(path)


def test_files_are_read_by_their_bytes_not_their_name(tmp_path):
    model = _model(seed=5)
    cases = ((save_model, load_model, model, lambda m: m.A_hat.kernel),
             (save_grid_function, load_grid_function, model.mean_density, lambda f: f.values))
    for save, load, obj, payload in cases:
        for written, renamed in (("json", "bin"), ("bin", "json")):
            own, other = tmp_path / f"own.{written}", tmp_path / f"other.{renamed}"
            save(obj, own)
            other.write_bytes(own.read_bytes())
            back = load(other)
            assert back.grid == obj.grid
            assert np.array_equal(payload(back), payload(load(own)))


def test_json_model_with_leading_whitespace_loads(tmp_path):
    model = _model(seed=6)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_bytes(b" \n\t\r\n" + path.read_bytes())
    assert np.array_equal(load_model(path).A_hat.kernel, model.A_hat.kernel)


def test_json_files_behind_a_utf8_bom_load(tmp_path):
    # some editors save UTF-8 text with a byte-order mark; the CSV reader
    # skips it, and so do the model and density readers
    model = _model(seed=8)
    cases = ((save_model, load_model, model, lambda m: m.A_hat.kernel),
             (save_grid_function, load_grid_function, model.mean_density, lambda f: f.values))
    for save, load, obj, payload in cases:
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        save(obj, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        back = load(marked)
        assert back.grid == obj.grid
        assert np.array_equal(payload(back), payload(load(plain)))


def test_truncated_json_model_under_a_bin_name(tmp_path):
    path = tmp_path / "model.json"
    save_model(_model(seed=7), path)
    broken = tmp_path / "model.bin"
    broken.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(FormatError, match="invalid JSON") as err:
        load_model(broken)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("edit, shown", [({"n": "32"}, "'32'"), ({"n": 32.0}, "32.0"),
                                         ({"a": "0.0"}, "'0.0'"), ({"b": True}, "True")])
def test_grid_header_of_the_wrong_type(tmp_path, edit, shown):
    # a grid header's n must be an integer and a, b real numbers, not converted
    path = tmp_path / "model.json"
    save_model(_model(seed=8), path)
    obj = json.loads(path.read_text())
    obj["grid"].update(edit)
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="bad grid header") as err:
        load_model(path)
    assert shown in str(err.value)


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
