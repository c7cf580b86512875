"""File formats: raw observation CSV, model/function/operator persistence,
and plot-ready CSV tables with JSON sidecars.

An observation CSV has two readers that return the same panel. A file in
the plain layout (ASCII, one comma per line, no quotes, LF or CRLF line
ends) is parsed by numpy's C tokenizer, with no Python object per row, into
a label and value array of at most twice the file's size. Every other file,
and every plain file that the tokenizer may read differently from Python,
goes through the csv-module loop, which is the only source of error
messages and line numbers.

Binary files are little-endian IEEE-754 doubles behind a magic tag and a
grid header (a, b, n); binary round-trips are bit-exact. JSON files carry
the same payload as nested arrays; Python serializes floats by shortest
round-trip representation, so JSON round-trips are exact as well. A model,
grid-function or operator file is written as JSON when its name ends in
`.json` and as binary otherwise, and is read by its bytes, not its name:
a file whose first non-whitespace byte, after an optional UTF-8 byte-order
mark, is `{` is JSON, any other binary.
All text output is written with 17 significant digits and files are
written to a temporary name and atomically renamed.

A model file (version 2) stores only what the fit is computed from: the
grid, the mean density, K, T and the (T, n) demeaned panel. Loading refits
the eigenpairs, operators and residuals through
:func:`densfar.estimation.fit_demeaned`, the same core as `fit`. Version-1
model files, which stored every operator, are rejected. Grid-function and
operator files stay at version 1. A malformed model, grid-function or
operator file raises :class:`FormatError`, and so does a JSON one with a
field that its loader does not read.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
from typing import Iterable

import numpy as np

from .errors import DensfarError, EmptyFile, FormatError, IoError, ParseError
from .estimation import FarModel, fit_demeaned
from .grid import GridFunction, GridSpec, OperatorRep, make_grid
from .kde import RawPanel, natural_sort_key

__all__ = [
    "read_observations",
    "save_model",
    "load_model",
    "save_grid_function",
    "load_grid_function",
    "save_operator",
    "load_operator",
    "write_csv",
    "write_json",
    "fmt17",
]

def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def _atomic_write(path, data: bytes) -> None:
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise IoError(f"cannot write {path}: {exc}") from exc


# -- raw observation panel ----------------------------------------------------

def read_observations(path) -> RawPanel:
    """Read a `period,value` CSV into a raw panel.

    The header row is required; a leading UTF-8 byte-order mark is ignored.
    Periods may be grouped or interleaved; blocks are assembled stably in
    file order and periods sorted with numeric-aware label comparison.

    Plain files are parsed in C (:func:`_read_plain`), all others by the
    csv loop (:func:`_read_rows`); both return the same panel.

    Raises
    ------
    ParseError
        Malformed header or row, with the 1-based line number, or two
        labels that sort as one period, such as "1" and "01".
    EmptyFile
        No data rows.
    """
    panel = _read_plain(path)
    return panel if panel is not None else _read_rows(path)


def _read_rows(path) -> RawPanel:
    """Read any CSV through the csv module, one row at a time."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    blocks: dict = {}
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyFile(f"{path} is empty")
            if [c.strip().lower() for c in header] != ["period", "value"]:
                raise ParseError(
                    f"expected header 'period,value', got {','.join(header)!r}", line=1
                )
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                # the physical line, which a quoted field with a line break
                # puts past the record count
                lineno = reader.line_num
                if len(row) != 2:
                    raise ParseError(f"expected 2 columns, got {len(row)}", line=lineno)
                period = row[0].strip()
                if not period:
                    raise ParseError("empty period label", line=lineno)
                try:
                    value = float(row[1])
                except ValueError:
                    raise ParseError(f"not a number: {row[1]!r}", line=lineno) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite value: {row[1]!r}", line=lineno)
                blocks.setdefault(period, []).append(value)
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not UTF-8 text") from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    return _assemble(path, blocks)


def _assemble(path, blocks: dict) -> RawPanel:
    # blocks maps each period, in order of first appearance, to its values
    if not blocks:
        raise EmptyFile(f"{path} has a header but no data rows")
    labels = sorted(blocks, key=natural_sort_key)
    for first, second in zip(labels, labels[1:]):
        if natural_sort_key(first) == natural_sort_key(second):
            raise ParseError(f"period labels {first!r} and {second!r} name the same period")
    return RawPanel(labels=tuple(labels), blocks=tuple(blocks[lab] for lab in labels))


_SCAN_BYTES = 1 << 20
_BOM = b"\xef\xbb\xbf"
_NL, _CR, _COMMA, _QUOTE = 10, 13, 44, 34


def _read_plain(path) -> RawPanel | None:
    """Parse a plain-layout file in C, or return None to leave it to the loop.

    Plain means: every line, the `period,value` header included, is ASCII
    with exactly one comma, no quote, no control byte other than a CRLF or
    LF line end, and is shorter than both the csv module's field limit and
    one scan block. Labels are read at the widest label's width found by
    the scan, so none is truncated, and a file whose label array would
    exceed twice its own size is declined. The file is also declined if the
    tokenizer rejects or warns about it, if a value is not finite or if a
    label is empty, since those end in the loop's errors; a panel returned
    here is the one the loop would return.
    """
    scan = _scan_plain(path)
    if scan is None:
        return None
    lines, width = scan
    dtype = [("label", f"S{width}"), ("value", "f8")]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                              comments=None, encoding="utf-8", ndmin=1)
    except (OSError, ValueError, UnicodeError, Warning):
        return None
    labels, values = rows["label"], rows["value"]
    if len(rows) != lines or not np.isfinite(values).all():
        return None
    # one label per run of equal labels, so a grouped file sorts few strings
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    raw, first, run_label = np.unique(labels[starts], return_index=True, return_inverse=True)
    ids: dict = {}
    label_id = np.empty(len(raw), dtype=np.intp)
    for i in np.argsort(first):  # in order of first appearance, as the loop sees them
        period = raw[i].decode("ascii").strip()
        if not period:
            return None
        label_id[i] = ids.setdefault(period, len(ids))
    if len(ids) < len(starts):  # a period in several runs: gather its rows in file order
        row_id = np.repeat(label_id[run_label], np.diff(np.r_[starts, len(rows)]))
        values = values[np.argsort(row_id, kind="stable")]
        starts = np.r_[0, np.cumsum(np.bincount(row_id))[:-1]]
    return _assemble(path, dict(zip(ids, np.split(values, starts[1:]))))


def _scan_plain(path):
    """(data lines, widest label in bytes) of a plain-layout file, or None;
    reads the file in blocks of _SCAN_BYTES."""
    max_line = min(csv.field_size_limit(), _SCAN_BYTES)
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    header, lines, width, size = None, 0, 0, 0
    with fh:
        carry = fh.read(len(_BOM)).removeprefix(_BOM)
        while True:
            block = fh.read(_SCAN_BYTES)
            data = carry + block
            if block:
                end = data.rfind(b"\n") + 1
                data, carry = data[:end], data[end:]
                if len(carry) >= max_line:  # an over-long line, or no LF at all
                    return None
            elif data:
                data += b"\n"  # the last line has no line end
            if data:
                buf = np.frombuffer(data, dtype=np.uint8)
                nl = np.flatnonzero(buf == _NL)
                cr = np.flatnonzero(buf == _CR)
                comma = np.flatnonzero(buf == _COMMA)
                starts = np.concatenate(([0], nl[:-1] + 1))
                if (len(comma) != len(nl) or np.any(comma > nl) or np.any(comma < starts)
                        or np.any(buf[cr + 1] != _NL) or buf.max() >= 128
                        or np.count_nonzero(buf < 32) != len(nl) + len(cr)
                        or np.any(buf == _QUOTE) or np.any(nl - starts >= max_line)):
                    return None
                if header is None:
                    header = data[: nl[0]].removesuffix(b"\r")
                lines += len(nl)
                size += len(data)
                width = max(width, int((comma - starts).max()))
            if not block:
                break
    # the label array costs lines * width bytes, so one long label in a long
    # file would cost far more than the file; such a file goes to the loop
    if lines < 2 or (lines - 1) * (width + 8) > 2 * size:
        return None
    if [c.strip().lower() for c in header.decode("ascii").split(",")] != ["period", "value"]:
        return None
    return lines - 1, width


# -- persistence ----------------------------------------------------------------
#
# Every artifact file is a header (format, version, grid a, b, n) followed by
# named fields, each a nonnegative integer or a float64 array. JSON files key
# them by name; binary files hold them in order behind a magic tag.

_FUNC = ("grid-function", b"FARFUNC1", 1)
_OPER = ("operator", b"FAROPER1", 1)
_MODEL = ("far-model", b"FARMODL1", 2)


def _save(path, fmt: tuple, grid: GridSpec, fields: dict) -> None:
    kind, magic, version = fmt
    if os.fspath(path).endswith(".json"):
        payload = {"format": kind, "version": version,
                   "grid": {"a": grid.a, "b": grid.b, "n": grid.n}}
        for key, value in fields.items():
            payload[key] = value.tolist() if isinstance(value, np.ndarray) else value
        _atomic_write(path, (json.dumps(payload, sort_keys=True) + "\n").encode())
        return
    parts = [magic, struct.pack("<IddI", version, grid.a, grid.b, grid.n)]
    for value in fields.values():
        if isinstance(value, np.ndarray):
            parts.append(np.ascontiguousarray(value, dtype="<f8").tobytes())
        else:
            parts.append(struct.pack("<I", value))
    _atomic_write(path, b"".join(parts))


def _closed(path, obj, known, block: str) -> dict:
    """`obj` when it is an object whose keys all lie in `known`; otherwise a
    FormatError naming `block`, the first unknown key and a close match."""
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: {block} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in known:
            import difflib  # only on this error path, so start-up does not load it
            close = difflib.get_close_matches(str(key), list(known), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise FormatError(f"{path}: unknown key {key!r} in {block}{hint}")
    return obj


def _reader(path, fmt: tuple):
    """A reader of the file's fields, with its format and version checked."""
    # an int path would make open() read and close that file descriptor
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    # every JSON artifact is an object, possibly behind a UTF-8 byte-order
    # mark; any other file must start with its magic tag
    if data.removeprefix(_BOM).lstrip()[:1] == b"{":
        return _JsonReader(path, data, fmt)
    return _BinReader(path, data, fmt)


def _make_grid(path, a, b, n, size: int) -> GridSpec:
    try:
        grid = make_grid(a, b, n)
        # every file holds at least n values, so a larger n is corrupt
        if grid.n > size:
            raise ValueError(f"n={n} exceeds the file size")
        return grid
    except (TypeError, ValueError, OverflowError, DensfarError) as exc:
        raise FormatError(f"{path}: bad grid header: {exc}") from None


class _BinReader:
    def __init__(self, path, data: bytes, fmt: tuple):
        kind, magic, version = fmt
        self.path = path
        self.data = data
        self.offset = 0
        got = self._take(len(magic))
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}", offset=0)
        found = self.count("version")
        if found != version:
            raise FormatError(
                f"{path}: unsupported {kind} version {found}, expected {version}",
                offset=len(magic),
            )

    def _take(self, count: int) -> bytes:
        left = len(self.data) - self.offset
        if count > left:
            raise FormatError(
                f"{self.path}: truncated file, the next field needs {count} bytes "
                f"and {left} remain",
                offset=self.offset,
            )
        out = self.data[self.offset : self.offset + count]
        self.offset += count
        return out

    def grid(self) -> GridSpec:
        a, b, n = struct.unpack("<ddI", self._take(20))
        return _make_grid(self.path, a, b, n, len(self.data))

    def count(self, key: str) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def array(self, key: str, shape: tuple) -> np.ndarray:
        start = self.offset
        raw = self._take(8 * math.prod(shape))
        out = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(out)):
            raise FormatError(f"{self.path}: non-finite value in {key}", offset=start)
        return out

    def done(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{self.path}: {len(self.data) - self.offset} trailing bytes",
                offset=self.offset,
            )


class _JsonReader:
    def __init__(self, path, data: bytes, fmt: tuple):
        kind, _, version = fmt
        try:
            obj = json.loads(data.decode("utf-8-sig"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
        if obj.get("format") != kind:
            raise FormatError(f"{path}: not a {kind} file")
        if obj.get("version") != version:
            raise FormatError(
                f"{path}: unsupported {kind} version {obj.get('version')!r}, "
                f"expected {version}"
            )
        self.path = path
        self.obj = obj
        self.size = len(data)
        self.kind = kind
        self.read = ["format", "version"]  # the top-level fields done() accepts

    def _field(self, obj, key: str):
        if obj is self.obj:
            self.read.append(key)
        try:
            return obj[key]
        except (KeyError, TypeError):
            raise FormatError(f"{self.path}: missing field {key!r}") from None

    def grid(self) -> GridSpec:
        header = self._field(self.obj, "grid")
        a, b, n = (self._field(header, key) for key in ("a", "b", "n"))
        _closed(self.path, header, ("a", "b", "n"), "grid")
        return _make_grid(self.path, a, b, n, self.size)

    def count(self, key: str) -> int:
        value = self._field(self.obj, key)
        if type(value) is not int or value < 0:
            raise FormatError(f"{self.path}: {key} must be a nonnegative integer")
        return value

    def array(self, key: str, shape: tuple) -> np.ndarray:
        try:
            out = np.asarray(self._field(self.obj, key), dtype=np.float64)
        except (TypeError, ValueError):
            out = None
        if out is None or out.shape != shape or not np.all(np.isfinite(out)):
            raise FormatError(f"{self.path}: {key} must hold {shape} finite numbers")
        return out

    def done(self) -> None:
        _closed(self.path, self.obj, self.read, f"the {self.kind} file")


def save_grid_function(f: GridFunction, path) -> None:
    """Write a grid function (e.g. a density), as JSON to a `.json` name, else binary."""
    _save(path, _FUNC, f.grid, {"values": f.values})


def load_grid_function(path) -> GridFunction:
    src = _reader(path, _FUNC)
    grid = src.grid()
    values = src.array("values", (grid.n,))
    src.done()
    return GridFunction(grid, values)


def save_operator(K: OperatorRep, path) -> None:
    """Write an operator kernel, as JSON to a `.json` name, else binary."""
    _save(path, _OPER, K.grid, {"kernel": K.kernel})


def load_operator(path) -> OperatorRep:
    src = _reader(path, _OPER)
    grid = src.grid()
    kernel = src.array("kernel", (grid.n, grid.n))
    src.done()
    return OperatorRep(grid, kernel)


def save_model(model: FarModel, path) -> None:
    """Persist what a fitted model is computed from (JSON to a `.json` name, else binary).

    The file carries the grid header, the mean density, K, T and the (T, n)
    demeaned panel; :func:`load_model` refits everything else from them.
    """
    W = model.demeaned
    _save(path, _MODEL, model.grid, {
        "mean_density": model.mean_density.values,
        "K": model.K,
        "T": len(W),
        "demeaned": W,
    })


def load_model(path) -> FarModel:
    """Load a model written by :func:`save_model` and refit it at its K.

    Raises
    ------
    FormatError
        Not a version-2 model file, a missing field, a wrong shape, a
        non-finite value, or a K outside 1..usable rank of the panel.
    """
    src = _reader(path, _MODEL)
    grid = src.grid()
    mean = src.array("mean_density", (grid.n,))
    K = src.count("K")
    W = src.array("demeaned", (src.count("T"), grid.n))
    src.done()
    try:
        return fit_demeaned(GridFunction(grid, mean), W, K)
    except (DensfarError, ValueError) as exc:
        raise FormatError(f"{path}: cannot refit the stored panel: {exc}") from None


# -- tables ----------------------------------------------------------------------

def write_csv(path, fieldnames: Iterable, rows: Iterable) -> None:
    """Write dict rows as CSV; floats carry 17 significant digits."""
    fieldnames = list(fieldnames)
    lines = [",".join(fieldnames)]
    for row in rows:
        cells = []
        for name in fieldnames:
            val = row[name]
            cells.append(fmt17(val) if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    _atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_json(path, payload: dict) -> None:
    """Write a JSON sidecar deterministically (sorted keys)."""
    _atomic_write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())
