"""File formats: raw observation CSV, model and grid-function persistence,
and plot-ready CSV tables with JSON sidecars.

An observation CSV has two readers that return the same panel. A file in
the plain layout (ASCII, one comma per line, no quotes, LF or CRLF line
ends) is parsed by numpy's C tokenizer, with no Python object per row, into
a label and value array of at most twice the file's size. Every other file,
and every plain file that the tokenizer may read differently from Python,
goes through the csv-module loop, which is the only source of error
messages and line numbers.

Binary files hold little-endian IEEE-754 doubles in one zlib stream
behind a CRC-32 (see "persistence" below) and round-trip bit-exact. JSON
files carry the same payload as nested arrays; Python serializes floats by
shortest round-trip representation, so JSON round-trips are exact as well.
A model or grid-function file is written as JSON when its name ends in
`.json` and as binary otherwise, and is read by its bytes, not its name: a
file whose first non-whitespace byte, after an optional UTF-8 byte-order
mark, is `{` is JSON, any other binary.
All text output is written with 17 significant digits and files are
written to a temporary name and atomically renamed.

A model file (version 3) stores only what the fit is computed from: the
grid, the mean density, K, T, the KDE kernel and the (T, n) demeaned panel.
Loading refits the eigenpairs, operators and residuals through
:func:`densfar.estimation.fit_demeaned`, the same core as `fit`. Model
files of versions 1 and 2 are rejected, and so is the uncompressed binary
layout (`FARMODL1`, `FARFUNC1`) of earlier releases. Grid-function files
stay at version 1. A malformed model or grid-function file raises
:class:`FormatError`, and so does a JSON one with a field that its loader
does not read.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
import zlib
from typing import Iterable

import numpy as np

from .errors import DensfarError, EmptyFile, FormatError, IoError, ParseError
from .estimation import FarModel, fit_demeaned
from .grid import GridFunction, GridSpec, make_grid
from .kde import KERNELS, RawPanel, natural_sort_key

__all__ = [
    "read_observations",
    "save_model",
    "load_model",
    "save_grid_function",
    "load_grid_function",
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
# named fields: nonnegative integers, the KDE kernel and float64 arrays. JSON
# files key them by name. A binary file is its magic tag, the version, the
# grid, the integer fields (the kernel as its index in KERNELS), then one zlib
# stream of the arrays in order, each byte-shuffled (byte 0 of every value,
# then byte 1, ...: the shuffle filter of HDF5 and Blosc, which groups the
# exponent bytes that deflate compresses well), and last a CRC-32 of every
# byte before it. The magic tag names the binary layout, the version the
# content that both encodings share.

_FUNC = ("grid-function", b"FARFUNC2", 1)
_MODEL = ("far-model", b"FARMODL2", 3)
# deflate inflates at most about 1032:1, so a header that implies more array
# bytes than that many times the file's size is corrupt (or forged)
_INFLATE_RATIO = 1032


def _save(path, fmt: tuple, grid: GridSpec, fields: dict) -> None:
    kind, magic, version = fmt
    if os.fspath(path).endswith(".json"):
        payload = {"format": kind, "version": version,
                   "grid": {"a": grid.a, "b": grid.b, "n": grid.n}}
        for key, value in fields.items():
            payload[key] = value.tolist() if isinstance(value, np.ndarray) else value
        _atomic_write(path, (json.dumps(payload, sort_keys=True) + "\n").encode())
        return
    header = [magic, struct.pack("<IddI", version, grid.a, grid.b, grid.n)]
    planes = []
    for value in fields.values():
        if isinstance(value, np.ndarray):
            values = np.ascontiguousarray(value, dtype="<f8").reshape(-1)
            planes.append(values.view(np.uint8).reshape(-1, 8).T.tobytes())
        else:
            header.append(struct.pack("<I", KERNELS.index(value) if isinstance(value, str)
                                      else value))
    body = b"".join(header) + zlib.compress(b"".join(planes))
    _atomic_write(path, body + struct.pack("<I", zlib.crc32(body)))


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
        # every file holds at least n doubles, which deflate shrinks at most
        # _INFLATE_RATIO:1, so a larger n is corrupt
        if 8 * grid.n > _INFLATE_RATIO * size:
            raise ValueError(f"n={n} exceeds what the file size can hold")
        return grid
    except (TypeError, ValueError, OverflowError, DensfarError) as exc:
        raise FormatError(f"{path}: bad grid header: {exc}") from None


class _BinReader:
    """Checks, in order, the magic tag, the version and the CRC-32; then
    reads the header fields and inflates the arrays."""

    def __init__(self, path, data: bytes, fmt: tuple):
        kind, magic, version = fmt
        self.path = path
        self.data = data
        self.offset = 0
        got = self._take(len(magic))
        if got[:-1] == magic[:-1] and got != magic:
            raise FormatError(f"{path}: binary layout {got!r} is not read by this version, "
                              f"which reads {magic!r}", offset=0)
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}", offset=0)
        found = self.count("version")
        if found != version:
            raise FormatError(
                f"{path}: unsupported {kind} version {found}, expected {version}",
                offset=len(magic),
            )
        end = len(data) - 4
        if end < self.offset:
            raise FormatError(f"{path}: truncated file, no room for the checksum",
                              offset=self.offset)
        if zlib.crc32(memoryview(data)[:end]) != struct.unpack("<I", data[end:])[0]:
            raise FormatError(f"{path}: checksum mismatch: the file is truncated or corrupt",
                              offset=end)
        self.data = memoryview(data)[:end]

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

    def kernel(self, key: str) -> str:
        start = self.offset
        index = self.count(key)
        if index >= len(KERNELS):
            raise FormatError(f"{self.path}: unknown {key} index {index}", offset=start)
        return KERNELS[index]

    def arrays(self, shapes: dict) -> list:
        """The arrays of `shapes`, a dict from name to shape in file order,
        inflated from the rest of the file and unshuffled."""
        start, stream = self.offset, self.data[self.offset:]
        sizes = [math.prod(shape) for shape in shapes.values()]
        need = 8 * sum(sizes)
        if need > _INFLATE_RATIO * len(stream):
            raise FormatError(f"{self.path}: the header implies {need} bytes of arrays, more "
                              f"than {len(stream)} compressed bytes can hold", offset=start)
        inflate = zlib.decompressobj()
        try:
            # one byte more than the header implies shows a stream that holds more
            raw = inflate.decompress(stream, need + 1)
        except zlib.error as exc:
            raise FormatError(f"{self.path}: bad compressed arrays: {exc}", offset=start) from None
        if len(raw) != need or not inflate.eof or inflate.unused_data:
            raise FormatError(f"{self.path}: the compressed arrays do not hold exactly the "
                              f"{need} bytes the header implies", offset=start)
        self.offset = len(self.data)
        out, pos = [], 0
        for (key, shape), size in zip(shapes.items(), sizes):
            planes = np.frombuffer(raw, dtype=np.uint8, count=8 * size, offset=pos)
            values = np.ascontiguousarray(planes.reshape(8, -1).T).view("<f8")
            if not np.all(np.isfinite(values)):
                raise FormatError(f"{self.path}: non-finite value in {key}")
            out.append(values.astype(np.float64, copy=False).reshape(shape))
            pos += 8 * size
        return out

    def done(self) -> None:
        """Nothing to check: :meth:`arrays` reads up to the CRC and rejects
        data after the stream."""


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

    def kernel(self, key: str) -> str:
        value = self._field(self.obj, key)
        if type(value) is not str or value not in KERNELS:
            raise FormatError(f"{self.path}: {key} must be one of {KERNELS}, got {value!r}")
        return value

    def arrays(self, shapes: dict) -> list:
        out = []
        for key, shape in shapes.items():
            try:
                values = np.asarray(self._field(self.obj, key), dtype=np.float64)
            except (TypeError, ValueError):
                values = None
            if values is None or values.shape != shape or not np.all(np.isfinite(values)):
                raise FormatError(f"{self.path}: {key} must hold {shape} finite numbers")
            out.append(values)
        return out

    def done(self) -> None:
        _closed(self.path, self.obj, self.read, f"the {self.kind} file")


def save_grid_function(f: GridFunction, path) -> None:
    """Write a grid function (e.g. a density), as JSON to a `.json` name, else binary."""
    _save(path, _FUNC, f.grid, {"values": f.values})


def load_grid_function(path) -> GridFunction:
    src = _reader(path, _FUNC)
    grid = src.grid()
    (values,) = src.arrays({"values": (grid.n,)})
    src.done()
    return GridFunction(grid, values)


def save_model(model: FarModel, path) -> None:
    """Persist what a fitted model is computed from (JSON to a `.json` name, else binary).

    The file carries the grid header, K, T, the KDE kernel, the mean density
    and the (T, n) demeaned panel; :func:`load_model` refits everything else
    from them.
    """
    W = model.demeaned
    _save(path, _MODEL, model.grid, {
        "K": model.K,
        "T": len(W),
        "kernel": model.kernel,
        "mean_density": model.mean_density.values,
        "demeaned": W,
    })


def load_model(path) -> FarModel:
    """Load a model written by :func:`save_model` and refit it at its K.

    Raises
    ------
    FormatError
        Not a version-3 model file, an old binary layout, a checksum
        mismatch, a missing field, a wrong shape, a non-finite value, an
        unknown kernel, or a K outside 1..usable rank of the panel.
    """
    src = _reader(path, _MODEL)
    grid = src.grid()
    K, T, kernel = src.count("K"), src.count("T"), src.kernel("kernel")
    mean, W = src.arrays({"mean_density": (grid.n,), "demeaned": (T, grid.n)})
    src.done()
    try:
        return fit_demeaned(GridFunction(grid, mean), W, K, kernel=kernel)
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
