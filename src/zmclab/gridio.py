"""Serialization: every file and JSON document the command line writes.

Each verb hands its columns and its ``--format`` to one writer here, which
returns the text: ``grid_text`` (grid CSV, OBJ mesh or grid JSON),
``samples_text`` (causal CSV or JSON), ``fluid_text`` (Chaplygin-state CSV
or JSON) and ``lines_text`` (the light-line report).  ``dump_json`` writes
every JSON document, with the schema stamp ``SCHEMA``; the lists of
records in samples, states and line reports are objects keyed like the
CSV headers.

All writers are deterministic (shortest round-trip float formatting, fixed
row-major node order, no timestamps) so identical inputs give byte-identical
files.  Floats are written as their ``repr``.  The CSV and OBJ writers get
it from ``_floatrepr``, which formats a whole float64 array with numpy and
is imported on a writer's first call.  One row assembler, ``_text``, serves
them all: a row is separators and columns, and ``_ROWS`` rows at a time
become one uint8 matrix of NUL-padded fields whose NUL bytes are dropped.
The lattice coordinates are formatted once per axis; a column that is
constant along an x-line (bitwise, so -0.0 is not 0.0) once for that line;
epsilon and the class and regime names come from small tables of fields.
A run of x-lines on which every column but y is constant is written as
text: each line's two ends, formatted once, joined around the y fields.

The causal writer takes ``CausalSamples`` (or a list of ``CausalSample``).
Its leading lattice block, x constant along each x-line and the same y on
every line, bit for bit, is written as a lattice; the samples after it as
rows of one value per column.  The OBJ faces are integers, written from
each x-line's node indices.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .duality import FlowRegime
from .errors import NonFiniteValueError
from .exprfield import SampledGrid
from .geometry import CLASSES, CausalSample, CausalSamples, LightLine

__all__ = [
    "SCHEMA",
    "grid_text",
    "samples_text",
    "fluid_text",
    "lines_text",
    "grid_csv",
    "fluid_csv",
    "causal_csv",
    "obj_text",
    "read_grid_csv",
    "dump_json",
]

#: the version stamp of every JSON document
SCHEMA = 1
GRID_HEADER = "x,y,value"
CAUSAL_HEADER = "x,y,b,bx,by,class"
FLUID_HEADER = "x,y,epsilon,rho,u,v,c,p,regime"
#: the keys of a line report's records
LINE_KEYS = ("base,direction,lifted,sample_count,perp_residual,"
             "lightlike_defect,verified")
#: rows of text assembled per pass
_ROWS = 2048


def _constant_lines(column) -> np.ndarray:
    """Whether each x-line of an nx-by-ny array holds one value throughout,
    bit for bit for floats (-0.0 and 0.0 print differently)."""
    c = np.asarray(column)
    if c.dtype.kind == "f":
        c = c.view(f"i{c.itemsize}")
    return (c == c[:, :1]).all(axis=1) & (c.shape[1] > 0)


def _bytes(texts) -> np.ndarray:
    """The UTF-8 bytes of each text, NUL-padded, as a (len, width) uint8
    array."""
    raw = [t.encode() for t in texts]
    out = np.zeros((len(raw), max(map(len, raw), default=0)), dtype=np.uint8)
    for row, text in zip(out, raw):
        row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _floats(values, trim=False) -> np.ndarray:
    """The repr fields of float values; ``trim`` drops the NUL columns
    past the widest field, which pays for fields that many rows gather
    (a lattice axis) and not for fields used once."""
    from . import _floatrepr
    out = _floatrepr.fields(values)
    if trim:
        used = np.flatnonzero(out.any(axis=0))
        out = out[:, :used[-1] + 1 if used.size else 0]
    return out


def _packed(rows) -> bytes:
    """The bytes of a uint8 matrix, row after row, NUL bytes dropped."""
    return rows.tobytes().translate(None, b"\0")


def _texts(rows) -> list[str]:
    """The text of each row of a uint8 matrix, NUL bytes dropped."""
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    data = _packed(rows)
    return [data[a:b].decode() for a, b in zip([0, *ends], ends)]


class _Line:
    """A column whose rows on x-line i all read ``fields[i]``."""

    def __init__(self, fields):
        self.fields = fields

    def rows(self, i, j):
        return self.fields[i]


class _Place:
    """A column whose row at place j of every x-line reads ``fields[j]``."""

    def __init__(self, fields):
        self.fields = fields

    def rows(self, i, j):
        return self.fields[j]


class _Node:
    """A column of an nx-by-ny array: floats, or indices into a ``table``
    of fields.  ``same`` marks the x-lines that hold one value throughout
    (bitwise, on lines of more than one place); such a line's value is
    formatted once."""

    def __init__(self, values, table=None):
        self.values, self.table = values, table
        self.same = (_constant_lines(values) if values.shape[1] > 1 else
                     np.zeros(values.shape[0], dtype=bool))

    def _fields(self, values):
        return _floats(values) if self.table is None else self.table[values]

    def rows(self, i, j):
        """The fields of the nodes (i, j), i ascending."""
        same = self.same[i]
        if not same.any():
            return self._fields(self.values[i, j])
        # one value per x-line from i[0] to i[-1], then the rows off those
        # lines' constants
        lines = self.values[i[0]:i[-1] + 1, 0]
        loose = np.flatnonzero(~same)
        pick = i - i[0]
        pick[loose] = lines.size + np.arange(loose.size)
        return self._fields(np.concatenate(
            [lines, self.values[i[loose], j[loose]]]))[pick]


def _column(values) -> _Node:
    """A column of the ``str`` of each entry of an nx-by-ny array: the
    repr of a float, else through a table of the distinct entries."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return _Node(values.astype(float, copy=False))
    names, codes = np.unique(values, return_inverse=True)
    codes = codes.astype(np.min_scalar_type(len(names)))
    return _Node(codes.reshape(np.shape(values)),
                 _bytes(map(str, names.tolist())))


def _rows(parts, i, j) -> np.ndarray:
    """The uint8 matrix of the rows of nodes (i, j): each str part
    repeated, and each column's fields."""
    return np.concatenate([
        np.broadcast_to(np.frombuffer(p.encode(), dtype=np.uint8),
                        (i.size, len(p))) if isinstance(p, str)
        else p.rows(i, j) for p in parts], axis=1)


def _text(head: str, shape, parts) -> str:
    """``head``, then one row per node of an nx-by-ny lattice (x index
    outermost): ``parts`` are the row's separators (str) and columns.

    Rows are assembled ``_ROWS`` at a time as one uint8 matrix of fields,
    whose NUL bytes are dropped.  On a run of x-lines where every column
    but the ``_Place`` one holds one value, each line's parts before and
    after that column are assembled once, one row per line, and joined as
    text around the places' texts."""
    nx, ny = shape
    k = next((k for k, p in enumerate(parts) if isinstance(p, _Place)), None)
    flat = np.full(nx, k is not None)
    for p in parts:
        if isinstance(p, _Node):
            flat &= p.same
    if flat.any():
        places = _texts(parts[k].fields)
    out = [head]
    bounds = [0, *(np.flatnonzero(np.diff(flat)) + 1).tolist(), nx]
    for l0, l1 in zip(bounds, bounds[1:]):
        if flat[l0:l1].any():
            for a in range(l0, l1, _ROWS):
                i = np.arange(a, min(l1, a + _ROWS))
                heads, tails = (_texts(_rows(end, i, np.zeros_like(i)))
                                for end in (parts[:k], parts[k + 1:]))
                out += [h + (t + h).join(places) + t
                        for h, t in zip(heads, tails)]
            continue
        for r0 in range(l0 * ny, l1 * ny, _ROWS):
            i, j = np.divmod(np.arange(r0, min(l1 * ny, r0 + _ROWS)), ny)
            out.append(_packed(_rows(parts, i, j)).decode())
    return "".join(out)


def _lattice(xs, ys, *columns):
    """(shape, x column, y column) of a lattice whose nx-by-ny columns
    must all have that shape."""
    xs, ys = (np.asarray(a, dtype=float).ravel() for a in (xs, ys))
    shape = (xs.size, ys.size)
    for c in columns:
        if np.shape(c) != shape:
            raise ValueError(f"values of shape {np.shape(c)} do not fit a "
                             f"lattice of {shape[0]} by {shape[1]} nodes")
    return shape, _Line(_floats(xs, True)), _Place(_floats(ys, True))


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    """Grid CSV, header ``x,y,value``; rows row-major (x index outermost)."""
    shape, x, y = _lattice(xs, ys, values)
    return _text(GRID_HEADER + "\n", shape, [
        x, ",", y, ",", _Node(np.asarray(values, dtype=float)), "\n"])


def fluid_csv(xs: np.ndarray, ys: np.ndarray, parts, regimes) -> str:
    """Chaplygin-state CSV, header ``x,y,epsilon,rho,u,v,c,p,regime``, rows
    row-major: ``parts`` are the (epsilon, rho, u, v, c, p) arrays and
    ``regimes`` the regime names, all of shape (nx, ny)."""
    shape, x, y = _lattice(xs, ys, *parts, regimes)
    row = [x, ",", y]
    for c in (*parts, regimes):
        row += [",", _column(c)]
    return _text(FLUID_HEADER + "\n", shape, row + ["\n"])


def read_grid_csv(text: str) -> SampledGrid:
    """Rebuild a SampledGrid from grid CSV produced by ``grid_csv``: rows
    ``x,y,value`` of every node once, x index outermost."""
    head, _, body = text.strip().partition("\n")
    if head.strip() != GRID_HEADER or not body.strip():
        raise ValueError(f"expected header {GRID_HEADER!r} and rows below it")
    x, y, values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2).T
    xs, ys = np.unique(x), np.unique(y)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if not (np.array_equal(x, X.ravel()) and np.array_equal(y, Y.ravel())):
        raise ValueError("rows do not list every lattice node once with the "
                         "x index outermost")
    return SampledGrid(xs, ys, values.reshape(X.shape))


def _lattice_block(x, y) -> tuple[int, int]:
    """(nx, ny) of the longest leading block of samples that is a lattice:
    x constant along each of nx x-lines, and the first line's ny values of
    y repeated on every line, bit for bit (so -0.0 is not 0.0)."""
    x, y = x.view(np.int64), y.view(np.int64)
    if not x.size:
        return 0, 0
    ny = int(np.argmax(x != x[0])) or x.size  # x[0]'s run of rows
    nx = x.size // ny
    x, y = x[:nx * ny].reshape(nx, ny), y[:nx * ny].reshape(nx, ny)
    lines = (x == x[:, :1]).all(axis=1) & (y == y[0]).all(axis=1)
    return int(np.logical_and.accumulate(lines).sum()), ny


def causal_csv(samples: CausalSamples | list[CausalSample]) -> str:
    """Causal-sample CSV, header ``x,y,b,bx,by,class``.  A leading lattice
    block formats each x and each y once; the rows after it format every
    value."""
    s = CausalSamples.of(samples)
    nx, ny = _lattice_block(s.x, s.y)
    n = nx * ny
    classes = _bytes(c.value for c in CLASSES)
    lattice = [_Line(_floats(s.x[:n:max(ny, 1)], True)), ",",
               _Place(_floats(s.y[:ny], True))]
    for c in (s.b, s.bx, s.by):
        lattice += [",", _Node(c[:n].reshape(nx, ny))]
    text = _text(CAUSAL_HEADER + "\n", (nx, ny), lattice + [
        ",", _Node(s.code[:n].reshape(nx, ny), classes), "\n"])
    rest = []
    for c in s.columns[:5]:
        rest += [_Node(c[n:, None]), ","]
    return _text(text, (len(s) - n, 1),
                 rest + [_Node(s.code[n:, None], classes), "\n"])


def obj_text(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    """OBJ mesh of a height field: one ``v x y t`` line per node (row-major,
    x index outermost), each lattice cell split into two triangles wound
    counter-clockwise as seen from +t."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise NonFiniteValueError(
            f"refusing OBJ export: non-finite value at node "
            f"({int(bad[0])}, {int(bad[1])})")
    shape, x, y = _lattice(xs, ys, values)
    nx, ny = shape
    # the two triangles of each cell between x-lines i - 1 and i, from the
    # OBJ indices (1-based) of each x-line's nodes, formatted once per line
    row = ["f ", "", " ", "", " ", "", "\nf ", "", " ", "", " ", "", "\n"]
    row *= ny - 1
    faces, a = [], list(map(str, range(1, ny + 1)))
    for i in range(1, nx):
        b = list(map(str, range(i * ny + 1, (i + 1) * ny + 1)))
        row[1::13] = row[7::13] = a[:-1]
        row[3::13] = b[:-1]
        row[5::13] = row[9::13] = b[1:]
        row[11::13] = a[1:]
        faces.append("".join(row))
        a = b
    return "".join([_text("", shape, ["v ", x, " ", y, " ",
                                      _Node(values), "\n"]), *faces])


def dump_json(payload: dict) -> str:
    """``payload`` with the schema stamp, indented, keys sorted."""
    return json.dumps({"schema": SCHEMA, **payload}, indent=2,
                      sort_keys=True) + "\n"


def _records(header: str, rows) -> list[dict]:
    """One JSON object per row, keyed by the names of ``header``."""
    names = header.split(",")
    return [dict(zip(names, row, strict=True)) for row in rows]


def grid_text(fmt: str, xs, ys, values, **extra) -> str:
    """A lattice's values as grid CSV, an OBJ mesh or JSON ``{xs, ys,
    values}``; ``extra`` entries (``solve``'s report) are more JSON keys."""
    if fmt == "csv":
        return grid_csv(xs, ys, values)
    if fmt == "obj":
        return obj_text(xs, ys, values)
    return dump_json({k: np.asarray(a, dtype=float).tolist() for k, a in
                      (("xs", xs), ("ys", ys), ("values", values))} | extra)


def samples_text(fmt: str, samples: CausalSamples) -> str:
    """Causal samples as causal CSV or JSON ``{samples}``."""
    if fmt == "csv":
        return causal_csv(samples)
    return dump_json({"samples": _records(CAUSAL_HEADER, zip(
        *(c.tolist() for c in samples.columns[:5]), samples.names.tolist()))})


def fluid_text(fmt: str, xs, ys, parts) -> str:
    """Chaplygin states, ``parts`` the (epsilon, rho, u, v, c, p) arrays of
    shape (nx, ny), as fluid CSV or JSON ``{states}``; the regime is read
    from epsilon."""
    regimes = np.where(parts[0] > 0, FlowRegime.SUBSONIC.value,
                       FlowRegime.SUPERSONIC.value)
    if fmt == "csv":
        return fluid_csv(xs, ys, parts, regimes)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return dump_json({"states": _records(FLUID_HEADER, zip(
        *(np.ravel(a).tolist() for a in (X, Y, *parts, regimes))))})


def lines_text(lines: list[LightLine]) -> str:
    """JSON report ``{lines}`` of fitted light-like lines."""
    return dump_json({"lines": _records(LINE_KEYS, (
        (list(ln.base), list(ln.direction), list(ln.lifted), len(ln.samples),
         ln.perp_residual, ln.lightlike_defect, ln.verified)
        for ln in lines))})
