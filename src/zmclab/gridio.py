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
them all: a row is separators and columns of three kinds, floats, codes
into a table of fields (x by its x-line, the fluid epsilon and regime by
epsilon's sign, the causal class) and places (y and the separators).  It
works in passes of whole x-lines, each holding about 12k floats, which take
one formatter call, as both axes take one; a pass's rows are one uint8
block of NUL-padded fields, NUL bytes dropped.  A column constant along an
x-line (bitwise, so -0.0 is not 0.0) takes its field once for that line; a
run of x-lines on which every column but y is constant is written as text,
each line's two ends joined around the y fields.

The causal writer takes ``CausalSamples``.  Its leading lattice block, x
constant along each x-line and the same y on every line, bit for bit, is
written as a lattice; the samples after it as rows of one value per
column.  The OBJ faces are integers, written from each x-line's node
indices.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .duality import FlowRegime
from .errors import NonFiniteValueError
from .exprfield import SampledGrid
from .geometry import CLASSES, CausalSamples, LightLine

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
#: float values formatted per pass: three of ``_floatrepr.CHUNK``
_PASS = 3 * 4096
#: epsilon and the flow regime of each sign code: 0 for +1, 1 for -1
_EPSILONS = (1, -1)
_REGIMES = (FlowRegime.SUBSONIC.value, FlowRegime.SUPERSONIC.value)


def _bytes(texts) -> np.ndarray:
    """The UTF-8 bytes of each text, NUL-padded, as a (len, width) uint8
    array."""
    raw = [t.encode() for t in texts]
    out = np.zeros((len(raw), max(map(len, raw), default=0)), dtype=np.uint8)
    for row, text in zip(out, raw):
        row[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _floats(values) -> np.ndarray:
    """The repr fields of float values, in one formatter call."""
    from . import _floatrepr
    return _floatrepr.fields(values)


def _packed(rows) -> bytes:
    """The bytes of a uint8 array, row after row, NUL bytes dropped."""
    return rows.tobytes().translate(None, b"\0")


def _texts(rows) -> list[str]:
    """The text of each row of a uint8 array, NUL bytes dropped."""
    rows = rows.reshape(len(rows), -1)
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    data = _packed(rows)
    return [data[a:b].decode() for a, b in zip([0, *ends], ends)]


class _Place:
    """A column whose row at place j of every x-line reads ``fields[j]``;
    a separator is one of a single field, which every place repeats."""

    def __init__(self, fields):
        self.fields, self.width = fields, fields.shape[1]

    def put(self, out, a, b):
        out[...] = self.fields


class _Node:
    """A column of an nx-by-ny array: floats, or codes into a ``table`` of
    fields.  ``same`` marks the x-lines that hold one value throughout
    (bit for bit, as -0.0 and 0.0 print differently, on lines of more than
    one place); such a line's field is formatted or looked up once."""

    def __init__(self, values, table=None):
        self.values, self.table = values, table
        c = values.view(f"i{values.itemsize}") if table is None else values
        self.same = (c == c[:, :1]).all(axis=1) & (values.shape[1] > 1)

    def pick(self, a, b) -> np.ndarray:
        """The values whose fields a pass over x-lines a..b takes: the
        nodes of the lines that vary, then one per line that does not."""
        v, same = self.values[a:b], self.same[a:b]
        self.start, self.ends = a, np.concatenate(([0], np.cumsum(~same)))
        return np.concatenate((v[~same].ravel(), v[same, 0]))

    def load(self, fields):
        """Take the fields of the pass's ``pick``."""
        lines, ny = self.ends[-1], self.values.shape[1]
        self.width = fields.shape[1]
        self.vary = fields[:lines * ny].reshape(lines, ny, self.width)
        self.const = fields[lines * ny:]

    def put(self, out, a, b):
        """The fields of x-lines a..b of the loaded pass at their first
        ``out.shape[1]`` places."""
        same, i0, i1 = self.same[a:b], a - self.start, b - self.start
        v0, v1 = self.ends[i0], self.ends[i1]
        out[~same] = self.vary[v0:v1, :out.shape[1]]
        out[same] = self.const[i0 - v0:i1 - v1, None]


def _block(parts, a, b, places) -> np.ndarray:
    """The (b - a, places, width) uint8 block of the rows of x-lines a..b
    at their first ``places`` places: ``_Place`` fields along axis 1,
    node fields in place."""
    out = np.empty((b - a, places, sum(p.width for p in parts)),
                   dtype=np.uint8)
    at = 0
    for p in parts:
        p.put(out[:, :, at:at + p.width], a, b)
        at += p.width
    return out


def _text(head: str, shape, parts) -> str:
    """``head``, then one row per node of an nx-by-ny lattice (x index
    outermost): ``parts`` are the row's separators (str) and columns.

    A pass takes whole x-lines, as many as hold ``_PASS`` floats (at least
    one line): of each column, the nodes of the lines that vary and one
    value per line that does not, floats formatted in one call and codes
    looked up.  Its rows are one uint8 block of fields, NULs dropped.  On a run
    of x-lines where every column but the ``_Place`` one holds one value,
    each line's parts before and after that column make a block of one
    place per line, joined as text around the places' texts."""
    nx, ny = shape
    k = next((k for k, p in enumerate(parts) if isinstance(p, _Place)), None)
    parts = [_Place(np.frombuffer(p.encode(), dtype=np.uint8)[None])
             if isinstance(p, str) else p for p in parts]
    nodes = [p for p in parts if isinstance(p, _Node)]
    floats = [p for p in nodes if p.table is None]
    flat = np.all([np.full(nx, k is not None), *(p.same for p in nodes)], 0)
    places = _texts(parts[k].fields) if flat.any() else None
    cuts = np.flatnonzero(np.diff(flat)) + 1
    # the floats formatted before each x-line
    ends = np.concatenate(([0], np.cumsum(sum(np.where(p.same, 1, ny)
                                              for p in floats))))
    out, l0 = [head], 0
    while l0 < nx:
        l1 = max(l0 + 1, int(np.searchsorted(ends, ends[l0] + _PASS,
                                             "right")) - 1)
        values = [p.pick(l0, l1) for p in floats]
        for p, f in zip(floats, np.split(_floats(np.concatenate(values)),
                                         np.cumsum([v.size for v in values]))):
            p.load(f)
        for p in nodes:
            if p.table is not None:
                p.load(p.table[p.pick(l0, l1)])
        bounds = [l0, *cuts[(cuts > l0) & (cuts < l1)].tolist(), l1]
        for a, b in zip(bounds, bounds[1:]):
            if not flat[a]:
                out.append(_packed(_block(parts, a, b, ny)).decode())
                continue
            heads, tails = (_texts(_block(end, a, b, 1))
                            for end in (parts[:k], parts[k + 1:]))
            out += [h + (t + h).join(places) + t
                    for h, t in zip(heads, tails)]
        l0 = l1
    return "".join(out)


def _lattice(xs, ys, *columns):
    """(shape, x, y) of a lattice whose nx-by-ny columns must all have that
    shape: x as the codes of its x-lines into a table of fields, and y as a
    ``_Place``, from one formatter call; every row gathers one of each, so
    both drop the NUL columns past their widest field."""
    xs, ys = (np.asarray(a, dtype=float).ravel() for a in (xs, ys))
    nx, ny = xs.size, ys.size
    for c in columns:
        if np.shape(c) != (nx, ny):
            raise ValueError(f"values of shape {np.shape(c)} do not fit a "
                             f"lattice of {nx} by {ny} nodes")
    f = _floats(np.concatenate((xs, ys)))
    x, y = (a[:, :np.max(np.flatnonzero(a.any(axis=0)), initial=-1) + 1]
            for a in (f[:nx], f[nx:]))
    lines = np.arange(nx, dtype=np.min_scalar_type(nx))[:, None]
    x = _Node(np.broadcast_to(lines, (nx, ny)), x)
    return (nx, ny), x, _Place(y)


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    """Grid CSV, header ``x,y,value``; rows row-major (x index outermost)."""
    shape, x, y = _lattice(xs, ys, values)
    return _text(GRID_HEADER + "\n", shape, [
        x, ",", y, ",", _Node(np.asarray(values, dtype=float)), "\n"])


def _sign_codes(eps) -> np.ndarray:
    """0 where epsilon is +1 and 1 where it is -1; a ValueError names the
    first node that holds anything else."""
    minus = np.equal(eps, -1)
    bad = ~minus & np.not_equal(eps, 1)
    if bad.any():
        raise ValueError("epsilon is not +1 or -1 at node "
                         f"{tuple(np.argwhere(bad)[0].tolist())}")
    return minus.view(np.uint8)


def fluid_csv(xs: np.ndarray, ys: np.ndarray, parts) -> str:
    """Chaplygin-state CSV, header ``x,y,epsilon,rho,u,v,c,p,regime``, rows
    row-major: ``parts`` are the (epsilon, rho, u, v, c, p) arrays of shape
    (nx, ny).  Epsilon must be +1 or -1; it prints as ``1`` or ``-1``, and
    the regime is read from it."""
    shape, x, y = _lattice(xs, ys, *parts)
    sign = _sign_codes(parts[0])
    row = [x, ",", y, ",", _Node(sign, _bytes(map(str, _EPSILONS)))]
    for c in parts[1:]:
        row += [",", _Node(np.asarray(c, dtype=float))]
    return _text(FLUID_HEADER + "\n", shape,
                 row + [",", _Node(sign, _bytes(_REGIMES)), "\n"])


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


def causal_csv(samples: CausalSamples) -> str:
    """Causal-sample CSV, header ``x,y,b,bx,by,class``.  A leading lattice
    block formats each x and each y once; the rows after it format every
    value."""
    nx, ny = _lattice_block(samples.x, samples.y)
    n = nx * ny
    classes = _bytes(c.value for c in CLASSES)
    _, x, y = _lattice(samples.x[:n:max(ny, 1)], samples.y[:ny])
    lattice = [x, ",", y]
    for c in (samples.b, samples.bx, samples.by):
        lattice += [",", _Node(c[:n].reshape(nx, ny))]
    text = _text(CAUSAL_HEADER + "\n", (nx, ny), lattice + [
        ",", _Node(samples.code[:n].reshape(nx, ny), classes), "\n"])
    rest = []
    for c in samples.columns[:5]:
        rest += [_Node(c[n:, None]), ","]
    return _text(text, (len(samples) - n, 1),
                 rest + [_Node(samples.code[n:, None], classes), "\n"])


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
    shape (nx, ny), as fluid CSV or JSON ``{states}``; epsilon must be +1
    or -1, and the regime is read from it."""
    if fmt == "csv":
        return fluid_csv(xs, ys, parts)
    sign = _sign_codes(parts[0])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return dump_json({"states": _records(FLUID_HEADER, zip(
        *(np.ravel(a).tolist() for a in (
            X, Y, np.take(_EPSILONS, sign), *parts[1:],
            np.take(_REGIMES, sign)))))})


def lines_text(lines: list[LightLine]) -> str:
    """JSON report ``{lines}`` of fitted light-like lines."""
    return dump_json({"lines": _records(LINE_KEYS, (
        (list(ln.base), list(ln.direction), list(ln.lifted), len(ln.samples),
         ln.perp_residual, ln.lightlike_defect, ln.verified)
        for ln in lines))})
