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
files.  Floats are written as their ``repr`` (the shortest round-trip form)
from row templates; each lattice x-line's template holds every coordinate
written once, filled from ``tolist()`` of that line's values, or from one
string where a value column is constant along the line.

The causal writer takes ``CausalSamples`` (or a list of ``CausalSample``).
Its leading lattice block, x constant along each x-line and the same y on
every line, bit for bit, goes through the lattice templates with the class
name as one more column; the samples after it fill one row template per
chunk of rows.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .duality import FlowRegime
from .errors import NonFiniteValueError
from .exprfield import SampledGrid
from .geometry import CausalSample, CausalSamples, LightLine

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
#: rows per format call of the causal writer's rows off the lattice
_CHUNK = 4096


def _constant_lines(column) -> np.ndarray:
    """Whether each x-line of an nx-by-ny array holds one value throughout,
    bit for bit for floats (-0.0 and 0.0 print differently)."""
    c = np.asarray(column)
    if c.dtype.kind == "f":
        c = c.view(f"i{c.itemsize}")
    return (c == c[:, :1]).all(axis=1) & (c.shape[1] > 0)


def _line_rows(head: str, tail: str, xs, ys, *columns) -> list[str]:
    """One string per x-line (x index outermost) of the rows ``head +
    repr(x) + tail``; ``tail``'s first slot takes y, its ``%%s`` slots the
    node's entries of ``columns`` (nx-by-ny arrays; ``str`` of a float is
    its repr).  Each coordinate is formatted once, as a float (numpy 2
    reprs ``np.float64(...)``), and so is an entry of a column that is
    constant along its x-line."""
    xs, ys = (np.asarray(a, dtype=float).tolist() for a in (xs, ys))
    # a float's repr holds no %, so the filled y parts need no escaping
    pieces = [head, *[tail % y + head for y in ys]]
    pieces[-1] = pieces[-1].removesuffix(head)
    k, out = len(columns), []
    row = [None] * (k * len(ys))
    constant = zip(*map(_constant_lines, columns))
    for x, line, same in zip(xs, zip(*columns, strict=True), constant,
                             strict=True):
        for at, (part, one) in enumerate(zip(line, same)):
            # the columns interleaved per node
            row[at::k] = ([str(part.item(0))] * part.size if one
                          else part.tolist())
        out.append(repr(x).join(pieces) % tuple(row))
    return out


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    """Grid CSV, header ``x,y,value``; rows row-major (x index outermost)."""
    return "".join([GRID_HEADER + "\n", *_line_rows(
        "", ",%r,%%s\n", xs, ys, np.asarray(values, dtype=float))])


def fluid_csv(xs: np.ndarray, ys: np.ndarray, parts, regimes) -> str:
    """Chaplygin-state CSV, header ``x,y,epsilon,rho,u,v,c,p,regime``, rows
    row-major: ``parts`` are the (epsilon, rho, u, v, c, p) arrays and
    ``regimes`` the regime names, all of shape (nx, ny)."""
    return "".join([FLUID_HEADER + "\n", *_line_rows(
        "", ",%r" + ",%%s" * 7 + "\n", xs, ys, *parts, regimes)])


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
    block goes through the per-line templates of ``_line_rows``; the rows
    after it fill one row template per chunk of rows."""
    s = CausalSamples.of(samples)
    nx, ny = _lattice_block(s.x, s.y)
    n, names = nx * ny, s.names
    out = [CAUSAL_HEADER + "\n"]
    if n:
        out += _line_rows("", ",%r" + ",%%s" * 4 + "\n", s.x[:n:ny], s.y[:ny],
                          *(a[:n].reshape(nx, ny)
                            for a in (s.b, s.bx, s.by, names)))
    columns = (*s.columns[:5], names)
    for at in range(n, len(s), _CHUNK):
        part = [c[at:at + _CHUNK].tolist() for c in columns]
        row = [None] * (6 * len(part[0]))
        for k, col in enumerate(part):
            row[k::6] = col
        out.append("%r,%r,%r,%r,%r,%s\n" * len(part[0]) % tuple(row))
    return "".join(out)


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
    nx, ny = values.shape
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
    return "".join([*_line_rows("v ", " %r %%s\n", xs, ys, values), *faces])


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
