"""Serialization: grid CSV, causal-sample CSV, light-line JSON, OBJ meshes.

All writers are deterministic (shortest round-trip float formatting, fixed
row-major node order, no timestamps) so identical inputs give byte-identical
files.  Floats are written with ``%r`` (``repr``, the shortest round-trip
form) from row templates; the lattice writers fill them from ``tolist()``
of one node table, so no writer makes a numpy scalar per node.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .errors import NonFiniteValueError
from .exprfield import SampledGrid
from .geometry import CausalSample, LightLine

__all__ = [
    "grid_csv",
    "causal_csv",
    "lightlines_payload",
    "obj_text",
    "read_grid_csv",
]

GRID_HEADER = "x,y,value"
CAUSAL_HEADER = "x,y,b,bx,by,class"
ROWS_PER_CALL = 4096


def _fill(template: str, part: np.ndarray) -> str:
    """``template % row`` for each row of a 2-d table, as one string."""
    return (template * len(part)) % tuple(part.ravel().tolist())


def _rows(template: str, table: np.ndarray) -> list[str]:
    """``_fill`` of a table, as one string per ROWS_PER_CALL rows, so the
    Python numbers alive at once stay few."""
    return [_fill(template, part)
            for part in np.split(table, range(ROWS_PER_CALL, len(table),
                                              ROWS_PER_CALL))]


def _node_table(xs, ys, values) -> np.ndarray:
    """Rows (x, y, value) of every node, row-major (x index outermost)."""
    X, Y = np.meshgrid(np.asarray(xs, dtype=float),
                       np.asarray(ys, dtype=float), indexing="ij")
    return np.stack([X, Y, np.asarray(values, dtype=float)],
                    axis=-1).reshape(-1, 3)


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    """Grid CSV, header ``x,y,value``; rows row-major (x index outermost)."""
    return "".join([GRID_HEADER + "\n",
                    *_rows("%r,%r,%r\n", _node_table(xs, ys, values))])


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


def causal_csv(samples: list[CausalSample]) -> str:
    """Causal-sample CSV, header ``x,y,b,bx,by,class``."""
    # a sample's fields are read one by one anyway, so a tolist() table
    # would only add copies (it measured slower on 16,705 samples)
    row = "%r,%r,%r,%r,%r,%s\n"
    return CAUSAL_HEADER + "\n" + "".join([
        row % (float(s.x), float(s.y), float(s.b), float(s.bx), float(s.by),
               s.cls.value) for s in samples])


def lightlines_payload(lines: list[LightLine]) -> dict:
    """JSON-ready report of fitted light-like lines."""
    return {
        "schema": 1,
        "lines": [
            {
                "base": [ln.base[0], ln.base[1]],
                "direction": [ln.direction[0], ln.direction[1]],
                "lifted": [ln.lifted[0], ln.lifted[1], ln.lifted[2]],
                "sample_count": len(ln.samples),
                "perp_residual": ln.perp_residual,
                "lightlike_defect": ln.lightlike_defect,
                "verified": ln.verified,
            }
            for ln in lines
        ],
    }


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
    cells = (nx - 1) * (ny - 1)
    faces = []
    for start in range(0, cells, ROWS_PER_CALL):  # one chunk's table at a time
        k = np.arange(start, min(start + ROWS_PER_CALL, cells))
        # cell k = i * (ny - 1) + j has its corner at node i * ny + j = k + i
        a = k + k // (ny - 1) + 1  # OBJ indices are 1-based
        faces.append(_fill("f %d %d %d\nf %d %d %d\n", np.stack(
            [a, a + ny, a + ny + 1, a, a + ny + 1, a + 1], axis=-1)))
    return "".join([*_rows("v %r %r %r\n", _node_table(xs, ys, values)),
                    *faces])


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
