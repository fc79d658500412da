"""Serialization: grid, fluid and causal CSV, light-line JSON, OBJ meshes.

All writers are deterministic (shortest round-trip float formatting, fixed
row-major node order, no timestamps) so identical inputs give byte-identical
files.  Floats are written with ``%r`` (``repr``, the shortest round-trip
form) from row templates; each lattice x-line's template holds every
coordinate written once, filled from ``tolist()`` of that line's values.
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
    "fluid_csv",
    "causal_csv",
    "lightlines_payload",
    "obj_text",
    "read_grid_csv",
]

GRID_HEADER = "x,y,value"
CAUSAL_HEADER = "x,y,b,bx,by,class"


def _line_rows(head: str, tail: str, xs, ys, *columns) -> list[str]:
    """One string per x-line (x index outermost) of the rows ``head +
    repr(x) + tail``; ``tail``'s first slot takes y, its ``%%`` slots the
    node's entries of ``columns`` (nx-by-ny arrays).  Each coordinate is
    formatted once, as a float (numpy 2 reprs ``np.float64(...)``)."""
    xs, ys = (np.asarray(a, dtype=float).tolist() for a in (xs, ys))
    # a float's repr holds no %, so the filled y parts need no escaping
    pieces = [head, *[tail % y + head for y in ys]]
    pieces[-1] = pieces[-1].removesuffix(head)
    k, out = len(columns), []
    row = [None] * (k * len(ys))
    for x, *line in zip(xs, *columns, strict=True):
        for at, part in enumerate(line):  # the columns interleaved per node
            row[at::k] = part.tolist()
        out.append(repr(x).join(pieces) % tuple(row))
    return out


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    """Grid CSV, header ``x,y,value``; rows row-major (x index outermost)."""
    return "".join([GRID_HEADER + "\n", *_line_rows(
        "", ",%r,%%r\n", xs, ys, np.asarray(values, dtype=float))])


def fluid_csv(xs: np.ndarray, ys: np.ndarray, parts, regimes) -> str:
    """Chaplygin-state CSV, header ``x,y,epsilon,rho,u,v,c,p,regime``, rows
    row-major: ``parts`` are the (epsilon, rho, u, v, c, p) arrays and
    ``regimes`` the regime names, all of shape (nx, ny)."""
    return "".join(["x,y,epsilon,rho,u,v,c,p,regime\n", *_line_rows(
        "", ",%r,%%s,%%r,%%r,%%r,%%r,%%r,%%s\n", xs, ys, *parts, regimes)])


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
    faces = []
    for i in range(nx - 1):  # the two triangles of each cell of x-line i
        a = np.arange(i * ny + 1, (i + 1) * ny)  # OBJ indices are 1-based
        faces.append("f %d %d %d\nf %d %d %d\n" * (ny - 1) % tuple(np.stack(
            [a, a + ny, a + ny + 1, a, a + ny + 1, a + 1],
            axis=-1).ravel().tolist()))
    return "".join([*_line_rows("v ", " %r %%r\n", xs, ys, values), *faces])


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
