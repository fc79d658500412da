"""CLI verbs, exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zmclab
from zmclab import catalog, cli
from zmclab.cli import run
from zmclab.gridio import (causal_csv, dump_json, fluid_csv, fluid_text,
                           grid_csv, grid_text, lines_text, obj_text,
                           read_grid_csv, samples_text)
from zmclab.errors import NonFiniteValueError
from zmclab.geometry import (CausalClass, CausalSample, CausalSamples,
                             LightLine, minimal_residual_of_jet)


def _read(path):
    return path.read_text()


# --------------------------------------------------------------------------
# classify / detect / verify-lines
# --------------------------------------------------------------------------

def test_classify_emits_degenerate_rows_near_cos_zeros(tmp_path):
    out = tmp_path / "cls.csv"
    code = run(["classify", "--field", "y + sin(x)",
                "--domain", "0,6.4,-1,1", "--res", "129,33",
                "--out", str(out)])
    assert code == 0
    rows = _read(out).strip().splitlines()
    assert rows[0] == "x,y,b,bx,by,class"
    deg = [r for r in rows if r.endswith("light-like-degenerate")]
    assert deg
    for r in deg:
        x = float(r.split(",")[0])
        assert min(abs(x - math.pi / 2), abs(x - 3 * math.pi / 2)) < 1e-7
    meta = json.loads(_read(tmp_path / "cls.csv.meta.json"))
    assert meta["schema"] == 1
    assert meta["config"]["res"] == [129, 33]


def test_detect_csv(tmp_path):
    out = tmp_path / "det.csv"
    assert run(["detect", "--field", "y + x^2", "--domain=-1,1,-1,1",
                "--res", "41,9", "--out", str(out)]) == 0
    rows = _read(out).strip().splitlines()[1:]
    assert rows
    assert all(abs(float(r.split(",")[0])) < 1e-9 for r in rows)


def test_verify_lines_json(tmp_path):
    out = tmp_path / "lines.json"
    assert run(["verify-lines", "--field", "y + x^2",
                "--domain=-1,1,-1,1", "--res", "41,9",
                "--out", str(out)]) == 0
    doc = json.loads(_read(out))
    assert doc["schema"] == 1
    assert len(doc["lines"]) == 1
    line = doc["lines"][0]
    assert line["verified"] is True
    assert line["lifted"] == pytest.approx([0.0, 1.0, 1.0], abs=1e-10)


# --------------------------------------------------------------------------
# residual / curvature / fluid
# --------------------------------------------------------------------------

def test_residual_grid(tmp_path):
    out = tmp_path / "res.csv"
    assert run(["residual", "--field", "y + exp(x)",
                "--domain=-1,1,-1,1", "--res", "9,9",
                "--out", str(out)]) == 0
    grid = read_grid_csv(_read(out))
    assert float(np.max(np.abs(grid.values))) < 1e-12
    meta = json.loads(_read(tmp_path / "res.csv.meta.json"))
    assert meta["max_abs"] < 1e-12


@pytest.mark.parametrize("argv", [
    ["classify", "--field", "0.3*x + 0.4*y", "--tol-light", "nan"],
    ["classify", "--field", "0.3*x + 0.4*y", "--tol-grad", "inf"],
    ["detect", "--field", "y + x^2", "--tol-light", "0"],
    ["verify-lines", "--field", "y + x^2", "--tol-grad", "nan"],
    ["curvature", "--field", "x", "--tol-light", "nan"],
    ["fluid", "--field", "0.3*x + 0.4*y", "--tol-light", "-1"],
], ids=["classify-nan", "classify-grad-inf", "detect-zero",
        "verify-lines-grad-nan", "curvature-nan", "fluid-negative"])
def test_bad_tolerance_is_invalid_input(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run([*argv, "--domain=-1,1,-1,1", "--res", "9,9",
                "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"
    assert not out.exists()


def test_curvature_errors_on_lightlike_lattice(tmp_path):
    code = run(["curvature", "--field", "y + x^2", "--kind", "mean",
                "--domain=-1,1,-1,1", "--res", "9,9",
                "--out", str(tmp_path / "h.csv")])
    assert code == 1  # lattice crosses the degenerate line


def test_curvature_gauss(tmp_path):
    out = tmp_path / "k.csv"
    assert run(["curvature", "--field", "(x^2 + y^2)/2", "--kind", "gauss",
                "--domain=-1,1,-1,1", "--res", "9,9",
                "--out", str(out)]) == 0
    grid = read_grid_csv(_read(out))
    i = int(np.argwhere(np.isclose(grid.xs, 0.0))[0][0])
    j = int(np.argwhere(np.isclose(grid.ys, 0.0))[0][0])
    assert grid.values[i, j] == pytest.approx(1.0, abs=1e-12)


def test_fluid_csv(tmp_path):
    out = tmp_path / "fluid.csv"
    assert run(["fluid", "--field", "0.3*x + 0.4*y",
                "--domain=-1,1,-1,1", "--res", "5,5",
                "--out", str(out)]) == 0
    rows = _read(out).strip().splitlines()
    assert rows[0] == "x,y,epsilon,rho,u,v,c,p,regime"
    first = rows[1].split(",")
    assert first[-1] == "sub-sonic"
    rho, c = float(first[3]), float(first[6])
    assert rho * c == pytest.approx(1.0, abs=1e-12)


def test_fluid_sonic_exit_code(tmp_path):
    code = run(["fluid", "--field", "y + x^2", "--domain=-1,1,-1,1",
                "--res", "5,5", "--out", str(tmp_path / "f.csv")])
    assert code == 1


@pytest.mark.parametrize("verb, error, message", [
    (["curvature", "--kind", "mean"], "light-like-point",
     "mean curvature undefined at light-like point (0.0, -1.0)"),
    (["fluid"], "sonic-point",
     "flow state undefined at sonic point (0.0, -1.0)"),
])
def test_lightlike_node_named_in_row_major_order(tmp_path, capsys, verb,
                                                 error, message):
    # B = -4x^2 vanishes on the column x = 0; its first node is at y = -1
    assert run([*verb, "--field", "y + x^2", "--domain=-1,1,-1,1",
                "--res", "9,9", "--out", str(tmp_path / "o.csv")]) == 1
    doc = json.loads(capsys.readouterr().err)
    assert (doc["error"], doc["message"]) == (error, message)


def test_curvature_and_fluid_match_point_queries(tmp_path):
    # the verbs take one lattice jet; every node matches the point-query
    # functions bit for bit, in the rows the per-point verbs wrote
    from zmclab import Rect, field_from_text
    from zmclab.duality import chaplygin_state
    from zmclab.geometry import gauss_curvature_euclid, mean_curvature
    text = "-asinh(sqrt(x^2 + y^2))"
    f = field_from_text(text, Rect(1, 2, 1, 2))
    xs, ys = f.domain.lattice(9, 7)
    for kind, point in (("mean", mean_curvature),
                        ("gauss", gauss_curvature_euclid)):
        out = tmp_path / f"{kind}.csv"
        assert run(["curvature", f"--field={text}", "--kind", kind,
                    "--domain", "1,2,1,2", "--res", "9,7",
                    "--out", str(out)]) == 0
        got = read_grid_csv(_read(out)).values
        assert np.array_equal(got, [[point(f, x, y) for y in ys] for x in xs])
    out = tmp_path / "fluid.csv"
    assert run(["fluid", f"--field={text}", "--p0", "0.5", "--domain",
                "1,2,1,2", "--res", "9,7", "--out", str(out)]) == 0
    rows = []
    for x in xs:
        for y in ys:
            st = chaplygin_state(f, x, y, p0=0.5)
            rows.append(",".join([
                repr(float(x)), repr(float(y)), str(st.epsilon),
                repr(st.rho), repr(st.velocity[0]), repr(st.velocity[1]),
                repr(st.sound_speed), repr(st.pressure), st.regime.value]))
    assert _read(out).splitlines()[1:] == rows


# --------------------------------------------------------------------------
# dualize / solve / export
# --------------------------------------------------------------------------

def test_dualize_against_closed_form(tmp_path):
    out = tmp_path / "dual.csv"
    base_value = -math.asinh(math.sqrt(2.0))
    assert run(["dualize", "--field", "atan2(y,x)",
                "--direction", "to-stream", "--epsilon", "+1",
                "--domain", "1,2,1,2", "--res", "33,33",
                "--base", "1,1", "--base-value", str(base_value),
                "--out", str(out)]) == 0
    grid = read_grid_csv(_read(out))
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    exact = -np.arcsinh(np.sqrt(X ** 2 + Y ** 2))
    assert float(np.max(np.abs(grid.values - exact))) < 1e-7
    meta = json.loads(_read(tmp_path / "dual.csv.meta.json"))
    assert meta["path_independence_defect"] < 1e-8


def test_dualize_nonexact_exit_and_code(tmp_path):
    code = run(["dualize", "--field", "y + x*y", "--epsilon", "-1",
                "--domain", "0.5,1.5,0.5,1.5", "--res", "17,17",
                "--base", "1,1", "--out", str(tmp_path / "bad.csv")])
    assert code == 1


def test_solve_csv_and_obj(tmp_path):
    csv_out = tmp_path / "sol.csv"
    assert run(["solve", "--equation", "maximal",
                "--boundary=-asinh(sqrt(x^2+y^2))",
                "--domain", "1,2,1,2", "--res", "9,9",
                "--out", str(csv_out)]) == 0
    meta = json.loads(_read(tmp_path / "sol.csv.meta.json"))
    assert meta["report"]["status"] == "converged"

    obj_out = tmp_path / "sol.obj"
    assert run(["solve", "--equation", "maximal",
                "--boundary=-asinh(sqrt(x^2+y^2))",
                "--domain", "1,2,1,2", "--res", "9,9", "--format", "obj",
                "--out", str(obj_out)]) == 0
    text = _read(obj_out)
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 81
    assert sum(1 for ln in text.splitlines() if ln.startswith("f ")) == 128


def test_solve_sidecar_byte_identical_across_runs(tmp_path):
    args = ["solve", "--equation", "maximal",
            "--boundary=-asinh(sqrt(x^2+y^2))", "--domain", "1,2,1,2",
            "--res", "33,33"]
    metas = []
    for name in ("a.csv", "b.csv"):
        assert run(args + ["--out", str(tmp_path / name)]) == 0
        metas.append((tmp_path / f"{name}.meta.json").read_bytes()
                     .replace(name.encode(), b""))
    assert metas[0] == metas[1]
    report = json.loads(metas[0])["report"]
    assert report["krylov_iterations"] == [3, 4, 8]
    assert len(report["krylov_tolerances"]) == 3
    assert report["krylov_tolerances"][0] == 1e-3


def test_solve_problem_file(tmp_path):
    # tolerances.linear is still accepted, and ignored
    doc = {"equation": "minimal", "domain": [1, 2, 1, 2],
           "resolution": [9, 9], "boundary": "0.5*x - y",
           "tolerances": {"newton": 1e-11, "linear": 1e-6}}
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(doc))
    out = tmp_path / "sol.csv"
    assert run(["solve", "--problem", str(pfile), "--out", str(out)]) == 0
    grid = read_grid_csv(_read(out))
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    assert float(np.max(np.abs(grid.values - (0.5 * X - Y)))) < 1e-12


def test_steep_minimal_solve_stops_at_floor(tmp_path):
    # 1e-10 lies below what rounding puts into this residual; the floor
    # weighs the coefficients 1 + p^2 and the solve stops there
    out = tmp_path / "steep.csv"
    assert run(["solve", "--equation", "minimal", "--boundary",
                "10*x + sin(y)", "--domain", "0,1,0,1", "--res", "33,33",
                "--out", str(out)]) == 0
    report = json.loads(_read(tmp_path / "steep.csv.meta.json"))["report"]
    assert report["converged_by"] == "residual_floor"
    assert report["final_residual"] < report["residual_floor"]


_PROBLEM = {"equation": "minimal", "domain": [1, 2, 1, 2],
            "resolution": [9, 9], "boundary": "x"}


@pytest.mark.parametrize("doc", [
    [_PROBLEM],
    dict(_PROBLEM, resolution=5),
    dict(_PROBLEM, resolution=[9.5, 9]),
    dict(_PROBLEM, tolerances=5),
    dict(_PROBLEM, tolerances={"newton": "1e-8"}),
    dict(_PROBLEM, tolerances={"newton": 0}),
    dict(_PROBLEM, domain=[1, 2, 1]),
    dict(_PROBLEM, domain=[1, 2, "a", "b"]),
    dict(_PROBLEM, domain=[1, math.inf, 1, 2]),
    dict(_PROBLEM, boundary=5),
    dict(_PROBLEM, boundary=["x"]),
    dict(_PROBLEM, params=5),
    dict(_PROBLEM, boundary="a*x", params={"a": None}),
    dict(_PROBLEM, boundary="a*x", params={"a": [1]}),
    dict(_PROBLEM, boundary="a*x", params={"a": "2"}),
    dict(_PROBLEM, boundary="a*x", params={"a": True}),
    {k: v for k, v in _PROBLEM.items() if k != "equation"},
    {k: v for k, v in _PROBLEM.items() if k != "domain"},
    {k: v for k, v in _PROBLEM.items() if k != "resolution"},
    {k: v for k, v in _PROBLEM.items() if k != "boundary"},
    dict(_PROBLEM, equation="timelike"),
], ids=["list", "resolution-int", "resolution-float", "tolerances-int",
        "newton-string", "newton-zero", "domain-three", "domain-strings",
        "domain-infinity",
        "boundary-number", "boundary-list", "params-number",
        "params-null", "params-list", "params-string", "params-bool",
        "no-equation", "no-domain", "no-resolution", "no-boundary",
        "equation-timelike"])
def test_malformed_problem_file_is_invalid_input(tmp_path, capsys, doc):
    pfile = tmp_path / "problem.json"
    pfile.write_text(json.dumps(doc))
    assert run(["solve", "--problem", str(pfile),
                "--out", str(tmp_path / "sol.csv")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-input"
    # all but these two fail the file check, before a constructor's own
    if doc not in (dict(_PROBLEM, tolerances={"newton": 0}),
                   dict(_PROBLEM, domain=[1, math.inf, 1, 2])):
        assert err["message"].startswith(
            "a problem file is a JSON object with 'equation' 'minimal' or "
            "'maximal', 'resolution' two integers, 'domain' four numbers, "
            "'boundary' a string, 'params' (if given) an object of numbers")


def test_solve_violation_exit_code(tmp_path):
    code = run(["solve", "--equation", "maximal", "--boundary", "y + x^2",
                "--domain=-1,1,-1,1", "--res", "9,9",
                "--out", str(tmp_path / "v.csv")])
    assert code == 1


def test_export_roundtrip(tmp_path):
    csv_out = tmp_path / "g.csv"
    assert run(["residual", "--field", "x + y", "--domain", "0,1,0,1",
                "--res", "3,3", "--out", str(csv_out)]) == 0
    obj_out = tmp_path / "g.obj"
    assert run(["export", "--in", str(csv_out), "--out", str(obj_out)]) == 0
    text = _read(obj_out)
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 9
    assert sum(1 for ln in text.splitlines() if ln.startswith("f ")) == 8


def test_package_runs_without_scipy(tmp_path):
    # a fresh interpreter where any scipy import fails
    code = """import sys
sys.modules["scipy"] = None
import zmclab
from zmclab.cli import run

out = sys.argv[1]
for args in (
        ["classify", "--field", "y + sin(x)", "--domain", "0,6.4,-1,1",
         "--res", "33,9", "--out", out + "/c.csv"],
        ["dualize", "--field", "atan2(y,x)", "--epsilon", "+1",
         "--domain", "1,2,1,2", "--res", "9,9", "--base", "1,1",
         "--out", out + "/d.csv"],
        ["curvature", "--field=-asinh(sqrt(x^2+y^2))", "--kind", "mean",
         "--domain", "1,2,1,2", "--res", "9,9", "--out", out + "/h.csv"],
        ["export", "--in", out + "/d.csv", "--out", out + "/d.obj"],
        ["solve", "--equation", "maximal",
         "--boundary=-asinh(sqrt(x^2+y^2))", "--domain", "1,2,1,2",
         "--res", "9,9", "--out", out + "/s.csv"]):
    assert run(args) == 0, args
"""
    env = dict(os.environ, PYTHONPATH=str(Path(zmclab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _lattice_csv(nodes):
    return "x,y,value\n" + "".join(f"{x},{y},{x + 2 * y}\n" for x, y in nodes)


_X_OUTER = [(x, y) for x in range(3) for y in range(3)]


@pytest.mark.parametrize("text", [
    "x,y,value\n",
    "x,y,value\n0,0\n0,1\n",
    _lattice_csv(sorted(_X_OUTER, key=lambda p: p[::-1])),  # y outermost
    _lattice_csv(_X_OUTER[1::-1] + _X_OUTER[2:]),  # two rows swapped
], ids=["header-only", "two-columns", "y-outermost", "rows-swapped"])
def test_export_bad_grid_csv_is_invalid_input(tmp_path, capsys, text):
    csv_in = tmp_path / "g.csv"
    csv_in.write_text(text)
    obj_out = tmp_path / "g.obj"
    assert run(["export", "--in", str(csv_in), "--out", str(obj_out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"
    assert not obj_out.exists()


def test_read_grid_csv_round_trips_bit_for_bit():
    rng = np.random.default_rng(3)
    xs, ys = np.linspace(-1.0, 1.0, 17), np.linspace(0.3, 2.1, 9)
    values = rng.standard_normal((17, 9)) * 10.0 ** rng.integers(-300, 300,
                                                                 (17, 9))
    grid = read_grid_csv(grid_csv(xs, ys, values))
    assert grid.xs.tobytes() == xs.tobytes()
    assert grid.ys.tobytes() == ys.tobytes()
    assert grid.values.tobytes() == values.tobytes()


def test_obj_counts_2x2_and_nonfinite_refusal():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    text = obj_text(xs, ys, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert sum(1 for ln in text.splitlines() if ln.startswith("v ")) == 4
    assert sum(1 for ln in text.splitlines() if ln.startswith("f ")) == 2
    with pytest.raises(NonFiniteValueError):
        obj_text(xs, ys, np.array([[0.0, np.nan], [2.0, 3.0]]))


def _ref_grid_csv(xs, ys, values):
    """Per-node reference writer: one repr per float, x index outermost."""
    rows = [f"{float(x)!r},{float(y)!r},{float(values[i, j])!r}\n"
            for i, x in enumerate(xs) for j, y in enumerate(ys)]
    return "x,y,value\n" + "".join(rows)


def _ref_causal_csv(samples):
    rows = [f"{float(s.x)!r},{float(s.y)!r},{float(s.b)!r},{float(s.bx)!r},"
            f"{float(s.by)!r},{s.cls.value}\n" for s in samples]
    return "x,y,b,bx,by,class\n" + "".join(rows)


def _ref_obj_text(xs, ys, values):
    nx, ny = values.shape
    out = [f"v {float(xs[i])!r} {float(ys[j])!r} {float(values[i, j])!r}\n"
           for i in range(nx) for j in range(ny)]
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b = i * ny + j + 1, (i + 1) * ny + j + 1
            out.append(f"f {a} {b} {b + 1}\nf {a} {b + 1} {a + 1}\n")
    return "".join(out)


def _ref_fluid_csv(xs, ys, parts, regimes):
    eps, *rest = parts
    rows = [f"{float(x)!r},{float(y)!r},{int(eps[i, j])},"
            + "".join(f"{float(a[i, j])!r}," for a in rest)
            + f"{regimes[i, j]}\n"
            for i, x in enumerate(xs) for j, y in enumerate(ys)]
    return "x,y,epsilon,rho,u,v,c,p,regime\n" + "".join(rows)


def test_writers_match_per_node_reference():
    xs = np.array([-0.0, 1e-300, 0.1, 1.5e17])
    ys = np.array([-2.5, 1.0 / 3.0, 7.0])
    values = np.array([[-0.0, 1e-300, 1.5e17],
                       [0.1 + 0.2, -1e-5, 2.0 ** -1074],
                       [1e16, -7.25, 123456789.0],
                       [np.pi, -np.e, 5e-324]])
    assert obj_text(xs, ys, values) == _ref_obj_text(xs, ys, values)
    assert grid_csv(xs, ys, values) == _ref_grid_csv(xs, ys, values)
    special = values.copy()
    special[1, 1], special[2, 0], special[3, 2] = np.nan, np.inf, -np.inf
    assert grid_csv(xs, ys, special) == _ref_grid_csv(xs, ys, special)
    samples = [CausalSample(-0.0, 1e-300, 1.5e17, np.nan, np.inf,
                            CausalClass.SPACE_LIKE),
               CausalSample(np.float64(0.1), -np.inf, 0.0, -1e-5, 2.5,
                            CausalClass.LIGHT_DEGENERATE)]
    assert causal_csv(samples) == _ref_causal_csv(samples)
    assert causal_csv([]) == _ref_causal_csv([])
    # more rows than one format call takes
    xs, ys = np.linspace(-1.0, 1.0, 70), np.linspace(0.0, 3.0, 70)
    values = np.random.default_rng(7).normal(size=(70, 70))
    assert obj_text(xs, ys, values) == _ref_obj_text(xs, ys, values)
    assert grid_csv(xs, ys, values) == _ref_grid_csv(xs, ys, values)


# finite coordinates, not evenly spaced, with both zeros, subnormals and
# magnitudes of 1e300 and more; values may also be nan or infinite
_FINITE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_VALUE = st.one_of(_FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def _lattices(draw):
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))

    def table(elements, shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=size,
                                      max_size=size))).reshape(shape)

    return (table(_FINITE, nx), table(_FINITE, ny), table(_FINITE, (nx, ny)),
            table(_VALUE, (nx, ny)), table(st.sampled_from([1, -1]), (nx, ny)),
            table(_VALUE, (5, nx, ny)))


@given(_lattices())
@settings(max_examples=100, deadline=None)
def test_writers_match_per_node_reference_on_random_lattices(lattice):
    xs, ys, finite, values, eps, floats = lattice
    assert obj_text(xs, ys, finite) == _ref_obj_text(xs, ys, finite)
    assert grid_csv(xs, ys, values) == _ref_grid_csv(xs, ys, values)
    parts, regimes = [eps, *floats], np.where(eps > 0, "sub", "super")
    assert (fluid_csv(xs, ys, parts, regimes)
            == _ref_fluid_csv(xs, ys, parts, regimes))


_GRID_VERBS = {
    "residual": ["--field", "x*y - 0.3*x^2 + sin(y)"],
    "curvature": ["--field=-asinh(sqrt(x^2+y^2))"],
    "dualize": ["--field", "atan2(y,x)", "--direction", "to-stream",
                "--base", "1,1"],
    "solve": ["--equation", "maximal", "--boundary=-asinh(sqrt(x^2+y^2))"],
}


@pytest.mark.parametrize("verb", sorted(_GRID_VERBS))
def test_verb_files_match_per_node_reference(tmp_path, verb):
    # the arrays come from the verb's JSON output; its CSV, the OBJ that
    # export makes from that CSV, and solve's OBJ must equal the per-node
    # reference writers applied to them
    argv = [verb, *_GRID_VERBS[verb], "--domain", "1,2,1,2", "--res", "9,9",
            "--out"]
    out = {fmt: tmp_path / f"g.{fmt}" for fmt in ("json", "csv", "obj")}
    assert run(argv + [str(out["json"]), "--format", "json"]) == 0
    doc = json.loads(_read(out["json"]))
    xs, ys, values = (np.array(doc[k], dtype=float)
                      for k in ("xs", "ys", "values"))
    assert run(argv + [str(out["csv"])]) == 0
    assert _read(out["csv"]) == _ref_grid_csv(xs, ys, values)
    assert run(["export", "--in", str(out["csv"]),
                "--out", str(out["obj"])]) == 0
    assert _read(out["obj"]) == _ref_obj_text(xs, ys, values)
    if verb == "solve":
        out["obj"].unlink()
        assert run(argv + [str(out["obj"]), "--format", "obj"]) == 0
        assert _read(out["obj"]) == _ref_obj_text(xs, ys, values)


def test_fluid_file_matches_per_node_reference(tmp_path):
    # sub-sonic for |x| < 1 and super-sonic beyond, no node on |x| = 1
    argv = ["fluid", "--field", "0.5*x^2 + 0.1*y", "--domain=-1.9,2.1,0,1",
            "--res", "9,9", "--out"]
    assert run(argv + [str(tmp_path / "f.json"), "--format", "json"]) == 0
    states = json.loads(_read(tmp_path / "f.json"))["states"]
    table = {k: np.array([s[k] for s in states]).reshape(9, 9)
             for k in states[0]}
    assert set(table["regime"].ravel()) == {"sub-sonic", "super-sonic"}
    parts = [table[k] for k in ("epsilon", "rho", "u", "v", "c", "p")]
    assert run(argv + [str(tmp_path / "f.csv")]) == 0
    assert _read(tmp_path / "f.csv") == _ref_fluid_csv(
        table["x"][:, 0], table["y"][0], parts, table["regime"])


@st.composite
def _causal_samples(draw):
    """A lattice block, each column drawn per node or per x-line, and a
    tail of samples anywhere (coordinates too may be nan or infinite)."""
    nx, ny, tail = (draw(st.integers(lo, 6)) for lo in (0, 1, 0))

    def table(elements, size):
        return np.array(draw(st.lists(elements, min_size=size,
                                      max_size=size)), dtype=float)

    def column(elements):
        if draw(st.booleans()):  # one value along each x-line
            return np.repeat(table(elements, nx), ny)
        return table(elements, nx * ny)

    codes = st.integers(0, 3)
    lattice = CausalSamples(
        np.repeat(table(_FINITE, nx), ny), np.tile(table(_FINITE, ny), nx),
        column(_VALUE), column(_VALUE), column(_VALUE), column(codes))
    return CausalSamples.concat(lattice, CausalSamples(
        *(table(_VALUE, tail) for _ in range(5)), table(codes, tail)))


@given(_causal_samples())
@example(CausalSamples(  # -0.0 == 0.0 and nan != nan, but each prints once
    [-0.0, -0.0, 0.0, 0.0, np.nan, np.nan], [0.0, -0.0, 0.0, -0.0, 1.0, 1.0],
    [-0.0, 0.0, 0.0, 0.0, np.nan, np.nan], [np.nan] * 6, [0.0] * 6,
    [0, 1, 2, 3, 3, 3]))
@settings(max_examples=100, deadline=None)
def test_causal_csv_matches_per_sample_reference(samples):
    ref = _ref_causal_csv(samples)
    assert causal_csv(samples) == ref
    assert causal_csv(list(samples)) == ref


def test_causal_csv_rows_off_the_lattice_in_chunks():
    # random points form no lattice: one row per format call would do,
    # and more rows than one chunk must too
    cols = np.random.default_rng(5).normal(size=(5, 9000))
    samples = CausalSamples(*cols, np.arange(9000) % 4)
    assert causal_csv(samples) == _ref_causal_csv(samples)


# values of every layout: both zeros, subnormals, both sides of the fixed
# notation's ends (1e-05, 0.0001, 1e16) and exponents of three digits
_POOL = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                  1e-05, -0.0001, 0.001, 9999999999999998.0, -1e16,
                  1.5e300, -7.25, 123456789.0, 0.1, 1.0, -100.0])


def _mixed_lattice(rng, nx, ny):
    """Random magnitudes and signs over 60 decades, some nodes from
    ``_POOL``, every third x-line one value throughout, lines 40-59 (a run)
    too, and line 5 all 0.0 but for one -0.0."""
    values = rng.normal(size=(nx, ny)) * 10.0 ** rng.integers(-30, 30,
                                                              (nx, ny))
    picked = rng.random((nx, ny)) < 0.2
    values[picked] = rng.choice(_POOL, picked.sum())
    values[::3] = rng.choice(_POOL, (len(values[::3]), 1))
    values[40:60] = rng.choice(_POOL, (20, 1))
    values[5], values[5, 7] = 0.0, -0.0
    return values


def test_writers_match_per_node_reference_across_chunks():
    # 70 x 71 = 4970 rows: more than one pass of rows and not a multiple of
    # it, with runs of constant x-lines between varying ones
    rng = np.random.default_rng(22)
    nx, ny = 70, 71
    xs = np.linspace(-1.0, 1.0, nx) * 10.0 ** rng.integers(-8, 8, nx)
    xs[[3, 4]] = -0.0, 5e-324
    ys = np.linspace(-3.0, 3.0, ny)
    ys[[0, 9]] = 0.0, -1e-5
    values = _mixed_lattice(rng, nx, ny)
    assert grid_csv(xs, ys, values) == _ref_grid_csv(xs, ys, values)
    assert obj_text(xs, ys, values) == _ref_obj_text(xs, ys, values)
    special = values.copy()
    special[1, 1:30:3], special[7, 4], special[8] = np.nan, -np.inf, np.inf
    assert grid_csv(xs, ys, special) == _ref_grid_csv(xs, ys, special)
    eps = np.where(rng.random((nx, ny)) < 0.5, 1, -1)
    eps[::2] = 1
    eps[40:60] = -1
    parts = [eps, *(_mixed_lattice(rng, nx, ny) for _ in range(5))]
    regimes = np.where(eps > 0, "sub-sonic", "super-sonic")
    assert (fluid_csv(xs, ys, parts, regimes)
            == _ref_fluid_csv(xs, ys, parts, regimes))
    codes = rng.integers(0, 4, (nx, ny))
    codes[::3] = codes[::3, :1]
    codes[40:60] = 3
    tail = rng.normal(size=(5, 4500)) * 10.0 ** rng.integers(-30, 30, 4500)
    tail[:, ::7] = rng.choice(_POOL, (5, len(tail[0, ::7])))
    samples = CausalSamples.concat(
        CausalSamples(np.repeat(xs, ny), np.tile(ys, nx),
                      *(_mixed_lattice(rng, nx, ny).ravel() for _ in range(3)),
                      codes.ravel()),
        CausalSamples(*tail, rng.integers(0, 4, 4500)))
    assert causal_csv(samples) == _ref_causal_csv(samples)


def _ref_json(**payload):
    return json.dumps({"schema": 1, **payload}, indent=2,
                      sort_keys=True) + "\n"


def _ref_samples_json(samples):
    return _ref_json(samples=[
        {"x": s.x, "y": s.y, "b": s.b, "bx": s.bx, "by": s.by,
         "class": s.cls.value} for s in samples])


def _ref_fluid_json(xs, ys, parts):
    eps, rho, u, v, c, p = parts
    return _ref_json(states=[
        {"x": float(x), "y": float(y), "epsilon": int(eps[i, j]),
         "rho": float(rho[i, j]), "u": float(u[i, j]), "v": float(v[i, j]),
         "c": float(c[i, j]), "p": float(p[i, j]),
         "regime": "sub-sonic" if eps[i, j] > 0 else "super-sonic"}
        for i, x in enumerate(xs) for j, y in enumerate(ys)])


def _ref_grid_json(xs, ys, values, **extra):
    return _ref_json(xs=[float(x) for x in xs], ys=[float(y) for y in ys],
                     values=[[float(v) for v in row] for row in values],
                     **extra)


def _ref_lines_json(lines):
    return _ref_json(lines=[
        {"base": [ln.base[0], ln.base[1]],
         "direction": [ln.direction[0], ln.direction[1]],
         "lifted": [ln.lifted[0], ln.lifted[1], ln.lifted[2]],
         "sample_count": len(ln.samples),
         "perp_residual": ln.perp_residual,
         "lightlike_defect": ln.lightlike_defect,
         "verified": ln.verified} for ln in lines])


@st.composite
def _light_lines(draw):
    def floats(n):
        return tuple(draw(st.lists(_VALUE, min_size=n, max_size=n)))

    count = draw(st.integers(0, 3))
    return LightLine(floats(2), floats(2), floats(3),
                     CausalSamples(*np.zeros((5, count)), np.full(count, 3)),
                     *floats(2))


_REPORTS = st.fixed_dictionaries({
    "converged_by": st.sampled_from(["newton_tol", "residual_floor"]),
    "iterations": st.integers(0, 50),
    "final_residual": _VALUE,
    "damping_history": st.lists(_VALUE, max_size=3)})


@given(_lattices(), _REPORTS, _causal_samples(),
       st.lists(_light_lines(), max_size=3))
@settings(max_examples=100, deadline=None)
def test_json_writers_match_per_record_reference(lattice, report, samples,
                                                 lines):
    xs, ys, _, values, eps, floats = lattice
    parts = [eps, *floats]
    assert fluid_text("json", xs, ys, parts) == _ref_fluid_json(xs, ys, parts)
    assert grid_text("json", xs, ys, values) == _ref_grid_json(xs, ys,
                                                               values)
    assert (grid_text("json", xs, ys, values, report=report)
            == _ref_grid_json(xs, ys, values, report=report))
    assert samples_text("json", samples) == _ref_samples_json(samples)
    assert lines_text(lines) == _ref_lines_json(lines)
    empty = CausalSamples.of([])
    assert samples_text("json", empty) == _ref_samples_json(empty)
    assert lines_text([]) == _ref_lines_json([])


@pytest.mark.parametrize("verb, field, domain", [
    ("classify", "y + sin(x)", "0,6.4,-1,1"),
    ("detect", "y + sin(4*x)", "0,6.4,-1,1"),
    ("classify", "atan2(y, x)", "0.5,2,0.5,2"),
    ("detect", "atan2(y, x)", "0.5,2,0.5,2"),
])
def test_causal_files_match_per_sample_reference(tmp_path, verb, field,
                                                 domain):
    # the samples come from the verb's JSON output; its CSV must equal the
    # per-sample reference writer applied to them
    argv = [verb, "--field", field, "--domain", domain, "--res", "33,17",
            "--out"]
    assert run(argv + [str(tmp_path / "s.json"), "--format", "json"]) == 0
    samples = [CausalSample(s["x"], s["y"], s["b"], s["bx"], s["by"],
                            CausalClass(s["class"]))
               for s in json.loads(_read(tmp_path / "s.json"))["samples"]]
    assert samples
    assert run(argv + [str(tmp_path / "s.csv")]) == 0
    assert _read(tmp_path / "s.csv") == _ref_causal_csv(samples)


def test_classify_memory_is_bounded_by_its_output(tmp_path):
    # the sample columns, the per-line strings, the joined text and its
    # encoding come to about three times the output; one CausalSample
    # object per node took about seven
    out = tmp_path / "c.csv"
    tracemalloc.start()
    try:
        assert run(["classify", "--field", "y + sin(x)",
                    "--domain", "0,6.4,-1,1", "--res", "513,129",
                    "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * out.stat().st_size


@pytest.mark.parametrize("shape", [(3, 4), (5, 4), (4, 3), (4, 5)])
def test_writers_refuse_values_off_the_lattice(shape):
    xs, ys, values = np.arange(4.0), np.arange(4.0), np.zeros(shape)
    for write in (grid_csv, obj_text):
        with pytest.raises((ValueError, TypeError)):
            write(xs, ys, values)
    with pytest.raises((ValueError, TypeError)):
        fluid_csv(xs, ys, [values.astype(int), *[values] * 5],
                  np.full(shape, "sub"))


def test_grid_csv_memory_is_bounded_by_its_output():
    # the per-line strings and the joined text are about twice the output
    xs, ys = np.linspace(1.0, 2.0, 257), np.linspace(1.0, 2.0, 257)
    values = np.random.default_rng(1).normal(size=(257, 257))
    tracemalloc.start()
    try:
        text = grid_csv(xs, ys, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(text)


def test_obj_text_memory_is_bounded_by_its_output():
    # the output chunks and the joined text are about twice the output; a
    # face table for the whole lattice next to them took about three times
    xs, ys = np.linspace(1.0, 2.0, 257), np.linspace(1.0, 2.0, 257)
    values = np.random.default_rng(1).normal(size=(257, 257))
    tracemalloc.start()
    try:
        text = obj_text(xs, ys, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(text)


def test_fluid_csv_memory_is_bounded_by_its_output():
    # the output chunks and the joined text are about twice the output
    rng = np.random.default_rng(1)
    xs = ys = np.linspace(1.0, 2.0, 257)
    eps = np.where(rng.normal(size=(257, 257)) > 0, 1, -1)
    parts = [eps, *rng.normal(size=(5, 257, 257))]
    regimes = np.where(eps > 0, "sub-sonic", "super-sonic")
    tracemalloc.start()
    try:
        text = fluid_csv(xs, ys, parts, regimes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(text)


def test_causal_csv_memory_is_bounded_by_its_output():
    # a lattice block and rows off the lattice after it
    rng = np.random.default_rng(1)
    X, Y = np.meshgrid(*[np.linspace(1.0, 2.0, 257)] * 2, indexing="ij")
    samples = CausalSamples.concat(
        CausalSamples(X.ravel(), Y.ravel(), *rng.normal(size=(3, X.size)),
                      np.arange(X.size) % 4),
        CausalSamples(*rng.normal(size=(5, 9000)), np.arange(9000) % 4))
    tracemalloc.start()
    try:
        text = causal_csv(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(text)


# --------------------------------------------------------------------------
# examples verbs, determinism, usage errors
# --------------------------------------------------------------------------

def test_examples_list_and_emit(tmp_path, capsys):
    assert run(["examples", "list"]) == 0
    names = capsys.readouterr().out.strip().splitlines()
    assert "helicoid" in names and "null-cylinder" in names
    out = tmp_path / "entry.json"
    assert run(["examples", "emit", "timelike-slab", "--out", str(out)]) == 0
    doc = json.loads(_read(out))
    assert doc["field"]["expr"] == "y + log(tan(x))"


def test_examples_emit_unknown_name(capsys):
    assert run(["examples", "emit", "nope"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"schema": 1, "error": "invalid-input",
                   "message": "unknown catalog entry 'nope'; known: "
                   + ", ".join(sorted(catalog.CATALOG))}


def test_determinism_byte_identical(tmp_path):
    args = ["classify", "--field", "y + sin(x)", "--domain", "0,6.4,-1,1",
            "--res", "33,9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes().replace(b"a.csv", b"") \
        == (tmp_path / "b.csv.meta.json").read_bytes().replace(b"b.csv", b"")


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # interior sides 127 and 255, not multiples of the padding block: an
    # unpadded product of that shape rounds differently at 2 BLAS threads
    env = dict(os.environ, PYTHONPATH=str(Path(zmclab.__file__).parents[1]))
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "zmclab", "solve", "--equation", "maximal",
             "--boundary=-asinh(sqrt(x^2+y^2))", "--domain", "1,2,1,2",
             "--res", "129,257", "--out", "s.csv"],
            cwd=cwd, capture_output=True, text=True, timeout=120,
            env=dict(env, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append(((cwd / "s.csv").read_bytes(),
                        (cwd / "s.csv.meta.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_usage_errors_exit_2():
    assert run(["classify"]) == 2  # missing required flags
    assert run(["classify", "--field", "x", "--domain", "0,1,0,1",
                "--unknown-flag", "3"]) == 2
    assert run(["no-such-verb"]) == 2
    # malformed --param items and non-finite bounds are refused by argparse
    for verb in (["classify", "--field", "y + a*x"],
                 ["solve", "--equation", "minimal", "--boundary", "a*x"]):
        for item in ("a", "a=abc"):
            assert run([*verb, "--param", item, "--domain", "0,1,0,1"]) == 2
        assert run([*verb, "--param", "a=1", "--domain", "0,inf,0,1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["solve", "--res", "9,9"], "solve needs --equation, --boundary and "
                                "--domain (or --problem FILE)"),
    (["examples", "emit"], "examples emit needs a name"),
])
def test_usage_error_exits_2_and_says_why(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_epsilon_out_of_range_exits_2(capsys):
    assert run(["dualize", "--field", "atan2(y, x)", "--domain", "1,2,1,2",
                "--base", "1.5,1.5", "--epsilon", "2"]) == 2
    assert "--epsilon must be +1 or -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["residual", "--field", "y + exp(x)", "--domain=-1,1,-1,1",
     "--res", "9,7"],
    ["solve", "--equation", "maximal", "--boundary=-asinh(sqrt(x^2+y^2))",
     "--domain", "1,2,1,2", "--res", "9,9", "--format", "obj"],
], ids=["residual-csv", "solve-obj"])
def test_stdout_payload_and_stderr_meta_match_the_files(tmp_path, capsys,
                                                        argv):
    # without --out the payload streams to stdout and the sidecar to
    # stderr, the same bytes except the sidecar's echo of --out
    out = tmp_path / "o"
    assert run([*argv, "--out", str(out)]) == 0
    assert run(argv) == 0
    streamed = capsys.readouterr()
    assert streamed.out == out.read_text()
    meta = json.loads((tmp_path / "o.meta.json").read_text())
    assert meta["config"].pop("out") == str(out)
    assert streamed.err == dump_json(meta)


def test_residual_minimal_is_the_jet_formula(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["residual", "--field", "atan2(y, x)", "--equation",
                "minimal", "--domain", "1,2,1,2", "--res", "9,7",
                "--out", str(out)]) == 0
    f = zmclab.field_from_text("atan2(y, x)", zmclab.Rect(1, 2, 1, 2))
    X, Y = f.domain.meshgrid(9, 7)
    want = minimal_residual_of_jet(f.jet2_grid(X, Y))
    assert np.array_equal(read_grid_csv(_read(out)).values, want)
    meta = json.loads(_read(tmp_path / "r.csv.meta.json"))
    assert meta["equation"] == "minimal"
    assert meta["max_abs"] == float(np.max(np.abs(want)))


def test_traced_mode_binds_and_counts(tmp_path):
    # the benchmark's tracer wraps functions by name in every module that
    # binds them; it refuses to install if one is gone
    bench = Path(__file__).parents[1] / "perfbench"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing\n"
        "from zmclab import cli\n"
        "t = tracing.Tracer(); t.install(); t.active = True; t.reset()\n"
        "assert cli.run(['dualize', '--field', 'atan2(y, x)', '--domain',\n"
        "               '1,2,1,2', '--res', '9,9', '--direction',\n"
        "               'to-stream', '--base', '1.5,1.5', '--out',\n"
        "               sys.argv[2]]) == 0\n"
        "m = t.metrics()\n"
        "assert m['duality.dualize.calls'] == 1, m\n")
    env = dict(os.environ, PYTHONPATH=str(Path(zmclab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(bench), str(tmp_path / "d.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag, reason", [
    ("--domain=0,inf,0,1", "rectangle bounds must be finite"),
    ("--domain=1,0,0,1", "rectangle needs x0 < x1 and y0 < y1"),
    ("--domain=0,1,0", "expected x0,x1,y0,y1, got '0,1,0'"),
    ("--res=3,x", "expected nx,ny: invalid literal for int() with base 10: "
                  "'x'"),
    ("--base=1", "expected x,y, got '1'"),
])
def test_bad_flag_values_say_why(capsys, flag, reason):
    # the later flag replaces the valid one before it
    assert run(["dualize", "--field", "atan2(y, x)", "--domain", "1,2,1,2",
                "--base", "1,1", flag]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag.partition('=')[0]}: {reason}\n" in err


def test_syntax_error_exit_1(tmp_path, capsys):
    code = run(["classify", "--field", "y + (x", "--domain", "0,1,0,1",
                "--res", "5,5", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "syntax-error"


def test_unbound_parameter_exit_1(tmp_path, capsys):
    code = run(["classify", "--field", "y + g", "--domain", "0,1,0,1",
                "--res", "5,5", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "unbound-parameter"


def test_param_flag_binds(tmp_path):
    out = tmp_path / "p.csv"
    assert run(["residual", "--field", "y + a*x", "--param", "a=3.0",
                "--domain", "0,1,0,1", "--res", "5,5",
                "--out", str(out)]) == 0
    grid = read_grid_csv(_read(out))
    assert float(np.max(np.abs(grid.values))) < 1e-12


def test_reused_parser_keeps_no_state(tmp_path):
    # run builds its parser once; a flag of one call must not reach the next
    assert run(["residual", "--field", "y + a*x", "--param", "a=2",
                "--domain", "0,1,0,1", "--res", "5,5",
                "--out", str(tmp_path / "a.csv")]) == 0
    out = tmp_path / "b.csv"
    meta = tmp_path / "b.csv.meta.json"
    argv = ["residual", "--field", "y + 2*x", "--domain", "0,1,0,1",
            "--res", "5,5", "--out", str(out)]
    assert run(argv) == 0
    reused = (out.read_bytes(), meta.read_bytes())
    assert "param" not in json.loads(reused[1])["config"]
    cli.build_parser.cache_clear()
    assert run(argv) == 0
    assert (out.read_bytes(), meta.read_bytes()) == reused


def test_grid_json_format(tmp_path):
    out = tmp_path / "res.json"
    assert run(["residual", "--field", "y + log(tan(x))",
                "--equation", "timelike", "--domain", "0.2,1.37,-1,1",
                "--res", "7,7", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(_read(out))
    assert doc["schema"] == 1
    vals = np.array(doc["values"])
    assert vals.shape == (7, 7)
    assert float(np.max(np.abs(vals))) < 1e-10


def test_curvature_mean_success(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["curvature", "--field=-asinh(sqrt(x^2+y^2))",
                "--kind", "mean", "--domain", "1,2,1,2", "--res", "7,7",
                "--out", str(out)]) == 0
    grid = read_grid_csv(_read(out))
    assert float(np.max(np.abs(grid.values))) < 1e-11


def test_verify_lines_insufficient_samples(tmp_path, capsys):
    code = run(["verify-lines", "--field", "0.3*x + 0.4*y",
                "--domain", "0,1,0,1", "--res", "9,9",
                "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "insufficient-samples"


def test_verify_lines_imports_no_scipy_spatial(tmp_path):
    # a fresh interpreter where any scipy import fails
    code = ("import sys; sys.modules['scipy'] = None; "
            "from zmclab.cli import run; assert run(sys.argv[1:]) == 0")
    env = dict(os.environ, PYTHONPATH=str(Path(zmclab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify-lines", "--field", "y + sin(x)",
         "--domain", "0,6.283185307179586,-1,1", "--res", "129,33",
         "--out", str(tmp_path / "lines.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "lines.json").read_text())["lines"]) == 2
