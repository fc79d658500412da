"""Properties of CLI runs over drawn argv, run in-process through
``cli.run``: every run ends in a defined way, and a run that exits 0
reports what it did truthfully.

``solve`` is drawn over domains of widths 10^k for k from -320 to 308,
where the lattice spacing can underflow or overflow the difference
stencil's 1/h^2."""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from zmclab import cli, errors
from zmclab.solver import NEWTON_TOL

CODES = {cls.code for cls in vars(errors).values() if isinstance(cls, type)
         and issubclass(cls, errors.ZmcError)} | {"invalid-input"}
BOUNDARIES = ["1", "x", "x + y", "0.5*x*y", "sin(x)*cosh(y)"]


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _interval(draw):
    """An interval of width 10^k, starting at 0, at 1 or centred on 0."""
    width = 10.0 ** draw(st.integers(-320, 308))
    start = draw(st.sampled_from([0.0, 1.0, -width / 2]))
    return start, start + width


@st.composite
def _solve_argv(draw):
    (x0, x1), (y0, y1) = draw(_interval()), draw(_interval())
    nx, ny = draw(st.integers(5, 17)), draw(st.integers(5, 17))
    return ["solve", "--equation", draw(st.sampled_from(["minimal",
                                                          "maximal"])),
            "--boundary", draw(st.sampled_from(BOUNDARIES)),
            f"--domain={x0!r},{x1!r},{y0!r},{y1!r}", "--res", f"{nx},{ny}",
            "--initial", draw(st.sampled_from(["harmonic", "flat"]))]


@given(_solve_argv())
# hx^2 underflows to 0, overflows to inf, and leaves 2 / hx^2 infinite
@example(["solve", "--equation", "minimal", "--boundary", "1",
          "--domain=-1e-300,1e-300,0,1", "--res", "5,5"])
@example(["solve", "--equation", "minimal", "--boundary", "1",
          "--domain=0,1e300,0,1", "--res", "9,9"])
@example(["solve", "--equation", "minimal", "--boundary", "x",
          "--domain=-1e-160,1e-160,0,1", "--res", "9,9"])
@settings(max_examples=200, deadline=None)
def test_solve_ends_in_a_defined_way_and_reports_truthfully(argv):
    code, _, stderr = _run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert json.loads(stderr)["error"] in CODES
    elif code == 0:
        report = json.loads(stderr)["report"]
        final, floor = report["final_residual"], report["residual_floor"]
        assert math.isfinite(final) and math.isfinite(floor)
        assert final < max(NEWTON_TOL, floor)
