"""zmclab benchmark: seeded workloads run in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
One client in one process runs the workload's fixed operation list, each
operation only after the previous one returned, repeating the list while
another repetition fits in ``--seconds`` (at least once).  Every output is
checked against a reference after the repetition, outside the clock.

Every time is reported in reference seconds (see speed.py): a short fixed
Python-and-numpy kernel runs before, after and every 50 ms during each
timed call, and the call's time is scaled by how much slower or faster
than usual the kernel ran, which removes the host's changes of speed.  The
summary lines and the run record also give the measured times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced repetition and then at least two traced ones and prints the
per-layer metrics (see tracing.py), whose counts must repeat exactly.  The
last line of standard output is the JSON result; the lines before it are a
readable summary and the run record.  Operation outputs, the run record
and the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS and OpenMP pools get at most nproc threads; set before numpy loads,
# and inherited by the set-up probes
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

WORKLOADS = ("dualize-exact", "solve-dirichlet", "lightlike-scan",
             "lattice-verbs")
#: cold set-ups per run; setup_s is their median
SETUP_RUNS = 4
#: traced repetitions per run, at least; their counts must agree
TRACED_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "large_op_s": "s",
    "small_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "exprfield.parse.calls": "count",
    "exprfield.parse.s": "s",
    "exprfield.point_jet.calls": "count",
    "exprfield.point_jet.s": "s",
    "exprfield.lattice_jet.calls": "count",
    "exprfield.lattice_jet.points": "count",
    "exprfield.lattice_jet.s": "s",
    "exprfield.lattice_jet.points_per_call": "points/call",
    "exprfield.expression_jet2.calls": "count",
    "exprfield.expression_jet2.points": "count",
    "exprfield.evaluate.calls": "count",
    "exprfield.evaluate.s": "s",
    "duality.dualize.calls": "count",
    "duality.dualize.s": "s",
    "duality.dualize.self_s": "s",
    "duality.dualize.errors": "count",
    "duality.dual_one_form.calls": "count",
    "duality.dual_one_form.points": "count",
    "duality.dual_one_form.s": "s",
    "duality.quad_nodes_per_lattice_node": "nodes/node",
    "duality.chaplygin_state.calls": "count",
    "duality.chaplygin_state.s": "s",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.solve.self_s": "s",
    "solver.linear_solve.calls": "count",
    "solver.linear_solve.s": "s",
    "solver.discrete_residual.calls": "count",
    "solver.newton_iterations": "count",
    "solver.line_search_halvings": "count",
    "geometry.detect_lightlike_set.s": "s",
    "geometry.detect_lightlike_set.self_s": "s",
    "geometry.classify.calls": "count",
    "geometry.classify_grid.s": "s",
    "geometry.verify_line_theorem.s": "s",
    "geometry.verify_line_theorem.samples": "count",
    "geometry.pointwise.calls": "count",
    "geometry.pointwise.s": "s",
    "catalog.potential_lattice_jet.s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "gridio.write.s": "s",
    "gridio.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _cold_setup(workload: str, seed: int, outdir: Path) -> float:
    """Wall time from spawning a set-up probe to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), workload, str(seed), str(outdir)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with code {code}")
    return t1 - t0


class Repetitions:
    """Runs a workload's operation list and checks every result."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.walls: list = []
        self.latency: dict = {op.name: [] for op in wl.ops}
        self.measured: dict = {op.name: [] for op in wl.ops}
        self.attempted = self.failed = 0
        self.unexpected: list = []
        self.known: list = []
        self.first_digest: dict = {}

    def _timed(self, op, tracer):
        """Runs op once; records and returns its time in reference
        seconds, with its result and error."""
        if tracer is not None:
            tracer.active = True
        try:
            result, error, dt, scaled = self.clock.time(op.run)
        finally:
            if tracer is not None:
                tracer.active = False
        self.latency[op.name].append(scaled)
        self.measured[op.name].append(dt)
        return (result, error), scaled

    def _probe(self, op, tracer):
        out, _ = self._timed(op, tracer)
        self._check(op, *out)

    def run(self, tracer=None, probes=True) -> float:
        """One repetition; returns its wall time, the sum of the latencies
        of the operation list, in reference seconds.

        With ``probes``, the extra samples of the small and the large
        operation (see ``workloads.Workload``) run outside the repetition's
        sum, so that small_op_s and large_op_s take the median of samples
        spread over the run.
        """
        if tracer is not None:
            tracer.reset()
        wl = self.wl
        small = next(op for op in wl.ops if op.name == wl.small)
        large = next(op for op in wl.ops if op.name == wl.large)
        large_last = wl.ops.index(large) < len(wl.ops) / 2
        large_probes = wl.large_probes if probes else 0
        if large_probes == 2 or (large_probes == 1 and not large_last):
            self._probe(large, tracer)
        results = {}
        wall = 0.0
        for k, op in enumerate(wl.ops):
            for _ in range(wl.small_per_gap if probes and k else 0):
                self._probe(small, tracer)
            results[op.name], dt = self._timed(op, tracer)
            wall += dt
        if large_probes == 2 or (large_probes == 1 and large_last):
            self._probe(large, tracer)
        self.walls.append(wall)
        for op in wl.ops:
            self._check(op, *results[op.name])
        return wall

    def _check(self, op, result, error):
        self.attempted += 1
        try:
            if error is not None:
                raise error
            op.check(result)
            if op.outputs:
                d = _digest(op.outputs)
                if self.first_digest.setdefault(op.name, d) != d:
                    raise RuntimeError(
                        "output bytes differ from the first repetition")
        except Exception as exc:  # every failure is counted and reported
            self.failed += 1
            msg = f"{op.name}: {type(exc).__name__}: {exc}"
            if op.known_failure:
                self.known.append(f"{msg} [known at the parent commit: "
                                  f"{op.known_failure}]")
            else:
                self.unexpected.append(msg)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "zmclab" / "__init__.py").is_file():
        return _fail(f"no zmclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    try:
        import zmclab
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    if Path(zmclab.__file__).resolve().parent != SRC / "zmclab":
        return _fail(f"zmclab imported from {zmclab.__file__}, not {SRC}")

    opdir = OUT / f"ops-{os.getpid()}"
    opdir.mkdir(parents=True, exist_ok=True)
    try:
        return _bench(args, opdir)
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def _bench(args, opdir: Path) -> int:
    import numpy
    import scipy
    import tracing
    import workloads

    setup_raw, setup = speed.time_cold_starts(
        lambda: _cold_setup(args.workload, args.seed, opdir), SETUP_RUNS)
    clock = speed.SpeedClock()

    # warm code paths on 9-point lattices, outside the clock
    warm = workloads.build(args.workload, args.seed, opdir, tiny=True)
    warm.prepare()
    with contextlib.redirect_stderr(io.StringIO()):
        for op in warm.ops:
            try:
                op.run()
            except Exception:  # a warm-up failure shows again when timed
                pass

    wl = workloads.build(args.workload, args.seed, opdir)
    wl.prepare()
    reps = Repetitions(wl, clock)

    def fits(t_rep: float) -> bool:
        """Whether another repetition as long as the last one fits."""
        now = time.perf_counter()
        return now - t_begin + (now - t_rep) <= args.seconds

    layer_reps: list = []
    traced_walls: list = []
    t_begin = time.perf_counter()
    if args.trace:
        untraced = reps.run(probes=False)
        tracer = tracing.Tracer()
        tracer.install(callers=(workloads,))
        while len(layer_reps) < TRACED_REPS or fits(t_rep):
            t_rep = time.perf_counter()
            traced_walls.append(reps.run(tracer, probes=False))
            layer_reps.append(tracer.metrics())
    else:
        while not reps.walls or fits(t_rep):
            t_rep = time.perf_counter()
            reps.run()
    elapsed = time.perf_counter() - t_begin
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}.csv")

    med = statistics.median
    problems = list(reps.unexpected)
    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            values = [m.get(name, 0.0) for m in layer_reps]
            if not tracing.is_count(name):
                metrics[name] = med(values)
            elif len(set(values)) == 1:
                metrics[name] = int(values[0]) if float(
                    values[0]).is_integer() else values[0]
            else:
                problems.append(f"count {name} differs between traced "
                                f"repetitions: {values}")
                metrics[name] = med(values)
        metrics["trace.wall_s"] = med(traced_walls)
        metrics["trace.overhead_s"] = med(traced_walls) - untraced
    else:
        metrics = {
            "setup_s": med(setup),
            # the operation list's time from each operation's median, so
            # that the extra samples of the large and the small one count
            "wall_s": sum(med(ts) for ts in reps.latency.values()),
            "large_op_s": med(reps.latency[wl.large]),
            "small_op_s": med(reps.latency[wl.small]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - reps.failed / reps.attempted,
        }
    units = PER_LAYER if args.trace else END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": len(reps.walls), "traced_repetitions": len(layer_reps),
        "elapsed_s": elapsed, "setup_runs_s": setup,
        "setup_runs_measured_s": setup_raw,
        "reference_s": speed.REF_S, "cold_reference_s": speed.COLD_REF_S,
        "nproc": NPROC,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "src_lines": _src_lines(),
        "operations": {name: med(ts) for name, ts in reps.latency.items()},
        "operations_measured_s": {name: med(ts) for name, ts
                                  in reps.measured.items()},
        "samples": {name: {"scaled": reps.latency[name],
                           "measured": reps.measured[name]}
                    for name in (wl.large, wl.small)},
        "failures": list(dict.fromkeys(problems + reps.known)),
    }
    (OUT / f"record-{args.workload}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['repetitions']} repetition(s) of {len(wl.ops)} "
          f"operations in {elapsed:.1f} s, closed loop, one client")
    if not args.trace:
        measured = {
            "setup_s": med(setup_raw),
            "wall_s": sum(med(ts) for ts in reps.measured.values()),
            "large_op_s": med(reps.measured[wl.large]),
            "small_op_s": med(reps.measured[wl.small]),
        }
        print("  times in reference seconds (see speed.py), measured "
              "times in brackets")
    for name, value in metrics.items():
        raw = (f"  ({measured[name]:.6g} s measured)"
               if not args.trace and name in measured else "")
        print(f"  {name:40s} {value:14.6g} {units[name]}{raw}")
    print(f"  {'failed_share':40s} {reps.failed / reps.attempted:14.6g} ratio"
          f"  ({reps.failed} of {reps.attempted} operations)")
    for msg in dict.fromkeys(problems):
        print(f"  FAIL {msg}")
    for msg, n in collections.Counter(reps.known).items():
        print(f"  KNOWN FAILURE ({n}x) {msg}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
