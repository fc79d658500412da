"""One cold set-up: import zmclab, then parse and build a workload's fields.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUTDIR

Prints ``ready`` once the workload is built; the benchmark times a fresh
interpreter from spawn to that line.  PYTHONPATH must name the sources.
"""

import sys
from pathlib import Path

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
