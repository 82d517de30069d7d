"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD SEED

Prints two numbers: the seconds spent importing constacodes and running
the workload's set-up (what it builds before its request loop), and
that time scaled to the reference host speed.  Nothing but what the
interpreter loads at start-up is imported before the clock starts, so
every module constacodes pulls in, its own and the standard library's,
is paid for in the sample; interpreter start-up and the import of the
benchmark's own workloads module are not.  run.py takes its setup_s
samples from this script, one fresh process per sample.

The time is scaled as every timing of the benchmark is: multiplied by
PROBE_REF_S over the host probe, here the mean of one probe taken before
the clock starts and one taken after it stops.

load_package and host_probe live here so that this script stays free of
the benchmark's other imports.
"""

import importlib
import os
import sys
from time import perf_counter

PACKAGE = "constacodes"
MODULES = ("gf2m", "polyring", "params", "factorizer", "chainring",
           "enumerator", "ambient", "cli")
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The host probe: a fixed piece of interpreter work (integer arithmetic,
# dict stores, tuple allocation), timed as the best of PROBE_REPEATS
# runs.  On a shared host, other tenants slow every CPU by up to 1.8x,
# in phases of one to ten seconds; the probe reads how fast the host ran
# at a given moment.  PROBE_REF_S is the probe's time in the fastest
# phase of the 2-vCPU host where the benchmark was written; a timing
# multiplied by PROBE_REF_S / probe is the time the work would have
# taken at that speed, so a phase of the host does not read as a change
# of the code.  Neither the constant nor the probe depends on the code
# under test.
PROBE_REPEATS = 3
PROBE_REF_S = 0.1e-3


def host_probe() -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        table = {}
        acc = 1
        for i in range(600):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
            table[acc & 255] = (acc, i)
        best = min(best, perf_counter() - t0)
    return best


class Package:
    """The imported package: Params plus one attribute per module."""

    def __init__(self, pkg, mods: dict) -> None:
        self.Params = pkg.Params
        self.__dict__.update(mods)


def load_package() -> Package:
    """Import constacodes afresh: drop every loaded module of it first."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    return Package(pkg, {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, SRC)
    before = host_probe()
    t0 = perf_counter()
    cc = load_package()
    imported = perf_counter() - t0
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    wl = WORKLOADS[name](os.devnull)
    t0 = perf_counter()
    wl.setup(cc, seed)
    raw = imported + perf_counter() - t0
    print(raw, raw * PROBE_REF_S / ((before + host_probe()) / 2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
