"""Set-up probe, run in a fresh process by ``run.py``.

Prints the seconds from before ``import poissonlab`` through the end of the
workload's first, cold operation, then the time of the reference kernel in
``calib.py`` measured right after it:

    python3 bench/cold.py WORKLOAD SEED OUTDIR
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import poissonlab  # noqa: E402,F401
import workloads  # noqa: E402


def main() -> int:
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make(name, seed, outdir).setup_op()()
    elapsed = time.perf_counter() - T0
    import calib
    print(f"{elapsed:.9f} {calib.Kernel().measure():.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
