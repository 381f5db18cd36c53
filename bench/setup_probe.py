"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds taken by ``import loophom`` plus the workload's
``setup`` (build or parse its models and enumerate their basis windows).
Nothing but ``os``, ``sys`` and ``time`` (loaded by every interpreter at
start) is imported before the timed import, so it pays for every module
``loophom`` needs, as a fresh ``loophom`` process does.
"""

import os
import sys
from time import perf_counter


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = perf_counter()
    import loophom

    t1 = perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    t2 = perf_counter()
    workload.setup(loophom)
    t3 = perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
