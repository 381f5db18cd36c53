"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py [--workload NAME ...] [--seeds 0-9 [--seeds 10-19 ...]]
                            [--seconds 40] [--traced] [--write FILE]

Runs ``bench/run.py`` once per workload and seed, one process at a time,
and prints for each set of seeds and each end-to-end metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` gives it.
With more than one set it also prints how far each later set's median
lies from the first set's, in the metric's worse direction.  The sets of
one workload run back to back.  ``--traced`` adds one traced run per
workload on the first seed; ``--write`` saves everything as JSON
(``BASELINE.json`` was made this way).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks\n{proc.stdout}")
    return result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", action="append", type=seed_range, help="a set of seeds, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", metavar="FILE")
    args = parser.parse_args()
    seed_sets = args.seeds or [seed_range("0-9")]

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "seconds": args.seconds, "seed_sets": seed_sets, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = []
        for k, seeds in enumerate(seed_sets):
            runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
            entry = {}
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                entry[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                               "bound": m["bound"], "unit": m["unit"], "values": values}
                line = (f"{workload:15s} set {k + 1} {name:14s} median {med:12.6g}  q1 {q1:12.6g}  "
                        f"q3 {q3:12.6g}  spread {(q3 - q1) / med:7.2%}  bound {m['bound']:.0%}")
                if k:
                    first = sets[0][name]["median"]
                    worse = (med - first) / first * (1 if m["better"] == "lower" else -1)
                    entry[name]["worse_than_set_1"] = worse
                    line += f"  worse than set 1 by {worse:+.2%}"
                print(line + f"  values {' '.join(f'{v:.6g}' for v in values)}", flush=True)
            sets.append(entry)
        entry = {"sets": sets}
        if args.traced:
            traced = run_once(workload, seed_sets[0][0], args.seconds, 1)
            entry["per_layer_seed"] = seed_sets[0][0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
