"""Print every benchmark metric by name and unit, with a verdict per workload.

    python3 benchmark/report.py

Run from the repository root.  For each workload this makes the runs of
`run.py --seed 0 --trace 1` for BENCHMARK.json's run_seconds (untraced
runs for the end-to-end metrics, one traced run for the per-layer
metrics) and prints both groups of metrics.
"""

import os
import sys

import run


def main():
    root = os.getcwd()
    e2e_units, layer_units, seconds = run.spec(root)
    verdicts = {}
    for name in run.WORKLOADS:
        with run.workdir(root, f"report-{name}") as work:
            res = run.measure(root, work, name, 0, seconds, True)
        for metrics, units in ((res["e2e"], e2e_units),
                               (res["layers"], layer_units)):
            if metrics is not None:
                run.print_metrics(name, metrics, units)
        verdicts[name] = (f"{'PASS' if res['correct'] else 'FAIL'} "
                          f"(failed {res['failed']}/{res['attempted']})")
    for name, verdict in verdicts.items():
        print(f"verdict {name}: {verdict}")
    return 0 if all(v.startswith("PASS") for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
