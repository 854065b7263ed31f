#!/usr/bin/env python3
"""Smoke run of every workload on tiny inputs.

    python3 perfbench/tests/smoke_test.py PATH/TO/perfbench

Each workload runs once untraced and once traced. The last output line must
be the result object with exactly its four keys and no failed op. Untraced,
the metrics must be exactly BENCHMARK.json's end-to-end metrics, none of
them 0; traced, exactly its per-layer metrics. Each carries the unit
BENCHMARK.json declares for it.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def main():
    program = sys.argv[1]
    with open(BENCHMARK) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace, names in (("0", end_to_end), ("1", per_layer)):
                run = subprocess.run(
                    [program, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace, "--workdir",
                     os.path.join(workdir, workload), "--smoke"],
                    capture_output=True, text=True, timeout=170)
                where = "%s trace=%s" % (workload, trace)
                if run.returncode != 0:
                    failures.append("%s: exit %d\n%s" %
                                    (where, run.returncode, run.stderr[-2000:]))
                    continue
                result = json.loads(run.stdout.splitlines()[-1])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    failures.append("%s: keys %s" % (where, sorted(result)))
                if not result["correct"] or result["failed"] != 0 or \
                        result["attempted"] < 1:
                    failures.append("%s: %s" % (where, run.stdout))
                got = result["metrics"]
                if sorted(got) != sorted(names):
                    failures.append("%s: metrics %s, want %s" %
                                    (where, sorted(got), sorted(names)))
                for name, metric in got.items():
                    if metric.get("unit") != units.get(name):
                        failures.append("%s: %s unit %s, want %s" % (
                            where, name, metric.get("unit"), units.get(name)))
                    value = metric.get("value")
                    if not isinstance(value, (int, float)):
                        failures.append("%s: %s value %r" %
                                        (where, name, value))
                    elif trace == "0" and value == 0:
                        failures.append("%s: %s is 0" % (where, name))
                print("ok" if not failures else "FAIL", where, flush=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
