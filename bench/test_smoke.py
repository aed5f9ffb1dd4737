"""Smoke test of the benchmark: one tiny pass of every workload.

    python3 -m pytest bench/test_smoke.py
    python3 bench/test_smoke.py

It runs `bench/run.py --workload all --quick` untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit for every
workload, and that no reply failed its check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def printed_metrics(trace):
    """{workload: {metric: (value, unit)}} from the human-readable lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    out, section = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            section = out.setdefault(line[3:], {})
        elif section is not None and line and line[0].isalpha() \
                and not line.startswith("env "):
            name, value, unit = line.split()[:3]
            section[name] = (float(value), unit)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return out


def expected(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench, {m["name"]: m["unit"] for m in bench[kind]}


def check(trace, kind):
    bench, names = expected(kind)
    printed = printed_metrics(trace)
    assert sorted(printed) == sorted(w["name"] for w in bench["workloads"])
    for workload, metrics in printed.items():
        for name, unit in names.items():
            assert name in metrics, (workload, name)
            assert metrics[name][1] == unit, (workload, name, metrics[name])
        if not trace:
            assert metrics["failed_frac"][0] == 0.0, workload


def test_end_to_end_metrics_printed():
    check(0, "end_to_end")


def test_per_layer_metrics_printed():
    check(1, "per_layer")


if __name__ == "__main__":
    test_end_to_end_metrics_printed()
    test_per_layer_metrics_printed()
    print("bench smoke test: PASS")
