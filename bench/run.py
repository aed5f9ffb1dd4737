#!/usr/bin/env python3
"""Closed-loop benchmark of the orthoposet command line.

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 12
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 1

One caller sends the requests of a workload one after another through
`orthoposet.cli.main(argv)` in this process, with stdout captured, and
checks every reply. Between requests it times a fixed reference loop, and
each end-to-end time is given in reference seconds: its wall time scaled by
REF_S over the loop's time measured around it (see scaled). The program is
imported from `src/` of the checkout this file sits in; no subprocess per
request, no worker pool, and BLAS runs one thread (see BLAS_THREADS). With
`--trace 1` the run is split: an untraced half, then a traced half that
gives the per-layer numbers (see spans.py). `--workload all` runs each
workload in its own process. The last line of stdout is one JSON object.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUPS = 3              # setup_s is the median of this many fresh set-ups
CHILD_TIMEOUT_S = 170
QUICK_REQUESTS = 3
# OpenBLAS's default on a 2-vCPU shared host is 2 threads. There a small
# SVD waits on the second vCPU: the m = 2 recipes of solve-tall took 40-110
# ms with 2 threads and 4-7 ms with 1, and the requests after them ran up
# to 3x slower. One thread measures the program, not that wait.
BLAS_THREADS = "1"
# The reference loop: REF_ITERATIONS steps of plain Python arithmetic and
# REF_EIGH numpy eigh calls on a 5x5 matrix, the program's two kinds of
# work, taken as REF_S long. The loop's time follows the host's speed from
# moment to moment, so a time divided by it no longer does.
REF_ITERATIONS = 8000
REF_EIGH = 30
REF_S = 0.001
REF_REPEATS = 3

# metrics of the final JSON line with --trace 0; BENCHMARK.json lists them
END_TO_END = ("setup_s", "requests_per_s", "request_s.p50", "peak_rss_mb")


class Harness:
    """One workload's inputs, written to disk, and the closed loop over them."""

    def __init__(self, name, seed, quick, workdir):
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import orthoposet.cli
        if Path(orthoposet.cli.__file__).resolve().parent.parent != SRC:
            raise SystemExit("bench: orthoposet imported from %s, not %s"
                             % (orthoposet.cli.__file__, SRC))
        self.cli = orthoposet.cli
        self.reqs = workloads.generate(name, seed)
        if quick:
            self.reqs = self.reqs[:QUICK_REQUESTS]
        self.argvs = workloads.write_inputs(self.reqs, workdir)
        self.attempted, self.failed = 0, 0
        load_s = time.perf_counter() - t0
        # the reference needs numpy, so it is timed after loading; the
        # warm-up pass scales its own requests
        ref = reference_s()
        warm_s, wall_warm_s = self.run_pass(record=False)
        self.setup_s = scaled(load_s, ref) + warm_s
        self.wall_setup_s = load_s + wall_warm_s
        self.reset()

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                # a crash is a failed reply; the loop goes on
                code = None
                traceback.print_exc(file=sys.__stderr__)
        return time.perf_counter() - t0, code, out.getvalue()

    def run_pass(self, record=True, before=None):
        """One pass; returns its busy time in reference and wall seconds."""
        busy, wall_busy = 0.0, 0.0
        ref_before = reference_s()
        for req, argv in zip(self.reqs, self.argvs):
            if before is not None:
                before()
            wall, code, out = self.call(argv)
            ref_after = reference_s()
            seconds = scaled(wall, (ref_before + ref_after) / 2.0)
            ref_before = ref_after
            busy += seconds
            wall_busy += wall
            if record:
                self.record(req, seconds, wall, code, out)
        return busy, wall_busy

    def record(self, req, seconds, wall, code, out):
        """Check one reply, whose latency is `seconds` in reference seconds
        and `wall` in wall seconds."""
        ok, families = workloads.check_reply(req, code, out)
        self.attempted += 1
        self.latencies.append(seconds)
        self.walls.append(wall)
        self.output_bytes += len(out)
        if ok:
            self.families += families
        else:
            self.failed += 1
            print("bench: reply check failed: %s (exit %r)"
                  % (req["label"], code), file=sys.stderr)

    def run_for(self, seconds, min_requests, before=None, between=()):
        """Whole passes until their time and the request floor are both met.

        Each call in `between` runs once, after a pass. Spacing the passes
        out this way lets them sample more of the machine's slow swings in
        speed, which last tens of seconds on a shared host.
        """
        between, spent = list(between), 0.0
        while (spent == 0.0 or spent < seconds
               or len(self.latencies) < min_requests):
            start = time.perf_counter()
            self.run_pass(before=before)
            spent += time.perf_counter() - start
            if between:
                between.pop(0)()
        for call in between:
            call()

    def reset(self):
        """Start a new measuring window; attempted and failed carry on."""
        self.latencies, self.walls = [], []
        self.families, self.output_bytes = 0, 0

    def passes(self):
        return len(self.latencies) // len(self.reqs)

    def request_medians(self, latencies=None):
        """Each request's median latency over the passes.

        Their median is the run's p50, and their sum the time of a typical
        pass. Taken over all latencies at once, the p50 jumped between the
        two requests either side of the middle as noise reordered their
        samples; and one slow request moved its pass's rate.
        """
        lat = self.latencies if latencies is None else latencies
        n = len(self.reqs)
        return [statistics.median(lat[i::n]) for i in range(n)]

    def requests_per_s(self, latencies=None):
        """Requests per reference second of a typical pass."""
        return len(self.reqs) / sum(self.request_medians(latencies))


def reference_s():
    """Fastest of REF_REPEATS timings of the reference loop, in seconds."""
    import numpy
    m = numpy.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (5, 5))
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i % 7
        for _ in range(REF_EIGH):
            w, v = numpy.linalg.eigh(m)
            (v * w) @ v.T
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall_s, ref_s):
    """Wall seconds in reference seconds, given the reference loop's time
    around them (for a request, the mean of its times just before and just
    after).

    On a shared host the speed of one vCPU swings by a third or more, in
    phases from under a second to minutes. Over 360 s of a fixed loop,
    medians of 30 s windows spread 0.35 (quartile distance over median).
    Over six runs of two passes, the coefficient of variation of the
    scaled busy time was 0.026 on solve-tall and 0.059 on oracle-confirm,
    against 0.071 and 0.158 in wall time.
    """
    return wall_s * REF_S / ref_s


def environment(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    config, threads = openblas_runtime()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas["blas"].get("name"),
            "blas_version": blas["blas"].get("version"),
            "lapack": blas["lapack"].get("name"),
            "openblas_config": config, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "seed": seed}


def openblas_runtime():
    """(config string, thread count) of the OpenBLAS bundled with numpy.

    The library is already loaded, so opening it again returns the same
    handle and the thread count numpy runs with.
    """
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, prefix + "openblas_get_num_threads" + suffix,
                          None)
            conf = getattr(lib, prefix + "openblas_get_config" + suffix, None)
            if get is not None and conf is not None:
                get.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
                return conf().decode(), get()
    return None, None


def latency_metrics(h):
    lat = h.latencies
    m = {"requests_per_s": (h.requests_per_s(), "1/s"),
         "request_s.p50": (statistics.median(h.request_medians()), "s"),
         "families_per_s": (h.families / sum(lat), "1/s"),
         "wall.requests_per_s": (h.requests_per_s(h.walls), "1/s"),
         "failed_frac": (h.failed / h.attempted, "ratio")}
    if len(lat) >= 100:
        m["request_s.p90"] = (statistics.quantiles(lat, n=10)[-1], "s")
    return m


def timed_run(h, args):
    min_requests = 1 if args.quick else workloads.WORKLOADS[args.workload][1]
    seconds = 0 if args.quick else args.seconds
    setup_samples, wall_setups = [h.setup_s], [h.wall_setup_s]

    def child_setup():
        setup_s, wall_setup_s = setup_in_child(args)
        setup_samples.append(setup_s)
        wall_setups.append(wall_setup_s)
    h.run_for(seconds, min_requests,
              between=[child_setup] * (0 if args.quick else SETUPS - 1))
    metrics = latency_metrics(h)
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["wall.setup_s"] = (statistics.median(wall_setups), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, setup_samples


def traced_run(h, args, spans_path):
    from spans import Tracer
    seconds = 0 if args.quick else args.seconds / 2.0
    h.run_for(seconds, 1)
    untraced = h.requests_per_s()
    h.reset()
    tracer = Tracer()
    tracer.install()

    def begin():
        tracer.request += 1
    h.run_for(seconds, 1, before=begin)
    passes = h.passes()
    tracer.write(spans_path)
    traced = h.requests_per_s()
    layers, by_name = tracer.layer_totals()

    def per_pass(x):
        return x / passes

    def frac(num, den):
        return num / den if den else 0.0

    def name_stat(name, key):
        return by_name.get(name, {}).get(key, 0)

    c, hi = tracer.counts, tracer.maxima
    m = {"cli.output_bytes": (per_pass(h.output_bytes), "B/pass")}
    for layer, totals in layers.items():
        if layer != "cli":
            m[layer + ".calls"] = (per_pass(totals["calls"]), "count/pass")
        m[layer + ".self_s"] = (per_pass(totals["self_s"]), "s/pass")
    m.update({
        "poset.classify.calls": (per_pass(name_stat("poset.classify", "calls")),
                                 "count/pass"),
        "poset.classify.s": (per_pass(name_stat("poset.classify", "s")),
                             "s/pass"),
        "chain.chains": (per_pass(c.get("chain.chains", 0)), "count/pass"),
        "chain.max_dim": (hi.get("chain.max_dim", 0), "n"),
        "builder.families": (per_pass(c.get("builder.families", 0)),
                             "count/pass"),
        "verify.commutant.calls": (
            per_pass(name_stat("verify.commutant_dim", "calls")), "count/pass"),
        "verify.commutant.s": (per_pass(name_stat("verify.commutant_dim", "s")),
                               "s/pass"),
        "verify.commutant.n_max": (hi.get("verify.commutant.n_max", 0), "n"),
        "verify.passed_frac": (frac(c.get("verify.passed", 0),
                                    name_stat("verify.check_all", "calls")),
                               "ratio"),
        "oracle.profiles": (per_pass(c.get("oracle.profiles", 0)),
                            "count/pass"),
        "oracle.found_frac": (frac(c.get("oracle.found", 0),
                                   name_stat("oracle.search_numeric", "calls")),
                              "ratio"),
        "trace.spans": (per_pass(len(tracer.names)), "count/pass"),
        "trace.requests_per_s": (traced, "1/s"),
        "trace.overhead_requests_per_s": (traced - untraced, "1/s"),
    })
    return m


def setup_in_child(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench: set-up child exited %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["wall_setup_s"]


def run_workload(args):
    RESULTS.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=RESULTS) as work:
        h = Harness(args.workload, args.seed, args.quick, work)
        if args.setup_only:
            print(json.dumps({"setup_s": h.setup_s,
                              "wall_setup_s": h.wall_setup_s}))
            return 0
        if args.trace:
            metrics = traced_run(h, args, RESULTS / (tag + ".spans.jsonl"))
            setup_samples = [h.setup_s]
        else:
            metrics, setup_samples = timed_run(h, args)
    env = environment(args.seed)
    for name, (value, unit) in sorted(metrics.items()):
        extra = ""
        if name.startswith("request_s."):
            extra = "  (n=%d)" % len(h.latencies)
        print("%-32s %.6g %s%s" % (name, value, unit, extra))
    print("env " + json.dumps(env, sort_keys=True))
    keep = sorted(metrics) if args.trace else END_TO_END
    result = {"correct": h.failed == 0, "attempted": h.attempted,
              "failed": h.failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                          for k in keep}}
    with open(RESULTS / (tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "env": env,
                   "setup_samples_s": setup_samples, "all_metrics": {
                       k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()},
                   "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        print("== %s" % name, flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * (SETUPS + 2))
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("bench: %s exited %d" % (name, proc.returncode),
                  file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, key)] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of %d requests, one set-up (smoke test)"
                        % QUICK_REQUESTS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # before numpy loads; the set-up children inherit it
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    if not (SRC / "orthoposet" / "__init__.py").is_file():
        print("bench: no orthoposet sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
