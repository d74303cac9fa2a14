#!/usr/bin/env python3
"""The mcsafe benchmark: builds the checker from source, runs one workload.

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The workloads, metrics and seeds are described in perfbench/README.md; the
metric names and units are those BENCHMARK.json lists. The last line of
standard output is the run's result as one JSON object; it is also appended
to .bench_out/results.jsonl. Traced runs (--trace 1) write a
Chrome trace to .bench_out/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
OUT = ".bench_out"
WORKLOADS = ("corpus_cold", "prover_replay", "serve_mixed")


def run_timeout(seconds):
    """A run does a fixed amount of work, sized to take about --seconds
    after a set-up of a few seconds; this bounds a run on a host much
    slower than expected."""
    return 3 * seconds + 60


# Self-test: one planted fault per correctness check, each of which must
# make the run report "correct": false. (workload, trace, plant)
PLANTS = (
    ("corpus_cold", 0, "wrong-expectation"),
    ("corpus_cold", 1, "composition-drift"),
    ("prover_replay", 0, "flip-replay"),
    ("prover_replay", 0, "flip-omega"),
    ("serve_mixed", 0, "alter-response"),
    ("serve_mixed", 0, "drop-response"),
)


def build():
    """Configures (once) and builds the harness and the two binaries."""
    build_dir = os.path.join(ROOT, BUILD)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "-j", "4", "--target",
           "perfbench-harness", "perfbench-probe", "mcsafe-check",
           "mcsafe-serve"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def run_harness(build_dir, workload, seed, seconds, trace, plant=None):
    """Runs one workload; returns (exit code, stdout)."""
    run_dir = os.path.join(OUT, "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench-harness"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--check-bin",
           os.path.join(build_dir, "mcsafe-tools", "mcsafe-check",
                        "mcsafe-check"),
           "--serve-bin",
           os.path.join(build_dir, "mcsafe-tools", "mcsafe-serve",
                        "mcsafe-serve"),
           "--probe-bin", os.path.join(build_dir, "perfbench-probe"),
           "--run-dir", run_dir]
    if trace:
        cmd += ["--trace-out",
                os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))]
    if plant:
        cmd += ["--plant", plant]
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    # The harness times its set-up from this instant (same clock).
    cmd += ["--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    # Its own process group, so a timeout also stops the daemon and the
    # checker processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
        print("perfbench: %s did not finish in %d s"
              % (workload, run_timeout(seconds)), file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def last_json(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def load_catalogue():
    """BENCHMARK.json's metric lists: (end-to-end, per-layer), each a list
    of (name, unit)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def result_line(harness_result, trace):
    """The run's result: the harness's correctness and operation counts,
    and the metrics BENCHMARK.json lists for this kind of run, with their
    units. Returns None if an end-to-end metric was not measured."""
    end_to_end, per_layer = load_catalogue()
    measured = harness_result["metrics"]
    unknown = sorted(set(measured) - {n for n, _ in end_to_end + per_layer})
    if unknown:
        print("perfbench: not in BENCHMARK.json: " + ", ".join(unknown),
              file=sys.stderr)
    metrics = {}
    for name, unit in per_layer if trace else end_to_end:
        if name not in measured and not trace:
            print("perfbench: the workload did not measure " + name,
                  file=sys.stderr)
            return None
        # A traced run reports 0 for a layer the workload does not use.
        metrics[name] = {"value": measured.get(name, 0), "unit": unit}
    return {"correct": harness_result["correct"],
            "attempted": harness_result["attempted"],
            "failed": harness_result["failed"], "metrics": metrics}


def self_test(build_dir):
    """Clean runs must be correct and complete; every planted fault must
    be caught."""
    ok = True
    cases = [(w, t, None) for w in WORKLOADS for t in (0, 1)] + list(PLANTS)
    for workload, trace, plant in cases:
        code, out = run_harness(build_dir, workload, 1, 1, trace, plant)
        result = last_json(out) if code == 0 else None
        caught = result is not None and result["correct"] is (plant is None)
        # A clean run must also give every metric BENCHMARK.json lists.
        caught = caught and (plant is not None
                             or result_line(result, trace) is not None)
        ok &= caught
        print("%-4s %-13s trace=%d %-18s -> %s" % (
            "ok" if caught else "FAIL", workload, trace, plant or "(clean)",
            "no result" if result is None else
            "correct=%s failed=%d/%d" % (result["correct"], result["failed"],
                                         result["attempted"])))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="plant one fault per correctness check and confirm "
                         "that each is caught")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    build_dir = build()
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(build_dir)

    code, out = run_harness(build_dir, args.workload, args.seed, args.seconds,
                            args.trace)
    harness_result = last_json(out)
    if code != 0 or harness_result is None:
        sys.stdout.write(out)
        return code or 1
    result = result_line(harness_result, args.trace)
    if result is None:
        return 1
    # The harness's figures, then the result in place of its raw line.
    sys.stdout.write("".join(out.strip().splitlines(True)[:-1]))
    print(json.dumps(result))
    with open(os.path.join(ROOT, OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
