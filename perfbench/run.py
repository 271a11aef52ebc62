#!/usr/bin/env python3
"""Benchmark of the four paths users run: campaign, simgrid, serve, ingest.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload
    python3 perfbench/run.py --check                       # determinism

The first run configures and builds perfbench/ (which compiles ../src)
in Release mode into $CARGO_TARGET_DIR, default .bench_build; later runs
only re-check the build.  One run executes one workload and prints its
metrics by name with their units, then, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the
lines before it list each layer's self time.

The output checks live in wadp_perfbench (every round must reproduce
the warm-up round exactly) and here: for the seeds recorded in
perfbench/plan.json the outputs must equal the recorded ones.  Any
failed check makes the run exit 1.  --check runs every workload twice
with tracing on for the default and the held-out seed and requires every
per-layer count to repeat exactly.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["campaign", "simgrid", "serve", "ingest"]
RUN_TIMEOUT_S = 170

# The workload-specific names of the end-to-end metrics, printed
# alongside the generic names the result line uses.
NAMED = {
    "campaign": [("transfers_per_s", "throughput", "1/s")],
    "simgrid": [("sim_s_per_s", "throughput", "s/s")],
    "serve": [("queries_per_s", "throughput", "1/s"),
              ("batch_p50_us", "op_p50_us", "us"),
              ("batch_p90_us", "op_p90_us", "us"),
              ("batch_p99_us", "report.op_p99_us", "us")],
    "ingest": [("records_per_s", "throughput", "1/s"),
               ("record_p50_us", "op_p50_us", "us"),
               ("record_p90_us", "op_p90_us", "us"),
               ("record_p99_us", "report.op_p99_us", "us"),
               ("recover_s", "report.recover_s", "s")],
}
COMMON = [("setup_s", "setup_s", "s"),
          ("failed_frac", "report.failed_frac", "frac"),
          ("peak_rss_mb", "peak_rss_mb", "MB"),
          ("op_samples", "report.op_samples", "count")]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build():
    """Configures once, then builds wadp_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no wadp sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "wadp_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "wadp_perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    spans = os.path.join(work, f"spans-{workload}-{seed}.tsv")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", work, "--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no report (exit {done.returncode})")
    report = json.loads(lines[-1])
    golden = load_json(os.path.join(HERE, "plan.json"))["golden"]
    expected = golden.get(str(seed), {}).get(workload)
    if expected is not None and expected != report["check"]:
        report["correct"] = False
        report["errors"].append(
            f"outputs differ from those recorded for seed {seed}: "
            f"{report['check']} vs {expected}")
    if done.returncode != 0 and report["correct"]:
        report["correct"] = False
        report["errors"].append(f"wadp_perfbench exited {done.returncode}")
    return report


def lookup(report, key):
    if key.startswith("report."):
        return report["report"][key[len("report."):]]
    return report["e2e"][key]


def print_report(report, bench, trace):
    w = report["workload"]
    print(f"== {w} seed {report['seed']}: {report['rounds']} untraced and "
          f"{report['traced_rounds']} traced rounds, "
          f"{report['report']['op_samples']:.0f} op samples")
    for name, key, unit in NAMED[w] + COMMON:
        print(f"  {name:<24} {lookup(report, key):>16.6g} {unit}")
    for key, value in sorted(report["check"].items()):
        print(f"  check {key:<18} {value}")
    if trace:
        print("  per-layer (self seconds per round, counts per round):")
        for metric in bench["per_layer"]:
            value = report["layers"].get(metric["name"], 0.0)
            print(f"    {metric['name']:<26} {value:>16.6g} {metric['unit']}")
    for error in report["errors"]:
        print(f"  ERROR {error}")


def result_line(report, bench, trace):
    if trace:
        metrics = {m["name"]: {"value": report["layers"].get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report["e2e"][m["name"]],
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def run_all(binary, bench, seed, seconds, trace):
    reports = [run_workload(binary, w, seed, seconds, trace) for w in WORKLOADS]
    for report in reports:
        print_report(report, bench, trace)
    if trace:
        # Reducer view: each layer's self time per workload.
        print("self time per round (s) by layer and workload:")
        print(f"  {'layer':<26}" + "".join(f"{w:>12}" for w in WORKLOADS))
        for metric in bench["per_layer"]:
            name = metric["name"]
            if name.endswith("_s") or name == "trace.overhead_frac":
                print(f"  {name:<26}" + "".join(
                    f"{r['layers'].get(name, 0.0):>12.4g}" for r in reports))
    correct = all(r["correct"] for r in reports)
    print(json.dumps({r["workload"]: result_line(r, bench, trace)
                      for r in reports}))
    return 0 if correct else 1


def check(binary, bench, plan, seconds):
    """Counts repeat across processes and match between traced and
    untraced rounds (wadp_perfbench checks the latter within each run)."""
    counts = [m["name"] for m in bench["per_layer"]
              if not m["name"].endswith("_s")
              and m["name"] != "trace.overhead_frac"]
    ok = True
    for seed in (plan["default_seed"], plan["held_out_seed"]):
        for w in WORKLOADS:
            a = run_workload(binary, w, seed, seconds, 1)
            b = run_workload(binary, w, seed, seconds, 1)
            diffs = [n for n in counts
                     if a["layers"].get(n, 0.0) != b["layers"].get(n, 0.0)]
            good = a["correct"] and b["correct"] and not diffs \
                and a["check"] == b["check"]
            ok &= good
            print(f"seed {seed} {w:<9} {'ok' if good else 'FAIL'}"
                  + "".join(f" [{e}]" for e in a["errors"] + b["errors"])
                  + "".join(f" [{n}: {a['layers'].get(n)} vs {b['layers'].get(n)}]"
                            for n in diffs))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true",
                        help="determinism check on the recorded seeds")
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at the checkout root")
    bench = load_json(bench_path)
    plan = load_json(os.path.join(HERE, "plan.json"))
    binary = build()
    seed = plan["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    if args.check:
        return check(binary, bench, plan, min(seconds, 2.0))
    if args.workload == "all":
        return run_all(binary, bench, seed, seconds, args.trace)
    report = run_workload(binary, args.workload, seed, seconds, args.trace)
    print_report(report, bench, args.trace)
    print(json.dumps(result_line(report, bench, args.trace)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
