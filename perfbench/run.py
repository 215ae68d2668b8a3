#!/usr/bin/env python3
"""CPR benchmark: build the workload binary and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built from source with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`). Each run executes the workload in its own process and
prints, as the last line of stdout, one JSON object with `correct`,
`attempted`, `failed` and `metrics`:

* `--trace 0`: every end-to-end metric named in BENCHMARK.json;
* `--trace 1`: an untraced and a traced process back to back; every
  per-layer metric from the traced one, plus the tracing overhead as
  traced vs untraced `ops_per_s` and `cpu_us_per_op`.

Host-noise diagnostics (steal, CPU, context switches) and the failed /
attempted op counts are printed on the line before the result. Exits
non-zero, without a result line, if the build or a run fails; exits 1
after the result line if a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(os.getcwd(), ".perfbench-work")
# Each run process must end well inside the 180 s a benchmark run gets.
RUN_TIMEOUT_S = 80
DIAGNOSTICS = ("proc.steal_s", "proc.cpu_s", "proc.ctx_voluntary", "proc.ctx_involuntary")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    return os.path.join(target, "release", "perfbench")


def run_workload(binary, workload, seed, seconds, trace, created):
    """One workload process; returns its parsed report and exit code.

    The process's store directory is appended to `created`."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    created.append(os.path.join(WORK, tag))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", created[-1]]
    if trace:
        cmd += ["--spans", os.path.join(WORK, f"{workload}-seed{seed}.spans.csv")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no report (exit {proc.returncode})")
    report = json.loads(lines[-1])
    for note in report.get("notes", []):
        log(f"{workload}: {note}")
    for err in report.get("errors", []):
        log(f"{workload}: CHECK FAILED: {err}")
    return report, proc.returncode


def value(report, name):
    return report["metrics"][name]["value"]


def pick(report, specs):
    return {m["name"]: {"value": value(report, m["name"]), "unit": m["unit"]} for m in specs}


def diagnostics(workload, seed, report, label):
    d = " ".join(f"{n}={value(report, n):g}" for n in DIAGNOSTICS)
    print(f"# {workload} seed={seed} {label}: {d} "
          f"failed/attempted={report['failed']}/{report['attempted']}", flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    os.makedirs(WORK, exist_ok=True)
    # The workload binary removes its own store directory; this catches
    # one left behind by a crash or a timeout. Other runs' are left alone.
    created = []
    try:
        plain, code = run_workload(binary, args.workload, args.seed, args.seconds, False,
                                   created)
        diagnostics(args.workload, args.seed, plain, "untraced")
        if args.trace:
            traced, traced_code = run_workload(
                binary, args.workload, args.seed, args.seconds, True, created)
            diagnostics(args.workload, args.seed, traced, "traced")
            code = code or traced_code
            correct = plain["correct"] and traced["correct"]
            overhead = {
                "trace.ops_per_s_traced": value(traced, "ops_per_s"),
                "trace.ops_per_s_untraced": value(plain, "ops_per_s"),
                "trace.cpu_us_per_op_traced": value(traced, "cpu_us_per_op"),
                "trace.cpu_us_per_op_untraced": value(plain, "cpu_us_per_op"),
            }
            for m in spec["per_layer"]:
                if m["name"] in overhead:
                    traced["metrics"][m["name"]] = {"value": overhead[m["name"]]}
            log(f"{args.workload}: tracing overhead: ops_per_s "
                f"{overhead['trace.ops_per_s_traced'] / overhead['trace.ops_per_s_untraced']:.3f}x, "
                f"cpu_us_per_op "
                f"{overhead['trace.cpu_us_per_op_traced'] / overhead['trace.cpu_us_per_op_untraced']:.3f}x")
            result = {"correct": correct, "attempted": traced["attempted"],
                      "failed": traced["failed"], "metrics": pick(traced, spec["per_layer"])}
        else:
            result = {"correct": plain["correct"], "attempted": plain["attempted"],
                      "failed": plain["failed"], "metrics": pick(plain, spec["end_to_end"])}
    finally:
        for path in created:
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError,
            KeyError, ValueError, OSError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)
