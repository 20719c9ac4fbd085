#!/usr/bin/env python3
"""Run one benchmark workload of the pgasm pipeline and print its result.

    python3 perfbench/run.py --workload wgs_asm_p4 --seed 3 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout. The script builds perfbench/ (the
library straight from src/) with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the pgasm_e2e program, and prints for
each workload one line per metric with its unit, the correctness verdict,
and then one JSON object with the keys correct, attempted, failed and
metrics; for a single workload that object is the last line. With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with --trace 1
its per_layer metrics. --out FILE appends the full result record, machine
fingerprint included, to FILE as one JSON line; perfbench/gate.py compares
two such files. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_PAD_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configure and build pgasm_e2e; returns its path. Raises on failure."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                check=True, stdout=sys.stderr, timeout=600)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=900)
    return os.path.join(build_dir, "pgasm_e2e")


def source_digest():
    """sha256 over the files the benchmark builds from and runs."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".pyc",)):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def fingerprint(transport):
    """What must match before two results may be compared (gate.py)."""
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "transport": transport,
        "git": git_revision(),
        "source_sha": source_digest(),
    }


def run_workload(exe, spec, workload, seed, seconds, trace):
    """Run pgasm_e2e once; returns the result record."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", os.path.join(ROOT, ".bench_work")]
    # A process group of its own, so that a timeout also stops the forked
    # children of pgasm_e2e and their vmpi rank processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=seconds + RUN_TIMEOUT_PAD_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("pgasm_e2e timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"pgasm_e2e exited with {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for m in wanted:
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint(raw["transport"]),
        "correct": bool(raw["ok"]) and not missing,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "mismatched": raw["mismatched"],
        "errors": raw["errors"],
        "missing": missing,
        "extra": {k: v for k, v in raw["metrics"].items() if k not in metrics},
        "metrics": metrics,
    }


def report(rec):
    """Human-readable lines for one result record."""
    failed_frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    verdict = "correct" if rec["correct"] else "INCORRECT"
    print(f"[{rec['workload']} seed={rec['seed']} trace={rec['trace']}] "
          f"{verdict}: {rec['attempted']} attempted, {rec['failed']} failed "
          f"(failed_frac={failed_frac:.4g}), {rec['mismatched']} digest "
          f"mismatches")
    fp = rec["fingerprint"]
    print(f"  machine: {fp['cpu_model']}, nproc {fp['nproc']}, "
          f"{fp['build_type']}, transport {fp['transport']}, git {fp['git']}, "
          f"source {fp['source_sha']}")
    for err in rec["errors"]:
        print(f"  failure: {err}")
    for name in rec["missing"]:
        print(f"  missing metric: {name}")
    for name, m in rec["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, v in sorted(rec["extra"].items()):
        print(f"  {name:32s} {v:.6g} (not gated)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result record(s) here")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        log(f"unknown workload {args.workload!r}; have {names}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(ROOT, build_dir))

    # One report and one result line per workload; with a single workload
    # the result line is the last line of the output.
    for w in todo:
        rec = run_workload(exe, spec, w, args.seed, args.seconds, args.trace)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        report(rec)
        print(json.dumps({key: rec[key] for key in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
