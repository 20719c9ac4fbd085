#!/usr/bin/env python3
"""Compare two sets of benchmark results under BENCHMARK.json's bounds.

    python3 perfbench/gate.py compare BASE.jsonl NEW.jsonl
    python3 perfbench/gate.py selftest RESULTS.jsonl

Each file holds result records written by `perfbench/run.py --out FILE`,
one JSON object per line; only untraced (--trace 0) records are compared.
For every workload present in both files, and every end_to_end metric, the
gate takes each side's median and flags the new side when it is worse than
the base by more than the metric's bound. It also flags a workload whose
new runs fail a larger share of their operations, or whose runs are not
correct. Results whose machine fingerprints differ (CPU model, nproc, build
type, transport) are refused rather than compared.

Exit status: 0 no regression, 1 regression flagged, 2 refused or nothing
comparable.

`selftest` proves the gate can fire: the result set compared with itself
must pass, a copy with every wall_s scaled by 1.25 must be flagged on each
workload, and a copy with another CPU model must be refused.
"""

import copy
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fingerprint fields that must match; git and source_sha name the revisions
# being compared and are reported, not matched.
MATCHED = ("cpu_model", "nproc", "build_type", "transport")

PASS, FLAGGED, REFUSED = 0, 1, 2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_records(path):
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return [r for r in recs if r.get("trace", 0) == 0]


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def fingerprints(records):
    return {tuple((k, r["fingerprint"].get(k)) for k in MATCHED)
            for r in records}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def compare(spec, base, new, out=print):
    """Returns PASS, FLAGGED or REFUSED and prints one row per metric."""
    base_w, new_w = by_workload(base), by_workload(new)
    common = sorted(set(base_w) & set(new_w))
    if not common:
        out("no workload present in both result sets")
        return REFUSED
    status = PASS
    for w in common:
        fb, fn = fingerprints(base_w[w]), fingerprints(new_w[w])
        if len(fb) != 1 or fb != fn:
            out(f"{w}: REFUSED, machine fingerprints differ: "
                f"base {sorted(fb)} new {sorted(fn)}")
            return REFUSED
        revs = lambda rs: sorted({r["fingerprint"].get("source_sha")
                                  for r in rs})
        out(f"{w}: {len(base_w[w])} base runs {revs(base_w[w])}, "
            f"{len(new_w[w])} new runs {revs(new_w[w])}")
        if not all(r["correct"] for r in new_w[w]):
            out(f"  FLAGGED: a new run is not correct")
            status = FLAGGED

        def fail_frac(rs):
            return (sum(r["failed"] for r in rs) /
                    max(1, sum(r["attempted"] for r in rs)))
        if fail_frac(new_w[w]) > fail_frac(base_w[w]):
            out(f"  FLAGGED: failed_frac {fail_frac(base_w[w]):.4g} -> "
                f"{fail_frac(new_w[w]):.4g}")
            status = FLAGGED
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base_w[w]
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in new_w[w]
                  if name in r["metrics"]]
            if not bv or not nv:
                out(f"  {name}: missing on one side")
                status = FLAGGED
                continue
            b, n = statistics.median(bv), statistics.median(nv)
            change = (n - b) / abs(b) if b else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "FLAGGED"
                status = FLAGGED
            elif spread(bv) > m["bound"]:
                verdict = "unresolved (base spread exceeds bound)"
            out(f"  {name:22s} {b:.6g} -> {n:.6g} {m['unit']:6s} "
                f"{change:+.2%} (bound {m['bound']:.0%} {m['better']} "
                f"better) {verdict}")
    return status


def selftest(spec, records):
    quiet = lambda _msg: None
    ok = True
    if compare(spec, records, records, quiet) != PASS:
        print("selftest: identical result sets did not pass")
        ok = False
    slow = copy.deepcopy(records)
    for r in slow:
        r["metrics"]["wall_s"]["value"] *= 1.25
    for w, rs in sorted(by_workload(records).items()):
        slow_w = [r for r in slow if r["workload"] == w]
        if compare(spec, rs, slow_w, quiet) != FLAGGED:
            print(f"selftest: wall_s x1.25 not flagged on {w}")
            ok = False
    foreign = copy.deepcopy(records)
    for r in foreign:
        r["fingerprint"]["cpu_model"] += " (other machine)"
    if compare(spec, records, foreign, quiet) != REFUSED:
        print("selftest: a different machine fingerprint was not refused")
        ok = False
    print(f"selftest: {'pass' if ok else 'FAIL'} over "
          f"{len(by_workload(records))} workloads, {len(records)} records")
    return PASS if ok else FLAGGED


def main(argv):
    if len(argv) == 3 and argv[0] == "compare":
        return compare(load_spec(), load_records(argv[1]),
                       load_records(argv[2]))
    if len(argv) == 2 and argv[0] == "selftest":
        return selftest(load_spec(), load_records(argv[1]))
    print(__doc__, file=sys.stderr)
    return REFUSED


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
