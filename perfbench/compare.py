#!/usr/bin/env python3
"""Summarise and compare perfbench results.

Every run appends one JSON record to `<target dir>/perfbench/results.jsonl`
(by default `.bench_build/perfbench/results.jsonl`), stamped with the host
fingerprint: nproc, CPU model, `rustc -V` and the build profile.

    python3 perfbench/compare.py spread RESULTS.jsonl
        Per workload and end-to-end metric: median, quartiles, and the
        quartile spread as a share of the median, against the metric's
        bound in BENCHMARK.json.

    python3 perfbench/compare.py diff BASE.jsonl NEW.jsonl
        Per workload and end-to-end metric: the change of the median, as a
        share of the base median, against the bound. Refuses (exit 2) when
        the two files were measured under different fingerprints.

Only untraced (`--trace 0`) records are read.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace") == 0:
                records.append(rec)
    if not records:
        sys.exit(f"error: {path} holds no untraced results")
    return records


def fingerprint(records, path):
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(prints) != 1:
        sys.exit(f"error: {path} mixes results from {len(prints)} fingerprints; split it first")
    return json.loads(prints.pop())


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def spread(path):
    records = load(path)
    fingerprint(records, path)
    bounds = json.loads(BENCHMARK.read_text())["end_to_end"]
    worst = 0.0
    for workload, recs in sorted(by_workload(records).items()):
        bad = sum(1 for r in recs if not r["correct"])
        print(f"{workload}: {len(recs)} runs, {bad} incorrect")
        for m in bounds:
            v = values(recs, m["name"])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            limit = "" if m["name"] == "setup_s" else f"  bound/3 {m['bound'] / 3:.4f}"
            flag = ""
            if m["name"] != "setup_s" and share >= m["bound"] / 3:
                flag = "  WIDE"
                worst = max(worst, share / m["bound"])
            print(f"  {m['name']:18} median {med:12.6g} {m['unit']:7} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f"  spread {share:.4f}{limit}{flag}")
    return 0


def diff(base_path, new_path):
    base, new = load(base_path), load(new_path)
    fb, fn = fingerprint(base, base_path), fingerprint(new, new_path)
    if fb != fn:
        print(f"refusing to compare: fingerprints differ\n  base {fb}\n  new  {fn}", file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    nb, nn = by_workload(base), by_workload(new)
    status = 0
    for workload in sorted(set(nb) & set(nn)):
        print(workload)
        for m in metrics:
            vb, vn = values(nb[workload], m["name"]), values(nn[workload], m["name"])
            if not vb or not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
            if worse > m["bound"]:
                status = 1
            print(f"  {m['name']:18} {mb:12.6g} -> {mn:12.6g} {m['unit']:7} {change:+.2%}  ({verdict}, bound {m['bound']:.0%})")
    return status


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return spread(argv[2])
    if len(argv) == 4 and argv[1] == "diff":
        return diff(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
