#!/usr/bin/env python3
"""Measures how steady the benchmark is and derives its bounds.

Run from the repository root:

    python3 perfbench/steadiness.py [--seeds 101-110] [--workloads a,b] [--out perfbench/calibration.json]

For every workload it makes one untraced run per seed and one traced run
on the first seed. For each end-to-end metric it reports the median of the
runs and their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The bound it
proposes for a metric is three times the largest spread any workload
showed, rounded up to a hundredth and kept within [0.05, 0.25]; setup_s
always gets 0.25, the largest bound. The figures, the workloads'
descriptions and the proposed bounds go to the --out file.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

# Parts of a workload's description the benchmark does not print.
DESCRIPTIONS = {
    "mono-paged": {
        "why": "A monolithic tklus.Build with DefaultConfig(): the paged metadb B+-tree with batched thread "
               "expansion and block-max on, no popcache or snapshots; what tklus-server serves with no flags. "
               "Metadb multi-gets and thread construction do most of the work, GC is a large share of query "
               "CPU, and there is no router and no segment store.",
        "arrangement": "tklus.Build(corpus, DefaultConfig())",
        "oracle": "internal/baseline ScanRanker (exhaustive) over the corpus",
        "flush_policy": "none: read-only, nothing is written to disk",
    },
    "sharded-wide": {
        "why": "BuildSharded with DefaultShardingConfig() (4 shards on 3-character geohash prefixes) and the "
               "reply-graph and row-meta snapshots on, queried at the paper's wide radii (Figs. 8/10). Queries "
               "fan out across shards, so per-candidate partials and the router merge do much of the work; the "
               "snapshots leave B+-tree page reads near zero, so a metadb change should not move this workload "
               "and a merge change should not move mono-paged.",
        "arrangement": "tklus.BuildSharded(corpus, DefaultConfig(WithReplySnapshot(), WithRowMetaSnapshot()), "
                       "DefaultShardingConfig())",
        "oracle": "a monolithic System built over the same corpus",
        "flush_policy": "none: read-only, nothing is written to disk",
    },
    "segments-ingest": {
        "why": "EnableSegments over the base corpus, then a seeded stream of later posts ingested in fixed "
               "batches over 4 checkpoints, each followed by its own slice of the query list; half the queries "
               "carry a window over the last bucket width before the newest ingested post. Writes run beside reads on the segment store (memtable, "
               "seal, mmap reads, window pruning) while the paged metadb and the router do little; a gain for "
               "reads that costs ingest, or the reverse, shows up here.",
        "arrangement": "tklus.Build(base, DefaultConfig(WithReplySnapshot())) + EnableSegments("
                       "BucketWidth 16 days); the base covers 6 buckets, the stream 4.5, so it crosses 4 "
                       "bucket boundaries; SealNow after checkpoints 1 and 3, Compact after 2 and 3",
        "oracle": "a monolithic System built over the base plus the stream posts ingested by each checkpoint",
        "flush_policy": "no WAL attached; ingest is in memory until a seal, and every seal and compaction "
                        "writes its segment to a tmp file, fsyncs it, renames it into place and commits a "
                        "MANIFEST the same way",
    },
}

SETUP_BOUND = 0.25


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("%s failed (exit %d):\n%s\n%s" % (" ".join(cmd), p.returncode, p.stdout[-3000:], p.stderr[-3000:]))
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--workloads", default="mono-paged,sharded-wide,segments-ingest")
    ap.add_argument("--out", default="perfbench/calibration.json")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]

    out = {"claim": None, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = {m: 0.0 for m in metrics}
    for w in args.workloads.split(","):
        values = {m: [] for m in metrics}
        inputs = ""
        for seed in args.seeds:
            res, report = run(w, seed, seconds, 0)
            if not res["correct"] or res["failed"]:
                sys.exit("%s seed %d: incorrect run: %s" % (w, seed, res))
            for m in metrics:
                values[m].append(res["metrics"][m]["value"])
            inputs = next(l for l in report if l.startswith("inputs: "))[len("inputs: "):]
            print(w, seed, {m: round(values[m][-1], 4) for m in metrics}, flush=True)
        traced, report = run(w, args.seeds[0], seconds, 1)
        share = next((l for l in report if l.startswith("router: ")), None)
        overhead = next(l for l in report if l.startswith("tracing overhead: "))
        entry = dict(DESCRIPTIONS[w])
        entry.update({
            "inputs": inputs,
            "attempted_per_run": res["attempted"],
            "median": {m: statistics.median(v) for m, v in values.items()},
            "spread": {m: spread(v) for m, v in values.items()},
            "values": values,
            "traced_seed": args.seeds[0],
            "tracing_overhead": overhead[len("tracing overhead: "):],
            "per_layer": {k: v["value"] for k, v in sorted(traced["metrics"].items())},
        })
        if share:
            entry["multi_shard_queries"] = share[len("router: "):]
        out["workloads"][w] = entry
        for m in metrics:
            worst[m] = max(worst[m], entry["spread"][m])

    bounds = {}
    for m in metrics:
        b = min(0.25, max(0.05, math.ceil(300 * worst[m]) / 100))
        if m == "setup_s":
            b = SETUP_BOUND
        bounds[m] = {"largest_spread": worst[m], "bound": b}
    out["bounds"] = bounds
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    for m in metrics:
        declared = next(e["bound"] for e in bench["end_to_end"] if e["name"] == m)
        print("%-14s largest spread %.4f -> bound %.2f (BENCHMARK.json: %.2f)"
              % (m, worst[m], bounds[m]["bound"], declared))


if __name__ == "__main__":
    main()
