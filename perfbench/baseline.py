#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records medians and quartiles.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Every workload of BENCHMARK.json runs once per seed, untraced; the spread of
a metric is the distance between its first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of its median. With
--traced, each workload also runs once traced, and its per-layer metrics are
recorded as measured. The raw wall figures of each run's `wall` line are
summarized beside the end-to-end metrics, which are at the reference speed.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    digest = next((l.split()[2] for l in lines if l.startswith("digest ")), None)
    wall = next(({k: float(v) for k, v in (f.split("=") for f in l.split()[2:])}
                 for l in lines if l.startswith("wall ")), {})
    return json.loads(lines[-1]), digest, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "cpu": cpu_model()},
        "run_seconds": spec["run_seconds"],
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    ok = True
    for wl in names:
        values, walls, digests, failed = {}, {}, {}, 0
        for seed in result["seeds"]:
            rep, digest, wall = run(wl, seed, spec["run_seconds"], 0)
            failed += rep["failed"]
            ok &= rep["correct"]
            digests[str(seed)] = digest
            for name, m in rep["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in wall.items():
                walls.setdefault(name, []).append(v)
            print(wl, seed, {k: round(v["value"], 4) for k, v in rep["metrics"].items()},
                  file=sys.stderr, flush=True)
        entry = {"failed": failed, "digests": digests,
                 "end_to_end": {k: summarize(v) for k, v in sorted(values.items())},
                 "wall": {k: summarize(v) for k, v in sorted(walls.items())}}
        if args.traced:
            rep, _, _ = run(wl, result["seeds"][0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: m["value"] for k, m in sorted(rep["metrics"].items())}
        result["workloads"][wl] = entry
        for k, s in entry["end_to_end"].items():
            flag = "" if k == "setup_s" or s["spread"] <= bounds[k] / 3 else "  > bound/3"
            print("%-12s %-18s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f (bound %.2f)%s"
                  % (wl, k, s["median"], s["q1"], s["q3"], s["spread"], bounds[k], flag))
        for k, s in entry["wall"].items():
            print("%-12s wall %-13s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f"
                  % (wl, k, s["median"], s["q1"], s["q3"], s["spread"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
