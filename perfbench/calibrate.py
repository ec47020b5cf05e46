#!/usr/bin/env python3
"""Measures what serve_cold's fixed arrival rate is a fraction of.

    python3 perfbench/calibrate.py [--rates 500,1000,...] [--seed 1]
        [--seconds 5]

Run from the repository root. Drives serve_cold open loop at each rate in
turn (run.py --rate) and prints, per rate, the completed requests per
second, the latency quantiles and the router's mean batch and hedge
count. Past the router's saturation throughput the completed rate stops
following the offered one and latency climbs with the backlog; the
largest completed rate seen is printed as the saturation estimate.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(rate, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "serve_cold", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--rate", str(rate)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    out = p.stdout
    lines = out.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"calibrate: rate {rate}: no result\n{p.stderr[-2000:]}")
    metrics = json.loads(lines[-1])["metrics"]
    lat = re.search(r"p95 ([\d.]+)\s+p99 ([\d.]+)", out)
    router = dict(re.findall(r"(\w+) ([\d.]+)",
                             re.search(r"^router: (.*)$", out, re.M)[1]))
    return {
        "achieved": metrics["req_per_s"]["value"],
        "p50": metrics["latency_p50_us"]["value"],
        "p95": float(lat[1]),
        "p99": float(lat[2]),
        "mean_batch": float(router["mean_batch"]),
        "hedges": int(router["hedges"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", default="500,1000,2000,3000,4000,5000,6000,8000")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    args = ap.parse_args()

    print(f"{'offered':>8} {'achieved':>9} {'p50_us':>9} {'p95_us':>9} "
          f"{'p99_us':>9} {'batch':>6} {'hedges':>7}", flush=True)
    best = 0.0
    for rate in (float(r) for r in args.rates.split(",")):
        r = run(rate, args.seed, args.seconds)
        best = max(best, r["achieved"])
        print(f"{rate:8.0f} {r['achieved']:9.1f} {r['p50']:9.1f} "
              f"{r['p95']:9.1f} {r['p99']:9.1f} {r['mean_batch']:6.3f} "
              f"{r['hedges']:7d}", flush=True)
    print(f"saturation estimate: {best:.0f} req/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
