#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

For every workload, traced and untraced, it checks that the run passes its
own correctness checks and prints every metric BENCHMARK.json names, with
that metric's unit. It then corrupts one output per workload (a y entry on
solve, an answer on the serve workloads) and checks that the run reports
the failure and exits non-zero; on solve it also writes a NaN into the y of
a job run in a converted format, which the tolerance check must catch.
Finally it checks that the solve trace links a job's spans by job id, and
that perfbench/layers.json covers exactly the per-layer metrics of
BENCHMARK.json and maps them only to its end-to-end metrics and workloads.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402  (build_dir: where traces land)

WORKLOADS = ("serve_cold", "serve_hot", "solve")


def run(workload, trace, corrupt=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "2",
           "--trace", str(trace), "--scale", "tiny",
           "--corrupt", str(corrupt)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return p.returncode, result, p


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    failures = []

    def expect(cond, msg):
        if not cond:
            failures.append(msg)
            print("FAIL:", msg, flush=True)

    names = [m["name"] for m in bench["per_layer"]]
    expect(sorted(names) == sorted(l["name"] for l in layers["layers"]),
           "layers.json and BENCHMARK.json list different per-layer metrics")
    expect(layers.get("claim", "missing") is None, "layers.json claim is not null")
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for layer in layers["layers"]:
        for move in layer["moves"]:
            expect(move["metric"] in e2e and set(move["on"]) <= workloads,
                   f"layers.json: {layer['name']} maps to an unknown "
                   f"metric or workload: {move}")
        expect(set(layer["not_on"]) <= workloads,
               f"layers.json: {layer['name']} not_on names an unknown workload")

    for w in WORKLOADS:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, res, p = run(w, trace)
            tag = f"{w} trace={trace}"
            expect(rc == 0, f"{tag}: exit code {rc}\n{p.stderr[-2000:]}")
            if res is None:
                expect(False, f"{tag}: no JSON result on the last line")
                continue
            expect(res["correct"] is True and res["failed"] == 0,
                   f"{tag}: correct={res['correct']} failed={res['failed']}")
            expect(res["attempted"] >= 1, f"{tag}: attempted < 1")
            got = res["metrics"]
            expect(sorted(got) == sorted(m["name"] for m in wanted),
                   f"{tag}: metric names differ from BENCHMARK.json")
            for m in wanted:
                v = got.get(m["name"])
                expect(v is not None and v["unit"] == m["unit"]
                       and isinstance(v["value"], (int, float)),
                       f"{tag}: {m['name']} missing or wrong unit")
            print(f"ok: {tag} ({res['attempted']} attempted)", flush=True)

        for corrupt in (1, 2) if w == "solve" else (1,):
            rc, res, _ = run(w, 0, corrupt=corrupt)
            tag = f"{w} corrupt={corrupt}"
            expect(rc != 0, f"{tag}: corrupted output did not fail the run")
            expect(res is not None and res["correct"] is False
                   and res["failed"] >= 1,
                   f"{tag}: corrupted output not counted as a failure")
            print(f"ok: {tag} corrupted output caught", flush=True)

    trace_path = os.path.join(bench_run.build_dir(), "trace-solve.json")
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    jobs = [e for e in events if e["name"] == "job"]
    expect(bool(jobs), "solve trace has no job spans")
    if jobs:
        job = jobs[len(jobs) // 2]
        span = job["args"]["span"]
        kids = [e for e in events if e["args"]["parent"] == span]
        expect(all(k["args"]["id"] == job["args"]["id"] for k in kids),
               "solve trace: a job's child span carries another id")
        expect({"serve.submit", "serve.wait"} <= {k["name"] for k in kids},
               "solve trace: job lacks its submit/wait spans")
        print(f"ok: solve trace links {len(kids)} spans to job "
              f"{job['args']['id']}", flush=True)

    if failures:
        print(f"smoke: {len(failures)} failure(s)")
        return 1
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
