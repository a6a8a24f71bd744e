#!/usr/bin/env python3
"""Run the benchmark over several seeds and record one point of the bench
trajectory.

Run from the root of a checkout:

    python3 perfbench/trajectory.py --seeds 1-10 --trace-seeds 1 \
        --out perfbench/results/BENCH_<label>.json

For every workload in BENCHMARK.json it runs `perfbench/run.py` once per
seed with tracing off, and once per trace seed with tracing on. It writes
every run's result and info lines plus, per end-to-end metric, the median,
the quartiles (Python's statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s" % " ".join(cmd))
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summary(runs, metrics):
    out = {}
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[m["name"]] = {"unit": m["unit"], "better": m["better"], "median": med,
                          "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / abs(med) if med else float("inf"),
                          "bound": m.get("bound")}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1")
    ap.add_argument("--out", default=None)
    a = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in [w["name"] for w in bench["workloads"]]:
        runs, infos, traced = [], [], []
        for s in seeds_of(a.seeds):
            info, res = run(bench, w, s, 0)
            infos.append(info)
            runs.append(res)
            print(w, s, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  "correct" if res["correct"] else "INCORRECT", flush=True)
        for s in seeds_of(a.trace_seeds) if a.trace_seeds else []:
            info, res = run(bench, w, s, 1)
            traced.append({"info": info, "result": res})
        summ = summary(runs, bench["end_to_end"])
        for k, v in summ.items():
            flag = "" if v["bound"] is None or k == "setup_s" or v["spread"] <= v["bound"] / 3 \
                else "  <-- above a third of the bound"
            print("  %-16s median %-12.5g spread %.4f bound %s%s"
                  % (k, v["median"], v["spread"], v["bound"], flag), flush=True)
        report["env"] = infos[0]["env"]
        report["workloads"][w] = {
            "sizes": infos[0]["sizes"], "summary": summ,
            "runs": [{"seed": i["seed"], "result": r, "info": i} for i, r in zip(infos, runs)],
            "traced": traced}
    if a.out:
        os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
        with open(a.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
