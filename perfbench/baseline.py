#!/usr/bin/env python3
"""Measure a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py [--seeds 0-9] [--out perfbench/out/baseline.json]

Runs ``run.py`` once per (workload, seed) with the run length of
BENCHMARK.json, one run at a time, then once with ``--trace 1`` at the
first seed.  For every end-to-end metric it records the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound.  Exits 1 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    return {"result": result, "env": env}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out", type=Path, default=HERE / "out" / "baseline.json")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    try:
        for w in spec["workloads"]:
            name = w["name"]
            values: dict[str, list[float]] = {m: [] for m in bounds}
            runs = []
            for seed in seeds:
                out = bench(name, seed, spec["run_seconds"], 0)
                res = out["result"]
                runs.append({"seed": seed, "attempted": res["attempted"],
                             "failed": res["failed"],
                             "loadavg": [out["env"]["loadavg_start"][0],
                                         out["env"]["loadavg_end"][0]]})
                for m in bounds:
                    values[m].append(res["metrics"][m]["value"])
                print(f"{name} seed {seed}: " + " ".join(
                    f"{m}={values[m][-1]:.5g}" for m in bounds), flush=True)
            summary = {}
            for m, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                summary[m] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": bounds[m],
                              "values": vals}
            traced = bench(name, seeds[0], spec["run_seconds"], 1)
            report["env"] = traced["env"]
            report["workloads"][name] = {
                "end_to_end": summary, "runs": runs,
                "per_layer": {k: v["value"] for k, v in
                              traced["result"]["metrics"].items()}}
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, wl in report["workloads"].items():
        for m, s in wl["end_to_end"].items():
            print(f"{name:18s} {m:14s} median {s['median']:12.5g} "
                  f"spread {s['spread']:.4f} bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
