#!/usr/bin/env python3
"""Fast self-test of the benchmark: about ten seconds.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload in both modes on tiny inputs (in this process, through
``run.main``) and checks the output: the final JSON line has exactly the
keys correct/attempted/failed/metrics, every operation passed, and the
metrics are exactly the end-to-end (``--trace 0``) or per-layer
(``--trace 1``) names of BENCHMARK.json with their units.  Exits 1 on the
first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTestError(Exception):
    pass


def expect(condition, detail="") -> None:
    if not condition:
        raise SelfTestError(str(detail))


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec))
    expect(1 <= len(spec["paths"]) <= 16)
    seconds = spec["run_seconds"]
    expect(isinstance(seconds, int) and 1 <= seconds <= 60, seconds)
    expect(2 <= len(spec["workloads"]) <= 8)
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200, w)
        names.append(w["name"])
    expect(set(names) == set(run.WORKLOADS), names)
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, m)
        expect(0 < m["bound"] <= 0.25, m)
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, m)
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        expect(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m)
        expect(m["better"] in ("lower", "higher"), m)
    all_names = names + [m["name"] for m in metrics]
    expect(len(all_names) == len(set(all_names)), "a name is used twice")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()), bounds)


def shrink() -> None:
    """Tiny inputs: a handful of documents and calls per workload."""
    run.SETUP_REPEATS = 2
    run.TRAIN_BASE_DOCS = 20
    run.TRAIN_COPY_DOCS = 6
    run.TrainWorkload.min_ops = 1
    run.DecodeWorkload.min_ops = 2
    run.TRACE_DOCS = 1


def check_run(workload: str, trace: int, spec: dict) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)])
    result = json.loads(out.getvalue().splitlines()[-1])
    where = f"{workload} --trace {trace}"
    expect(status == 0, f"{where}: exit {status}")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    expect(result["correct"] is True and result["failed"] == 0, where)
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{where}: {sorted(set(got) ^ set(wanted))}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), name)
        expect(trace or value > 0, f"{where}: {name} = {value}")


def main() -> int:
    spec = run.load_spec()
    try:
        check_spec(spec)
        shrink()
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                check_run(workload, trace, spec)
                print(f"ok {workload} --trace {trace}", flush=True)
    except SelfTestError as e:
        print(f"selftest failed: {e}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
