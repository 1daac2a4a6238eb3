"""Checks of the benchmark itself, run from the repository root.

    python3 perfbench/check.py spread --workload W --seeds 1 2 3 ... [--traced]
        One untraced run per seed; prints each end-to-end metric's values,
        median and interquartile range as a share of the median, then the
        summary as one JSON line. With --traced, also one traced run per
        seed, right after the untraced one, and the tracing overhead: the
        change of the median items_per_s and item_p50_ms from the untraced
        to the traced runs, reported as unresolved where it is smaller than
        the untraced runs' spread.

    python3 perfbench/check.py repeat --workload W --seed S [--seconds T]
        Two traced runs on the same seed; checks that the deterministic
        counts repeat exactly. The counts come from the first round, so a
        short run suffices.

Runs are sequential subprocesses of run.py, with the benchmark's
run_seconds unless given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run(workload: str, seed: int, trace: int, seconds=None) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds or run_seconds()),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else {"correct": False}
    if out.returncode or not res["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed\n{out.stderr}")
    return res, out.stderr


def summary(vs: list) -> dict:
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def spread(workload: str, seeds: list, traced: bool):
    values: dict = {}
    for s in seeds:
        res, err = run(workload, s, 0)
        print(err.strip().splitlines()[-1])
        print(f"seed {s}: attempted {res['attempted']} failed {res['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        values.setdefault("attempted", []).append(res["attempted"])
        values.setdefault("failed", []).append(res["failed"])
        if traced:
            tr = run(workload, s, 1)[0]["metrics"]
            for k in ("items_per_s", "item_p50_ms"):
                values.setdefault("trace." + k, []).append(
                    tr["trace." + k]["value"])
    out = {"workload": workload, "seeds": seeds,
           "attempted": values.pop("attempted"),
           "failed": values.pop("failed"), "metrics": {}, "overhead": {}}
    for k, vs in values.items():
        out["metrics"][k] = summary(vs)
        print(f"{workload} {k}: median {out['metrics'][k]['median']:.4g} "
              f"spread {out['metrics'][k]['spread']:.3f}")
    for k in ("items_per_s", "item_p50_ms") if traced else ():
        plain, tr = out["metrics"][k], out["metrics"]["trace." + k]
        change = tr["median"] / plain["median"] - 1
        resolved = abs(change) > plain["spread"]
        out["overhead"][k] = {"change": change, "resolved": resolved}
        print(f"tracing overhead on {k}: {change:+.1%}"
              + ("" if resolved else
                 f", unresolved (spread {plain['spread']:.1%})"))
    print(json.dumps(out))


def repeat(workload: str, seed: int, seconds) -> bool:
    a, b = (run(workload, seed, 1, seconds)[0] for _ in range(2))
    counts = {k: v["value"] for k, v in a["metrics"].items()
              if v["unit"] == "count" and k != "trace.spans"
              or k == "semilinear.is_empty.hit_ratio"}
    differ = {k: (v, b["metrics"][k]["value"]) for k, v in counts.items()
              if b["metrics"][k]["value"] != v}
    print(f"{workload} seed {seed}: counts {json.dumps(counts)}")
    print(f"counts differ: {differ}" if differ else "counts repeat exactly")
    return not differ


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("spread", "repeat"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    if args.mode == "spread":
        spread(args.workload, args.seeds, args.traced)
        return 0
    return 0 if repeat(args.workload, args.seed, args.seconds) else 1


if __name__ == "__main__":
    sys.exit(main())
