"""Benchmark of latdev: time from input to verified verdict.

Run from the repository root:

    python3 perfbench/run.py --workload orders --seed 1 --seconds 40 \
        --trace 0

Workloads: ``orders``, whose batch is the order-small and order-scale
parts (module orders), and ``fm``, whose batch is the semilinear-sets and
vl-ideals parts (modules sets and ideals). The seed gives the workload's
batch of items. One process, one thread, closed loop: the next item is
submitted only after the previous verdict was checked. The batch runs in
rounds, each from empty latdev caches; the first round is a warm-up,
checked and counted but not timed, and the timed rounds fill
``--seconds``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, from a run that records a span around every library call
and writes the spans to ``.perfbench-out/`` at the end.

Every time is reported at a reference speed of the host: measured, then
scaled by ``harness.REF_NOMINAL_S`` over the median time of a fixed
integer loop, the speed probe, that the run times between items, or
between set-ups for setup_s (``harness.calibrate``).
The shared host's speed drifts by 15-30% between runs, and the probe
drifts with it; a change to latdev moves the item times and not the
probe. The probe's median raw time is the per-layer ``host.probe_ms``.

Definitions, over each item's median time in the timed rounds:

* items_per_s: items in the batch over the sum of their times, i.e.
  verified verdicts per second of a batch;
* item_p50_ms: the median item time;
* item_tail_ms: the slowest item time with ten items beyond it; its
  percentile among the batch's items goes to stderr;
* setup_s: median of several set-ups (fresh import of latdev plus input
  generation);
* peak_rss_mb: peak resident set size of the process when the first timed
  round ends;
* per-layer ``*_s`` without a size suffix: busy seconds per round in the
  benchmark's calls into that layer; ``*_s.n<size>`` and ``*_s.c<cells>``:
  median seconds per call at that lattice size or complement cell bucket;
  counts: totals of one round, which every round must repeat exactly.

No item may fail: an item that raises or exceeds the per-item time limit
ends the run with exit code 1, as a wrong verdict does.

latdev is single-threaded and has no queues, so nothing waits for a layer
and there is no wait-time metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import clicalls  # noqa: E402
import harness  # noqa: E402
from ideals import VLIdeals  # noqa: E402
from orders import OrderScale, OrderSmall, lattice_sizes  # noqa: E402
from sets import COMPLEMENT_BUCKETS, SemilinearSets  # noqa: E402


class Workload:
    """A workload whose batch is its parts' batches, one after another."""

    def __init__(self, name: str, *parts):
        self.name = name
        self.parts = parts

    def generate(self, L, seed: int) -> list:
        return [item for part in self.parts for item in part.generate(L, seed)]


WORKLOADS = {w.name: w for w in (
    Workload("orders", OrderSmall(), OrderScale()),
    Workload("fm", SemilinearSets(), VLIdeals()))}
# Set-ups per run: at least SETUP_REPEATS, and more until SETUP_MIN_S have
# passed, so that a cheap set-up's median is over a dozen or so.
SETUP_REPEATS, SETUP_MIN_S = 3, 2.0
SETUP_PROBES = 5
# latdev keeps element ids in sets and dicts. With string ids their
# iteration order, and with it an item's cost, follows the interpreter's
# per-process string hashing, which moves order-scale's item times by up
# to half from one process to the next. A fixed hash seed ties a run's
# cost to the code and the seeded inputs.
HASH_SEED = "0"
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

LAYERS = ["posets.witness", "posets.amalgam", "lattices.build",
          "lattices.check", "lattices.primes", "deviations.search",
          "deviations.verify", "adjustment.naive", "adjustment.shadow",
          "semilinear.shadow", "semilinear.complement", "semilinear.includes",
          "semilinear.witness", "vlterms.linearize", "vlterms.ideal_leq",
          "vlterms.cevian", "vlterms.probe"]
CLI_LAYERS = sorted({clicalls.layer(i["subcommand"])
                     for i in clicalls.invocations()})
COUNTS = ["lattices.prime_ideals", "deviations.found",
          "adjustment.meetands", "adjustment.joinands",
          "adjustment.meetands.naive", "adjustment.meetands.shadow",
          "adjustment.joinands.naive", "adjustment.joinands.shadow",
          "semilinear.complement_cells", "semilinear.is_empty.calls",
          "vlterms.pieces"]
CURVES = ([f"lattices.build_s.n{s}" for s in lattice_sizes()]
          + [f"lattices.primes_s.n{s}" for s in lattice_sizes()]
          + [f"semilinear.complement_s.{b}" for b in COMPLEMENT_BUCKETS])


def per_layer_units() -> dict:
    """Every per-layer metric with its unit, in output order."""
    units = {f"{name}_s": "s" for name in LAYERS + CLI_LAYERS}
    units.update({name: "s" for name in CURVES})
    units.update({name: "count" for name in COUNTS})
    units.update({"semilinear.is_empty.hit_ratio": "ratio",
                  "trace.items_per_s": "1/s",
                  "trace.item_p50_ms": "ms", "trace.spans": "count",
                  "host.probe_ms": "ms"})
    return units


def setup(workload, seed: int):
    """The median set-up time at the reference speed, calibrated by the
    SETUP_PROBES speed probes after each set-up, and the batch."""
    times, probes = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        batch = workload.generate(harness.fresh_latdev(), seed)
        times.append(time.perf_counter() - t0)
        probes += [harness.probe() for _ in range(SETUP_PROBES)]
    return harness.calibrate(statistics.median(times), probes), batch


def round_hook(sample: dict):
    """A round-end hook that counts the round's ``is_empty`` calls and
    cache hit ratio from its ``cache_info`` (each round starts with the
    cache empty), and puts the process's peak resident set at the end of
    the first timed round into ``sample``."""

    def on_end(ctx, r):
        info = ctx.L.semilinear.is_empty.cache_info()
        calls = info.hits + info.misses
        ctx.counts["semilinear.is_empty.calls"] = calls
        ctx.counts["semilinear.is_empty.hit_ratio"] = (
            info.hits / calls if calls else 0.0)
        if r == 1:
            sample["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    return on_end


def end_to_end(per_item: list, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "items_per_s": (len(per_item) / sum(per_item), "1/s"),
        "item_p50_ms": (statistics.median(per_item) * 1000, "ms"),
        "item_tail_ms": (harness.tail(per_item)[0] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(ctx, res: dict, per_item: list) -> dict:
    rounds = res["rounds"]
    counts = res["first_counts"]
    for path in ("naive", "shadow"):
        for kind in ("meetands", "joinands"):
            counts[f"adjustment.{kind}"] = counts.get(
                f"adjustment.{kind}", 0) + counts.get(
                f"adjustment.{kind}.{path}", 0)
    e2e = end_to_end(per_item, 0.0, 0.0)
    probes = res["probes"]
    values = {f"{name}_s": harness.calibrate(ctx.busy.get(name, 0.0) / rounds,
                                             probes)
              for name in LAYERS + CLI_LAYERS}
    values.update({name: harness.calibrate(statistics.median(ctx.curves[name]),
                                           probes)
                   if ctx.curves.get(name) else 0.0 for name in CURVES})
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values.update({
        "semilinear.is_empty.hit_ratio": counts.get(
            "semilinear.is_empty.hit_ratio", 0.0),
        "trace.items_per_s": e2e["items_per_s"][0],
        "trace.item_p50_ms": e2e["item_p50_ms"][0],
        "trace.spans": len(ctx.spans) / (rounds + 1),
        "host.probe_ms": statistics.median(probes) * 1000,
    })
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}


def write_spans(ctx, workload: str, seed: int):
    os.makedirs(OUT_DIR, exist_ok=True)
    t0 = ctx.spans[0][1] if ctx.spans else 0.0
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    with open(path, "w") as fh:
        for i, (name, start, end, parent, item) in enumerate(ctx.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                 "end": end - t0, "parent": parent,
                                 "item": item}) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not os.path.isdir(os.path.join(ROOT, "src", "latdev")):
        sys.exit(f"latdev sources not found under {ROOT}/src")
    workload = WORKLOADS[args.workload]
    setup_s, batch = setup(workload, args.seed)
    ctx = harness.Context(harness.fresh_latdev(), traced=bool(args.trace))
    sample: dict = {}
    res = harness.run_loop(ctx, batch, args.seconds, round_hook(sample))
    print(f"batch of {len(batch)} items, {res['rounds']} timed rounds, "
          f"{res['attempted']} items attempted", file=sys.stderr)
    if res["wrong"] or res["error"]:
        print(f"wrong verdict: {res['wrong']}" if res["wrong"]
              else f"failed item: {res['error']}", file=sys.stderr)
        print(json.dumps({"correct": not res["wrong"],
                          "attempted": res["attempted"],
                          "failed": int(bool(res["error"])), "metrics": {}}))
        return 1
    per_item = [harness.calibrate(t, res["probes"])
                for t in harness.item_times(res["times"])]
    if args.trace:
        metrics = per_layer(ctx, res, per_item)
        print(f"spans written to {write_spans(ctx, args.workload, args.seed)}",
              file=sys.stderr)
    else:
        metrics = end_to_end(per_item, setup_s, sample["peak_rss_mb"])
        print(f"item_tail_ms is the p{harness.tail(per_item)[1]:.1f} of "
              f"{len(per_item)} items; speed probe "
              f"{statistics.median(res['probes']) * 1000:.3f} ms over "
              f"{len(res['probes'])} probes", file=sys.stderr)
    print(json.dumps({
        "correct": True, "attempted": res["attempted"], "failed": 0,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
