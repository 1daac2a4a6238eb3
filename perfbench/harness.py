"""Closed-loop runner, tracer and statistics shared by the workloads.

A workload turns its seed into a *batch*: a list of items, each a
``(kind, prepare)`` pair. ``prepare(L)`` converts the item's plain data to
objects of the latdev import ``L`` and returns ``fn``; ``fn(ctx)`` makes
the library calls through ``ctx.call`` and checks the verdicts, raising
:class:`Wrong` on a wrong one. ``prepare`` runs outside the item's clock.

The batch runs in rounds, in the same order every round, and every round
starts with latdev's caches empty, so each round is the batch as a user
would run it in a fresh process, and every round does the same work. One
caller submits the next item only after the previous one has been
verified, so the load is a closed loop with a single client.
"""

from __future__ import annotations

import importlib
import signal
import statistics
import sys
import time
import types
from collections import defaultdict

# Per-item time limit, a guard against a hung item: the slowest item (the
# 84-element lattice in order-scale) takes about 2 s on a 2-vCPU virtual
# machine.
ITEM_LIMIT_S = 20.0
# Timed rounds at least, so that every item's time is a median of three or
# more; a run times rounds until the next one would end after ``seconds``.
MIN_TIMED_ROUNDS = 3
# item_tail_ms is the slowest item time with this many items beyond it.
TAIL_BEYOND = 10
# On a 2-vCPU virtual machine shared with other tenants, the host's speed
# drifts with their load, and five runs of one seed gave items_per_s 30 to
# 43. Between items, at most every PROBE_EVERY_S, the loop times
# reference(), a fixed integer loop outside latdev; the run's median probe
# time measures the host's speed during the run, and times are reported at
# the speed where a probe takes REF_NOMINAL_S (see ``calibrate``). The
# same five runs, calibrated, gave 28 to 31. A loop of frozenset, dict and
# Fraction work tracked latdev worse: it slowed more than latdev did.
PROBE_EVERY_S = 0.1
REF_NOMINAL_S = 0.003
REF_LOOPS = 40000

LATDEV_MODULES = ("posets", "lattices", "deviations", "adjustment",
                  "semilinear", "vlterms", "serialize", "cli", "errors")


class Wrong(Exception):
    """A verdict disagreed with the independently derived answer."""


class ItemTimeout(BaseException):
    """Raised by the interval timer when an item exceeds ITEM_LIMIT_S.

    A BaseException so that no ``except Exception`` in library code can
    swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def reference() -> int:
    """The speed probe: pure interpreter work, no allocation that lives."""
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s


def probe() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def calibrate(seconds: float, probes: list) -> float:
    """``seconds`` at the reference speed: scaled by REF_NOMINAL_S over the
    median of the run's probe times."""
    return seconds * REF_NOMINAL_S / statistics.median(probes)


def fresh_latdev():
    """Import latdev from scratch, so every module-level cache is empty.

    Returns a namespace with one attribute per submodule."""
    for name in [m for m in sys.modules
                 if m == "latdev" or m.startswith("latdev.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(
        latdev=importlib.import_module("latdev"),
        **{m: importlib.import_module("latdev." + m) for m in LATDEV_MODULES})


def clear_caches(L):
    """Empty every ``functools`` cache in the modules of one latdev import."""
    for mod in vars(L).values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def plain(fn):
    """The ``prepare`` of an item whose inputs are plain data."""
    return lambda L: fn


class Context:
    """What an item sees: the library namespace, the tracer and counters.

    Untraced, ``call`` is a plain call. Traced, it records one span per
    call (name, start, end, parent item span, item id) in memory and, if
    the call returns, adds its duration to the layer's busy time."""

    def __init__(self, L, traced: bool):
        self.L = L
        self.traced = traced
        self.spans: list = []
        self.busy = defaultdict(float)      # layer -> seconds, timed rounds
        self.curves = defaultdict(list)     # curve point -> [seconds]
        self.counts = defaultdict(int)      # counter -> value, this round
        self.timed = False
        self.item_id = -1
        self.item_span = -1
        self.last = 0.0

    def call(self, name, fn, *args, **kw):
        if not self.traced:
            return fn(*args, **kw)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kw)
        except BaseException:
            self.spans.append((name, t0, time.perf_counter(),
                               self.item_span, self.item_id))
            raise
        t1 = time.perf_counter()
        self.last = t1 - t0
        if self.timed:
            self.busy[name] += t1 - t0
        self.spans.append((name, t0, t1, self.item_span, self.item_id))
        return out

    def point(self, curve: str):
        """Record the duration of the last traced call as a curve point."""
        if self.traced and self.timed:
            self.curves[curve].append(self.last)

    def count(self, name: str, k: int = 1):
        self.counts[name] += k


def run_loop(ctx: Context, batch: list, seconds: float, on_round_end=None):
    """Run the batch in rounds: a warm-up round, then timed rounds while
    the next one is expected to end within ``seconds`` of the warm-up's
    end, and at least MIN_TIMED_ROUNDS.

    The warm-up round is checked and counted but not timed, because first
    executions of each code path run up to twice as slow. Every round must
    give the same counts as the first; an item that raises or exceeds
    ITEM_LIMIT_S ends the run, like a wrong verdict.

    Between items of the timed rounds, outside the items' clock, a speed
    probe runs whenever PROBE_EVERY_S have passed since the last one.

    Returns a dict with each item's times over the timed rounds, the
    probe times, the first round's counts, the number of items attempted
    and of timed rounds, and the first wrong verdict or error (None if
    there was none)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    times = [[] for _ in batch]
    probes: list = []
    last_probe = 0.0
    first_counts: dict = {}
    attempted = 0
    wrong = error = None
    r = 0
    start = None
    while not (wrong or error):
        now = time.perf_counter()
        if r == 1:
            start = now
        if r > MIN_TIMED_ROUNDS and \
                (now - start) * r / (r - 1) > seconds:
            break
        clear_caches(ctx.L)
        ctx.counts = defaultdict(int)
        ctx.timed = r > 0
        for i, (kind, prepare) in enumerate(batch):
            fn = prepare(ctx.L)
            if r and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe())
                last_probe = time.perf_counter()
            attempted += 1
            ctx.item_id = i
            if ctx.traced:
                ctx.item_span = len(ctx.spans)
                ctx.spans.append(None)
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
            try:
                fn(ctx)
            except Wrong as exc:
                wrong = f"item {i} ({kind}): {exc}"
            except ItemTimeout:
                error = f"item {i} ({kind}): over {ITEM_LIMIT_S:g} s"
            except Exception as exc:
                error = f"item {i} ({kind}): {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            if wrong or error:
                break
            if ctx.traced:
                ctx.spans[ctx.item_span] = ("item." + kind, t0, t1, -1, i)
            if r:
                times[i].append(t1 - t0)
        else:
            if on_round_end:
                on_round_end(ctx, r)
            if r == 0:
                first_counts = dict(ctx.counts)
            elif dict(ctx.counts) != first_counts:
                wrong = (f"round {r} counts {dict(ctx.counts)} differ from "
                         f"the first round's {first_counts}")
            r += 1
    return {"times": times, "probes": probes, "first_counts": first_counts,
            "attempted": attempted, "rounds": max(r - 1, 0),
            "wrong": wrong, "error": error}


def item_times(times: list) -> list:
    """Each item's median time over the timed rounds."""
    return [statistics.median(ts) for ts in times]


def tail(per_item: list) -> tuple:
    """The slowest item time with TAIL_BEYOND items beyond it, and its
    percentile among the items."""
    n = len(per_item)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} items leave fewer than {TAIL_BEYOND} "
                         f"beyond any item")
    return (sorted(per_item)[n - 1 - TAIL_BEYOND],
            100.0 * (n - TAIL_BEYOND) / n)
