"""polyauto benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload degeneration --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  Workloads are
``degeneration``, ``jacobian``, ``words`` and ``cli`` (see workloads.py).

With ``--trace 0`` the op loop is timed with no instrumentation and the
end-to-end metrics are reported: ops_per_s, op_p50_ms, op_tail_ms,
setup_s and peak_rss_mb.  It is a closed loop with one client: the next op
starts when the previous one returns.  A run makes as many whole passes
over its inputs as fit in ``--seconds``, and at least three.  An op is
timed only while the program works; oracle checks are off its clock.

Times are reported at the reference speed of the machine.  On a shared
host the same code runs up to twice as slow for minutes at a time, while
other tenants load the physical core.  So fixed reference work that
shares no code with polyauto is timed in short bursts between ops, one
burst per BURST_EVERY_S of op time, and every op time of a pass is scaled
by the workload's reference time over the median reference time of that
pass.  The reference work is the in-process kernel of reference.py, and
for cli a bare interpreter start (see workloads.py).  Set-up times are
scaled by the kernel times around them.  An op's latency is
the median of its scaled times over the passes, which also drops the
first, cold pass.  ops_per_s is the number of ops over the sum of their
latencies.  The unscaled figures are printed above the result line.

With ``--trace 1`` a fixed list of ops is run untraced and then traced,
in pairs, and the per-layer metrics of tracing.py are reported, unscaled;
the spans of the first traced pass are written to ``.bench_out/``.

Every op's result is checked against an oracle.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 if any
op failed, 2 if the checkout has no ``src/polyauto``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("poly", "endo", "groups", "degeneration", "planefactor", "parsing", "cli", "selfcheck")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
TAIL_BEYOND = 10
MIN_PASSES = 3
SETUP_BURST = 20  # kept kernel samples before and after a set-up
BURST_EVERY_S = 0.05  # op seconds between reference bursts within a pass


class Modules:
    """The polyauto modules of one fresh import, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"polyauto.{name}"))


def fresh_import() -> Modules:
    for key in [k for k in sys.modules if k.split(".")[0] == "polyauto"]:
        del sys.modules[key]
    importlib.import_module("polyauto")
    pa = Modules()
    if not os.path.abspath(pa.poly.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"polyauto imported from {pa.poly.__file__}, not from {SRC}")
    return pa


def setup(name: str, seed: int):
    """Import plus input generation (plus goldens for cli), repeated.

    Returns the workload and the median set-up time, scaled and unscaled.
    """
    times, raw = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        before = reference.burst(SETUP_BURST)
        start = perf_counter()
        pa = fresh_import()
        workload = workloads.WORKLOADS[name](pa, seed)
        elapsed = perf_counter() - start
        kernel = statistics.median(before + reference.burst(SETUP_BURST))
        raw.append(elapsed)
        times.append(elapsed * reference.REFERENCE_S / kernel)
    return workload, statistics.median(times), statistics.median(raw)


def run_op(workload, item, run):
    """(seconds on the clock, result or None if the op raised)."""
    start = perf_counter()
    try:
        result = run(item)
    except Exception as error:  # an op that raises is a failed op
        elapsed = perf_counter() - start
        print(f"op raised {type(error).__name__}: {error}", file=sys.stderr)
        return elapsed, None
    return perf_counter() - start, result


def checked(workload, item, result) -> bool:
    """The oracle's verdict on one op's result."""
    if result is None:
        return False
    try:
        passed = workload.check(item, result)
    except Exception as error:  # a result the oracle cannot read is wrong
        print(f"check raised {type(error).__name__}: {error}", file=sys.stderr)
        passed = False
    if not passed:
        print(f"op failed its check: {str(item)[:200]}", file=sys.stderr)
    return passed


def digest(result) -> bytes:
    return hashlib.sha256(pickle.dumps(result)).digest()


def timed_loop(workload, seconds: float):
    """Latency of every op at reference speed, over the whole passes that fit in ``seconds``.

    Passes are whole, so every op is timed as often as every other one: a
    run that stopped mid-pass left the heaviest ops with a timing fewer.
    The first pass's results go to the oracle; a later pass's result must
    pickle to the same bytes as the checked one (compared by digest).
    Returns the scaled latencies, the unscaled ones (both medians over the
    passes), the pass count, and the attempted and failed op counts.
    """
    scaled = [[] for _ in workload.items]
    raw = [[] for _ in workload.items]
    checked_digest = [None] * len(workload.items)
    attempted = failed = 0
    start = perf_counter()
    passes = 0
    # another pass only if one more of the average length ends in time
    while passes < MIN_PASSES or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        pass_index, passes = passes, passes + 1
        kernel, times = [], []
        since_burst = BURST_EVERY_S
        for i, item in enumerate(workload.items):
            if since_burst >= BURST_EVERY_S:
                kernel += workload.reference_burst()
                since_burst = 0.0
            elapsed, result = run_op(workload, item, workload.run)
            times.append(elapsed)
            since_burst += elapsed
            attempted += 1
            if pass_index == 0:
                passed = checked(workload, item, result)
                if passed:
                    checked_digest[i] = digest(result)
            else:
                passed = result is not None and digest(result) == checked_digest[i]
                if not passed:
                    print(f"pass {pass_index} differs from the checked result: {str(item)[:200]}", file=sys.stderr)
            failed += not passed
        kernel += workload.reference_burst()
        scale = workload.reference_s / statistics.median(kernel)
        for i, elapsed in enumerate(times):
            scaled[i].append(elapsed * scale)
            raw[i].append(elapsed)
    return (
        [statistics.median(t) for t in scaled],
        [statistics.median(t) for t in raw],
        passes,
        attempted,
        failed,
    )


def tail(latencies):
    """Latency at the highest rank with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    rank = len(ordered) - 1 - TAIL_BEYOND
    if rank < 0:  # too few samples for the rule: report the maximum
        rank = len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, setup_s: float, setup_raw_s: float, seconds: float):
    latencies, raw, passes, attempted, failed = timed_loop(workload, seconds)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli"), "MB"),
    }
    notes = [
        f"failed_ratio = {failed / attempted:.6f} ({failed}/{attempted} ops)",
        f"{len(latencies)} ops, each timed {passes} times; an op's latency is the median of those",
        f"op_tail_ms is p{tail_pct:.2f} of {len(latencies)} ops"
        f" ({round(len(latencies) * (1 - tail_pct / 100))} beyond it)",
        f"unscaled: ops_per_s {len(raw) / sum(raw):.6g}, op_p50_ms {1000.0 * statistics.median(raw):.6g},"
        f" op_tail_ms {1000.0 * tail(raw)[0]:.6g}, setup_s {setup_raw_s:.6g}",
    ]
    return attempted, failed, metrics, notes


def startup_ms() -> float:
    """A fresh interpreter running ``import polyauto``, median of several."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(STARTUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import polyauto"], env=env, check=True, timeout=60)
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times)


def per_layer(workload, seconds: float, spans_path: str):
    """Untraced and traced passes over the same ops, in pairs, until ``seconds`` are used."""
    items = workload.trace_items * workload.trace_passes
    tracer = tracing.Tracer()
    attempted = failed = 0
    ratios, layers = [], []
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        timings = []
        for traced in (False, True):
            if traced:
                tracer.reset()
                tracer.keep_spans = not layers
                tracer.install()
                tracer.active = True
            begin = perf_counter()
            try:
                for item in items:
                    _, result = run_op(workload, item, workload.run_traced)
                    passed = checked(workload, item, result)
                    attempted += 1
                    failed += not passed
            finally:
                tracer.active = False
                tracer.uninstall()
            timings.append(perf_counter() - begin)
        ratios.append(timings[1] / timings[0])
        layers.append(tracing.layer_metrics(tracer, len(items)))
        if len(layers) == 1:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            kept = tracer.write_spans(spans_path)
    metrics = {}
    for key, (value, unit) in layers[0].items():
        if unit not in ("count", "call/op"):  # counts repeat exactly; times vary
            value = statistics.median(layer[key][0] for layer in layers)
        metrics[key] = (value, unit)
    metrics["cli.startup_ms"] = (startup_ms(), "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    notes = [f"{len(layers)} traced passes of {len(items)} ops; {kept} spans in {spans_path}"]
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyauto", "__init__.py")):
        print(f"no polyauto sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    seed = abs(args.seed)

    workload, setup_s, setup_raw_s = setup(args.workload, seed)
    if args.trace:
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{seed}.csv.gz")
        attempted, failed, metrics, notes = per_layer(workload, args.seconds, spans)
    else:
        attempted, failed, metrics, notes = end_to_end(workload, setup_s, setup_raw_s, args.seconds)

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
