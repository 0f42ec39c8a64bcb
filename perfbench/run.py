"""Benchmark of the lahbell CLI and library, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Imports lahbell from ./src and drives ``lahbell.cli.main`` (and
``lahbell.gf_expand``) in this process, one operation at a time: a closed
loop with one client.  Passes over the workload's operation set repeat until
``--seconds`` have passed; every output is checked against its recorded
digest.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it stamps the
environment and the pass times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with per-module spans
installed (see spans.py), and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import ops
from spans import LAYERS, Tracer
from speed import SpeedProbe

# Cold starts measured per run for setup_s; one alone moves by about 30%.
COLD_STARTS = 11


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing lahbell and building the parser."""
    code = (
        f"import sys; sys.path.insert(0, {str(ops.SRC)!r}); "
        "import lahbell, lahbell.cli; lahbell.cli.build_parser()"
    )
    times = []
    for _ in range(COLD_STARTS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    # The first start may still be writing bytecode caches.
    return statistics.median(times[1:])


def measure(stream, seconds: float, digests, failures, probe, tracer=None):
    """Run passes until ``seconds`` elapse (at least one).

    Returns the speed-corrected and the raw seconds of each pass, the CLI
    output bytes and the ops attempted.
    """
    deadline = time.perf_counter() + seconds
    times: list[float] = []
    raw_times: list[float] = []
    cli_bytes = attempted = 0
    while not times or time.perf_counter() < deadline:
        batch = next(stream)
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
        corrected, raw, nbytes = ops.run_pass(batch, digests, failures, probe)
        times.append(corrected)
        raw_times.append(raw)
        if tracer is not None:
            tracer.end_pass(corrected / raw if raw else 1.0)
        cli_bytes += nbytes
        attempted += len(batch)
    return times, raw_times, cli_bytes, attempted


def layer_metrics(tracer: Tracer, times, untraced_times, cli_bytes, problems) -> dict:
    """Per-pass means of the traced passes, plus the reconciliation check."""
    import lahbell.verify

    n = len(times)
    wall = sum(times)
    unattributed = wall - sum(tracer.self_s[layer] for layer in LAYERS)
    counts = tracer.counts
    metrics = {f"{layer}.self_s": tracer.self_s[layer] / n for layer in LAYERS}
    for name in (
        "exact_core.calls", "partitions.witnesses", "poly.mono_muls", "poly.poly_muls",
        "bell.calls", "series.products", "series.exp_calls",
    ):
        metrics[name] = counts[name] / n
    metrics["poly.max_terms"] = tracer.max_terms
    metrics["bell.repeat_share"] = (
        tracer.bell_repeats / counts["bell.calls"] if counts["bell.calls"] else 0.0
    )
    suites = lahbell.verify.SUITE_NAMES[1:]
    for suite in suites:
        metrics[f"verify.suite_s.{suite}"] = tracer.suite_s[suite] / n
    metrics["cli.output_bytes"] = cli_bytes / n
    metrics["trace.overhead"] = statistics.median(times) / statistics.median(untraced_times)
    metrics["trace.unattributed_s"] = unattributed / n

    suite_total = sum(tracer.suite_s.values())
    if suite_total:
        # Outside the suites only the CLI's own parse and render run, so the
        # suites plus CLI self time must leave exactly the unattributed rest.
        outside = wall - suite_total - tracer.self_s["cli"]
        if abs(outside - unattributed) > 1e-3 * n:
            problems.append(
                f"trace: suites sum to {suite_total:.4f} s of {wall:.4f} s traced, "
                f"leaving {outside:.4f} s against {unattributed:.4f} s unattributed"
            )
    return metrics


def main(argv=None, pools=ops.WORKLOADS) -> int:
    """Run one benchmark; ``pools`` is swapped for ``ops.SMOKE`` in the tests."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(pools))
    parser.add_argument("--seed", type=int, default=ops.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    lahbell = ops.import_lahbell()
    digests, reference_commit = ops.load_reference()
    stream = ops.passes(pools[args.workload], args.seed)
    failures: list[str] = []  # one line per failed operation
    problems: list[str] = []  # failed checks of the trace itself
    if not args.trace:
        setup_s = setup_seconds()
    start = time.perf_counter()

    with SpeedProbe() as probe:
        if args.trace:
            untraced, _, _, attempted = measure(stream, args.seconds / 2, digests, failures, probe)
            tracer = Tracer()
            tracer.install(lahbell)
            probe.exclude = tracer.exclude
            try:
                rest = args.seconds - (time.perf_counter() - start)
                times, raw_times, cli_bytes, more = measure(stream, rest, digests, failures, probe, tracer)
            finally:
                probe.exclude = None
                tracer.uninstall()
            attempted += more
            metrics = layer_metrics(tracer, times, untraced, cli_bytes, problems)
        else:
            times, raw_times, _, attempted = measure(stream, args.seconds, digests, failures, probe)
            metrics = {
                "wall_s": statistics.median(times),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "are not the ones BENCHMARK.json declares")
    for line in failures[:20] + problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(times),
        "pass_s": times,
        "raw_pass_s": raw_times,
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": ops.git_commit(),
        "reference_commit": reference_commit,
    }
    print(json.dumps({"env": stamp}))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
