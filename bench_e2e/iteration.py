"""One benchmark iteration, in a fresh interpreter started by ``run.py``.

    python3 bench_e2e/iteration.py WORKLOAD SEED MODE SPAWN_T

``MODE`` is ``full`` (untraced), ``traced`` (every layer wrapped),
``setup`` (stops at the first ``Simulation.run`` call) or ``reference``
(runs the library calls the stored digests are recorded from).
``SPAWN_T`` is the parent's ``time.perf_counter()`` just before it
started this interpreter; on Linux that clock (``CLOCK_MONOTONIC``) is
shared by all processes, so the measured interval begins at interpreter
start. Prints one JSON object as the last line of standard output.
"""

import contextlib
import io
import json
import sys

from speed import SegmentClock


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _summary(results):
    from repro.detlint.sanitizer import result_fingerprint

    return {
        "fingerprints": [result_fingerprint(r) for r in results],
        "metadata_delivery_ratio": _mean([r.metadata_delivery_ratio for r in results]),
        "file_delivery_ratio": _mean([r.file_delivery_ratio for r in results]),
    }


def _output_ok(argv, printed, results):
    """The command printed JSON; ``run`` printed the ratios it computed."""
    try:
        payload = json.loads(printed)
    except ValueError:
        return False
    if argv[0] != "run":
        return bool(payload)
    shown = [entry["metadata_delivery_ratio"] for entry in payload.values()]
    return shown == [r.metadata_delivery_ratio for r in results]


def _sum_counters(results):
    totals = {}
    for result in results:
        for key, value in result.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def measure(workload, seed, mode, spawn_t):
    from workloads import WORKLOADS

    argv = WORKLOADS[workload][0](seed)
    clock = SegmentClock(origin=spawn_t)
    # The first segment is interpreter start-up (site imports included)
    # and this script's own imports: no layer of the program.
    clock.self_time["interpreter"] = clock.self_time.pop(None)
    traced = mode == "traced"
    modules_before = len(sys.modules)
    if traced:
        clock.enter("import")
    import repro.cli

    if traced:
        clock.leave()
    clock.cut()
    import_modules = len(sys.modules) - modules_before

    from layers import Instrumentation, SetupComplete, installed_wrappers

    bench = Instrumentation(clock, traced, setup_only=mode == "setup")
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            status = repro.cli.main(argv)
    except SetupComplete:
        return {"mode": mode, "setup_s": bench.setup_s}
    clock.cut()
    # The measured interval ends here; checking the results is not timed.
    import resource

    record = {
        "mode": mode,
        "status": status,
        "wall_s": clock.total,
        "raw_wall_s": clock.raw_total,
        "setup_s": bench.setup_s,
        "run_s": bench.run_s,
        "max_segment_s": clock.max_segment,
        "wrappers": installed_wrappers(),
        "contacts": sum(r.counters["contacts_processed"] for r in bench.results),
        "output_ok": _output_ok(argv, printed.getvalue(), bench.results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record.update(_summary(bench.results))
    if traced:
        from repro.exec import trace_perf_counters

        record["self_s"] = {
            ("unattributed" if layer is None else layer): seconds
            for layer, seconds in clock.self_time.items()
        }
        record["calls"] = bench.calls
        record["records_returned"] = bench.records_returned
        record["trace_contacts"] = bench.trace_contacts
        record["import_modules"] = import_modules
        record["counters"] = _sum_counters(bench.results)
        record["trace_perf"] = trace_perf_counters()
        record["speed_scale"] = clock.speed_scale
    return record


def main(argv):
    workload, seed, mode, spawn_t = argv[1], int(argv[2]), argv[3], float(argv[4])
    if mode == "reference":
        from workloads import reference_results

        record = _summary(reference_results(workload, seed))
    elif mode in ("full", "traced", "setup"):
        record = measure(workload, seed, mode, spawn_t)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
