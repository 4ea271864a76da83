"""End-to-end and per-layer benchmark of the MBT reproduction.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: iterations run one at a time, each in a
fresh interpreter (``PYTHONHASHSEED=0``), until ``--seconds`` have
passed. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of separate traced iterations. Every iteration's run
results are checked against stored digests; a failed iteration's
timings are dropped and it is counted against the attempts. The last
line of standard output is one JSON object.

Other modes:

    --steadiness RUNS   two back-to-back sets of RUNS runs (seeds N..N+RUNS-1)
    --self-test         probe, scaling, wrapper and digest-check self-tests
    --record-digests    re-record the stored digests from library calls

See README.md in this directory for the method.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
sys.path.insert(0, BENCH_DIR)

from workloads import SEED_POOL, WORKLOADS, stream_seed  # noqa: E402
from layers import RUN_WRAPPER  # noqa: E402

#: Host seconds one iteration may take before it is killed and failed.
ITERATION_TIMEOUT_S = 150
#: Host seconds a whole run may take: a hung iteration is killed in time
#: for the run to report it, and no set-up-only iteration starts later.
RUN_BUDGET_S = 170
#: Setup-only iterations per untraced run, for a median of several set-ups.
SETUP_REPEATS = 5
#: Largest share of the traced wall time the layer wrappers may miss.
MAX_UNATTRIBUTED = 0.10

#: (name, unit) of the end-to-end metrics, in output order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("contacts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("metadata_delivery_ratio", "ratio"),
    ("file_delivery_ratio", "ratio"),
)

#: Self-time layers whose sum, with ``bench.unattributed_s``, is the
#: traced wall time: layer -> metric name.
SELF_TIME_METRICS = {
    "interpreter": "interpreter.start_s",
    "import": "import.self_s",
    "traces.build": "traces.build_s",
    "runner.setup": "runner.setup_s",
    "mbt.contacts": "mbt.contacts_s",
    "mbt.sync": "mbt.sync_s",
    "server.search": "server.search_s",
    "server.top_popular": "server.top_popular_s",
    "mbt.expire": "mbt.expire_s",
    "generator.generate": "generator.generate_s",
    "mbt.publish": "mbt.publish_s",
    "server.refresh": "server.refresh_s",
    "engine": "engine.self_s",
    "metrics.result": "metrics.result_s",
    "exec": "exec.self_s",
    "cli": "cli.self_s",
}

#: ``profile=True`` phase timers inside ``handle_contacts`` (host
#: microseconds, scaled by the iteration's speed) -> metric name.
PROFILE_TIMERS = {
    "perf.time_us.hellos": "mbt.hellos_s",
    "perf.time_us.view_build": "mbt.view_build_s",
    "perf.time_us.metadata_phase": "mbt.metadata_phase_s",
    "perf.time_us.piece_phase": "mbt.piece_phase_s",
}

#: (name, unit) of the per-layer metrics, in output order.
PER_LAYER = (
    [("interpreter.start_s", "s"),
     ("import.self_s", "s"), ("import.modules", "count"),
     ("traces.build_s", "s"), ("traces.contacts", "count"),
     ("runner.setup_s", "s"), ("runner.setups", "count"),
     ("mbt.contacts_s", "s"), ("mbt.contacts", "count"),
     ("mbt.contact_batches", "count"), ("mbt.cliques", "count")]
    + [(name, "s") for name in PROFILE_TIMERS.values()]
    + [("net.hello_exchanges", "count"),
       ("discovery.meta_candidates", "count"),
       ("discovery.metadata_transmissions", "count"),
       ("discovery.tx_per_candidate", "ratio"),
       ("download.piece_candidates", "count"),
       ("download.piece_transmissions", "count"),
       ("download.tx_per_candidate", "ratio"),
       ("node.query_cache_hit_ratio", "ratio"),
       ("node.wanted_cache_hit_ratio", "ratio"),
       ("node.token_index_queries", "count"),
       ("mbt.sync_s", "s"), ("mbt.syncs", "count"),
       ("server.search_s", "s"), ("server.searches", "count"),
       ("server.top_popular_s", "s"), ("server.top_popular_calls", "count"),
       ("server.records_returned", "count"),
       ("mbt.expire_s", "s"), ("server.heap_expiries", "count"),
       ("generator.generate_s", "s"), ("mbt.publish_s", "s"),
       ("server.refresh_s", "s"),
       ("engine.events", "count"), ("engine.self_s", "s"),
       ("metrics.result_s", "s"),
       ("exec.self_s", "s"), ("exec.trace_builds", "count"),
       ("exec.trace_cache_hits", "count"),
       ("cli.self_s", "s"),
       ("bench.unattributed_s", "s"), ("bench.tracing_overhead_s", "s"),
       ("bench.raw_wall_s", "s"), ("bench.speed_scale", "ratio"),
       ("bench.max_segment_s", "s")]
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all (no program, no digests)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Runs must be plain and in-process: no sanitizer double-runs, no
    # trace disk cache left behind by the caller's environment.
    for name in ("REPRO_DETCHECK", "REPRO_TRACE_CACHE", "REPRO_BENCH_JOBS"):
        env.pop(name, None)
    return env


def spawn(workload, seed, mode, timeout=ITERATION_TIMEOUT_S):
    """Run one iteration in a fresh interpreter; its record, or an error string."""
    spawn_t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "iteration.py"),
             workload, str(seed), mode, repr(spawn_t)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "no result record on standard output"


def check(record, reference, traced=False):
    """Why ``record`` is not a correct iteration, or None if it is."""
    if isinstance(record, str):
        return record
    if record.get("status") != 0:
        return f"command returned {record.get('status')!r}"
    if record["fingerprints"] != reference["fingerprints"]:
        return "result fingerprints differ from the stored digests"
    for key in ("metadata_delivery_ratio", "file_delivery_ratio"):
        if record[key] != reference[key]:
            return f"{key} {record[key]!r} != stored {reference[key]!r}"
    if not record["output_ok"]:
        return "printed output does not match the results"
    if not traced and record["wrappers"] != [RUN_WRAPPER]:
        return f"untraced iteration has layer wrappers installed: {record['wrappers']}"
    if traced:
        unattributed = record["self_s"].get("unattributed", 0.0)
        if unattributed > MAX_UNATTRIBUTED * record["wall_s"]:
            return (
                f"COVERAGE: {unattributed:.3f} s of {record['wall_s']:.3f} s traced wall "
                f"is in no layer (> {MAX_UNATTRIBUTED:.0%}); a layer is not wrapped"
            )
    return None


def load_digests(workload):
    """Stored digests of every pool seed of ``workload``, keyed by seed."""
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchmarkError(f"no stored digests for {workload} in {DIGESTS}: {exc}") from exc
    missing = [seed for seed in SEED_POOL if str(seed) not in table]
    if missing:
        raise BenchmarkError(f"no stored digests for {workload} seeds {missing}")
    return {seed: table[str(seed)] for seed in SEED_POOL}


def prepare():
    """Fail early where the program is missing; compile bytecode once.

    Bytecode is otherwise written by the first interpreter that imports
    a module (or never, under ``PYTHONDONTWRITEBYTECODE``); compiling it
    here keeps that one-off cost out of every measured iteration.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchmarkError(f"the program is not here: no {SRC}/repro/cli.py")
    for directory in (os.path.join(SRC, "repro"), BENCH_DIR):
        if not compileall.compile_dir(directory, quiet=1):
            raise BenchmarkError(f"{directory} does not compile")


class Tally:
    """Attempts, failures, and the records of the iterations that passed."""

    def __init__(self, references):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.passed = []
        self.seeds = []

    def add(self, record, seed):
        """Count one iteration on workload seed ``seed``; its record if it passed."""
        self.attempted += 1
        self.seeds.append(seed)
        mode = record.get("mode") if isinstance(record, dict) else None
        if mode == "setup":
            problem = None
        else:
            problem = check(record, self.references[seed], traced=mode == "traced")
        if problem is not None:
            self.failed += 1
            print(f"iteration failed (seed {seed}): {problem}", file=sys.stderr)
            return None
        self.passed.append(record)
        if mode != "setup":
            print(f"iteration {self.attempted} ({mode}, seed {seed}): "
                  f"wall_s={record['wall_s']:.4f} setup_s={record['setup_s']:.4f} "
                  f"raw_wall_s={record['raw_wall_s']:.4f}", file=sys.stderr)
        return record

    def records(self, mode):
        return [r for r in self.passed if r["mode"] == mode]


def _timeout(start):
    """Timeout of the next iteration of a run that began at ``start``."""
    return max(1.0, min(ITERATION_TIMEOUT_S, start + RUN_BUDGET_S - time.monotonic()))


def run_untraced(workload, seed, seconds, references):
    """The closed loop, then ``SETUP_REPEATS`` setup-only iterations."""
    tally = Tally(references)
    start = time.monotonic()
    k = 0
    while True:
        wseed = stream_seed(seed, k)
        tally.add(spawn(workload, wseed, "full", _timeout(start)), wseed)
        k += 1
        if time.monotonic() - start >= seconds:
            break
    for __ in range(SETUP_REPEATS):
        if time.monotonic() - start >= RUN_BUDGET_S:
            break
        wseed = stream_seed(seed, k)
        tally.add(spawn(workload, wseed, "setup", _timeout(start)), wseed)
        k += 1
    return tally


def end_to_end_metrics(tally):
    """Median over iterations of each end-to-end metric."""
    med = statistics.median
    full = tally.records("full")
    setups = tally.records("setup")
    return {
        "wall_s": med(r["wall_s"] for r in full),
        "setup_s": med([r["setup_s"] for r in full] + [r["setup_s"] for r in setups]),
        "contacts_per_s": med(r["contacts"] / r["run_s"] for r in full),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in full),
        "metadata_delivery_ratio": med(r["metadata_delivery_ratio"] for r in full),
        "file_delivery_ratio": med(r["file_delivery_ratio"] for r in full),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics of one traced iteration record."""
    self_s = traced["self_s"]
    counters = traced["counters"]
    calls = traced["calls"]
    trace_perf = traced["trace_perf"]
    out = {metric: self_s.get(layer, 0.0) for layer, metric in SELF_TIME_METRICS.items()}
    for key, metric in PROFILE_TIMERS.items():
        out[metric] = counters.get(key, 0) / 1e6 * traced["speed_scale"]

    def hit_ratio(prefix):
        hits = counters.get(f"perf.{prefix}_cache_hits", 0)
        return _ratio(hits, hits + counters.get(f"perf.{prefix}_cache_misses", 0))

    out.update({
        "import.modules": traced["import_modules"],
        "traces.contacts": traced["trace_contacts"],
        "runner.setups": calls.get("runner.setup", 0),
        "mbt.contacts": counters.get("contacts_processed", 0),
        "mbt.contact_batches": counters.get("contact_batches", 0),
        "mbt.cliques": counters.get("cliques_processed", 0),
        "net.hello_exchanges": counters.get("hello_exchanges", 0),
        "discovery.meta_candidates": counters.get("perf.meta_candidates", 0),
        "discovery.metadata_transmissions": counters.get("metadata_transmissions", 0),
        "discovery.tx_per_candidate": _ratio(
            counters.get("metadata_transmissions", 0), counters.get("perf.meta_candidates", 0)),
        "download.piece_candidates": counters.get("perf.piece_candidates", 0),
        "download.piece_transmissions": counters.get("piece_transmissions", 0),
        "download.tx_per_candidate": _ratio(
            counters.get("piece_transmissions", 0), counters.get("perf.piece_candidates", 0)),
        "node.query_cache_hit_ratio": hit_ratio("query"),
        "node.wanted_cache_hit_ratio": hit_ratio("wanted"),
        "node.token_index_queries": counters.get("perf.token_index_queries", 0),
        "mbt.syncs": counters.get("internet_syncs", 0),
        "server.searches": calls.get("server.search", 0),
        "server.top_popular_calls": calls.get("server.top_popular", 0),
        "server.records_returned": traced["records_returned"],
        "server.heap_expiries": counters.get("perf.catalog.heap_expiries", 0),
        "engine.events": counters.get("events", 0),
        "exec.trace_builds": trace_perf.get("perf.trace.builds", 0),
        "exec.trace_cache_hits": trace_perf.get("perf.trace.lru_hits", 0),
        "bench.unattributed_s": self_s.get("unattributed", 0.0),
        "bench.tracing_overhead_s": traced["wall_s"] - untraced_wall,
        "bench.raw_wall_s": traced["raw_wall_s"],
        "bench.speed_scale": traced["speed_scale"],
        "bench.max_segment_s": traced["max_segment_s"],
    })
    return out


def run_traced(workload, seed, seconds, references):
    """Pairs of (untraced, traced) iterations until ``seconds`` have passed."""
    tally = Tally(references)
    layer_rows = []
    start = time.monotonic()
    k = 0
    while True:
        wseed = stream_seed(seed, k)
        plain = tally.add(spawn(workload, wseed, "full", _timeout(start)), wseed)
        traced = tally.add(spawn(workload, wseed, "traced", _timeout(start)), wseed)
        k += 1
        if plain is not None and traced is not None:
            layer_rows.append(layer_metrics(traced, plain["wall_s"]))
        if time.monotonic() - start >= seconds:
            break
    if not layer_rows:
        return tally, None
    return tally, {name: statistics.median(row[name] for row in layer_rows)
                   for name, __ in PER_LAYER}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(title, metrics, units, samples):
    print(f"{title}  (medians over {samples} iterations)")
    for name, unit in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")


def result_line(tally, metrics, units):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    })


def measure(workload, seed, seconds, trace):
    """One benchmark run; (tally, metrics or None, units)."""
    references = load_digests(workload)
    if trace:
        tally, metrics = run_traced(workload, seed, seconds, references)
        return tally, metrics, PER_LAYER
    tally = run_untraced(workload, seed, seconds, references)
    metrics = end_to_end_metrics(tally) if tally.records("full") else None
    return tally, metrics, END_TO_END


def steadiness(workload, first_seed, runs, seconds):
    """Two back-to-back sets of runs; per-set median, quartiles, and the gap."""
    sets = []
    for label in ("A", "B"):
        values = {name: [] for name, __ in END_TO_END}
        for seed in range(first_seed, first_seed + runs):
            tally, metrics, __ = measure(workload, seed, seconds, trace=False)
            if metrics is None or tally.failed:
                raise BenchmarkError(f"set {label} seed {seed}: {tally.failed} failed iterations")
            for name in values:
                values[name].append(metrics[name])
            print(f"set {label} seed {seed}: "
                  + " ".join(f"{name}={metrics[name]:.6g}" for name in values), flush=True)
        sets.append(values)
    print(f"\nsteadiness of {workload}: {runs} runs per set, seeds "
          f"{first_seed}..{first_seed + runs - 1}, {seconds} s each")
    print(f"  {'metric':<26}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'gap':>9}")
    for name, __ in END_TO_END:
        medians = []
        for label, values in zip("AB", sets):
            q1, q2, q3 = quartiles(values[name])
            medians.append(q2)
            spread = (q3 - q1) / q2 if q2 else 0.0
            gap = "" if label == "A" else f"{(q2 - medians[0]) / medians[0]:+.3f}"
            print(f"  {name:<26}{label:>4}{q2:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}{gap:>9}")


def record_digests():
    """Re-record digests.json from library calls, one fresh interpreter each."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in SEED_POOL:
            record = spawn(workload, seed, "reference", timeout=600)
            if isinstance(record, str):
                raise BenchmarkError(f"{workload} seed {seed}: {record}")
            table[workload][str(seed)] = record
            print(f"{workload} seed {seed}: {len(record['fingerprints'])} runs", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        prepare()
        if args.self_test:
            import selftest

            return selftest.main()
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.steadiness:
            steadiness(args.workload, args.seed, args.steadiness, args.seconds)
            return 0
        tally, metrics, units = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if metrics is None:
        print(f"benchmark error: all {tally.attempted} iterations failed", file=sys.stderr)
        return 1
    title = "per-layer metrics (traced)" if args.trace else "end-to-end metrics"
    samples = len(tally.records("traced" if args.trace else "full"))
    print(f"{args.workload} --seed {args.seed} (workload seeds {tally.seeds}): "
          f"{tally.failed} of {tally.attempted} iterations failed")
    print_table(title, metrics, units, samples)
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
