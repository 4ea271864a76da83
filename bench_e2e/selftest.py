"""Self-tests of the benchmark: ``python3 bench_e2e/run.py --self-test``.

They check the benchmark, not the program: that the probe stays small
and import-free, that the scaling arithmetic gives the expected
reference seconds, that untraced iterations carry only the run wrapper,
that a wrong stored digest or a timeout fails the iteration, and that
the traced wrappers cover the wall time. This process never imports
``repro``; the iterations it starts do.
"""

import json
import math
import os
import sys
import tracemalloc

import run
from speed import SegmentClock, probe_work, timed_probe


def test_probe_imports_nothing():
    before = set(sys.modules)
    timed_probe()
    probe_work()
    assert set(sys.modules) == before, sorted(set(sys.modules) - before)
    assert not any(name == "repro" or name.startswith("repro.") for name in sys.modules)


def test_probe_allocates_under_1mb():
    tracemalloc.start()
    try:
        checksum = probe_work()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"probe peak allocation {peak} bytes"
    assert probe_work() == checksum, "probe work is not the same every call"


class _FakeHost:
    """A host clock that only moves when told to, and probes of given lengths."""

    def __init__(self, probe_times):
        self.t = 0.0
        self._probe_times = iter(probe_times)

    def timer(self):
        return self.t

    def probe(self, timer):
        seconds = next(self._probe_times)
        self.t += seconds
        return seconds


def test_segment_scaling_arithmetic():
    host = _FakeHost([0.004, 0.002, 0.008, 0.004])
    host.t = 1.0  # one host second from interpreter start (origin 0) to the clock
    clock = SegmentClock(origin=0.0, timer=host.timer, probe=host.probe,
                         ref=0.004, segment_s=0.2, warmup=0)
    # Segment 0: 1.0 s before the first probe (4 ms), factor 1.
    host.t += 0.2
    clock.enter("a")
    host.t += 0.1
    clock.cut()
    # Segment 1: 0.3 s between probes of 4 and 2 ms, factor 4/3.
    host.t += 0.3
    clock.leave()
    host.t += 0.1
    clock.maybe_cut()
    # Segment 2: 0.4 s between probes of 2 and 8 ms, factor 0.8.
    host.t += 0.15
    clock.maybe_cut()  # 0.15 s since the last cut: below segment_s, no cut
    assert len(clock.probes) == 3, clock.probes
    host.t += 0.1
    clock.maybe_cut()
    # Segment 3: 0.25 s between probes of 8 and 4 ms, factor 2/3.
    assert len(clock.probes) == 4, clock.probes
    expected = {
        "a": 0.1 * 4 / 3 + 0.3 * 0.8,
        None: 1.0 + 0.2 * 4 / 3 + 0.1 * 0.8 + 0.25 * 2 / 3,
    }
    assert math.isclose(clock.raw_total, 1.95), clock.raw_total
    assert math.isclose(clock.total, 1.0 + 0.4 + 0.32 + 0.25 * 2 / 3), clock.total
    assert math.isclose(clock.probe_total, 0.018), clock.probe_total
    assert math.isclose(clock.now(), 1.95), clock.now()
    assert math.isclose(clock.max_segment, 1.0), clock.max_segment
    for layer, seconds in expected.items():
        assert math.isclose(clock.self_time[layer], seconds), (layer, clock.self_time)
    assert math.isclose(sum(clock.self_time.values()), clock.total)


def test_manifest_matches_metrics():
    """BENCHMARK.json names exactly the workloads and metrics this prints."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in manifest[key]]
        assert listed == list(printed), (key, set(listed) ^ set(printed))


_SAMPLE = ("cli-nus-fast", 0)


def _iteration(mode):
    workload, seed = _SAMPLE
    record = run.spawn(workload, seed, mode)
    assert not isinstance(record, str), f"{mode} iteration failed: {record}"
    return record


def test_wrappers_and_coverage():
    workload, seed = _SAMPLE
    reference = run.load_digests(workload)[seed]
    plain = _iteration("full")
    assert plain["wrappers"] == [run.RUN_WRAPPER], plain["wrappers"]
    assert run.check(plain, reference) is None, run.check(plain, reference)
    traced = _iteration("traced")
    assert len(traced["wrappers"]) > 10, traced["wrappers"]
    # check() fails a traced iteration whose wrappers miss > 10 % of the wall.
    assert run.check(traced, reference, traced=True) is None
    # A traced record presented as untraced is caught by the wrapper check.
    assert "layer wrappers" in run.check(traced, reference, traced=False)
    uncovered = dict(traced, self_s=dict(traced["self_s"], unattributed=traced["wall_s"] * 0.2))
    assert run.check(uncovered, reference, traced=True).startswith("COVERAGE")
    return plain, reference


def _tally(reference):
    return run.Tally({_SAMPLE[1]: reference})


def test_corrupted_digest_counts_as_failed(plain, reference):
    good = _tally(reference)
    assert good.add(plain, _SAMPLE[1]) is not None and good.failed == 0
    digits = reference["fingerprints"][0]
    flipped = ("1" if digits[0] != "1" else "2") + digits[1:]
    corrupted = dict(reference, fingerprints=[flipped] + reference["fingerprints"][1:])
    tally = _tally(corrupted)
    assert tally.add(plain, _SAMPLE[1]) is None
    assert (tally.attempted, tally.failed, tally.passed) == (1, 1, [])
    wrong_ratio = dict(reference, file_delivery_ratio=reference["file_delivery_ratio"] + 1e-12)
    assert _tally(wrong_ratio).add(plain, _SAMPLE[1]) is None


def test_timeout_counts_as_failed(reference):
    record = run.spawn(*_SAMPLE, "full", timeout=0.01)
    assert isinstance(record, str) and "timed out" in record, record
    tally = _tally(reference)
    assert tally.add(record, _SAMPLE[1]) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def main():
    checks = [
        test_probe_imports_nothing,
        test_probe_allocates_under_1mb,
        test_segment_scaling_arithmetic,
        test_manifest_matches_metrics,
    ]
    failures = 0
    for check in checks:
        failures += _run(check)
    try:
        plain, reference = test_wrappers_and_coverage()
    except AssertionError as exc:
        print(f"FAIL test_wrappers_and_coverage: {exc}")
        return 1
    print("ok   test_wrappers_and_coverage")
    failures += _run(lambda: test_corrupted_digest_counts_as_failed(plain, reference),
                     "test_corrupted_digest_counts_as_failed")
    failures += _run(lambda: test_timeout_counts_as_failed(reference),
                     "test_timeout_counts_as_failed")
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


def _run(check, name=None):
    name = name or check.__name__
    try:
        check()
    except AssertionError as exc:
        print(f"FAIL {name}: {exc}")
        return 1
    print(f"ok   {name}")
    return 0
