"""Bloom hello summaries and the catalog expiry heap."""

from __future__ import annotations

import pytest

from repro.catalog.expiry import ExpiryHeap
from repro.net.bloom import BloomFilter, bloom_parameters, item_hashes
from repro.types import NodeId

from conftest import make_metadata


# -- bloom filter ------------------------------------------------------------------


def test_bloom_no_false_negatives():
    items = [f"dtn://fox/f{i:06d}" for i in range(500)]
    bloom = BloomFilter.from_items(items, fpr=0.01, seed=7)
    assert all(item in bloom for item in items)


def test_bloom_deterministic_bits():
    items = {f"dtn://abc/f{i}" for i in range(100)}
    a = BloomFilter.from_items(sorted(items), fpr=0.02, seed=3)
    b = BloomFilter.from_items(sorted(items, reverse=True), fpr=0.02, seed=3)
    assert a.to_bytes() == b.to_bytes()  # insertion order is irrelevant
    c = BloomFilter.from_items(sorted(items), fpr=0.02, seed=4)
    assert a.to_bytes() != c.to_bytes()  # the seed is not


def test_bloom_fpr_knob_sizes_filter():
    loose_bits, __ = bloom_parameters(1000, 0.1)
    tight_bits, __ = bloom_parameters(1000, 0.001)
    assert tight_bits > loose_bits
    with pytest.raises(ValueError):
        bloom_parameters(10, 1.5)
    with pytest.raises(ValueError):
        bloom_parameters(-1, 0.01)


def test_bloom_observed_fpr_near_target():
    members = [f"in:{i}" for i in range(2000)]
    bloom = BloomFilter.from_items(members, fpr=0.01, seed=0)
    probes = [f"out:{i}" for i in range(5000)]
    observed = sum(1 for p in probes if p in bloom) / len(probes)
    assert observed < 0.03  # ~1% target with slack


def test_bloom_contains_hashes_matches_contains():
    bloom = BloomFilter.from_items([f"u{i}" for i in range(50)], fpr=0.05, seed=9)
    for item in ["u0", "u49", "missing-a", "missing-b"]:
        assert (item in bloom) == bloom.contains_hashes(item_hashes(item, 9))


def test_bloom_size_bytes_counts_bit_array():
    bloom = BloomFilter(100, fpr=0.01, seed=0)
    assert bloom.size_bytes == (bloom.num_bits + 7) // 8


# -- expiry heap -------------------------------------------------------------------


def test_expiry_heap_stale_entries_dropped():
    heap = ExpiryHeap()
    live = {"a": 5.0, "b": 20.0}
    heap.push("a", 5.0)
    heap.push("b", 5.0)  # first publish of b...
    heap.push("b", 20.0)  # ...then republished with a longer TTL
    heap.push("c", 5.0)  # stale: c no longer exists
    assert heap.pop_due(10.0, live.get) == ["a"]
    assert heap.pop_due(30.0, live.get) == ["b"]


def test_expiry_heap_duplicate_pushes_report_once():
    heap = ExpiryHeap()
    heap.push("a", 5.0)
    heap.push("a", 5.0)
    assert heap.pop_due(10.0, {"a": 5.0}.get) == ["a"]


# -- simulation wiring -------------------------------------------------------------


def _diesel():
    from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace

    return generate_dieselnet_trace(DieselNetConfig(num_buses=12, num_days=4), seed=3)


def test_bloom_run_counters():
    from repro.sim.runner import Simulation, SimulationConfig

    trace = _diesel()
    config = SimulationConfig(seed=1, files_per_day=20, hello_blooms=True, bloom_fpr=0.05)
    obj = Simulation(trace, config).run()
    assert obj.extra["perf.catalog.bloom_screens"] > 0
    hits = obj.extra.get("perf.catalog.bloom_hits", 0)
    assert hits >= obj.extra.get("perf.catalog.bloom_false_positives", 0)


def test_config_validates_bloom_knobs():
    from repro.sim.runner import SimulationConfig

    with pytest.raises(ValueError):
        SimulationConfig(bloom_fpr=0.0)
    with pytest.raises(ValueError):
        SimulationConfig(bloom_fpr=1.0)
    protocol = SimulationConfig(hello_blooms=True, bloom_fpr=0.05, seed=9).protocol_config()
    assert protocol.hello_blooms and protocol.bloom_fpr == 0.05
    assert protocol.bloom_seed == 9


def test_hello_summary_cached_and_attached(registry):
    from repro.core.node import NodeState
    from repro.net.hello import build_hello

    state = NodeState(node=NodeId(1), registry=registry)
    record = make_metadata(registry)
    state.metadata.add(record, now=0.0)
    summary = state.hello_summary(0.01, seed=5)
    assert record.uri in summary
    assert state.hello_summary(0.01, seed=5) is summary  # memoized
    assert state.hello_summary(0.02, seed=5) is not summary  # knob change
    state.metadata.add(
        make_metadata(registry, uri="dtn://fox/other", name="other news"), now=0.0
    )
    assert state.hello_summary(0.01, seed=5) is not summary  # store mutated
    hello = build_hello(state, 1.0, include_foreign_queries=False, summary=summary)
    bare = build_hello(state, 1.0, include_foreign_queries=False)
    assert hello.summary is summary
    assert hello.size_bytes == bare.size_bytes + summary.size_bytes
