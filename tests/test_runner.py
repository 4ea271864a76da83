"""Integration tests for the end-to-end simulation runner."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.runner as runner_module
from repro.core.mbt import ProtocolVariant
from repro.core.strategies import AdversaryPlan
from repro.faults import FaultPlan
from repro.sim.runner import Simulation, SimulationConfig, run_simulation
from repro.traces.base import Contact, ContactTrace
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.nus import NUSConfig, generate_nus_trace
from repro.types import DAY, NodeId

from conftest import pair_contact


@pytest.fixture(scope="module")
def diesel_trace() -> ContactTrace:
    return generate_dieselnet_trace(DieselNetConfig(num_buses=14, num_days=5), seed=3)


@pytest.fixture(scope="module")
def nus_small() -> ContactTrace:
    return generate_nus_trace(
        NUSConfig(num_students=30, num_courses=6, num_days=5), seed=3
    )


def run(trace, **overrides):
    config = SimulationConfig(**{"seed": 1, "files_per_day": 20, **overrides})
    return run_simulation(trace, config)


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(internet_access_fraction=1.5)

    def test_bad_selfish_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(selfish_fraction=-0.1)

    def test_bad_files_per_day(self):
        with pytest.raises(ValueError):
            SimulationConfig(files_per_day=0)

    def test_bad_ttl(self):
        with pytest.raises(ValueError):
            SimulationConfig(ttl_days=0.0)

    def test_negative_budgets(self):
        with pytest.raises(ValueError):
            SimulationConfig(metadata_per_contact=-1)

    @pytest.mark.parametrize(
        "field",
        ["pull_limit", "push_limit", "popular_file_downloads", "proxy_downloads_per_sync"],
    )
    def test_negative_internet_limits(self, field):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: -1})

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf")])
    def test_non_finite_ttl(self, ttl):
        with pytest.raises(ValueError, match="ttl_days"):
            SimulationConfig(ttl_days=ttl)

    @pytest.mark.parametrize("days", [0, -1])
    def test_run_length_below_one_day(self, days):
        with pytest.raises(ValueError, match="num_days"):
            SimulationConfig(num_days=days)

    def test_with_variant(self):
        config = SimulationConfig()
        assert config.with_variant(ProtocolVariant.MBT_QM).variant is (
            ProtocolVariant.MBT_QM
        )
        assert config.variant is ProtocolVariant.MBT  # original untouched

    def test_trace_needs_two_nodes(self):
        with pytest.raises(ValueError):
            Simulation(ContactTrace([]), SimulationConfig())


class TestDeterminism:
    def test_same_seed_same_result(self, diesel_trace):
        a = run(diesel_trace, seed=7)
        b = run(diesel_trace, seed=7)
        assert a.metadata_delivery_ratio == b.metadata_delivery_ratio
        assert a.file_delivery_ratio == b.file_delivery_ratio
        assert a.extra["piece_transmissions"] == b.extra["piece_transmissions"]

    def test_different_seed_changes_roles(self, diesel_trace):
        sim_a = Simulation(diesel_trace, SimulationConfig(seed=1))
        sim_b = Simulation(diesel_trace, SimulationConfig(seed=2))
        assert sim_a.access_nodes != sim_b.access_nodes


class TestBasicInvariants:
    def test_ratios_in_unit_interval(self, diesel_trace):
        result = run(diesel_trace)
        for value in (
            result.metadata_delivery_ratio,
            result.file_delivery_ratio,
            result.access_metadata_delivery_ratio,
            result.access_file_delivery_ratio,
        ):
            assert 0.0 <= value <= 1.0

    def test_file_delivery_never_exceeds_metadata_delivery(self, diesel_trace):
        # A file cannot be selected without its metadata.
        for variant in ProtocolVariant:
            result = run(diesel_trace, variant=variant)
            assert result.file_delivery_ratio <= result.metadata_delivery_ratio

    def test_access_node_count_respects_fraction(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig(internet_access_fraction=0.5))
        assert len(sim.access_nodes) == round(0.5 * diesel_trace.num_nodes)

    def test_queries_are_generated(self, diesel_trace):
        result = run(diesel_trace)
        assert result.queries_generated > 0

    def test_num_days_defaults_to_trace_span(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig())
        assert sim.num_days() == 5

    def test_num_days_override(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig(num_days=2))
        assert sim.num_days() == 2

    def test_access_nodes_deliver_internally(self, diesel_trace):
        result = run(diesel_trace, internet_access_fraction=0.5)
        # Access nodes query and download directly: near-perfect ratios.
        assert result.access_file_delivery_ratio > 0.9


class TestPaperOrdering:
    def test_variant_ordering_on_dieselnet(self, diesel_trace):
        results = {
            variant: run(diesel_trace, variant=variant, files_per_day=40)
            for variant in ProtocolVariant
        }
        mbt = results[ProtocolVariant.MBT]
        mbt_q = results[ProtocolVariant.MBT_Q]
        mbt_qm = results[ProtocolVariant.MBT_QM]
        assert mbt.metadata_delivery_ratio >= mbt_q.metadata_delivery_ratio
        assert mbt_q.metadata_delivery_ratio > mbt_qm.metadata_delivery_ratio
        assert mbt.file_delivery_ratio >= mbt_qm.file_delivery_ratio

    def test_more_access_nodes_help(self, diesel_trace):
        sparse = run(diesel_trace, internet_access_fraction=0.1)
        dense = run(diesel_trace, internet_access_fraction=0.7)
        assert dense.file_delivery_ratio > sparse.file_delivery_ratio

    def test_longer_ttl_helps(self, diesel_trace):
        short = run(diesel_trace, ttl_days=1.0)
        long = run(diesel_trace, ttl_days=4.0)
        assert long.file_delivery_ratio >= short.file_delivery_ratio

    def test_bigger_budgets_help(self, diesel_trace):
        small = run(diesel_trace, metadata_per_contact=1, files_per_contact=1)
        big = run(diesel_trace, metadata_per_contact=8, files_per_contact=8)
        assert big.file_delivery_ratio >= small.file_delivery_ratio
        assert big.metadata_delivery_ratio >= small.metadata_delivery_ratio

    def test_more_files_per_day_hurt(self, diesel_trace):
        few = run(diesel_trace, files_per_day=10)
        many = run(diesel_trace, files_per_day=80)
        assert many.file_delivery_ratio <= few.file_delivery_ratio

    def test_nus_mbt_qm_flat_in_access_fraction(self, nus_small):
        lo = run(nus_small, variant=ProtocolVariant.MBT_QM,
                 internet_access_fraction=0.1)
        hi = run(nus_small, variant=ProtocolVariant.MBT_QM,
                 internet_access_fraction=0.9)
        # No file discovery: more access nodes barely move file delivery
        # (paper Fig. 3(a)). Allow generous noise.
        assert abs(hi.file_delivery_ratio - lo.file_delivery_ratio) < 0.25


class TestSelfishAndTFT:
    def test_selfish_fraction_selects_nodes(self, diesel_trace):
        sim = Simulation(diesel_trace, SimulationConfig(selfish_fraction=0.5))
        assert len(sim.selfish_nodes) == round(0.5 * diesel_trace.num_nodes)

    def test_selfish_nodes_hurt_delivery(self, diesel_trace):
        honest = run(diesel_trace, selfish_fraction=0.0)
        selfish = run(diesel_trace, selfish_fraction=0.6)
        assert selfish.file_delivery_ratio < honest.file_delivery_ratio

    def test_tit_for_tat_runs(self, diesel_trace):
        result = run(diesel_trace, tit_for_tat=True, selfish_fraction=0.3)
        assert 0.0 <= result.file_delivery_ratio <= 1.0

    def test_pairwise_medium_worse_on_cliques(self, nus_small):
        broadcast = run(nus_small, broadcast=True)
        pairwise = run(nus_small, broadcast=False)
        assert pairwise.file_delivery_ratio <= broadcast.file_delivery_ratio


class TestResultExtras:
    def test_extra_counters_present(self, diesel_trace):
        result = run(diesel_trace)
        for key in ("metadata_transmissions", "piece_transmissions",
                    "num_days", "num_contacts", "access_nodes", "events"):
            assert key in result.extra

    def test_describe(self, diesel_trace):
        assert "metadata" in run(diesel_trace).describe()


ADVERSARIAL = ("exploiter", "free_rider", "polluter", "under_reporter")

#: Counters that count dispatch events rather than protocol work; the
#: only keys allowed to differ between batched and per-contact runs.
_BATCH_KEYS = ("events", "events_contact", "contact_batches")


def _batched_trace(seed: int) -> ContactTrace:
    """Random trace where many contacts share the same start instant."""
    rng = random.Random(seed)
    n_nodes = 8
    contacts = []
    for _ in range(rng.randint(4, 8)):
        start = round(rng.uniform(0.0, 2 * DAY), 1)
        for _ in range(rng.randint(1, 4)):  # same-instant burst
            size = rng.randint(2, 4)
            members = frozenset(NodeId(i) for i in rng.sample(range(n_nodes), size))
            contacts.append(Contact(start, start + rng.uniform(30.0, 600.0), members))
    contacts.sort(key=lambda c: (c.start, c.end, sorted(c.members)))
    return ContactTrace(contacts, name="batched")


def _random_config(rng: random.Random) -> SimulationConfig:
    kwargs = dict(
        internet_access_fraction=rng.choice((0.0, 0.4, 1.0)),
        files_per_day=rng.randint(4, 12),
        ttl_days=rng.choice((1.0, 3.0)),
        metadata_per_contact=rng.randint(1, 4),
        files_per_contact=rng.randint(1, 4),
        pieces_per_file=rng.choice((1, 3)),
        variant=rng.choice(list(ProtocolVariant)),
        tit_for_tat=rng.random() < 0.5,
        broadcast=rng.random() < 0.7,
        metadata_capacity=rng.choice((None, None, 8)),
        selection_policy=rng.choice(("all", "best")),
        credit_policy=rng.choice(("plain", "reputation")),
        num_days=2,
        seed=rng.randint(0, 999),
    )
    if rng.random() < 0.4:
        kwargs["faults"] = FaultPlan(
            loss_rate=rng.choice((0.0, 0.2)),
            churn_rate=rng.choice((0.0, 0.05)),
            seed=rng.randint(0, 99),
        )
    if rng.random() < 0.4:
        names = rng.sample(ADVERSARIAL, rng.randint(1, 3))
        kwargs["adversaries"] = AdversaryPlan(
            fraction=rng.choice((0.25, 0.5)),
            mix=tuple(sorted((name, 1.0) for name in names)),
            seed=rng.randint(0, 99),
        )
    return SimulationConfig(**kwargs)


def _one_contact_per_batch(contacts, key):
    """Drop-in for the runner's ``groupby``: every contact alone."""
    for contact in contacts:
        yield key(contact), [contact]


def _without_batch_counts(result) -> str:
    payload = result.to_dict()
    payload["extra"] = {
        key: value for key, value in payload["extra"].items() if key not in _BATCH_KEYS
    }
    return json.dumps(payload, sort_keys=True, default=repr)


class TestContactBatching:
    """Same-instant contacts dispatch as one batch event per instant."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_batching_is_bitwise_neutral(self, seed):
        trace = _batched_trace(seed)
        config = _random_config(random.Random(seed))
        batched = Simulation(trace, config).run()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runner_module, "groupby", _one_contact_per_batch)
            single = Simulation(trace, config).run()
        assert single.counters["contact_batches"] == single.counters["contacts_processed"]
        assert _without_batch_counts(batched) == _without_batch_counts(single)

    def test_batches_fewer_than_contacts(self):
        trace = _batched_trace(3)
        distinct = len({c.start for c in trace})
        assert distinct < len(trace)
        config = SimulationConfig(files_per_day=6, num_days=2, seed=0)
        counters = Simulation(trace, config).run().counters
        assert counters["contact_batches"] == counters["events_contact"]
        # Bursts collapse: one event per distinct instant, not per contact.
        assert counters["events_contact"] <= distinct
        assert counters["contacts_processed"] > counters["contact_batches"]
