"""Equivalence and determinism tests for the indexed contact hot path.

The candidate builders in :mod:`repro.core.discovery` and
:mod:`repro.core.download` run on incremental indexes (inverted token
index, piece bitmaps, clique views). Each module keeps its naive
``*_reference`` implementation as the specification; the property
suite here drives both against randomized cliques and requires
identical candidates and identical ranked selection order.

Also covered: the canonical-record fix (the record chosen for a URI
held in different-popularity copies must not depend on member
iteration order), a view patched through a real metadata phase staying
equal to a fresh one, the piece-bitmap primitives, the metadata
store's inverted token index staying consistent through evictions, and
the liveness horizons (store expiry horizon, query liveness windows)
agreeing with brute-force filters.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.files import PieceStore, bit_indices, pack_bitmap, piece_payload
from repro.catalog.server import FileServer, MetadataServer
from repro.core import discovery, download
from repro.core.cliqueview import CliqueView
from repro.core.mbt import MobileBitTorrent, ProtocolConfig, SchedulingMode
from repro.core.node import MetadataStore, NodeState
from repro.net.medium import ContactBudget
from repro.sim.metrics import MetricsCollector
from repro.types import NodeId, Uri

from conftest import make_metadata, make_node, make_query

VOCAB = ("news", "island", "desert", "finale", "sports", "weather")


def _tokens_of(rng: random.Random) -> str:
    return " ".join(rng.sample(VOCAB, rng.randint(2, 4)))


def _build_clique(registry, seed: int, n_nodes: Optional[int] = None) -> Dict[NodeId, NodeState]:
    """A randomized clique: records, queries, pieces, bounded stores.

    Besides records only some members hold, every clique has one to
    three *shared* URIs that every member stores: sometimes the same
    copy, sometimes copies differing in popularity or ttl (a short-ttl
    copy is past expiry at t=50, which makes the URI contested again),
    with piece bitmaps that are identical across members or not.
    """
    rng = random.Random(seed)
    if n_nodes is None:
        n_nodes = rng.randint(2, 5)
    n_files = rng.randint(3, 8)
    files = []
    for i in range(n_files):
        uri = f"dtn://fox/f{i:06d}"
        files.append(
            make_metadata(
                registry,
                uri=uri,
                name=_tokens_of(rng),
                num_pieces=rng.randint(1, 4),
                popularity=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)),
                ttl=rng.choice((10.0, 1000.0)),  # some expire before t=50
            )
        )
    shared = []
    for i in range(rng.randint(1, 3)):
        uri = f"dtn://fox/s{i:06d}"
        name = _tokens_of(rng)
        num_pieces = rng.randint(1, 4)
        copies = [
            make_metadata(
                registry,
                uri=uri,
                name=name,
                num_pieces=num_pieces,
                popularity=rng.choice((0.3, 0.5)),
                ttl=rng.choice((10.0, 1000.0, 1000.0)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            copies.append(copies[0].with_popularity(0.8))
        shared.append((copies, rng.random() < 0.5))
    states: Dict[NodeId, NodeState] = {}
    for i in range(n_nodes):
        state = make_node(
            registry,
            node=i,
            metadata_capacity=rng.choice((None, None, 3)),
        )
        for copies, __ in shared:
            state.accept_metadata(rng.choice(copies), 0.0)
        for record in rng.sample(files, rng.randint(0, n_files)):
            state.accept_metadata(record, 0.0)
        for _ in range(rng.randint(0, 2)):
            target = rng.choice(files + [copies[0] for copies, __ in shared])
            state.add_own_query(
                make_query(i, target.uri, rng.sample(sorted(target.token_set), 1))
            )
        if rng.random() < 0.5:
            peer = NodeId(100 + i)
            target = rng.choice(files)
            state.store_foreign_queries(
                peer, [make_query(100 + i, target.uri, rng.sample(sorted(target.token_set), 1))]
            )
        for record in rng.sample(files, rng.randint(0, 2)):
            for index in range(record.num_pieces):
                if rng.random() < 0.6:
                    state.pieces.add_unverified(record.uri, index)
        for copies, identical in shared:
            record = copies[0]
            for index in range(record.num_pieces):
                held = index == 0 if identical else rng.random() < 0.5
                if held:
                    state.pieces.add_unverified(record.uri, index)
        states[NodeId(i)] = state
    return states


def _assert_views_equal(patched: CliqueView, fresh: CliqueView, states) -> None:
    """Every observable of a patched view agrees with a fresh one.

    The patched view may still list URIs that have since become held by
    every member as contested (a fresh view would not); they can never
    be candidates, and everything else must match exactly.
    """
    members = set(states)
    extra = set(patched.contested) - set(fresh.contested)
    assert set(fresh.contested) <= set(patched.contested)
    assert all(set(patched.holders_of(uri)) == members for uri in extra)
    uris = set()
    for state in states.values():
        uris |= set(state.metadata.uris)
    for uri in sorted(uris):
        record = fresh.record_of(uri)
        assert patched.record_of(uri) == record
        if record is not None:
            assert set(patched.holders_of(uri)) == set(fresh.holders_of(uri))
    for token in VOCAB:
        tokens = frozenset([token])
        fresh_hits = fresh.matching_uris(tokens)
        assert fresh_hits <= patched.matching_uris(tokens) <= fresh_hits | extra


class TestBuilderEquivalence:
    """Indexed builders must equal their naive reference on any clique."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        include_foreign=st.booleans(),
        n_nodes=st.sampled_from((2, 3, 5)),
    )
    def test_metadata_candidates_match_reference(self, seed, include_foreign, n_nodes):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed, n_nodes)
        now = 5.0 if seed % 2 else 50.0  # after some records expired
        indexed = discovery.build_metadata_candidates(states, now, include_foreign)
        reference = discovery.build_metadata_candidates_reference(
            states, now, include_foreign
        )
        assert set(indexed) == set(reference)
        # Ranked order must be identical too, not just the sets.
        assert discovery.select_cooperative(indexed) == discovery.select_cooperative(
            reference
        )
        limit = (seed % 3) + 1
        assert discovery.select_cooperative(indexed, limit=limit) == (
            discovery.select_cooperative(reference)[:limit]
        )
        for sender in states.values():
            for tft in (False, True):
                assert discovery.select_for_sender(
                    indexed, sender, tft, now
                ) == discovery.select_for_sender(reference, sender, tft, now)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.sampled_from((2, 3, 5)))
    def test_piece_candidates_match_reference(self, seed, n_nodes):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed, n_nodes)
        now = 5.0 if seed % 2 else 50.0
        indexed = download.build_piece_candidates(states, now)
        reference = download.build_piece_candidates_reference(states, now)
        assert set(indexed) == set(reference)
        assert download.select_cooperative(indexed) == download.select_cooperative(
            reference
        )
        limit = (seed % 3) + 1
        assert download.select_cooperative(indexed, limit=limit) == (
            download.select_cooperative(reference)[:limit]
        )
        for sender in states.values():
            for tft in (False, True):
                assert download.select_for_sender(
                    indexed, sender, tft, now
                ) == download.select_for_sender(reference, sender, tft, now)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n_nodes=st.sampled_from((2, 3, 5)))
    def test_shared_view_equals_fresh_builds(self, seed, n_nodes):
        """One CliqueView reused across both phases matches fresh builds."""
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed, n_nodes)
        view = CliqueView(states, 5.0)
        # The view materializes exactly the URIs some members hold live
        # and others do not.
        live = [
            {r.uri for r in state.metadata.records() if r.is_live(5.0)}
            for state in states.values()
        ]
        assert view.contested == sorted(set.union(*live) - set.intersection(*live))
        assert set(
            discovery.build_metadata_candidates(states, 5.0, True, view=view)
        ) == set(discovery.build_metadata_candidates(states, 5.0, True))
        assert set(download.build_piece_candidates(states, 5.0, view=view)) == set(
            download.build_piece_candidates(states, 5.0)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_nodes=st.sampled_from((2, 3, 5)),
        scheduling=st.sampled_from((SchedulingMode.COORDINATOR, SchedulingMode.CYCLIC)),
    )
    def test_view_patched_by_metadata_phase_equals_fresh_view(
        self, seed, n_nodes, scheduling
    ):
        """note_holder/mark_dirty over a real metadata phase keep the view exact."""
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        states = _build_clique(registry, seed, n_nodes)
        now = 5.0 if seed % 2 else 50.0
        engine = MobileBitTorrent(
            states,
            MetadataServer(),
            FileServer(),
            MetricsCollector(),
            ProtocolConfig(budget=ContactBudget(4, 4), scheduling=scheduling),
        )
        view = CliqueView(states, now)
        engine._run_metadata_phase(states, frozenset(states), now, view=view)
        view.refresh()
        fresh = CliqueView(states, now)
        _assert_views_equal(view, fresh, states)
        assert set(download.build_piece_candidates(states, now, view=view)) == set(
            download.build_piece_candidates(states, now, view=fresh)
        )
        assert set(
            discovery.build_metadata_candidates(states, now, True, view=view)
        ) == set(discovery.build_metadata_candidates(states, now, True, view=fresh))


class TestCanonicalRecord:
    """Same-URI copies with different popularity: order must not matter."""

    def _states_with_copies(self, registry, order: List[int]) -> Dict[NodeId, NodeState]:
        low = make_metadata(registry, uri="dtn://fox/f1", popularity=0.2)
        high = make_metadata(registry, uri="dtn://fox/f1", popularity=0.8)
        by_node = {0: low, 1: high, 2: None}
        states: Dict[NodeId, NodeState] = {}
        for i in order:
            state = make_node(registry, node=i)
            if by_node[i] is not None:
                state.accept_metadata(by_node[i], 0.0)
            states[NodeId(i)] = state
        return states

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]])
    def test_metadata_candidate_uses_max_popularity_copy(self, registry, order):
        states = self._states_with_copies(registry, order)
        cands = discovery.build_metadata_candidates(states, 0.0, False)
        assert len(cands) == 1
        assert cands[0].metadata.popularity == 0.8

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2], [2, 1, 0], [1, 2, 0]])
    def test_candidates_identical_across_insertion_orders(self, registry, order):
        baseline = self._states_with_copies(registry, [0, 1, 2])
        permuted = self._states_with_copies(registry, order)
        for state in (baseline, permuted):
            state[NodeId(0)].pieces.add_unverified(Uri("dtn://fox/f1"), 0)
        assert set(discovery.build_metadata_candidates(baseline, 0.0, False)) == set(
            discovery.build_metadata_candidates(permuted, 0.0, False)
        )
        assert set(download.build_piece_candidates(baseline, 0.0)) == set(
            download.build_piece_candidates(permuted, 0.0)
        )

    def test_equal_popularity_tie_breaks_to_lowest_member(self, registry):
        a = make_metadata(registry, uri="dtn://fox/f1", popularity=0.5, ttl=100.0)
        b = make_metadata(registry, uri="dtn://fox/f1", popularity=0.5, ttl=200.0)
        forward: Dict[NodeId, NodeState] = {}
        backward: Dict[NodeId, NodeState] = {}
        for states, pairs in ((forward, [(0, a), (1, b)]), (backward, [(1, b), (0, a)])):
            for node, record in pairs:
                state = make_node(registry, node=node)
                state.accept_metadata(record, 0.0)
                states[NodeId(node)] = state
            states[NodeId(5)] = make_node(registry, node=5)
        chosen_f = discovery.build_metadata_candidates(forward, 0.0, False)[0].metadata
        chosen_b = discovery.build_metadata_candidates(backward, 0.0, False)[0].metadata
        assert chosen_f == chosen_b == a  # lowest member id wins the tie


class TestPieceBitmaps:
    @settings(max_examples=60, deadline=None)
    @given(indices=st.sets(st.integers(0, 128)))
    def test_pack_roundtrip(self, indices):
        assert set(bit_indices(pack_bitmap(indices))) == indices

    def test_store_tracks_bitmap_forms(self):
        store = PieceStore()
        uri = Uri("dtn://fox/f1")
        assert store.bitmap_of(uri) == 0
        store.add_unverified(uri, 0)
        store.add_unverified(uri, 2)
        assert store.bitmap_of(uri) == 0b101
        assert store.pieces_of(uri) == {0, 2}
        assert store.count_of(uri) == 2
        assert store.has_piece(uri, 2) and not store.has_piece(uri, 1)
        assert store.missing_bitmap(uri, 3) == 0b010
        assert list(store.missing_pieces(uri, 3)) == [1]
        store.drop_piece(uri, 2)
        assert store.bitmap_of(uri) == 0b001
        store.drop_piece(uri, 0)
        assert uri not in store
        assert store.bitmap_of(uri) == 0

    def test_whole_file_completes(self):
        store = PieceStore()
        uri = Uri("dtn://fox/f1")
        store.add_whole_file(uri, 4)
        assert store.bitmap_of(uri) == 0b1111
        assert store.is_complete(uri, 4)
        assert store.total_pieces() == 4


class TestTokenIndexConsistency:
    def _brute_matching(self, store: MetadataStore, tokens) -> set:
        return {
            record.uri
            for record in store.records()
            if frozenset(tokens) <= record.token_set
        }

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matching_uris_survives_churn(self, seed):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        rng = random.Random(seed)
        store = MetadataStore(capacity=4, policy=rng.choice(("popularity", "lru", "fifo")))
        records = [
            make_metadata(
                registry,
                uri=f"dtn://fox/f{i:06d}",
                name=_tokens_of(rng),
                popularity=rng.choice((0.1, 0.5, 0.9)),
                ttl=rng.choice((10.0, 1000.0)),
            )
            for i in range(10)
        ]
        for record in rng.sample(records, rng.randint(4, 10)):
            store.add(record, now=0.0)  # bounded: evictions exercise removal
        if rng.random() < 0.5:
            store.drop_expired(50.0)
        for _ in range(5):
            tokens = rng.sample(VOCAB, rng.randint(1, 2))
            assert store.matching_uris(frozenset(tokens)) == self._brute_matching(
                store, tokens
            )
        assert store.matching_uris(frozenset()) == {r.uri for r in store.records()}


class TestLivenessHorizons:
    """Horizon-memoized liveness views equal brute-force filters."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_live_records_survives_churn(self, seed):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        rng = random.Random(seed)
        store = MetadataStore(
            capacity=rng.choice((None, 3, 5)),
            policy=rng.choice(("popularity", "lru", "fifo", "utility")),
        )
        records = [
            make_metadata(
                registry,
                uri=f"dtn://fox/f{i % 8:06d}",  # repeated URIs replace copies
                name=_tokens_of(rng),
                popularity=rng.choice((0.1, 0.5, 0.9)),
                created_at=float(rng.randint(0, 40)),
                ttl=float(rng.choice((5, 10, 30))),
            )
            for i in range(14)
        ]
        clock = 0.0
        for _ in range(30):
            op = rng.random()
            if op < 0.6:
                store.add(rng.choice(records), now=clock)
            elif op < 0.8:
                store.drop_expired(clock)
            elif op < 0.85:
                store.clear()
            else:
                clock += rng.choice((0.0, 1.0, 5.0, 10.0))
            # Probe at, just before and after record boundaries too.
            for now in (clock, clock + 5.0, clock + 10.0, clock + 30.0):
                expected = {r.uri: r for r in store.records() if r.is_live(now)}
                assert dict(store.live_records(now)) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_live_queries_across_boundaries(self, seed):
        from repro.catalog.metadata import PublisherRegistry

        registry = PublisherRegistry(master_seed=42)
        rng = random.Random(seed)
        state = make_node(registry, node=0)
        own: List = []
        foreign: Dict[NodeId, List] = {}

        def query(node: int) -> object:
            created = float(rng.randint(0, 20))
            return make_query(
                node,
                f"dtn://fox/f{rng.randint(0, 5)}",
                rng.sample(VOCAB, rng.randint(1, 2)),
                created_at=created,
                expires_at=created + float(rng.randint(1, 15)),
            )

        def add_some() -> None:
            for _ in range(rng.randint(0, 2)):
                q = query(0)
                state.add_own_query(q)
                own.append(q)
            if rng.random() < 0.5:
                peer = NodeId(rng.choice((7, 8, 9)))
                batch = [query(int(peer)) for _ in range(rng.randint(1, 2))]
                state.store_foreign_queries(peer, batch)
                stored = foreign.setdefault(peer, [])
                for q in batch:
                    if all((p.target_uri, p.tokens) != (q.target_uri, q.tokens) for p in stored):
                        stored.append(q)

        add_some()
        # Every boundary, the instants in between, and repeats.
        times = sorted(
            {float(t) / 2 for t in range(0, 80)} | {float(rng.randint(0, 40))}
        )
        for now in times:
            if rng.random() < 0.1:
                add_some()
            if rng.random() < 0.05:
                state.expire(now)
                own[:] = [q for q in own if q.is_live(now)]
                for peer in list(foreign):
                    foreign[peer] = [q for q in foreign[peer] if q.is_live(now)]
                    if not foreign[peer]:
                        del foreign[peer]
            for _ in range(rng.randint(1, 2)):
                expected_own = [q for q in own if q.is_live(now)]
                expected_foreign = [
                    q for queries in foreign.values() for q in queries if q.is_live(now)
                ]
                calls = state.query_cache_hits + state.query_cache_misses
                assert state.own_queries(now) == expected_own
                assert state.foreign_queries(now) == expected_foreign
                # One hit or miss per list access, however it was served.
                assert state.query_cache_hits + state.query_cache_misses == calls + 2
                assert state.own_query_tokens(now) == tuple(q.tokens for q in expected_own)
                assert state.foreign_query_tokens(now) == tuple(
                    q.tokens for q in expected_foreign
                )


class TestWantedOrderDeterminism:
    def test_wanted_set_iterates_in_scan_order(self, registry):
        """wanted_uris inserts in (query, store-scan) order — the layout
        internet_sync used to depend on. The sorted() at the consumer is
        the real guard; this pins the insertion order contract."""
        state = make_node(registry, node=0)
        records = [
            make_metadata(registry, uri=f"dtn://fox/f{i}", name="news island")
            for i in range(6)
        ]
        for record in records:
            state.accept_metadata(record, 0.0)
        state.add_own_query(make_query(0, "dtn://fox/f0", ["island"]))
        wanted = state.wanted_uris(0.0)
        assert wanted == {r.uri for r in records}
        rebuilt = set()
        for record in records:  # store-scan order
            rebuilt.add(record.uri)
        assert list(wanted) == list(frozenset(rebuilt))
