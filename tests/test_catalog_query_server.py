"""Unit tests for queries, keyword matching and the Internet servers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.files import PIECE_SIZE, FileDescriptor, piece_checksum, piece_payload
from repro.catalog.metadata import PublisherRegistry
from repro.catalog.popularity import PopularityTracker
from repro.catalog.query import Query, best_match, live_queries, matches
from repro.catalog.server import FileServer, MetadataServer
from repro.perf import PerfRecorder
from repro.types import DAY, NodeId, Uri

from conftest import make_metadata, make_query


class TestQuery:
    def test_match_is_conjunctive_subset(self, registry):
        record = make_metadata(registry, name="news island finale s01e01")
        assert make_query(0, record.uri, ["news", "island"]).matches(record)
        assert make_query(0, record.uri, ["s01e01"]).matches(record)
        assert not make_query(0, record.uri, ["news", "desert"]).matches(record)

    def test_module_level_matches(self, registry):
        record = make_metadata(registry)
        assert matches(frozenset({"news"}), record)
        assert not matches(frozenset({"zzz"}), record)

    def test_lifetime(self):
        query = make_query(0, "dtn://fox/x", ["a"], created_at=10.0, expires_at=20.0)
        assert not query.is_live(9.0)
        assert query.is_live(10.0)
        assert not query.is_live(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_query(0, "dtn://fox/x", [])
        with pytest.raises(ValueError):
            make_query(0, "dtn://fox/x", ["a"], created_at=5.0, expires_at=5.0)

    def test_live_queries_filter(self):
        queries = [
            make_query(0, "dtn://fox/a", ["a"], 0.0, 10.0),
            make_query(0, "dtn://fox/b", ["b"], 0.0, 100.0),
        ]
        assert [q.target_uri for q in live_queries(queries, 50.0)] == ["dtn://fox/b"]

    def test_best_match_returns_first_hit(self, registry):
        record = make_metadata(registry)
        miss = make_query(0, record.uri, ["nothing"])
        hit = make_query(0, record.uri, ["news"])
        assert best_match([miss, hit], record) is hit
        assert best_match([miss], record) is None


class TestMetadataServer:
    def test_publish_and_get(self, registry):
        server = MetadataServer()
        record = make_metadata(registry)
        server.publish(record)
        assert server.get(record.uri) == record
        assert record.uri in server
        assert len(server) == 1

    def test_search_conjunctive(self, registry):
        server = MetadataServer()
        a = make_metadata(registry, uri="dtn://fox/a", name="news island s01e01")
        b = make_metadata(registry, uri="dtn://fox/b", name="news desert s01e02")
        server.publish(a)
        server.publish(b)
        hits = server.search(frozenset({"news"}), now=0.0)
        assert {h.uri for h in hits} == {"dtn://fox/a", "dtn://fox/b"}
        hits = server.search(frozenset({"news", "island"}), now=0.0)
        assert [h.uri for h in hits] == ["dtn://fox/a"]

    def test_search_ranked_by_popularity(self, registry):
        server = MetadataServer()
        low = make_metadata(registry, uri="dtn://fox/low", popularity=0.1)
        high = make_metadata(registry, uri="dtn://fox/high", popularity=0.9)
        server.publish(low)
        server.publish(high)
        hits = server.search(frozenset({"news"}), now=0.0)
        assert [h.uri for h in hits] == ["dtn://fox/high", "dtn://fox/low"]

    def test_search_limit(self, registry):
        server = MetadataServer()
        for i in range(5):
            server.publish(make_metadata(registry, uri=f"dtn://fox/{i}"))
        assert len(server.search(frozenset({"news"}), now=0.0, limit=2)) == 2

    def test_search_empty_tokens(self, registry):
        server = MetadataServer()
        server.publish(make_metadata(registry))
        assert server.search(frozenset(), now=0.0) == []

    def test_search_skips_expired(self, registry):
        server = MetadataServer()
        record = make_metadata(registry, ttl=100.0)
        server.publish(record)
        assert server.search(frozenset({"news"}), now=50.0)
        assert server.search(frozenset({"news"}), now=150.0) == []

    def test_expire_removes_from_index(self, registry):
        server = MetadataServer()
        record = make_metadata(registry, ttl=100.0)
        server.publish(record)
        dead = server.expire(now=200.0)
        assert dead == [record.uri]
        assert record.uri not in server
        assert server.search(frozenset({"news"}), now=200.0) == []

    def test_top_popular_excludes(self, registry):
        server = MetadataServer()
        a = make_metadata(registry, uri="dtn://fox/a", popularity=0.9)
        b = make_metadata(registry, uri="dtn://fox/b", popularity=0.5)
        server.publish(a)
        server.publish(b)
        top = server.top_popular(now=0.0, limit=5, exclude=frozenset({a.uri}))
        assert [t.uri for t in top] == ["dtn://fox/b"]

    def test_all_records_ranked(self, registry):
        server = MetadataServer()
        a = make_metadata(registry, uri="dtn://fox/a", popularity=0.2)
        b = make_metadata(registry, uri="dtn://fox/b", popularity=0.7)
        server.publish(a)
        server.publish(b)
        assert [r.uri for r in server.all_records()] == ["dtn://fox/b", "dtn://fox/a"]

    def test_expire_deletes_emptied_token_buckets(self, registry):
        server = MetadataServer()
        shared = make_metadata(registry, uri="dtn://fox/a", name="news shared")
        only = make_metadata(
            registry, uri="dtn://fox/b", name="news unique", ttl=100.0
        )
        server.publish(shared)
        server.publish(only)
        assert server.expire(now=200.0) == [only.uri]
        # "unique"'s posting bucket emptied and must be gone entirely;
        # "news" still carries the surviving record.
        assert "unique" not in server._index
        assert server._index["news"] == {shared.uri}

    def test_search_limit_zero_returns_nothing(self, registry):
        server = MetadataServer()
        server.publish(make_metadata(registry))
        assert server.search(frozenset({"news"}), now=0.0, limit=0) == []

    def test_top_popular_exclude_interacts_with_expiry(self, registry):
        server = MetadataServer()
        expired = make_metadata(
            registry, uri="dtn://fox/a", popularity=0.9, ttl=100.0
        )
        excluded = make_metadata(registry, uri="dtn://fox/b", popularity=0.8)
        survivor = make_metadata(registry, uri="dtn://fox/c", popularity=0.1)
        server.publish(expired)
        server.publish(excluded)
        server.publish(survivor)
        # Before expiry runs, liveness filtering alone must hide the
        # dead record; the exclude set hides the live popular one.
        top = server.top_popular(now=200.0, limit=5, exclude=frozenset({excluded.uri}))
        assert [t.uri for t in top] == [survivor.uri]
        assert server.expire(now=200.0) == [expired.uri]
        top = server.top_popular(now=200.0, limit=5, exclude=frozenset({excluded.uri}))
        assert [t.uri for t in top] == [survivor.uri]

    def test_republish_drops_stale_postings(self, registry):
        server = MetadataServer()
        first = make_metadata(registry, uri="dtn://fox/a", name="news oldtoken")
        second = make_metadata(registry, uri="dtn://fox/a", name="news newtoken")
        server.publish(first)
        server.publish(second)
        assert server.search(frozenset({"oldtoken"}), now=0.0) == []
        assert [r.uri for r in server.search(frozenset({"newtoken"}), now=0.0)] == [
            "dtn://fox/a"
        ]
        assert len(server) == 1

    def test_refresh_popularities_replaces_only_changed(self, registry):
        from repro.catalog.popularity import PopularityTracker

        tracker = PopularityTracker(population=10)
        server = MetadataServer(tracker)
        moved = make_metadata(registry, uri="dtn://fox/a", popularity=0.5)
        still = make_metadata(registry, uri="dtn://fox/b", popularity=0.0)
        server.publish(moved)
        server.publish(still)
        now = DAY
        tracker.record_request(moved.uri, NodeId(1), now - 1.0)
        before = server.get(still.uri)
        server.refresh_popularities(now)
        assert server.get(still.uri) is before  # unchanged record not reallocated
        assert server.get(moved.uri).popularity == pytest.approx(0.1)

    def test_negative_limit_rejected(self, registry):
        server = MetadataServer()
        server.publish(make_metadata(registry))
        with pytest.raises(ValueError, match="limit must be non-negative"):
            server.search(frozenset({"news"}), now=0.0, limit=-1)
        with pytest.raises(ValueError, match="limit must be non-negative"):
            server.top_popular(now=0.0, limit=-1)
        assert server.top_popular(now=0.0, limit=0) == []

    def test_refresh_skips_unchanged(self, registry):
        tracker = PopularityTracker(population=10)
        perf = PerfRecorder()
        server = MetadataServer(tracker, perf=perf)
        for i in range(20):
            server.publish(
                make_metadata(
                    registry, uri=f"dtn://fox/f{i:06d}", popularity=0.0
                )
            )
        now = DAY
        tracker.record_request(Uri("dtn://fox/f000013"), NodeId(1), now - 1.0)
        server.all_records()
        server.refresh_popularities(now)
        ranked = server.all_records()
        assert ranked[0].uri == "dtn://fox/f000013"
        assert ranked == _ranked_brute_force(server, None)
        rebuilds = perf.as_counters()["perf.catalog.ranked_rebuilds"]
        server.refresh_popularities(now)  # nothing moved: the view survives
        assert server.all_records() == ranked
        assert perf.as_counters()["perf.catalog.ranked_rebuilds"] == rebuilds

    def test_ranked_cache_invalidated_by_publish(self, registry):
        server = MetadataServer()
        for i in range(5):
            server.publish(
                make_metadata(
                    registry, uri=f"dtn://fox/f{i:06d}", popularity=i / 10.0
                )
            )
        first = server.top_popular(1.0, 3)
        newcomer = make_metadata(
            registry, uri="dtn://fox/fresh1", name="fresh news", popularity=0.99
        )
        server.publish(newcomer)
        assert server.top_popular(1.0, 3)[0] == newcomer
        assert first[0] != newcomer


def _ranked_brute_force(server, now, exclude=frozenset()):
    records = [
        md
        for md in server._records.values()
        if (now is None or md.is_live(now)) and md.uri not in exclude
    ]
    return sorted(records, key=lambda md: (-md.popularity, md.uri))


def _keys(records):
    """What a stale record would differ in; cheap for pytest to diff."""
    return [(md.uri, md.name, md.popularity, md.expires_at) for md in records]


_URIS = st.integers(min_value=0, max_value=12)
_CACHE_OPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=36),  # hours the clock advances
        st.one_of(
            # (uri, name shape, popularity decile, ttl days)
            st.tuples(
                st.just("publish"),
                _URIS,
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=1, max_value=3),
            ),
            st.tuples(st.just("rename"), _URIS, st.integers(min_value=0, max_value=4)),
            st.tuples(st.just("expire")),
            # (uri, requesting node) pairs logged before the refresh
            st.tuples(
                st.just("refresh"),
                st.lists(
                    st.tuples(_URIS, st.integers(min_value=0, max_value=4)),
                    max_size=4,
                ),
            ),
            st.tuples(
                st.just("top"),
                st.integers(min_value=0, max_value=8),
                st.frozensets(_URIS, max_size=4),
            ),
            st.tuples(st.just("all"), st.booleans()),
        ),
        st.booleans(),  # read the whole view, expired records too, after the op
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_CACHE_OPS)
def test_cached_ranked_view_matches_brute_force(ops):
    """Every interleaving of mutations and reads sees a fresh ranking."""
    registry = PublisherRegistry(master_seed=42)
    registry.register("fox")
    tracker = PopularityTracker(population=5)
    server = MetadataServer(tracker)

    def uri(suffix):
        return Uri(f"dtn://fox/f{suffix:06d}")

    now = 0.0
    for advance_hours, op, read_after in ops:
        now += advance_hours * 3600.0
        kind = op[0]
        if kind == "publish":
            __, suffix, shape, decile, ttl_days = op
            server.publish(
                make_metadata(
                    registry,
                    uri=uri(suffix),
                    name=f"news tag{shape} group{suffix % 3}",
                    popularity=decile / 10.0,
                    created_at=now,
                    ttl=ttl_days * DAY,
                )
            )
        elif kind == "rename":
            __, suffix, shape = op
            current = server.get(uri(suffix))
            if current is not None:
                server.publish(
                    make_metadata(
                        registry,
                        uri=current.uri,
                        name=f"renamed tag{shape} group{suffix % 3}",
                        popularity=current.popularity,
                        created_at=current.created_at,
                        ttl=current.ttl,
                    )
                )
        elif kind == "expire":
            server.expire(now)
        elif kind == "refresh":
            for suffix, node in op[1]:
                tracker.record_request(uri(suffix), NodeId(node), now)
            server.refresh_popularities(now)
        elif kind == "top":
            __, limit, excluded = op
            exclude = frozenset(uri(suffix) for suffix in excluded)
            expected = _ranked_brute_force(server, now, exclude)[:limit]
            assert _keys(server.top_popular(now, limit, exclude)) == _keys(expected)
        else:
            probe = now if op[1] else None
            expected = _ranked_brute_force(server, probe)
            assert _keys(server.all_records(probe)) == _keys(expected)
        if read_after:
            expected = _ranked_brute_force(server, None)
            assert _keys(server.all_records()) == _keys(expected)


class TestFileServer:
    def _descriptor(self, num_pieces: int = 2) -> FileDescriptor:
        return FileDescriptor(
            uri=Uri("dtn://fox/f1"),
            title_tokens=("a", "b"),
            publisher="fox",
            size_bytes=num_pieces * PIECE_SIZE,
            popularity=0.5,
            created_at=0.0,
            ttl=DAY,
        )

    def test_fetch_piece_matches_payload(self):
        server = FileServer()
        descriptor = self._descriptor()
        server.publish(descriptor)
        payload = server.fetch_piece(descriptor.uri, 1)
        assert payload == piece_payload(descriptor.uri, 1)

    def test_fetch_all_yields_every_piece(self):
        server = FileServer()
        descriptor = self._descriptor(num_pieces=3)
        server.publish(descriptor)
        pieces = dict(server.fetch_all(descriptor.uri))
        assert set(pieces) == {0, 1, 2}

    def test_unknown_uri_raises(self):
        with pytest.raises(KeyError):
            FileServer().fetch_piece(Uri("dtn://fox/none"), 0)

    def test_out_of_range_piece_raises(self):
        server = FileServer()
        descriptor = self._descriptor()
        server.publish(descriptor)
        with pytest.raises(IndexError):
            server.fetch_piece(descriptor.uri, 99)

    def test_expire(self):
        server = FileServer()
        descriptor = self._descriptor()
        server.publish(descriptor)
        assert server.expire(now=DAY + 1) == [descriptor.uri]
        assert descriptor.uri not in server
