"""Unit tests for trace serialization."""

from __future__ import annotations

import io

import pytest

from repro.traces.base import TraceError
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.io import contacts_as_records, read_trace, write_trace
from repro.traces.nus import NUSConfig, generate_nus_trace

from conftest import tiny_trace


class TestRoundTrip:
    def test_round_trip_through_string(self):
        trace = tiny_trace()
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        assert [(c.start, c.end, c.members) for c in loaded] == [
            (c.start, c.end, c.members) for c in trace
        ]

    def test_round_trip_preserves_full_float_precision(self):
        # Times that die under fixed-point formatting: sub-millisecond
        # fractions and values needing all 17 significant digits.
        from repro.traces.base import Contact, ContactTrace
        from repro.types import NodeId

        trace = ContactTrace(
            [
                Contact(1.0 / 3.0, 2.0 / 3.0, frozenset({NodeId(0), NodeId(1)})),
                Contact(0.0001234, 86400.00056789, frozenset({NodeId(2), NodeId(3)})),
                Contact(1e-12, 1.0000000000000002, frozenset({NodeId(4), NodeId(5)})),
            ],
            name="precise",
        )
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.seek(0)
        loaded = read_trace(buffer)
        # Bitwise float equality, not approx: repr() round-trips float64.
        assert [(c.start, c.end, c.members) for c in loaded] == [
            (c.start, c.end, c.members) for c in trace
        ]

    def test_mobility_trace_round_trips_bit_exactly(self, tmp_path):
        from repro.traces.mobility import CommunityConfig, generate_community_trace
        from repro.types import HOUR

        trace = generate_community_trace(
            CommunityConfig(
                num_nodes=10, num_communities=2, area_size=600.0,
                community_radius=100.0, radio_range=60.0, duration=2 * HOUR,
            ),
            seed=11,
        )
        path = tmp_path / "community.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert [(c.start, c.end, c.members) for c in loaded] == [
            (c.start, c.end, c.members) for c in trace
        ]

    def test_round_trip_through_file(self, tmp_path):
        trace = generate_dieselnet_trace(DieselNetConfig(num_buses=8, num_days=2), seed=0)
        path = tmp_path / "diesel.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.nodes == trace.nodes

    def test_round_trip_preserves_cliques(self, tmp_path):
        trace = generate_nus_trace(
            NUSConfig(num_students=20, num_courses=4, num_days=3), seed=0
        )
        path = tmp_path / "nus.trace"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert [c.members for c in loaded] == [c.members for c in trace]

    def test_name_defaults_to_file_stem(self, tmp_path):
        path = tmp_path / "campus.trace"
        write_trace(tiny_trace(), path)
        assert read_trace(path).name == "campus"


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n1.0 2.0 0 1\n   \n# tail\n"
        trace = read_trace(io.StringIO(text))
        assert len(trace) == 1

    def test_clique_line(self):
        trace = read_trace(io.StringIO("0.0 10.0 3 1 2\n"))
        assert trace[0].members == {1, 2, 3}

    def test_too_few_fields_raises(self):
        with pytest.raises(TraceError, match="line 1"):
            read_trace(io.StringIO("1.0 2.0 0\n"))

    def test_bad_number_raises(self):
        with pytest.raises(TraceError, match="line 1"):
            read_trace(io.StringIO("abc 2.0 0 1\n"))

    def test_duplicate_node_raises(self):
        with pytest.raises(TraceError, match="two distinct"):
            read_trace(io.StringIO("1.0 2.0 4 4\n"))

    def test_inverted_interval_raises(self):
        with pytest.raises(TraceError):
            read_trace(io.StringIO("5.0 2.0 0 1\n"))

    @pytest.mark.parametrize(
        "line", ["nan 10 1 2", "0 nan 1 2", "0 inf 1 2", "-inf 0 1 2"]
    )
    def test_non_finite_time_raises(self, line):
        with pytest.raises(TraceError, match="finite"):
            read_trace(io.StringIO(line + "\n"))

    def test_error_reports_line_number(self):
        text = "1.0 2.0 0 1\nbroken line here x\n"
        with pytest.raises(TraceError, match="line 2"):
            read_trace(io.StringIO(text))


class TestRecords:
    def test_contacts_as_records(self):
        records = contacts_as_records(tiny_trace())
        assert records[0] == (100.0, 200.0, (0, 1))
        assert all(members == tuple(sorted(members)) for __, __, members in records)
