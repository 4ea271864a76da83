"""Unit tests for the hello protocol layer, CLI and report writers."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.report import (
    combined_markdown_report,
    sweep_to_csv,
    sweep_to_markdown,
)
from repro.experiments.sweep import SweepPoint, SweepResult
from repro.net.hello import (
    build_hello,
    derive_cliques,
    exchange_hellos,
    full_connectivity,
)
from repro.types import NodeId

from conftest import make_metadata, make_node, make_query


def states_for(registry, ids):
    return {NodeId(i): make_node(registry, node=i) for i in ids}


class TestHelloProtocol:
    def test_build_hello_carries_queries_and_downloads(self, registry):
        state = make_node(registry, node=1)
        record = make_metadata(registry, name="news island s01e01")
        state.accept_metadata(record, 0.0)
        state.add_own_query(make_query(1, record.uri, ["island"]))
        hello = build_hello(state, now=10.0, include_foreign_queries=False)
        assert hello.sender == NodeId(1)
        assert frozenset({"island"}) in hello.query_tokens
        assert record.uri in hello.downloading

    def test_exchange_updates_neighbor_tables(self, registry):
        states = states_for(registry, [0, 1, 2])
        connectivity = full_connectivity(frozenset(states))
        exchange_hellos(states, connectivity, now=100.0)
        for node, state in states.items():
            heard = state.heard_recently(101.0, window=5.0)
            assert heard == frozenset(states) - {node}

    def test_exchange_requires_rounds(self, registry):
        states = states_for(registry, [0, 1])
        with pytest.raises(ValueError):
            exchange_hellos(states, full_connectivity(frozenset(states)), 0.0, rounds=0)

    def test_derive_cliques_recovers_contact(self, registry):
        states = states_for(registry, [0, 1, 2, 3])
        cliques = derive_cliques(states, full_connectivity(frozenset(states)), 0.0)
        assert cliques == [frozenset(states)]

    def test_derive_cliques_partitions_disjoint_groups(self, registry):
        states = states_for(registry, [0, 1, 2, 3])
        connectivity = {
            NodeId(0): frozenset({NodeId(1)}),
            NodeId(1): frozenset({NodeId(0)}),
            NodeId(2): frozenset({NodeId(3)}),
            NodeId(3): frozenset({NodeId(2)}),
        }
        cliques = derive_cliques(states, connectivity, 0.0)
        assert sorted(cliques, key=min) == [
            frozenset({NodeId(0), NodeId(1)}),
            frozenset({NodeId(2), NodeId(3)}),
        ]

    def test_isolated_node_yields_no_singleton(self, registry):
        states = states_for(registry, [0, 1, 2])
        connectivity = {
            NodeId(0): frozenset({NodeId(1)}),
            NodeId(1): frozenset({NodeId(0)}),
            NodeId(2): frozenset(),
        }
        cliques = derive_cliques(states, connectivity, 0.0)
        assert cliques == [frozenset({NodeId(0), NodeId(1)})]


def tiny_sweep() -> SweepResult:
    points = (
        SweepPoint(x=0.1, ratios={"mbt": (0.5, 0.4), "mbt-q": (0.3, 0.2)}),
        SweepPoint(x=0.9, ratios={"mbt": (0.9, 0.8), "mbt-q": (0.6, 0.5)}),
    )
    return SweepResult(
        name="demo panel",
        x_label="access",
        x_values=(0.1, 0.9),
        points=points,
        protocols=("mbt", "mbt-q"),
    )


class TestReport:
    def test_csv_has_header_and_rows(self):
        text = sweep_to_csv(tiny_sweep())
        lines = text.strip().splitlines()
        assert lines[0] == "access,mbt_metadata,mbt_file,mbt-q_metadata,mbt-q_file"
        assert len(lines) == 3
        assert lines[1].startswith("0.1,0.5")

    def test_markdown_table(self):
        text = sweep_to_markdown(tiny_sweep())
        assert text.startswith("### demo panel")
        assert "| access | mbt meta | mbt file | mbt-q meta | mbt-q file |" in text
        assert "| 0.9 | 0.900 | 0.800 | 0.600 | 0.500 |" in text

    def test_combined_report(self):
        text = combined_markdown_report([tiny_sweep(), tiny_sweep()], "Panels")
        assert text.startswith("# Panels")
        assert text.count("### demo panel") == 2


class TestCLI:
    def test_cli_import_loads_no_optional_dependency(self):
        # The package has no run-time dependencies: numpy is not used
        # at all and networkx only by the tests, so a fresh interpreter
        # importing the CLI must load neither.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, repro.cli; print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_capacity_command(self, capsys):
        assert cli_main(["capacity", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "broadcast" in out
        assert "3" in out

    def test_trace_command_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "t.trace"
        assert cli_main(
            ["trace", "--kind", "nus", "--seed", "1", "--out", str(out_path)]
        ) == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "nodes" in out

    def test_stats_command(self, tmp_path, capsys):
        out_path = tmp_path / "t.trace"
        cli_main(["trace", "--kind", "dieselnet", "--out", str(out_path)])
        capsys.readouterr()
        assert cli_main(["stats", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "frequent pairs" in out

    def test_run_command_single_protocol(self, capsys):
        code = cli_main(
            [
                "run", "--trace", "dieselnet", "--protocol", "mbt",
                "--files-per-day", "10", "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mbt" in out
        assert "protocol" in out

    def test_figures_requires_panel(self, capsys):
        assert cli_main(["figures"]) == 2

    def test_figures_rejects_unknown_panel(self):
        with pytest.raises(SystemExit):
            cli_main(["figures", "fig9z"])
