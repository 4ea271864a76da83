"""Tit-for-tat rank keys rank with reputation decayed to the contact time.

Under ``credit_policy="reputation"`` a requester's weight is its credit
scaled by the sender's *decayed* reputation of it. A requester
penalized days ago has mostly recovered toward neutral, so a ranking at
the contact time must see that recovery, not the reputation frozen at
the penalty. The module rank keys are the only ones: the protocol
engine's loops and ``select_for_sender`` share them.
"""

from __future__ import annotations

from repro.core import discovery, download
from repro.core.node import NodeState
from repro.types import DAY, NodeId

from conftest import make_metadata, make_query

NOW = 6 * DAY
LONG = 30 * DAY


def _clique(registry):
    """Sender 0; node 1 earned more credit but was penalized on day 1."""
    states = {
        NodeId(i): NodeState(NodeId(i), registry, credit_policy="reputation")
        for i in range(3)
    }
    sender = states[NodeId(0)]
    ledger = sender.credits
    ledger.reward_requested(NodeId(1), 0.0)
    ledger.reward_requested(NodeId(1), 0.0)
    ledger.penalize(NodeId(1), DAY)
    for __ in range(3):
        ledger.reward_unrequested(NodeId(2), 1.0, 0.0)
    for_one = make_metadata(
        registry, uri="dtn://fox/one", name="news island s01e01", ttl=LONG
    )
    for_two = make_metadata(
        registry, uri="dtn://fox/two", name="drama desert s01e02", ttl=LONG
    )
    for record in (for_one, for_two):
        sender.accept_metadata(record, 0.0)
        sender.pieces.add_unverified(record.uri, 0)
    states[NodeId(1)].add_own_query(
        make_query(1, for_one.uri, ["island"], expires_at=LONG)
    )
    states[NodeId(2)].add_own_query(
        make_query(2, for_two.uri, ["desert"], expires_at=LONG)
    )
    return states, sender


def test_metadata_ranking_uses_contact_time(registry):
    states, sender = _clique(registry)
    # The scenario's weights flip between frozen and decayed reputation.
    weight = sender.credits.weight_of_requesters
    assert weight([NodeId(1)], 0.0) < weight([NodeId(2)], 0.0)
    assert weight([NodeId(1)], NOW) > weight([NodeId(2)], NOW)
    cands = discovery.build_metadata_candidates(states, NOW, False)
    ranked = discovery.select_for_sender(cands, sender, True, now=NOW)
    assert [c.metadata.uri for c in ranked] == ["dtn://fox/one", "dtn://fox/two"]
    keys = [discovery.tit_for_tat_rank_key(c, sender, now=NOW) for c in ranked]
    assert keys == sorted(keys)


def test_piece_ranking_uses_contact_time(registry):
    states, sender = _clique(registry)
    for node in (1, 2):
        for record in sender.metadata.records():
            states[NodeId(node)].accept_metadata(record, 0.0)
    cands = download.build_piece_candidates(states, NOW)
    ranked = download.select_for_sender(cands, sender, True, now=NOW)
    assert [c.uri for c in ranked] == ["dtn://fox/one", "dtn://fox/two"]
    assert ranked == download.select_for_sender(cands, sender, True, now=NOW, limit=2)
