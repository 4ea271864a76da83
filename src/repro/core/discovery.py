"""Cooperative file discovery: metadata selection policies (§IV).

During a contact, the clique has a budget of metadata transmissions.
Which records go on the air, and in what order, is the discovery
policy:

* **Cooperative** (§IV-A): two phases. Phase one sends metadata that
  match the queries of connected nodes — those matching *more* nodes'
  queries first, popularity breaking ties. Phase two sends the
  remaining metadata in decreasing popularity.
* **Tit-for-tat** (§IV-B): each candidate is weighed by the *sum of
  the credits of the nodes requesting it* from the sender's ledger;
  un-requested records fall back to popularity order.

This module is pure policy: it builds and ranks candidates. The phase
loop that spends the budget lives in :mod:`repro.core.mbt`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.catalog.metadata import Metadata
from repro.core.cliqueview import CliqueView
from repro.core.node import NodeState
from repro.types import NodeId, Uri


@dataclass(frozen=True)
class MetadataCandidate:
    """One metadata record that could be broadcast in the clique.

    Attributes
    ----------
    metadata:
        The record.
    holders:
        Clique members that can transmit it.
    own_requesters:
        Members whose *own* queries match the record and who lack it —
        delivering to them satisfies a user directly.
    proxy_requesters:
        Members requesting it on behalf of a frequent contact (carried
        queries, full MBT only); they collect the record to pass on.
    missing:
        Members that do not hold the record (superset of requesters).
    """

    metadata: Metadata
    holders: FrozenSet[NodeId]
    own_requesters: FrozenSet[NodeId]
    proxy_requesters: FrozenSet[NodeId]
    missing: FrozenSet[NodeId]

    @property
    def requesters(self) -> FrozenSet[NodeId]:
        """All requesters, own and proxy."""
        return self.own_requesters | self.proxy_requesters

    @property
    def requested(self) -> bool:
        return bool(self.own_requesters or self.proxy_requesters)


def advertised_query_tokens(
    states: Mapping[NodeId, NodeState], now: float, include_foreign: bool
) -> Dict[NodeId, Tuple[FrozenSet[str], ...]]:
    """Query token sets each member advertises in its hello."""
    return {
        node: state.query_tokens(now, include_foreign)
        for node, state in states.items()
    }


def build_metadata_candidates(
    states: Mapping[NodeId, NodeState],
    now: float,
    include_foreign: bool,
    view: Optional[CliqueView] = None,
) -> List[MetadataCandidate]:
    """Enumerate every useful metadata transmission in the clique.

    A record is a candidate when at least one member holds it and at
    least one member lacks it. Requesters are computed from the query
    tokens the members advertise in their hellos; under full MBT
    (``include_foreign``) members also request on behalf of the
    frequent contacts whose queries they carry.

    Only the view's *contested* URIs — held by some members, not all —
    can be candidates, so the loop visits exactly those, in sorted
    order. Matching runs through the clique-level inverted token index
    of ``view`` (built on demand when absent), which covers the
    contested records only: per member, the set of contested URIs its
    queries match is the union of posting-set intersections, instead of
    a subset test per (member, record) pair. The result is
    order-independent — the canonical record per URI is picked
    deterministically (see :class:`~repro.core.cliqueview.CliqueView`)
    regardless of ``states`` iteration order.
    """
    if view is None:
        view = CliqueView(states, now)
    members = frozenset(states)
    # Every member's token accessors run even when nothing is contested:
    # they advance the memoized query views' deterministic counters.
    own_tokens = {n: s.own_query_tokens(now) for n, s in states.items()}
    if include_foreign:
        foreign_tokens = {n: s.foreign_query_tokens(now) for n, s in states.items()}
    if not view.contested:
        return []
    no_match: Set[Uri] = set()
    own_match = {n: view.matched_uris(tokens) for n, tokens in own_tokens.items()}
    if include_foreign:
        foreign_match = {
            n: view.matched_uris(tokens) for n, tokens in foreign_tokens.items()
        }
    else:
        foreign_match = {n: no_match for n in states}

    candidates: List[MetadataCandidate] = []
    for uri in view.contested:
        holders = view.md_holders[uri]
        missing = members - holders
        if not missing:
            continue
        own = frozenset(node for node in missing if uri in own_match[node])
        proxy = frozenset(
            node
            for node in missing
            if node not in own and uri in foreign_match[node]
        )
        candidates.append(
            MetadataCandidate(
                metadata=view.record_by_uri[uri],
                holders=frozenset(holders),
                own_requesters=own,
                proxy_requesters=proxy,
                missing=missing,
            )
        )
    return candidates


def build_metadata_candidates_reference(
    states: Mapping[NodeId, NodeState],
    now: float,
    include_foreign: bool,
) -> List[MetadataCandidate]:
    """Naive reference implementation of :func:`build_metadata_candidates`.

    Scans every member's full store and subset-tests every (member,
    record) pair. Kept as the specification the indexed builder is
    property-tested against (identical candidates on random cliques).
    """
    own_tokens = {n: s.own_query_tokens(now) for n, s in states.items()}
    if include_foreign:
        foreign_tokens = {n: s.foreign_query_tokens(now) for n, s in states.items()}
    else:
        foreign_tokens = {n: () for n in states}

    holders_by_uri: Dict[Uri, Set[NodeId]] = {}
    record_by_uri: Dict[Uri, Metadata] = {}
    for node in sorted(states):
        for record in states[node].metadata.records():
            if not record.is_live(now):
                continue
            holders_by_uri.setdefault(record.uri, set()).add(node)
            existing = record_by_uri.get(record.uri)
            if existing is None or record.popularity > existing.popularity:
                record_by_uri[record.uri] = record

    members = frozenset(states)
    candidates: List[MetadataCandidate] = []
    for uri, holders in holders_by_uri.items():
        missing = members - holders
        if not missing:
            continue
        record = record_by_uri[uri]
        own = frozenset(
            node
            for node in missing
            if any(tokens <= record.token_set for tokens in own_tokens[node])
        )
        proxy = frozenset(
            node
            for node in missing - own
            if any(tokens <= record.token_set for tokens in foreign_tokens[node])
        )
        candidates.append(
            MetadataCandidate(
                metadata=record,
                holders=frozenset(holders),
                own_requesters=own,
                proxy_requesters=proxy,
                missing=frozenset(missing),
            )
        )
    return candidates


def cooperative_rank_key(candidate) -> Tuple:
    """Two-phase cooperative order (§IV-A).

    Requested records first — "those that match the query strings of
    more nodes themselves are sent [first]": records matching members'
    *own* queries outrank records only requested on behalf of absent
    frequent contacts. Popularity breaks ties; un-requested records
    follow in decreasing popularity. URI is the deterministic final
    tie-break. Like :func:`tit_for_tat_rank_key`, it ranks the builder's
    frozen candidates and the scheduler's mutable copies alike.
    """
    phase = 0 if candidate.requested else 1
    return (
        phase,
        -len(candidate.own_requesters),
        -len(candidate.proxy_requesters),
        -candidate.metadata.popularity,
        candidate.metadata.uri,
    )


def tit_for_tat_rank_key(candidate, sender: NodeState, now: float) -> Tuple:
    """Credit-weighted order for a specific sender (§IV-B).

    Primary key: the sum of the sender's credits for the requesters at
    ``now`` (reputation credits decay with time). Requested records
    still precede un-requested at equal weight, and popularity breaks
    remaining ties. Accepts any candidate with ``requesters``,
    ``requested`` and ``metadata`` — the frozen builder output or the
    scheduler's mutable copies.
    """
    weight = sender.credits.weight_of_requesters(candidate.requesters, now)
    phase = 0 if candidate.requested else 1
    return (
        -weight,
        phase,
        -candidate.metadata.popularity,
        candidate.metadata.uri,
    )


def select_cooperative(
    candidates: Sequence[MetadataCandidate],
    limit: Optional[int] = None,
) -> List[MetadataCandidate]:
    """Globally rank candidates for the coordinator (§IV-A).

    With ``limit`` (e.g. the contact's metadata budget), only the best
    ``limit`` candidates are materialized via a lazy top-k instead of a
    full sort; the rank key's URI tie-break makes the prefix identical
    to ``sorted(...)[:limit]``.
    """
    if limit is not None:
        return heapq.nsmallest(limit, candidates, key=cooperative_rank_key)
    return sorted(candidates, key=cooperative_rank_key)


def select_for_sender(
    candidates: Sequence[MetadataCandidate],
    sender: NodeState,
    tit_for_tat: bool,
    now: float,
    limit: Optional[int] = None,
) -> List[MetadataCandidate]:
    """Rank the candidates a given sender can transmit (top-k with ``limit``)."""
    own = [c for c in candidates if sender.node in c.holders]
    if tit_for_tat:
        key = lambda c: tit_for_tat_rank_key(c, sender, now)  # noqa: E731
    else:
        key = cooperative_rank_key
    if limit is not None:
        return heapq.nsmallest(limit, own, key=key)
    return sorted(own, key=key)
