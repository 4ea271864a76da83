"""Broadcast-based file download: piece selection policies (§V).

After discovery, the clique spends its piece budget. Candidate
transmissions are (file, piece-index) pairs somebody holds and somebody
lacks:

* **Cooperative** (§V-A): pieces requested by nodes in the clique go
  first — those requested by *more* nodes first, decreasing file
  popularity breaking ties; then the remaining pieces in decreasing
  popularity.
* **Tit-for-tat** (§V-B): the same credit mechanism as discovery —
  candidates weighed by the sum of the sender's credits for the
  requesting nodes.

A node "requests" a URI when it advertises it in the *downloading*
field of its hello, i.e. it holds a metadata matching one of its own
queries and the file is incomplete.

Every piece carries its file's metadata (needed for checksum
verification by receivers that lack it); in MBT-QM this piggyback is
the *only* way metadata spread.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.catalog.files import bit_indices
from repro.catalog.metadata import Metadata
from repro.core.cliqueview import CliqueView, contested_keys
from repro.core.node import NodeState
from repro.types import NodeId, Uri


@dataclass(frozen=True)
class PieceCandidate:
    """One piece transmission the clique could schedule.

    Attributes
    ----------
    metadata:
        The file's metadata (source of checksum and popularity).
    index:
        Piece index within the file.
    holders:
        Members holding this piece *and* the file's metadata.
    requesters:
        Members downloading the URI that lack this piece.
    missing:
        All members lacking this piece.
    """

    metadata: Metadata
    index: int
    holders: FrozenSet[NodeId]
    requesters: FrozenSet[NodeId]
    missing: FrozenSet[NodeId]

    @property
    def uri(self) -> Uri:
        return self.metadata.uri

    @property
    def requested(self) -> bool:
        return bool(self.requesters)


def advertised_downloads(
    states: Mapping[NodeId, NodeState], now: float
) -> Dict[NodeId, FrozenSet[Uri]]:
    """URIs each member advertises as downloading in its hello."""
    return {node: state.wanted_uris(now) for node, state in states.items()}


def build_piece_candidates(
    states: Mapping[NodeId, NodeState],
    now: float,
    view: Optional[CliqueView] = None,
) -> List[PieceCandidate]:
    """Enumerate every useful piece transmission in the clique.

    A sender must hold both the piece and the file's metadata (the
    checksums travel with the piece). Requesters come from the
    downloading URIs advertised in hellos.

    Only URIs whose ``(uri, bitmap)`` items differ across the members'
    piece stores can yield a candidate — a piece every member holds has
    nobody to receive it — so the loop visits exactly those, in sorted
    order, and within a URI only the pieces some member lacks. The
    metadata side (canonical record, metadata holders) comes from
    ``view`` — built on demand when absent, shared with the discovery
    phase by the protocol engine. Per-piece membership is computed with
    the stores' bitmaps: one ``int`` per (member, URI), combined bitwise
    instead of per-index set algebra.
    """
    if view is None:
        view = CliqueView(states, now)
    downloads = advertised_downloads(states, now)
    members = frozenset(states)
    member_list = view.members
    piece_maps = [states[node].pieces.bitmaps for node in member_list]
    differing = contested_keys([pieces.items() for pieces in piece_maps])

    candidates: List[PieceCandidate] = []
    for uri in sorted({uri for uri, __ in differing}):
        record = view.record_of(uri)
        if record is None:
            continue  # no live metadata in the clique: unservable
        holder_bitmaps = []
        union = 0
        common = -1
        for node, pieces in zip(member_list, piece_maps):
            bitmap = pieces.get(uri, 0)
            common &= bitmap
            if bitmap:
                holder_bitmaps.append((node, bitmap))
                union |= bitmap
        eligible_pool = view.holders_of(uri)
        wanting = [node for node in member_list if uri in downloads[node]]
        # Pieces every member holds have no receiver: skip them outright.
        for index in bit_indices(union & ~common):
            mask = 1 << index
            holders = {node for node, bitmap in holder_bitmaps if bitmap & mask}
            eligible_senders = frozenset(holders & eligible_pool)
            if not eligible_senders:
                continue
            requesters = frozenset(
                node for node in wanting if node not in holders
            )
            candidates.append(
                PieceCandidate(
                    metadata=record,
                    index=index,
                    holders=eligible_senders,
                    requesters=requesters,
                    missing=members - holders,
                )
            )
    return candidates


def build_piece_candidates_reference(
    states: Mapping[NodeId, NodeState],
    now: float,
) -> List[PieceCandidate]:
    """Naive reference implementation of :func:`build_piece_candidates`.

    Walks per-index piece sets and scans every member's metadata store.
    Kept as the specification the bitmap-based builder is
    property-tested against (identical candidates on random cliques).
    """
    downloads = advertised_downloads(states, now)
    members = frozenset(states)

    # Which live metadata does each member hold (for send eligibility)?
    metadata_by_uri: Dict[Uri, Metadata] = {}
    md_holders: Dict[Uri, Set[NodeId]] = {}
    for node in sorted(states):
        for record in states[node].metadata.records():
            if not record.is_live(now):
                continue
            md_holders.setdefault(record.uri, set()).add(node)
            existing = metadata_by_uri.get(record.uri)
            if existing is None or record.popularity > existing.popularity:
                metadata_by_uri[record.uri] = record

    piece_holders: Dict[Tuple[Uri, int], Set[NodeId]] = {}
    for node, state in states.items():
        for uri in state.pieces.uris:
            if uri not in metadata_by_uri:
                continue  # no metadata anywhere in the clique: unservable
            for index in state.pieces.pieces_of(uri):
                piece_holders.setdefault((uri, index), set()).add(node)

    candidates: List[PieceCandidate] = []
    for (uri, index), holders in piece_holders.items():
        record = metadata_by_uri[uri]
        eligible_senders = frozenset(holders & md_holders.get(uri, set()))
        if not eligible_senders:
            continue
        missing = frozenset(
            node
            for node in members
            if index not in states[node].pieces.pieces_of(uri)
        )
        if not missing:
            continue
        requesters = frozenset(
            node for node in missing if uri in downloads[node]
        )
        candidates.append(
            PieceCandidate(
                metadata=record,
                index=index,
                holders=eligible_senders,
                requesters=requesters,
                missing=missing,
            )
        )
    return candidates


def cooperative_rank_key(candidate) -> Tuple:
    """Two-phase cooperative order (§V-A).

    Ranks the builder's frozen candidates and the scheduler's mutable
    copies alike (anything with ``requested``, ``requesters``,
    ``metadata``, ``uri`` and ``index``).
    """
    phase = 0 if candidate.requested else 1
    return (
        phase,
        -len(candidate.requesters),
        -candidate.metadata.popularity,
        candidate.uri,
        candidate.index,
    )


def tit_for_tat_rank_key(candidate, sender: NodeState, now: float) -> Tuple:
    """Credit-weighted order for a specific sender at ``now`` (§V-B)."""
    weight = sender.credits.weight_of_requesters(candidate.requesters, now)
    phase = 0 if candidate.requested else 1
    return (
        -weight,
        phase,
        -candidate.metadata.popularity,
        candidate.uri,
        candidate.index,
    )


def select_cooperative(
    candidates: Sequence[PieceCandidate],
    limit: Optional[int] = None,
) -> List[PieceCandidate]:
    """Globally rank piece candidates for the coordinator (§V-A).

    With ``limit`` (the contact's piece budget), a lazy top-k replaces
    the full sort; the (URI, index) tie-break makes the prefix
    identical to ``sorted(...)[:limit]``.
    """
    if limit is not None:
        return heapq.nsmallest(limit, candidates, key=cooperative_rank_key)
    return sorted(candidates, key=cooperative_rank_key)


def select_for_sender(
    candidates: Sequence[PieceCandidate],
    sender: NodeState,
    tit_for_tat: bool,
    now: float,
    limit: Optional[int] = None,
) -> List[PieceCandidate]:
    """Rank the piece candidates a sender can transmit (top-k with ``limit``)."""
    own = [c for c in candidates if sender.node in c.holders]
    if tit_for_tat:
        key = lambda c: tit_for_tat_rank_key(c, sender, now)  # noqa: E731
    else:
        key = cooperative_rank_key
    if limit is not None:
        return heapq.nsmallest(limit, own, key=key)
    return sorted(own, key=key)
