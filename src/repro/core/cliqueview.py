"""Shared per-clique metadata view, reused across contact phases.

Both candidate builders (:func:`repro.core.discovery.
build_metadata_candidates` and :func:`repro.core.download.
build_piece_candidates`) need the same facts about a clique: which URIs
have a live metadata record somewhere in it, who holds one, and which
records match a given conjunctive token set. :class:`CliqueView`
computes them once per clique and the protocol engine carries the view
from the discovery phase into the download phase of the same contact.

Cost: O(contested URIs)
-----------------------
The clique phase only ever schedules an item that some member holds
and another lacks (§V). A URI every member holds live is never a
metadata candidate, so the view works on the **contested** URIs only:
the union minus the intersection of the members' live key sets. For a
pair that is ``a.keys() ^ b.keys()``, one C-level set operation over
the members' own store mappings (see
:meth:`~repro.core.node.MetadataStore.live_records`). Canonical
records, holder sets and the token index are built for the contested
URIs alone; the record of a URI every member holds is answered lazily
by :meth:`record_of`, for the piece builder's few URIs whose piece
holdings differ.

On pair-wise traces this is the whole win: two DieselNet buses hold
about 57 records each and share all but a handful, so a contact builds
around five canonical records instead of sixty. Classroom cliques of
about 16 NUS students contest nearly every URI (some member always
lacks it), so there the view does about as much work as a full scan.

Canonical records
-----------------
Different members can hold different copies of the same URI (the
metadata server refreshes popularity, so copies drift). The view picks
one **canonical record per URI** by a deterministic rule — highest
popularity wins, ties resolved toward the copy held by the
lowest-numbered member — which makes candidate construction
independent of ``states`` dict insertion order. Contested URIs are
visited in sorted order, so nothing depends on set iteration order or
the hash seed.

Incremental maintenance
-----------------------
Metadata transmissions during the discovery phase add holders; the
engine reports them via :meth:`note_holder`, which is exact. The one
event the view cannot patch incrementally is an *eviction* on a
receiving store (a bounded store displacing some other record); the
engine calls :meth:`mark_dirty` and the next :meth:`refresh` rebuilds
the view from scratch. Evictions mid-contact are rare, so the common
case stays O(transmissions).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set

from repro.catalog.metadata import Metadata
from repro.core.node import NodeState
from repro.types import NodeId, Uri


def contested_keys(views: List[AbstractSet]) -> Set:
    """Elements some but not all of ``views`` contain (union minus intersection).

    ``views`` are set-like — dict ``keys()`` or ``items()`` views — so
    for a pair this is one C-level symmetric difference.
    """
    if len(views) == 2:
        return views[0] ^ views[1]
    union = set().union(*views)
    return union.difference(set(views[0]).intersection(*views[1:]))


class CliqueView:
    """Canonical live-metadata map of one clique at one instant."""

    __slots__ = (
        "states",
        "now",
        "members",
        "contested",
        "record_by_uri",
        "md_holders",
        "_live",
        "_token_index",
        "_match_cache",
        "_dirty",
        "rebuilds",
    )

    def __init__(self, states: Mapping[NodeId, NodeState], now: float) -> None:
        self.states = states
        self.now = now
        #: Members in ascending id order (the canonical tie-break order).
        self.members: List[NodeId] = sorted(states)
        #: Contested URIs (held live by some members, not all), sorted.
        self.contested: List[Uri] = []
        #: Canonical live record per contested URI (see module
        #: docstring); :meth:`record_of` also caches uncontested ones.
        self.record_by_uri: Dict[Uri, Metadata] = {}
        #: Members holding a live record of each contested URI.
        self.md_holders: Dict[Uri, Set[NodeId]] = {}
        self._live: List[Mapping[Uri, Metadata]] = []
        self._token_index: Dict[str, Set[Uri]] = {}
        self._match_cache: Dict[FrozenSet[str], Set[Uri]] = {}
        self._dirty = False
        #: Full rebuilds forced by mid-contact evictions.
        self.rebuilds = 0
        self._build()

    def _build(self) -> None:
        now = self.now
        members = self.members
        live = [self.states[node].metadata.live_records(now) for node in members]
        contested = sorted(contested_keys([records.keys() for records in live]))
        record_by_uri: Dict[Uri, Metadata] = {}
        md_holders: Dict[Uri, Set[NodeId]] = {}
        token_index: Dict[str, Set[Uri]] = {}
        for uri in contested:
            holders: Set[NodeId] = set()
            best: Optional[Metadata] = None
            for node, records in zip(members, live):
                record = records.get(uri)
                if record is not None:
                    holders.add(node)
                    if best is None or record.popularity > best.popularity:
                        best = record
            assert best is not None
            md_holders[uri] = holders
            record_by_uri[uri] = best
            for token in best.token_set:
                posting = token_index.get(token)
                if posting is None:
                    token_index[token] = {uri}
                else:
                    posting.add(uri)
        self.contested = contested
        self.record_by_uri = record_by_uri
        self.md_holders = md_holders
        self._live = live
        self._token_index = token_index
        self._match_cache = {}
        self._dirty = False

    # -- queries --------------------------------------------------------------

    def record_of(self, uri: Uri) -> Optional[Metadata]:
        """Canonical live record of ``uri`` in the clique (None if nobody has one).

        Contested URIs are answered from the build; a URI every member
        holds is resolved on first request by the same canonical rule.
        Valid until the first mutation of a member store (the engine
        asks only while building candidates).
        """
        record = self.record_by_uri.get(uri)
        if record is not None:
            return record
        best: Optional[Metadata] = None
        for records in self._live:
            candidate = records.get(uri)
            if candidate is None:
                return None  # not held by every member, and not contested
            if best is None or candidate.popularity > best.popularity:
                best = candidate
        if best is not None:
            self.record_by_uri[uri] = best
        return best

    def holders_of(self, uri: Uri) -> AbstractSet[NodeId]:
        """Members holding a live record of ``uri`` (read-only).

        Every member for a URI that is not contested; callers ask only
        about URIs whose :meth:`record_of` is not None.
        """
        holders = self.md_holders.get(uri)
        if holders is None:
            return frozenset(self.members)
        return holders

    def matching_uris(self, tokens: FrozenSet[str]) -> Set[Uri]:
        """Contested URIs whose canonical record matches ``tokens``.

        Conjunctive match via the clique-level inverted token index:
        intersection of per-token posting sets, smallest first. Results
        are memoized per token set for the view's lifetime (several
        members often advertise the same query); callers must treat the
        returned set as read-only.
        """
        cached = self._match_cache.get(tokens)
        if cached is not None:
            return cached
        postings = []
        for token in tokens:
            posting = self._token_index.get(token)
            if not posting:
                self._match_cache[tokens] = empty = set()
                return empty
            postings.append(posting)
        postings.sort(key=len)
        result = set(postings[0])
        for posting in postings[1:]:
            result &= posting
            if not result:
                break
        self._match_cache[tokens] = result
        return result

    def matched_uris(self, token_sets: Iterable[FrozenSet[str]]) -> Set[Uri]:
        """Union of :meth:`matching_uris` over several token sets."""
        out: Set[Uri] = set()
        indexed = self._token_index.keys()
        for tokens in token_sets:
            # A token missing from the (small) contested index rules the
            # set out; the subset test runs in C, before any lookup.
            if indexed >= tokens:
                out |= self.matching_uris(tokens)
        return out

    # -- incremental updates ---------------------------------------------------

    def note_holder(self, node: NodeId, record: Metadata) -> None:
        """Record that ``node`` now stores ``record`` (after a transmission).

        Transmissions deliver the canonical copy, so holder-set growth
        is the only update needed for known URIs.
        """
        uri = record.uri
        holders = self.md_holders.get(uri)
        if holders is None:
            if self.record_of(uri) is not None:
                return  # every member already held it
            self.md_holders[uri] = {node}
            self.record_by_uri[uri] = record
            self.contested = sorted(self.md_holders)
            for token in record.token_set:
                self._token_index.setdefault(token, set()).add(uri)
            self._match_cache = {}  # the token index changed
        else:
            holders.add(node)

    def mark_dirty(self) -> None:
        """Flag that a member store changed in a way the view cannot patch."""
        self._dirty = True

    def refresh(self) -> bool:
        """Rebuild if dirty; returns True when a rebuild happened."""
        if not self._dirty:
            return False
        self._build()
        self.rebuilds += 1
        return True
