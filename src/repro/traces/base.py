"""Contact-trace data model.

A DTN is described abstractly by its sequence of *contacts*
(space-time graph edges, paper §II-A). Each :class:`Contact` names the
set of nodes that form a communication clique for an interval of time.
Pair-wise traces (UMassDieselNet) simply have two members per contact;
the NUS classroom trace has one contact per class session with all
attending students as members.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.types import DAY, NodeId


class TraceError(ValueError):
    """Raised for malformed contacts or traces."""


@dataclass(frozen=True, order=True)
class Contact:
    """A communication opportunity among a clique of nodes.

    Attributes
    ----------
    start, end:
        Finite absolute start and end times in seconds, ``start < end``.
    members:
        The nodes in the clique; every member can receive every other
        member's broadcasts for the whole interval. At least two.
    """

    start: float
    end: float
    members: FrozenSet[NodeId] = field(compare=False)

    def __post_init__(self) -> None:
        # NaN compares False both ways, so it would slip past the
        # duration check below and then poison the start-time sort.
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise TraceError(f"contact times must be finite: {self.start}..{self.end}")
        if self.end <= self.start:
            raise TraceError(f"contact must have positive duration: {self.start}..{self.end}")
        if len(self.members) < 2:
            raise TraceError(f"contact needs at least two members, got {set(self.members)}")

    @property
    def duration(self) -> float:
        """Length of the contact in seconds."""
        return self.end - self.start

    @property
    def size(self) -> int:
        """Number of nodes in the clique."""
        return len(self.members)

    def pairs(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Yield every unordered node pair in the clique (u < v)."""
        ordered = sorted(self.members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                yield u, v

    def involves(self, node: NodeId) -> bool:
        """Return whether ``node`` takes part in this contact."""
        return node in self.members


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a :class:`ContactTrace`."""

    num_nodes: int
    num_contacts: int
    duration_days: float
    mean_contact_duration: float
    mean_clique_size: float
    contacts_per_node_per_day: float
    pairwise_fraction: float

    def describe(self) -> str:
        """Return a short human-readable summary."""
        return (
            f"{self.num_nodes} nodes, {self.num_contacts} contacts over "
            f"{self.duration_days:.1f} days; mean duration "
            f"{self.mean_contact_duration:.0f}s, mean clique size "
            f"{self.mean_clique_size:.2f}, "
            f"{self.contacts_per_node_per_day:.2f} contacts/node/day, "
            f"{self.pairwise_fraction:.0%} pair-wise"
        )


class ContactTrace:
    """An immutable, time-sorted sequence of :class:`Contact` objects.

    Provides the queries the protocol stack needs: iteration in start
    order, the node population, per-pair contact counts and the
    frequent-contact relation of paper §VI-A.
    """

    def __init__(self, contacts: Iterable[Contact], name: str = "trace") -> None:
        self._contacts: List[Contact] = sorted(contacts, key=lambda c: (c.start, c.end))
        self.name = name
        nodes: Set[NodeId] = set()
        for contact in self._contacts:
            nodes.update(contact.members)
        self._nodes: Tuple[NodeId, ...] = tuple(sorted(nodes))
        self._starts: List[float] = [c.start for c in self._contacts]

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def __getitem__(self, index: int) -> Contact:
        return self._contacts[index]

    # -- properties ---------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[NodeId, ...]:
        """All node ids appearing in the trace, sorted ascending."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def start_time(self) -> float:
        """Start of the first contact (0.0 for an empty trace)."""
        return self._contacts[0].start if self._contacts else 0.0

    @property
    def end_time(self) -> float:
        """Latest contact end (0.0 for an empty trace)."""
        return max((c.end for c in self._contacts), default=0.0)

    @property
    def duration(self) -> float:
        """Span from time zero to the last contact end."""
        return self.end_time

    # -- queries ------------------------------------------------------------------

    def contacts_between(self, start: float, end: float) -> List[Contact]:
        """Return contacts whose start lies in ``[start, end)``."""
        lo = bisect_left(self._starts, start)
        hi = bisect_left(self._starts, end)
        return self._contacts[lo:hi]

    def contacts_of(self, node: NodeId) -> List[Contact]:
        """Return the contacts that involve ``node``, in start order."""
        return [c for c in self._contacts if node in c.members]

    def pair_contact_counts(self) -> Dict[Tuple[NodeId, NodeId], int]:
        """Count contacts per unordered node pair.

        A clique contact of size *k* contributes one count to each of
        its k·(k−1)/2 pairs.
        """
        counts: Counter[Tuple[NodeId, NodeId]] = Counter()
        for contact in self._contacts:
            for pair in contact.pairs():
                counts[pair] += 1
        return dict(counts)

    def pair_contact_times(self) -> Dict[Tuple[NodeId, NodeId], List[float]]:
        """Map each unordered node pair to its sorted contact start times."""
        times: Dict[Tuple[NodeId, NodeId], List[float]] = defaultdict(list)
        for contact in self._contacts:
            for pair in contact.pairs():
                times[pair].append(contact.start)
        return dict(times)

    def frequent_pairs(self, max_gap_days: float) -> Set[Tuple[NodeId, NodeId]]:
        """Return pairs that meet at least once every ``max_gap_days``.

        This is the paper's "frequent contacting nodes" relation
        (§VI-A): in the DieselNet trace, nodes with contacts at least
        every three days; in the NUS trace, at least once per day. A
        pair qualifies when the gaps between consecutive meetings — and
        the lead-in/lead-out to the trace boundaries — never exceed
        ``max_gap_days`` days.
        """
        max_gap = max_gap_days * DAY
        horizon = self.duration
        frequent: Set[Tuple[NodeId, NodeId]] = set()
        for pair, times in self.pair_contact_times().items():
            gaps = [times[0] - 0.0]
            gaps.extend(b - a for a, b in zip(times, times[1:]))
            gaps.append(horizon - times[-1])
            if max(gaps) <= max_gap:
                frequent.add(pair)
        return frequent

    def frequent_pairs_by_rate(self, min_contacts_per_day: float) -> Set[Tuple[NodeId, NodeId]]:
        """Return pairs meeting at least ``min_contacts_per_day`` on average.

        This is the rate reading of the paper's frequent-contact rule
        (§VI-A): DieselNet pairs with "contacts at least every three
        days" have rate >= 1/3 per day; NUS pairs with "contacts at
        least once per day" have rate >= 1 per day.
        """
        if min_contacts_per_day <= 0:
            raise TraceError("min_contacts_per_day must be positive")
        days = max(self.duration / DAY, 1e-9)
        frequent: Set[Tuple[NodeId, NodeId]] = set()
        for pair, count in self.pair_contact_counts().items():
            if count / days >= min_contacts_per_day:
                frequent.add(pair)
        return frequent

    def frequent_neighbors(
        self, max_gap_days: float, by_rate: bool = True
    ) -> Dict[NodeId, Set[NodeId]]:
        """Return, per node, its set of frequent contacting nodes.

        With ``by_rate=True`` (default) a pair is frequent when it
        averages at least one contact per ``max_gap_days`` days; with
        ``by_rate=False`` the stricter max-gap criterion of
        :meth:`frequent_pairs` applies.
        """
        if by_rate:
            pairs = self.frequent_pairs_by_rate(1.0 / max_gap_days)
        else:
            pairs = self.frequent_pairs(max_gap_days)
        neighbors: Dict[NodeId, Set[NodeId]] = {node: set() for node in self._nodes}
        for u, v in pairs:
            neighbors[u].add(v)
            neighbors[v].add(u)
        return neighbors

    def stats(self) -> TraceStats:
        """Compute :class:`TraceStats` for this trace."""
        if not self._contacts:
            return TraceStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        total_duration = sum(c.duration for c in self._contacts)
        total_size = sum(c.size for c in self._contacts)
        pairwise = sum(1 for c in self._contacts if c.size == 2)
        days = max(self.duration / DAY, 1e-9)
        participations = sum(c.size for c in self._contacts)
        return TraceStats(
            num_nodes=self.num_nodes,
            num_contacts=len(self._contacts),
            duration_days=self.duration / DAY,
            mean_contact_duration=total_duration / len(self._contacts),
            mean_clique_size=total_size / len(self._contacts),
            contacts_per_node_per_day=participations / max(self.num_nodes, 1) / days,
            pairwise_fraction=pairwise / len(self._contacts),
        )

    # -- transforms ---------------------------------------------------------------

    def restricted_to(self, nodes: Iterable[NodeId]) -> "ContactTrace":
        """Return a new trace keeping only contacts fully inside ``nodes``.

        Contacts partially inside are shrunk to the intersection and
        dropped if fewer than two members remain.
        """
        keep = set(nodes)
        contacts: List[Contact] = []
        for contact in self._contacts:
            members = frozenset(m for m in contact.members if m in keep)
            if len(members) >= 2:
                contacts.append(Contact(contact.start, contact.end, members))
        return ContactTrace(contacts, name=f"{self.name}|restricted")

    def truncated(self, end_time: float) -> "ContactTrace":
        """Return a new trace with contacts starting before ``end_time``."""
        contacts = [c for c in self._contacts if c.start < end_time]
        return ContactTrace(contacts, name=f"{self.name}|<{end_time:.0f}s")


def merge_traces(traces: Sequence[ContactTrace], name: str = "merged") -> ContactTrace:
    """Merge several traces into one time-sorted trace."""
    contacts: List[Contact] = []
    for trace in traces:
        contacts.extend(trace)
    return ContactTrace(contacts, name=name)
