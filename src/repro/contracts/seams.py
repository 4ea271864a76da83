"""The seam manifest: reference twins that must stay compatible.

The naive ``*_reference`` twins remain the executable specification of
each optimized path. Both live in one module and are duck-typed —
nothing but convention keeps their signatures aligned — so CON005
checks each manifest entry against the parsed source: the reference
twin's parameter list must be an ordered prefix of the optimized
implementation's (the optimized path may add trailing opt-in
parameters such as ``view``). A missing function on either side is
itself a CON005 finding, so deleting half a seam cannot pass silently.

Paths are relative to the ``repro`` package root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class SeamSpec:
    """One optimized function and its reference twin in one module."""

    name: str
    path: str  # relative to the repro root
    optimized: str
    reference: str


SEAM_REGISTRY: Tuple[SeamSpec, ...] = (
    SeamSpec(
        name="metadata builder reference twin",
        path="core/discovery.py",
        optimized="build_metadata_candidates",
        reference="build_metadata_candidates_reference",
    ),
    SeamSpec(
        name="piece builder reference twin",
        path="core/download.py",
        optimized="build_piece_candidates",
        reference="build_piece_candidates_reference",
    ),
    SeamSpec(
        name="contact extraction reference twin",
        path="traces/mobility.py",
        optimized="_extract_contacts",
        reference="_extract_contacts_reference",
    ),
)
