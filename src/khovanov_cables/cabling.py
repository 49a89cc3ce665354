"""Framed satellites of a knot given as a braid word, and the strand
bookkeeping of their orientations.

satellite_word lays the f-framed satellite out as one braid word on
base.strands * N strands, N the pattern's strand count: first the
companion cabled strand by strand (cable_word puts N parallel columns in
place of each companion column, so its closure is the blackboard N-strand
parallel, framed by the companion's writhe), then f - writhe full twists
making up the requested framing, then the pattern word, both on the first
bundle's columns 0..N-1. Cable strand j is column j of that bundle. All
cable strands inherit the companion's direction, so the base orientation
of the closure is the all-parallel one; other orientations are addressed
as flip sets through CableMeta, which records which diagram component
each cable strand belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import BraidWord, braid_closure, cable_word, full_twist, row_word
from .diagrams import LinkDiagram


@dataclass(frozen=True)
class CableMeta:
    """Strand bookkeeping for a cable diagram: strand_component[j] is the
    diagram component carrying cable strand j (strands indexed as the
    pattern braid's columns)."""

    strand_component: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.strand_component)


def orientation_flips(
    meta: CableMeta, reversed_strands: set[int] | frozenset[int]
) -> frozenset[int]:
    """Component flip set reversing exactly the given cable strands.

    Rejects strand sets that are not unions of components.
    """
    reversed_strands = set(reversed_strands)
    if not reversed_strands <= set(range(meta.width)):
        raise ValueError("strand index out of range")
    flips = {meta.strand_component[j] for j in reversed_strands}
    covered = {
        j for j in range(meta.width) if meta.strand_component[j] in flips
    }
    if covered != reversed_strands:
        raise ValueError("strand set does not close to a sublink")
    return frozenset(flips)


def alternating_flips(meta: CableMeta) -> frozenset[int]:
    """Reverse every odd-indexed cable strand, making neighbors antiparallel."""
    return orientation_flips(meta, set(range(1, meta.width, 2)))


def satellite_word(base: BraidWord, f: int, pattern: BraidWord) -> BraidWord:
    """The f-framed satellite as a braid word: the companion cabled strand
    by strand, then the framing twists and the pattern on the first
    bundle's columns."""
    N = pattern.strands
    tangle = full_twist(N, f - base.writhe) * pattern
    return BraidWord(base.strands * N, cable_word(base, N).letters + tangle.letters)


def cable_of_braid(base: BraidWord, f: int, pattern: BraidWord):
    """The f-framed satellite as a diagram: the closure of its
    satellite_word, with its CableMeta."""
    if len(base.closure_cycles()) != 1:
        raise ValueError("companion must close to a knot")
    D, cols = braid_closure(satellite_word(base, f, pattern), with_columns=True)
    return D, _meta_from_columns(D, cols[: pattern.strands])


def cable_family_diagram(base: BraidWord, f: int, m: int, a: int = 0, i: int = 0):
    """Width-(2m+1) family member over a companion knot given as a braid
    word, with its CableMeta: pattern rows spliced into the f-framed cable."""
    return cable_of_braid(base, f, row_word(m, a, i))


def _meta_from_columns(D: LinkDiagram, cols) -> CableMeta:
    comp_e = D.component_of_edge()
    comp_l = D.component_of_loop()
    out = []
    for kind, ident in cols:
        out.append(comp_e[ident] if kind == "edge" else comp_l[ident])
    return CableMeta(tuple(out))
