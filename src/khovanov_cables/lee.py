"""Deformed-theory structure: canonical classes, their gradings, and the
s-invariant.

Each orientation of a link (encoded as a set of component flips relative
to the diagram's stored directions) owns a canonical cycle supported on
its oriented resolution. The collection of these classes spans the
deformed homology. The s-invariant of an oriented link is the quantum
filtration level of its own class, plus one.

A class's homology and filtration level live in one homological degree,
so `canonical_classes` scans only one degree around its orientations'
expected degrees: `s_invariant` reads degrees -1..1, where its class sits
in degree 0.  `lee_homology_dims` scans every degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import LinkDiagram
from .frobenius import Theory, lee_deformation
from .scanning import homology_table, scan_complex


@dataclass(frozen=True)
class CanonicalClass:
    """A transported orientation class: its orientation's flip set, its
    homological degree and the filtration level of its homology class."""

    flips: frozenset
    h: int
    level: int


def canonical_classes(
    D: LinkDiagram,
    orientations,
    base_flips: frozenset = frozenset(),
    theory: Theory | None = None,
) -> dict[frozenset, CanonicalClass]:
    """Scan once with the given base orientation and report every requested
    orientation's class. Degrees are read off the surviving complex, not
    from counting arguments, so they double as an engine check; the scan
    keeps the degrees from one below the lowest expected degree to one
    above the highest, where the classes' degrees and levels survive."""
    th = theory if theory is not None else lee_deformation(3)
    ors = [frozenset(o) for o in orientations]
    hs = [expected_h_difference(D, base_flips, o) for o in ors]
    window = (min(hs) - 1, max(hs) + 1) if hs else None
    res = scan_complex(D, th, flips=base_flips, orientations=ors, degrees=window)
    out = {}
    for o in ors:
        v = res.cycles[o]
        assert v, "canonical cycle died in transport"
        assert res.complex.apply_d(v) == {}, "transported cycle is not closed"
        hs = {res.complex.grading[g][0] for g in v}
        assert len(hs) == 1, "canonical cycle spread over homological degrees"
        lev = res.complex.filtration_level(v)
        assert lev is not None
        out[o] = CanonicalClass(o, hs.pop(), lev)
    return out


def expected_h_difference(D: LinkDiagram, a: frozenset, b: frozenset) -> int:
    """Homological-degree gap h(x_b) - h(x_a) forced by the writhe census."""
    diff = D.writhe(a) - D.writhe(b)
    assert diff % 2 == 0
    return diff // 2


def lee_homology_dims(D: LinkDiagram) -> dict:
    """Ranks of Lee homology mod 3, {h: dim}."""
    return homology_table(D, lee_deformation(3))


def s_invariant(D: LinkDiagram, flips: frozenset = frozenset(), p: int = 3) -> int:
    """Filtration level of the link's own orientation class, plus one."""
    cls = canonical_classes(D, [flips], base_flips=flips, theory=lee_deformation(p))
    return cls[flips].level + 1
