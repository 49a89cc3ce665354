"""Crossing-by-crossing computation of link homology at large sizes.

The state-cube complex doubles with every crossing, which caps the naive
approach near a dozen crossings.  This module instead sweeps the diagram one
crossing at a time, maintaining a complex whose generators are crossingless
tangles in the swept region: perfect matchings of the currently open edges,
each carrying raw homological and quantum offsets.  Differential entries are
formal linear combinations of decorated surfaces between two matchings.

Three moves keep the intermediate complexes small:

* closed circles produced by an attachment are split off into a pair of
  summands immediately (the two-dimensional algebra of the theory turns a
  circle into two shifted copies of the same matching);
* every surface component is reduced to genus zero on the spot, trading
  handles for algebra labels;
* differential entries that are invertible scalars times an identity
  surface, with no quantum jump, are cancelled by Gaussian elimination as
  soon as they appear.

The width of the sweep (the largest number of open edges, over the chosen
crossing order) governs the cost, not the crossing number.

Distinguished cycles can be carried through the sweep.  Such a cycle is
one more row of the differential, keyed by a reference id that is never a
generator: its entries are surfaces from a reference tangle (the partially
assembled resolution picked out by an orientation) into the generators.
Attaching lifts the row like any other and caps each reference circle that
closes with its canonical label, read from any of its edges (or its loop):
`planar.parities` gives every edge's and loop's parity from one
checkerboard colouring of the diagram, so no circle of the oriented
resolution is ever built.  Delooping and elimination treat the row as an
incoming row.
The reference id is no generator, so it is never a pivot.

A split scan marks every generator with its smoothing (its side) at one
crossing, attached where the plain scan order puts it, and later children
keep their parent's side.  From that attach on, elimination cancels only
entries between generators on the same side, which keeps the one side a
subcomplex and the zero side the quotient.

A scan can be forked into a copy that shares no row, column or morphism
with it, so both go on alone.  A join attaches crossingless arcs between
open edges, lifted, delooped and eliminated like a crossing; joining a braid
tangle's bottom ends to its top ends closes it.  So one sweep along a braid
word, forked and closed at each prefix, scans the closure of every prefix;
finish takes the grading shifts and free loops from the closed diagram.

A scan can keep only a window of final homological degrees h = rawh -
n_minus.  The differential raises rawh by exactly one (a saddle goes from
the 0 child to the 1 child, and an elimination rewrites z -> y, x -> w
into z -> w with the same step), and attaching a crossing adds 0 or 1 to
rawh, which never falls.  So the generators whose h is already above hi
span a subcomplex, and dropping them is a quotient; those that can still
reach lo with the crossings left to attach span a subcomplex too, and
keeping only them is a restriction.  Neither changes H_h, nor the
filtration level of its classes, for lo < h < hi: there the cycles and
the boundaries of the full complex and of the window are the same.  A
tracked row sits at the rawh of its reference tangle, so it never points
at a dropped generator when its class's degree lies in the window.  The
window is applied after each attach's elimination: every generator that
can no longer end in it goes, with its row and column.  Dropping only
after elimination lets the layers just inside the window cancel against
those just outside first, which keeps them small.

Elimination cancels the cheapest iso entry (x, y) first: the one whose
cancellation makes the fewest compositions, (entries into y - 1) times
(entries out of x - 1), as Bar-Natan's local Gaussian elimination does to
limit fill-in.  The rule is chain_algebra.eliminate_cheapest, the one
elimination driver that ScalarComplex.simplify runs on too; ties fall to
the smaller (x, y), so the order is deterministic.

Surfaces are stored by the boundary points each component touches.  An open
point (an open edge e) is the bit 1 << e of an int, and a closed circle not
yet capped is the bit 1 << k for the k-th arc of the step that closes it.
Circle bits are local to one step: the step caps every circle it closes,
a tracked row's in the lift and the rest in delooping.  Every open point
carries one source arc and one target arc of the same component, so a
component's points are a union of cycles of the source and target
matchings: together with those two matchings they name its whole strand
boundary, and its boundary circles are the cycles inside its points plus
its circle bits.  Gluing, lifting and capping are then a few
bit operations on small ints.

A matching is held in one form, its key: the frozenset of its (point,
partner) pairs, both ways round.  Many generators share one, and one
attachment rewires each distinct matching once and builds the lifting pieces
once for each pair of matchings a row lifts between, per smoothing.  The
surface normalizations of one attachment (gluing, capping, lifting and
counting boundary cycles) are memoized on unit coefficients, and lifting and
capping renormalize only the parts they touch.  A stored part's label is
monic, its first nonzero entry 1, and the scalar moves into the coefficient,
so one surface has one key.  All these tables live in a _SurfaceMemo that
each attach or join creates and drops: entries repeat heavily within one
step, while a memo kept for a whole scan would grow with it.  A step has two
halves.  The lift consumes the complex it reads: it pops each old row as it
lifts it, and the old generators go when it returns.  The reduction first
drops the three tables that only the lift reads, then deloops and
eliminates, so at the step's peak the new complex and the gluing, capping
and cycle tables are all that is alive.  The surface maps add each memoized
result, times its coefficient, straight into the target morphism; delooping
and elimination edit the rows and columns in place; and a part that meets a
unit label keeps the other label, with no algebra.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .chain_algebra import ScalarComplex, Vec, eliminate_cheapest, inv_mod
from .diagrams import LinkDiagram, oriented_smoothing, smoothing_arcs
from .frobenius import Theory
from .planar import parities

# A connected surface component: (points, source circles, target circles,
# algebra label, Euler characteristic), the first three bitmasks.  What a
# part means depends on the source and target matchings of the morphism
# that holds it.  Stored parts are genus-normalized.
Part = tuple
Partition = frozenset
# Formal sum of decorated partitions: {partition: coefficient mod p}.
Morphism = dict


class _SurfaceMemo:
    """Unit-coefficient surface results, shared by the calls of one attach
    or join.

    A matching is its key, the frozenset of its (point, partner) pairs.  A
    partition reads through the matchings of its morphism, so every table
    whose result depends on them has them in its key.  glued maps (earlier,
    later, source, target) to the composite, capped maps (source bit,
    target bit, label) to a table from partition to the capped partition
    (capping keeps the genus, so it needs no matchings), and cycles maps a
    (source, target) pair of matchings to the point masks of their cycles;
    these three live for the whole step.  A caller scales a (partition, c0)
    result by its own coefficient, which is exact because p is prime and
    neither factor is zero.  Three more tables live only for the lift, and
    _Scan._reduce empties them before it deloops: rewired maps a matching
    to what the crossing makes of it, lifts maps a (matching, matching,
    eps) triple to its lifting pieces, the cycles of the lifted matchings
    and a table of lifted partitions, and lifted keeps that table per
    (pieces, cycles) for every pair that shares them: a lifted partition
    depends on nothing else.
    """

    def __init__(self, th: Theory):
        self.th = th
        self.glued: dict = {}
        self.capped: dict = {}
        self.cycles: dict = {}
        self.rewired: dict = {}
        self.lifts: dict = {}
        self.lifted: dict = {}

    def cycles_of(self, ks: frozenset, kt: frozenset) -> tuple:
        hit = self.cycles.get((ks, kt))
        if hit is None:
            hit = self.cycles[(ks, kt)] = _cycles(ks, kt)
        return hit


# ---------------------------------------------------------------------------
# part and partition normalization


def _monic(label, p: int) -> tuple:
    """(c, monic): a nonzero label is c times the monic one, whose first
    nonzero entry is 1."""
    a, b = label
    return (b, (0, 1)) if a == 0 else (a, (1, b * inv_mod(a, p) % p))


def _cycles(ks: frozenset, kt: frozenset) -> tuple:
    """Point masks of the cycles that two matchings make together."""
    src, tgt = dict(ks), dict(kt)
    out = []
    seen = 0
    for start in src:
        if seen >> start & 1:
            continue
        mask = 0
        pt = start
        while not mask >> pt & 1:
            mid = src[pt]
            mask |= 1 << pt | 1 << mid
            pt = tgt[mid]
        seen |= mask
        out.append(mask)
    return tuple(out)


def _strand_circles(points: int, cycles: tuple) -> int:
    """Boundary circles through a part's points, which must be whole cycles."""
    n = 0
    cover = 0
    for c in cycles:
        if c & points:
            n += 1
            cover |= c
    assert cover == points, "part is not a union of cycles"
    return n


def _rebuild(parts: list, memo: _SurfaceMemo, cycles: tuple, kept=()):
    """Genus-normalize working parts, make their labels monic, and fold the
    labels' scalars into a unit scalar.

    No part closes up here: a glued part keeps its parts' points, and a
    lifted part that loses its last point closes a circle with a bit, so
    _cap is the one place where a surface closes.

    cycles are those of the result's matchings.  kept holds stored parts,
    already normalized, that join the result as they are.  Returns
    (partition, c0): the result is c0 times the partition, and partition is
    None when it is zero.
    """
    th = memo.th
    p = th.p
    coeff = 1
    frozen = list(kept)
    for points, cs, ct, label, chi in parts:
        if label == (0, 0):
            return None, 0
        beta = _strand_circles(points, cycles) + cs.bit_count() + ct.bit_count()
        slack = 2 - chi - beta
        assert slack >= 0 and slack % 2 == 0, "part has impossible topology"
        if slack:
            label = th.mul(label, th.label_pow(th.handle(), slack // 2))
            if label == (0, 0):
                return None, 0
        assert points or cs or ct, "a part closed up outside _cap"
        if label[0] != 1 and label != (0, 1):
            c, label = _monic(label, p)
            coeff = coeff * c % p
        frozen.append((points, cs, ct, label, 2 - beta))
    return frozenset(frozen), coeff


# ---------------------------------------------------------------------------
# morphism arithmetic


def _glue(pt_e: Partition, pt_t: Partition, memo: _SurfaceMemo, ks: frozenset, kt: frozenset):
    """Glue the target boundary of one partition to the source of another.

    Parts that share a point join along its middle strand.  Each middle
    strand glued shut is an interval, one for every two points of a part of
    pt_e.  ks and kt are the keys of the outer matchings.
    """
    th = memo.th
    groups = []
    seen = 0
    for points, cs, ct, label, chi in pt_e:
        assert not ct, "uncapped circle at a composition"
        assert not points & seen, "point on two parts"
        seen |= points
        groups.append((points, cs, ct, label, chi - points.bit_count() // 2))
    mid = 0
    for points, cs, ct, label, chi in pt_t:
        assert not cs, "uncapped circle at a composition"
        assert not points & mid, "point on two parts"
        mid |= points
        rest = []
        for g in groups:
            if g[0] & points:
                points |= g[0]
                cs |= g[1]
                ct |= g[2]
                lab = g[3]  # a unit label needs no algebra
                label = lab if label == (1, 0) else label if lab == (1, 0) else th.mul(label, lab)
                chi += g[4]
            else:
                rest.append(g)
        rest.append((points, cs, ct, label, chi))
        groups = rest
    assert mid == seen, "composition boundaries do not match"
    return _rebuild(groups, memo, memo.cycles_of(ks, kt))


def compose(
    later: Morphism, earlier: Morphism, memo: _SurfaceMemo, ks: frozenset, kt: frozenset,
    out: Morphism, scale: int,
) -> Morphism:
    """Add scale times later after earlier into out and return it; the
    middle objects must agree.

    ks keys the source matching of earlier, kt the target one of later.
    Every term is a unit, so a sum that cancels drops a key that is there.
    """
    glued = memo.glued
    p = memo.th.p
    for pt1, c1 in earlier.items():
        c1 *= scale
        for pt2, c2 in later.items():
            key = (pt1, pt2, ks, kt)
            hit = glued.get(key)
            if hit is None:
                hit = glued[key] = _glue(pt1, pt2, memo, ks, kt)
            pt, c0 = hit
            if c0:
                c = (out.get(pt, 0) + c1 * c2 * c0) % p
                if c:
                    out[pt] = c
                else:
                    del out[pt]
    return out


def _map(m: Morphism, table: dict, p: int, make, *args) -> Morphism:
    """m with each partition replaced by its (partition, c0) image, which
    table memoizes and make(partition, *args) computes on a miss."""
    out: Morphism = {}
    for partition, coeff in m.items():
        hit = table.get(partition)
        if hit is None:
            hit = table[partition] = make(partition, *args)
        pt, c0 = hit
        if c0:
            c = (out.get(pt, 0) + coeff * c0) % p
            if c:
                out[pt] = c
            else:
                del out[pt]
    return out


def _cap(partition: Partition, cs: int, ct: int, cap_label, memo: _SurfaceMemo):
    """Cap the source circle bit cs or the target circle bit ct.

    A disk on a boundary circle keeps the part's genus, so the scalar
    changes only by the counit of a part that closes up, or by the one that
    makes the capped part's label monic.
    """
    th = memo.th
    kept = []
    capped = None
    for part in partition:
        if part[1] & cs or part[2] & ct:
            capped = part
        else:
            kept.append(part)
    assert capped is not None, "capped circle is not on the boundary"
    points, pcs, pct, label, chi = capped
    if cap_label != (1, 0):
        label = th.mul(label, cap_label)
    if label == (0, 0):
        return None, 0
    pcs &= ~cs
    pct &= ~ct
    if points or pcs or pct:
        c0 = 1
        if label[0] != 1 and label != (0, 1):
            c0, label = _monic(label, th.p)
        kept.append((points, pcs, pct, label, chi + 1))
        return frozenset(kept), c0
    c0 = th.counit(label)
    return (frozenset(kept), c0) if c0 else (None, 0)


def mor_cap(m: Morphism, cs: int, ct: int, cap_label, memo: _SurfaceMemo) -> Morphism:
    """Cap one circle, source bit cs or target bit ct, with a labeled disk."""
    key = (cs, ct, cap_label)
    table = memo.capped.get(key)
    if table is None:
        table = memo.capped[key] = {}
    return _map(m, table, memo.th.p, _cap, cs, ct, cap_label, memo)


# ---------------------------------------------------------------------------
# attaching a crossing: rewiring and surface pieces


def _rewire(key: frozenset, arcs: Sequence[tuple]):
    """Apply the two smoothing arcs of one crossing to an open matching.

    Returns (new matching, steps): one (glue, new, circle) of bitmasks per
    arc, the open points it consumes, the points it opens and the circle it
    closes (0 if none).
    """
    M = dict(key)
    steps = []
    for k, (ea, eb) in enumerate(arcs):
        circle = 1 << k
        if ea == eb:
            # an edge with both ends at this crossing, closed into a circle
            steps.append((0, 0, circle))
            continue
        a_open = ea in M
        b_open = eb in M
        if a_open and b_open:
            if M[ea] == eb:
                del M[ea]
                del M[eb]
                steps.append((1 << ea | 1 << eb, 0, circle))
            else:
                pa = M.pop(ea)
                pb = M.pop(eb)
                del M[pa]
                del M[pb]
                assert pa != pb
                M[pa] = pb
                M[pb] = pa
                steps.append((1 << ea | 1 << eb, 0, 0))
        elif a_open or b_open:
            eo, en = (ea, eb) if a_open else (eb, ea)
            po = M.pop(eo)
            del M[po]
            assert en not in M
            M[po] = en
            M[en] = po
            steps.append((1 << eo, 1 << en, 0))
        else:
            M[ea] = eb
            M[eb] = ea
            steps.append((0, 1 << ea | 1 << eb, 0))
    return frozenset(M.items()), tuple(steps)


def _lift_pieces(steps_s: tuple, steps_t: tuple) -> tuple:
    """Pieces (chi, glue, new, circ_s, circ_t) lifting a morphism through one
    attachment, glued along the vertical lines over the glue points.

    Source and target objects receive the same smoothing arcs on the same
    open points, so the steps align arc by arc and consume and open the
    same points; only the circles they close may differ.
    """
    pieces = []
    for (glue, new, circ_s), (glue_t, new_t, circ_t) in zip(steps_s, steps_t):
        assert (glue, new) == (glue_t, new_t), "lift sides consume or open different points"
        # a one-edge circle sweeps out an annulus, any other arc a disk
        pieces.append((1 if glue | new else 0, glue, new, circ_s, circ_t))
    return tuple(pieces)


def _apply_piece(parts: list, piece: tuple, th: Theory) -> list:
    """Glue one piece into a working partition (no normalization)."""
    chi, glue, new, cs, ct = piece
    points, label = new, (1, 0)
    chi -= glue.bit_count()
    out = []
    for part in parts:
        if part[0] & glue:
            points |= part[0]
            cs |= part[1]
            ct |= part[2]
            lab = part[3]
            label = lab if label == (1, 0) else label if lab == (1, 0) else th.mul(label, lab)
            chi += part[4]
        else:
            out.append(part)
    assert len(out) < len(parts) or not glue, "gluing points with no incident part"
    out.append((points & ~glue, cs, ct, label, chi))
    return out


def _lift(partition: Partition, pieces: tuple, memo: _SurfaceMemo, cycles: tuple):
    """Glue the pieces on; only parts that meet a glue point are rebuilt."""
    glue = 0
    for piece in pieces:
        glue |= piece[1]
    kept = []
    working = []
    for part in partition:
        (working if part[0] & glue else kept).append(part)
    for piece in pieces:
        working = _apply_piece(working, piece, memo.th)
    return _rebuild(working, memo, cycles, kept)


def _identity_parts(key: frozenset) -> list:
    return [(1 << a | 1 << b, 0, 0, (1, 0), 1) for a, b in key if a < b]


# ---------------------------------------------------------------------------
# sweep order


def scan_order(D: LinkDiagram) -> tuple[list, int]:
    """Greedy crossing order keeping the open boundary narrow.

    Returns (order, girth): girth is the largest number of simultaneously
    open edges along the order.
    """
    return greedy_order(D, D.crossings)


def greedy_order(D: LinkDiagram, crossings) -> tuple[list, int]:
    """scan_order over the given crossings of D only; an edge to a crossing
    left out stays open."""
    remaining = set(crossings)
    scanned: set = set()
    open_edges: set = set()
    order: list = []
    girth = 0

    while remaining:
        adjacent = [
            cid
            for cid in remaining
            if any(D.crossings[cid].slots[s][0] in open_edges for s in range(4))
        ]
        pool = adjacent if adjacent else sorted(remaining)
        # each candidate is ranked by the width it leaves, scanned on copies
        best = min(pool, key=lambda cid: (_scan_past(D, cid, set(scanned), set(open_edges)), cid))
        remaining.discard(best)
        order.append(best)
        girth = max(girth, _scan_past(D, best, scanned, open_edges))
    return order, girth


def _scan_past(D: LinkDiagram, cid: int, scanned: set, open_edges: set) -> int:
    """Mark cid scanned and return the new open width: an edge of cid is
    open when exactly one of its ends is unscanned."""
    scanned.add(cid)
    cr = D.crossings[cid]
    for e in {cr.slots[s][0] for s in range(4)}:
        if sum(1 for c2, _ in D.edges[e].ends if c2 not in scanned) == 1:
            open_edges.add(e)
        else:
            open_edges.discard(e)
    return len(open_edges)


# ---------------------------------------------------------------------------
# the sweep itself


@dataclass(slots=True)
class _Gen:
    key: frozenset  # the open matching; delooped children share it
    rawh: int
    rawq: int
    circles: tuple
    side: int | None = None  # smoothing at the split crossing; children keep it


@dataclass
class _Track:
    """A distinguished cycle carried through the sweep for one orientation.

    The cycle is the differential row keyed by ref, from the reference
    tangle, the matching key, into the generators.
    """

    flips: frozenset
    ref: int
    ro: dict
    labels_by_eid: dict
    loop_labels: dict
    key: frozenset = frozenset()


@dataclass
class ScanResult:
    complex: ScalarComplex
    cycles: dict
    girth: int
    split: dict | None = None


class _Scan:
    def __init__(
        self, D: LinkDiagram, theory: Theory, orientations: Sequence[frozenset], window=None
    ):
        """window = (lo, hi) bounds the rawh of the final generators, both
        ends included; None keeps every generator."""
        self.D = D
        self.th = theory
        self.p = theory.p
        self.gens: dict = {}
        self.d: dict = {}
        self.rin: dict = {}
        self.open: set = set()
        self.scanned: set = set()
        self.girth = 0
        self._serial = 0
        self.window = window
        g0 = self._new_gen(frozenset(), 0, 0, ())
        self.tracks: dict = {}  # ref id -> _Track
        for flips in orientations:
            tr = _make_track(D, theory, flips, self._serial)
            self._serial += 1
            self._set_entry(tr.ref, g0, {frozenset(): 1})
            self.tracks[tr.ref] = tr

    def _new_gen(self, key: frozenset, rawh: int, rawq: int, circles: tuple, side=None) -> int:
        gid = self._serial
        self._serial += 1
        self.gens[gid] = _Gen(key, rawh, rawq, circles, side)
        return gid

    def fork(self) -> "_Scan":
        """A copy that shares no row, column or morphism with this scan,
        so either can go on alone: elimination adds into morphisms in place.
        A fork is closed by joins, which take no tracked row."""
        assert not self.tracks, "a tracked scan is never forked"
        sc = copy.copy(self)
        sc.gens = dict(self.gens)
        sc.d = {x: {y: dict(m) for y, m in row.items()} for x, row in self.d.items()}
        sc.rin = {y: set(xs) for y, xs in self.rin.items()}
        sc.open, sc.scanned = set(self.open), set(self.scanned)
        return sc

    def _set_entry(self, x: int, y: int, m: Morphism) -> None:
        self.d.setdefault(x, {})[y] = m
        self.rin.setdefault(y, set()).add(x)

    # -- attaching one crossing, or closing open ends

    def attach(self, cid: int, split: bool = False):
        """Attach one crossing, deloop and eliminate.

        With split, every new generator records its smoothing at cid as its
        side; otherwise it keeps the side of the generator it came from.
        """
        cr = self.D.crossings[cid]
        slot_edges = [cr.slots[s][0] for s in range(4)]
        self_edges = {e for e in set(slot_edges) if slot_edges.count(e) == 2}
        smoothings = [smoothing_arcs(cr, eps) for eps in (0, 1)]
        memo = self._lift_through(
            cid, smoothings, set(slot_edges) - self_edges, 1 - len(self_edges), split
        )
        self.girth = max(self.girth, _scan_past(self.D, cid, self.scanned, self.open))
        self._reduce(memo)

    def join(self, arcs: Sequence[tuple]) -> None:
        """Join open edges in pairs by crossingless arcs, deloop and
        eliminate.  Joining a tangle's bottom ends to its top ends closes it."""
        assert not self.tracks, "a tracked row has no reference tangle past a join"
        edges = {e for arc in arcs for e in arc}
        assert edges <= self.open, "a join arc ends on an edge that is not open"
        memo = self._lift_through(0, [arcs], edges, 0, False)
        self.open -= edges
        self._reduce(memo)

    def _lift_through(
        self, cid: int, smoothings: list, edges: set, saddle_chi: int, split: bool
    ) -> _SurfaceMemo:
        """Rewire every generator through each smoothing's arcs (two for a
        crossing, joined by a saddle of Euler characteristic saddle_chi; one
        for a join) and lift the rows; cid names the crossing whose
        smoothing each tracked row follows.

        This is the first half of a step, and it consumes the complex it
        reads: each old row is popped from the old d as it is lifted, in
        insertion order, and the old generators go when this returns.
        Returns the step's memo, whose lift-only tables _reduce drops.
        """
        th, p = self.th, self.p
        memo = _SurfaceMemo(th)
        glue = new = 0
        for e in edges:
            if e in self.open:
                glue |= 1 << e
            else:
                new |= 1 << e

        def rewired(key: frozenset) -> tuple:
            """Per smoothing (matching, steps, circles), then the saddle
            (pt, c0) of a crossing."""
            hit = memo.rewired.get(key)
            if hit is None:
                sides = []
                for arcs in smoothings:
                    k2, steps = _rewire(key, arcs)
                    sides.append((k2, steps, tuple(c for _, _, c in steps if c)))
                saddle = None
                if len(sides) == 2:
                    piece = (saddle_chi, glue, new, sum(sides[0][2]), sum(sides[1][2]))
                    working = _apply_piece(_identity_parts(key), piece, th)
                    saddle = _rebuild(working, memo, memo.cycles_of(sides[0][0], sides[1][0]))
                hit = memo.rewired[key] = (*sides, saddle)
            return hit

        def lift(kx: frozenset, ky: frozenset, eps: int) -> tuple:
            """(pieces, cycles, table) lifting matching kx -> ky through
            smoothing eps, stored in memo.lifts; the table memoizes lifted
            partitions and is shared by every pair with the same pieces and
            cycles."""
            sx, sy = rewired(kx)[eps], rewired(ky)[eps]
            pieces = _lift_pieces(sx[1], sy[1])
            cycles = memo.cycles_of(sx[0], sy[0])
            table = memo.lifted.setdefault((pieces, cycles), {})
            hit = memo.lifts[(kx, ky, eps)] = (pieces, cycles, table)
            return hit

        # newid[gid][eps]: the generator that gid's eps smoothing makes
        newid = {}
        old_gens = self.gens
        self.gens = {}
        for gid in sorted(old_gens):
            g = old_gens[gid]
            newid[gid] = tuple(
                self._new_gen(key, g.rawh + eps, g.rawq, circ, eps if split else g.side)
                for eps, (key, _, circ) in enumerate(rewired(g.key)[:-1])
            )

        # a tracked row follows its orientation's smoothing, from the
        # reference tangle before this crossing to the one after it
        refs = {}
        for tr in self.tracks.values():
            eps = tr.ro[cid]
            kx = tr.key
            tr.key, steps, _ = rewired(kx)[eps]
            # an arc that closes a circle lies on it, and so do its edges
            caps = [
                (circle, tr.labels_by_eid[ea])
                for (_, _, circle), (ea, _) in zip(steps, smoothings[eps])
                if circle
            ]
            refs[tr.ref] = (kx, eps, caps)

        # a row lifts to its children's; a tracked row keeps its ref
        old_d, d, rin, lifts = self.d, {}, {}, memo.lifts
        self.d, self.rin = d, rin
        for x in list(old_d):
            row = old_d.pop(x)
            if x in refs:
                kx, eps, caps = refs[x]
                rows = ((x, eps),)
            else:
                kx, caps = old_gens[x].key, ()
                rows = zip(newid[x], (0, 1))
            for x2, eps in rows:
                out = {}
                for y, m in row.items():
                    ky = old_gens[y].key
                    pieces, cycles, table = lifts.get((kx, ky, eps)) or lift(kx, ky, eps)
                    m2 = _map(m, table, p, _lift, pieces, memo, cycles)
                    for circle, lab in caps:
                        m2 = mor_cap(m2, circle, 0, lab, memo)
                    if m2:
                        y2 = newid[y][eps]
                        out[y2] = m2
                        rin.setdefault(y2, set()).add(x2)
                if out:
                    d[x2] = out

        if len(smoothings) == 2:  # a crossing's saddle joins the two children
            for gid in sorted(old_gens):
                sign = 1 if old_gens[gid].rawh % 2 == 0 else p - 1
                pt, c0 = rewired(old_gens[gid].key)[2]
                if pt is not None:
                    self._set_entry(*newid[gid], {pt: c0 * sign % p})
        return memo

    def _reduce(self, memo: _SurfaceMemo) -> None:
        """The second half of a step: drop the memo's lift-only tables, then
        deloop, eliminate and let every generator that can no longer end in
        the window go.  The open edges and scanned crossings are the step's
        own, already updated."""
        for table in (memo.rewired, memo.lifts, memo.lifted):
            table.clear()
        self._deloop_all(memo)
        self._eliminate_all(memo)
        if self.window is not None:
            # the crossings still to attach can add at most one each to rawh
            lo, hi = self.window
            lo -= len(self.D.crossings) - len(self.scanned)
            gone = [gid for gid, g in self.gens.items() if not lo <= g.rawh <= hi]
            for ref in self.tracks:
                assert not self.d.get(ref, {}).keys() & gone, "a tracked row left the window"
            self._drop(gone)

    def _drop(self, gids) -> None:
        """Delete the generators gids with their rows and columns: the one
        unlink, for the window and an elimination's pivot pair.  Elimination
        may cut a tracked row's entry, so the window guards tracked rows."""
        d, rin, gens = self.d, self.rin, self.gens
        for gid in gids:
            del gens[gid]
            for z in d.pop(gid, ()):
                col = rin[z]
                col.discard(gid)
                if not col:
                    del rin[z]
            for w in rin.pop(gid, ()):
                row = d[w]
                del row[gid]
                if not row:
                    del d[w]

    # -- delooping

    def _deloop_all(self, memo: _SurfaceMemo) -> None:
        """Split each generator's closed circles off, one at a time: the
        generator's column and row move to its two children gp (the circle
        capped by pi_plus, q + 1) and gm (by pi_minus, q - 1)."""
        gens, d, rin = self.gens, self.d, self.rin
        pi_plus = ((-self.th.h) % self.p, 1)
        pi_minus = (1, 0)
        queue = [gid for gid, g in gens.items() if g.circles]
        while queue:
            gid = queue.pop()
            g = gens.pop(gid)
            circle, rest = g.circles[0], g.circles[1:]
            gp = self._new_gen(g.key, g.rawh, g.rawq + 1, rest, g.side)
            gm = self._new_gen(g.key, g.rawh, g.rawq - 1, rest, g.side)
            for w in sorted(rin.pop(gid, ())):
                row = d[w]
                m = row.pop(gid)
                for child, pi in ((gp, pi_plus), (gm, pi_minus)):
                    m2 = mor_cap(m, 0, circle, pi, memo)
                    if m2:
                        row[child] = m2
                        rin.setdefault(child, set()).add(w)
                if not row:
                    del d[w]
            for z, m in d.pop(gid, {}).items():
                col = rin[z]
                col.discard(gid)
                for child, label in ((gp, (1, 0)), (gm, (0, 1))):
                    m2 = mor_cap(m, circle, 0, label, memo)
                    if m2:
                        d.setdefault(child, {})[z] = m2
                        col.add(child)
                if not col:
                    del rin[z]
            if rest:
                queue.append(gp)
                queue.append(gm)

    # -- elimination

    def _iso_scalar(self, x: int, y: int, m: Morphism):
        """The unit u of an iso entry (x, y), else None.

        An iso is a unit times the identity: every part a disk on two points
        (so on one source and one target arc, the same), with no circles and
        a unit label.  A tracked row's x is no generator, and a split scan
        cancels only within one side.
        """
        if len(m) != 1:
            return None
        gx, gy = self.gens.get(x), self.gens[y]
        if gx is None or gx.side != gy.side or gy.rawq != gx.rawq - 1:
            return None
        (pt, c), = m.items()
        scalar = c
        for points, cs, ct, label, _ in pt:
            if label[1] != 0 or label[0] == 0 or cs or ct or points.bit_count() != 2:
                return None
            scalar = scalar * label[0] % self.p
        return scalar % self.p or None

    def _eliminate(self, x: int, y: int, u: int, memo: _SurfaceMemo) -> list:
        """Cancel the iso entry (x, y): each z -> y adds -u^-1 (x -> w)(z -> y)
        into z -> w, then x and y go.  Returns the rewritten pairs (z, w)
        that can be iso, those with w's rawq one below z's."""
        p = self.p
        d, rin, gens = self.d, self.rin, self.gens
        scale = (-inv_mod(u, p)) % p
        row_x = d[x]
        del row_x[y]
        ins = sorted(rin.pop(y) - {x})
        outs = [(w, row_x[w], gens[w].key, gens[w].rawq) for w in sorted(row_x)]
        rewritten = []
        for z in ins:
            row = d[z]
            bz = row.pop(y)
            gz = gens.get(z)  # None for a tracked row, which is never a pivot
            kz = gz.key if gz else self.tracks[z].key
            rewritten += [(z, w) for w, _, _, q in outs if gz and q == gz.rawq - 1]
            for w, cw, kw, _ in outs:
                m = row.get(w)
                if m is None:
                    m = compose(cw, bz, memo, kz, kw, {}, scale)
                    if m:
                        row[w] = m
                        rin[w].add(z)
                elif not compose(cw, bz, memo, kz, kw, m, scale):
                    del row[w]
                    rin[w].discard(z)
            if not row:
                del d[z]
        self._drop((x, y))
        return rewritten

    def _cost(self, x: int, y: int) -> int:
        """Compositions that cancelling (x, y) makes."""
        return (len(self.rin[y]) - 1) * (len(self.d[x]) - 1)

    def _eliminate_all(self, memo: _SurfaceMemo) -> None:
        """Eliminate the cheapest iso entry (x, y) until none is left.

        An entry's iso test reads only its morphism and the rawq and side
        of its two ends, which never change, so an entry turns iso only
        when an elimination rewrites it, as eliminate_cheapest assumes.  Only
        an entry into a rawq one below its source's can be iso, so the first
        scan here and _eliminate's rewritten pairs test no other.
        """
        d, iso, gens = self.d, self._iso_scalar, self.gens

        def pivot(x: int, y: int):
            row = d.get(x)
            m = row and row.get(y)
            return None if m is None else iso(x, y, m)

        pivots = [
            (x, y) for x, row in d.items() if x in gens
            for y, m in row.items() if gens[y].rawq == gens[x].rawq - 1 and iso(x, y, m)
        ]
        eliminate_cheapest(
            pivots, pivot, self._cost, lambda x, y, u: self._eliminate(x, y, u, memo)
        )

    # -- export

    def finish(self, D: LinkDiagram, flips: frozenset) -> ScanResult:
        """Export the closed sweep; D is the closed diagram, which gives the
        grading shifts of flips and the crossingless loops."""
        th, p = self.th, self.p
        for g in self.gens.values():
            assert not g.key and not g.circles
        nplus = D.n_plus(flips)
        nminus = D.n_minus(flips)
        loops = sorted(D.loops)
        signs = list(product((1, -1), repeat=len(loops)))

        cx = ScalarComplex(p, q_exact=th.q_exact)
        ids = {}
        for gid in sorted(self.gens):
            g = self.gens[gid]
            for sigma in signs:
                h = g.rawh - nminus
                q = g.rawq + sum(sigma) + g.rawh + nplus - 2 * nminus
                ids[(gid, sigma)] = cx.add_generator(h, q)
        for x, row in self.d.items():
            if x not in self.gens:
                continue  # a tracked cycle's row
            for y, m in row.items():
                assert set(m) == {frozenset()}, "open surface at export"
                c = m[frozenset()]
                for sigma in signs:
                    cx.add_entry(ids[(x, sigma)], ids[(y, sigma)], c)

        cycles = {}
        for tr in self.tracks.values():
            v: Vec = {}
            for gid, m in self.d.get(tr.ref, {}).items():
                assert set(m) == {frozenset()}
                base = m[frozenset()]
                for sigma in signs:
                    c = base
                    for lid, s in zip(loops, sigma):
                        lab = tr.loop_labels[lid]
                        c = c * (lab[0] if s == 1 else lab[1]) % p
                    if c:
                        v[ids[(gid, sigma)]] = c
            cycles[tr.flips] = v

        split = None
        if any(g.side is not None for g in self.gens.values()):
            split = {"zero": [], "one": []}
            for gid in sorted(self.gens):
                key = "zero" if self.gens[gid].side == 0 else "one"
                for sigma in signs:
                    split[key].append(ids[(gid, sigma)])
        return ScanResult(cx, cycles, self.girth, split)


def _make_track(D: LinkDiagram, th: Theory, flips: frozenset, ref: int) -> _Track:
    rev_edges, rev_loops = D.reversed_parts(flips)
    edges, loops = parities(D, rev_edges, rev_loops)
    labels = [th.canonical_label(k) for k in (0, 1)]
    return _Track(
        flips,
        ref,
        {c: oriented_smoothing(x, rev_edges) for c, x in D.crossings.items()},
        {e: labels[k] for e, k in edges.items()},
        {lid: labels[k] for lid, k in loops.items()},
    )


def scan_complex(
    D: LinkDiagram,
    theory: Theory,
    flips: frozenset = frozenset(),
    orientations: Sequence[frozenset] | None = None,
    split_at: int | None = None,
    degrees: tuple[int, int] | None = None,
) -> ScanResult:
    """Sweep the diagram and return its reduced complex.

    flips fixes the orientation used for the grading shifts.  orientations
    lists the orientations whose distinguished cycles should be transported;
    the result maps each to a vector in the returned complex.  split_at
    names a crossing whose two smoothings are kept apart from its attach
    on, wherever scan_order puts it: .split lists them, the one side a
    subcomplex and the zero side its quotient, each reduced by elimination
    on its own.  degrees = (lo, hi) keeps only the generators that can
    still end in homological degrees lo..hi: the result's homology, and the
    filtration level of its classes, are the full complex's in every degree
    strictly between lo and hi, and only there.
    """
    for o in (flips, *(orientations or [])):
        D.reversed_parts(o)  # raises ValueError before any attach
    if split_at is not None and split_at not in D.crossings:
        raise ValueError(f"crossing {split_at} is not in the diagram")
    window = None
    if degrees is not None:
        if not (
            isinstance(degrees, (tuple, list)) and len(degrees) == 2
            and all(isinstance(v, int) for v in degrees) and degrees[0] <= degrees[1]
        ):
            raise ValueError(f"degrees {degrees!r} is not a pair of ints lo <= hi")
        nminus = D.n_minus(flips)
        window = (degrees[0] + nminus, degrees[1] + nminus)
    order, _ = scan_order(D)
    sc = _Scan(D, theory, orientations or [], window)
    for cid in order:
        sc.attach(cid, split=cid == split_at)
    return sc.finish(D, flips)


def homology_table(D: LinkDiagram, theory: Theory) -> dict:
    """Homology ranks via the sweep; same shape as the cube-based table."""
    return scan_complex(D, theory).complex.homology_dims()
