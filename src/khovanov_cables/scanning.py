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
closes with the canonical label of the corresponding circle of the fully
resolved diagram; delooping and elimination treat it as an incoming row,
which projects the coordinates exactly as the matrix-level reduction in
chain_algebra does.  The reference id is no generator, so it is never a
pivot.

A split scan marks every generator with its smoothing (its side) at one
crossing, and delooped children keep their parent's side.  Elimination
there cancels only entries between generators on the same side, which
keeps the one side a subcomplex and the zero side the quotient.

Elimination cancels the cheapest iso entry (x, y) first: the one whose
cancellation makes the fewest compositions, (entries into y - 1) times
(entries out of x - 1), as Bar-Natan's local Gaussian elimination does to
limit fill-in.  A lazy min-heap of (cost, x, y) finds it: a popped entry
whose cost has grown since it was pushed goes back with its current cost,
and ties fall to the smaller (x, y), so the order is deterministic.

Many generators share one matching: each carries a hashable key of it, and
one attachment rewires each distinct matching once and builds the lifting
pieces once per pair of matchings.  The surface normalizations of one
attachment (gluing, capping, lifting and counting boundary circles) are
memoized on unit coefficients, and lifting and capping renormalize only the
parts they touch.  All these tables live in a _SurfaceMemo that the
attachment creates and drops: entries repeat heavily within one attachment,
while a memo kept for a whole scan would grow with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import product
from typing import Iterable, Sequence

from .chain_algebra import ScalarComplex, Vec, add_into, inv_mod
from .diagrams import LinkDiagram, UnionFind, smoothing_pairs
from .frobenius import Label, Theory
from .planar import ResolvedState

# A boundary arc of a surface: ('s'|'t', key) on the source or target side.
# key is a frozenset of two open-edge ids for a strand still attached to the
# boundary, or a ('circ', cid, k) tuple marking a closed circle that has not
# been capped yet.
Arc = tuple
# A connected surface component: (frozenset of arcs, algebra label, Euler
# characteristic).  Stored parts are genus-normalized.
Part = tuple
Partition = frozenset
# Formal sum of decorated partitions: {partition: coefficient mod p}.
Morphism = dict


def _is_strand(key) -> bool:
    return isinstance(key, frozenset)


class _SurfaceMemo:
    """Unit-coefficient surface results, shared by the calls of one attach.

    Each table maps a key to what the plain function returned for it: the
    glued partition of (earlier, later), the capped partition of
    (partition, arc, label), the lifted partition of (pieces, partition),
    and the boundary-circle count of a frozen arc set.  A caller scales a
    (partition, c0) result by its own coefficient, which is exact because
    p is prime and neither factor is zero.  Two more tables serve the
    attachment itself: rewired maps a matching key to what the crossing
    makes of that matching, and lifts maps a (key, key, eps) pair of
    matchings to its lifting pieces and their table in lifted.
    """

    def __init__(self, th: Theory):
        self.th = th
        self.glued: dict = {}
        self.capped: dict = {}
        self.lifted: dict = {}
        self.circles: dict = {}
        self.rewired: dict = {}
        self.lifts: dict = {}


# ---------------------------------------------------------------------------
# part and partition normalization


def _part_boundary_circles(arcs: frozenset) -> int:
    """Number of boundary circles of a part.

    Strand arcs pair up into closed cycles (every point carries exactly one
    source arc and one target arc, joined along the vertical line over the
    point), and each uncapped circle marker is one more boundary circle.
    """
    beta = 0
    src: dict = {}
    tgt: dict = {}
    for side, key in arcs:
        if not _is_strand(key):
            beta += 1
            continue
        a, b = tuple(key)
        table = src if side == "s" else tgt
        for pt in (a, b):
            assert pt not in table, "point with two arcs on one side"
        table[a] = b
        table[b] = a
    assert set(src) == set(tgt), "part boundary is not saturated"
    seen: set = set()
    for start in src:
        if start in seen:
            continue
        beta += 1
        pt = start
        while True:
            seen.add(pt)
            mid = src[pt]
            seen.add(mid)
            pt = tgt[mid]
            if pt == start:
                break
    return beta


def _rebuild(parts: list, memo: _SurfaceMemo, kept: Iterable = ()):
    """Genus-normalize working parts and fold closed ones into a unit scalar.

    kept holds stored parts, already normalized, that join the result as
    they are.  Returns (partition, c0): the result is c0 times the
    partition, and partition is None when it is zero.
    """
    th = memo.th
    p = th.p
    coeff = 1
    frozen = list(kept)
    for arcs, label, chi in parts:
        if label == (0, 0):
            return None, 0
        arcs = frozenset(arcs)
        beta = memo.circles.get(arcs)
        if beta is None:
            beta = memo.circles[arcs] = _part_boundary_circles(arcs)
        slack = 2 - chi - beta
        assert slack >= 0 and slack % 2 == 0, "part has impossible topology"
        if slack:
            label = th.mul(label, th.label_pow(th.handle(), slack // 2))
            if label == (0, 0):
                return None, 0
        if not arcs:
            coeff = coeff * th.counit(label) % p
            if coeff == 0:
                return None, 0
            continue
        frozen.append((arcs, label, 2 - beta))
    return frozenset(frozen), coeff


# ---------------------------------------------------------------------------
# morphism arithmetic


def _glue(pt_e: Partition, pt_t: Partition, memo: _SurfaceMemo):
    """Glue the target boundary of one partition to the source of another."""
    th = memo.th
    parts = [*pt_e, *pt_t]
    off = len(pt_e)

    mid_e: dict = {}
    mid_t: dict = {}
    for i, (arcs, _, _) in enumerate(pt_e):
        for side, key in arcs:
            if side == "t":
                assert _is_strand(key), "uncapped circle at a composition"
                mid_e[key] = i
    for j, (arcs, _, _) in enumerate(pt_t):
        for side, key in arcs:
            if side == "s":
                assert _is_strand(key), "uncapped circle at a composition"
                mid_t[key] = off + j
    assert set(mid_e) == set(mid_t), "composition boundaries do not match"

    uf = UnionFind(range(len(parts)))
    for key, i in mid_e.items():
        uf.union(i, mid_t[key])

    working = []
    for members in uf.groups().values():
        arcs: set = set()
        label: Label = (1, 0)
        chi = 0
        for i in members:
            a, lab, c = parts[i]
            keep_side = "s" if i < off else "t"
            kept = {arc for arc in a if arc[0] == keep_side}
            arcs |= kept
            label = th.mul(label, lab)
            chi += c
            if i < off:
                # each dropped target arc is one middle strand glued shut
                chi -= len(a) - len(kept)
        working.append((arcs, label, chi))
    return _rebuild(working, memo)


def compose(later: Morphism, earlier: Morphism, memo: _SurfaceMemo) -> Morphism:
    """later after earlier; the middle objects must agree."""
    glued = memo.glued
    out: Morphism = {}
    for pt1, c1 in earlier.items():
        for pt2, c2 in later.items():
            key = (pt1, pt2)
            hit = glued.get(key)
            if hit is None:
                hit = glued[key] = _glue(pt1, pt2, memo)
            add_into(out, (hit,), memo.th.p, c1 * c2)
    return out


def _cap(partition: Partition, arc: Arc, cap_label: Label, memo: _SurfaceMemo):
    kept = []
    working = []
    for part in partition:
        arcs, label, chi = part
        if arc in arcs:
            working.append((arcs - {arc}, memo.th.mul(label, cap_label), chi + 1))
        else:
            kept.append(part)
    assert working, "capped arc is not on the boundary"
    return _rebuild(working, memo, kept)


def mor_cap(m: Morphism, arc: Arc, cap_label: Label, memo: _SurfaceMemo) -> Morphism:
    """Cap one boundary arc with a labeled disk."""
    capped = memo.capped
    out: Morphism = {}
    for partition, coeff in m.items():
        key = (partition, arc, cap_label)
        hit = capped.get(key)
        if hit is None:
            hit = capped[key] = _cap(partition, arc, cap_label, memo)
        add_into(out, (hit,), memo.th.p, coeff)
    return out


# ---------------------------------------------------------------------------
# attaching a crossing: rewiring ops and surface pieces


def _op_consumed(op) -> frozenset:
    return op[-1]


def _rewire(matching: dict, arcs: Sequence[tuple], cid: int):
    """Apply the two smoothing arcs of one crossing to an open matching.

    matching maps every open point to its partner (both directions).
    Returns (new matching, per-arc ops, markers of circles that closed).
    """
    M = dict(matching)
    ops = []
    circles = []
    for k, (ea, eb) in enumerate(arcs):
        marker = ("circ", cid, k)
        if ea == eb:
            # an edge with both ends at this crossing, closed into a circle
            ops.append(("selfcircle", marker, ea, frozenset()))
            circles.append(marker)
            continue
        a_open = ea in M
        b_open = eb in M
        if a_open and b_open:
            if M[ea] == eb:
                del M[ea]
                del M[eb]
                pair = frozenset((ea, eb))
                ops.append(("close", pair, marker, pair))
                circles.append(marker)
            else:
                pa = M.pop(ea)
                pb = M.pop(eb)
                del M[pa]
                del M[pb]
                assert pa != pb
                M[pa] = pb
                M[pb] = pa
                ops.append(
                    (
                        "merge",
                        frozenset((ea, pa)),
                        frozenset((eb, pb)),
                        frozenset((pa, pb)),
                        frozenset((ea, eb)),
                    )
                )
        elif a_open or b_open:
            eo, en = (ea, eb) if a_open else (eb, ea)
            po = M.pop(eo)
            del M[po]
            assert en not in M
            M[po] = en
            M[en] = po
            ops.append(
                ("extend", frozenset((eo, po)), frozenset((po, en)), frozenset((eo,)))
            )
        else:
            M[ea] = eb
            M[eb] = ea
            ops.append(("new", frozenset((ea, eb)), frozenset()))
    return M, tuple(ops), circles


@dataclass(frozen=True)
class _Piece:
    """One surface piece of an attachment, glued along vertical lines."""

    chi: int
    glue_points: frozenset
    ops_s: tuple
    ops_t: tuple


def _lift_pieces(ops_src: tuple, ops_tgt: tuple) -> tuple:
    """Cylinder pieces lifting a morphism through one attachment.

    Source and target objects receive the same smoothing arcs, so the ops
    lists align arc by arc and consume the same points.
    """
    pieces = []
    for os_, ot in zip(ops_src, ops_tgt):
        cons = _op_consumed(os_)
        assert cons == _op_consumed(ot), "lift sides consume different points"
        chi = 0 if os_[0] == "selfcircle" else 1
        pieces.append(_Piece(chi, cons, (os_,), (ot,)))
    return tuple(pieces)


def _apply_ops(arcs: set, side: str, ops: Iterable) -> None:
    for op in ops:
        kind = op[0]
        if kind == "new":
            arcs.add((side, op[1]))
        elif kind == "extend":
            arcs.remove((side, op[1]))
            arcs.add((side, op[2]))
        elif kind == "merge":
            arcs.remove((side, op[1]))
            arcs.remove((side, op[2]))
            arcs.add((side, op[3]))
        elif kind == "close":
            arcs.remove((side, op[1]))
            arcs.add((side, op[2]))
        elif kind == "selfcircle":
            arcs.add((side, op[1]))
        else:  # pragma: no cover
            raise AssertionError(kind)


def _apply_piece(parts: list, piece: _Piece, th: Theory) -> list:
    """Glue one piece into a working partition (no normalization)."""
    touched = []
    untouched = []
    for entry in parts:
        arcs = entry[0]
        if any(
            _is_strand(key) and (key & piece.glue_points) for _, key in arcs
        ):
            touched.append(entry)
        else:
            untouched.append(entry)
    if piece.glue_points:
        assert touched, "gluing points with no incident arcs"
    arcs: set = set()
    label: Label = (1, 0)
    chi = piece.chi - len(piece.glue_points)
    for a, lab, c in touched:
        arcs |= a
        label = th.mul(label, lab)
        chi += c
    _apply_ops(arcs, "s", piece.ops_s)
    _apply_ops(arcs, "t", piece.ops_t)
    untouched.append((arcs, label, chi))
    return untouched


def _lift(partition: Partition, pieces: tuple, memo: _SurfaceMemo):
    """Glue the pieces on; only parts that meet a glue point are rebuilt."""
    points = frozenset().union(*(piece.glue_points for piece in pieces))
    kept = []
    working = []
    for part in partition:
        arcs, label, chi = part
        if any(_is_strand(key) and (key & points) for _, key in arcs):
            working.append((set(arcs), label, chi))
        else:
            kept.append(part)
    for piece in pieces:
        working = _apply_piece(working, piece, memo.th)
    return _rebuild(working, memo, kept)


def _lift_morphism(m: Morphism, pieces: tuple, table: dict, memo: _SurfaceMemo) -> Morphism:
    out: Morphism = {}
    for partition, coeff in m.items():
        hit = table.get(partition)
        if hit is None:
            hit = table[partition] = _lift(partition, pieces, memo)
        add_into(out, (hit,), memo.th.p, coeff)
    return out


def _matching_key(matching: dict) -> frozenset:
    return frozenset(matching.items())


def _identity_parts(matching: dict) -> list:
    pairs = {frozenset((a, b)) for a, b in matching.items()}
    return [({("s", P), ("t", P)}, (1, 0), 1) for P in pairs]


# ---------------------------------------------------------------------------
# sweep order


def scan_order(
    D: LinkDiagram, exclude: frozenset = frozenset()
) -> tuple[list, int]:
    """Greedy crossing order keeping the open boundary narrow.

    Returns (order, girth): girth is the largest number of simultaneously
    open edges along the order.  Crossings in exclude are left out.
    """
    remaining = set(D.crossings) - set(exclude)
    scanned: set = set()
    open_edges: set = set()
    order: list = []
    girth = 0

    def width_after(cid: int) -> int:
        n = len(open_edges)
        cr = D.crossings[cid]
        for e in {cr.slots[s][0] for s in range(4)}:
            if e in open_edges:
                n -= 1
            else:
                ends_unscanned = sum(
                    1
                    for c2, _ in D.edges[e].ends
                    if c2 not in scanned and c2 != cid
                )
                if ends_unscanned == 1:
                    n += 1
        return n

    while remaining:
        adjacent = [
            cid
            for cid in remaining
            if any(D.crossings[cid].slots[s][0] in open_edges for s in range(4))
        ]
        pool = adjacent if adjacent else sorted(remaining)
        best = min(pool, key=lambda cid: (width_after(cid), cid))
        scanned.add(best)
        remaining.discard(best)
        order.append(best)
        cr = D.crossings[best]
        for e in {cr.slots[s][0] for s in range(4)}:
            ends_unscanned = sum(1 for c2, _ in D.edges[e].ends if c2 not in scanned)
            if ends_unscanned == 1:
                open_edges.add(e)
            else:
                open_edges.discard(e)
        girth = max(girth, len(open_edges))
    return order, girth


# ---------------------------------------------------------------------------
# the sweep itself


@dataclass
class _Gen:
    matching: dict
    rawh: int
    rawq: int
    circles: tuple
    key: frozenset  # _matching_key(matching); delooped children share it
    side: int | None = None  # smoothing at the split crossing; children keep it


@dataclass
class _Track:
    """A distinguished cycle carried through the sweep for one orientation.

    The cycle is the differential row keyed by ref, from the reference
    tangle R into the generators.
    """

    flips: frozenset
    ref: int
    ro: dict
    labels_by_eid: dict
    loop_labels: dict
    R: dict = field(default_factory=dict)
    strand_min: dict = field(default_factory=dict)


@dataclass
class ScanResult:
    complex: ScalarComplex
    cycles: dict
    girth: int
    split: dict | None = None


class _Scan:
    def __init__(self, D: LinkDiagram, theory: Theory, orientations: Sequence[frozenset]):
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
        g0 = self._new_gen({}, 0, 0, (), _matching_key({}))
        self.tracks = []
        for flips in orientations:
            tr = _make_track(D, theory, flips, self._serial)
            self._serial += 1
            self._set_entry(tr.ref, g0, {frozenset(): 1})
            self.tracks.append(tr)

    def _new_gen(
        self, matching: dict, rawh: int, rawq: int, circles: tuple, key: frozenset, side=None
    ) -> int:
        gid = self._serial
        self._serial += 1
        self.gens[gid] = _Gen(matching, rawh, rawq, circles, key, side)
        return gid

    def _set_entry(self, x: int, y: int, m: Morphism) -> None:
        if not m:
            return
        self.d.setdefault(x, {})[y] = m
        self.rin.setdefault(y, set()).add(x)

    def _del_entry(self, x: int, y: int) -> None:
        row = self.d.get(x)
        if row and y in row:
            del row[y]
            if not row:
                del self.d[x]
        col = self.rin.get(y)
        if col:
            col.discard(x)
            if not col:
                del self.rin[y]

    # -- attaching one crossing

    def attach(self, cid: int, split: bool = False):
        """Attach one crossing, deloop and eliminate.

        With split, every new generator records its smoothing at cid as its
        side; otherwise it keeps the side of the generator it came from.
        """
        D, th = self.D, self.th
        memo = _SurfaceMemo(th)
        cr = D.crossings[cid]
        slot_edges = [cr.slots[s][0] for s in range(4)]
        arcs_by_eps = {
            eps: [
                (slot_edges[sa], slot_edges[sb])
                for sa, sb in smoothing_pairs(cr.over_diag, eps)
            ]
            for eps in (0, 1)
        }
        prior_open = frozenset(self.open)
        self_edges = {e for e in set(slot_edges) if slot_edges.count(e) == 2}
        glue = frozenset(e for e in set(slot_edges) if e in prior_open)

        def rewired(g: _Gen) -> tuple:
            """Per eps (matching, ops, circles, key), then the saddle (pt, c0)."""
            hit = memo.rewired.get(g.key)
            if hit is None:
                sides = []
                for eps in (0, 1):
                    M2, ops, circ = _rewire(g.matching, arcs_by_eps[eps], cid)
                    sides.append((M2, ops, tuple(circ), _matching_key(M2)))
                piece = _Piece(1 - len(self_edges), glue, sides[0][1], sides[1][1])
                working = _apply_piece(_identity_parts(g.matching), piece, th)
                hit = memo.rewired[g.key] = (*sides, _rebuild(working, memo))
            return hit

        def lift(gx: _Gen, gy: _Gen, eps: int) -> tuple:
            """(pieces, table) lifting a morphism gx -> gy through the crossing.

            The table memoizes lifts through pieces and is shared by every
            equal pieces tuple.
            """
            key = (gx.key, gy.key, eps)
            hit = memo.lifts.get(key)
            if hit is None:
                pieces = _lift_pieces(rewired(gx)[eps][1], rewired(gy)[eps][1])
                hit = memo.lifts[key] = (pieces, memo.lifted.setdefault(pieces, {}))
            return hit

        newid = {}
        old_gens = self.gens
        self.gens = {}
        for gid in sorted(old_gens):
            g = old_gens[gid]
            for eps in (0, 1):
                M2, _, circ, key = rewired(g)[eps]
                side = eps if split else g.side
                newid[(gid, eps)] = self._new_gen(M2, g.rawh + eps, g.rawq, circ, key, side)

        # a tracked row follows its orientation's smoothing, from the
        # reference tangle before this crossing to the one after it
        refs = {}
        for tr in self.tracks:
            eps = tr.ro[cid]
            g_ref = _Gen(tr.R, 0, 0, (), _matching_key(tr.R))
            tr.R, rops = rewired(g_ref)[eps][:2]
            caps = []
            for op in rops:
                kind = op[0]
                if kind == "new":
                    tr.strand_min[op[1]] = min(op[1])
                elif kind == "extend":
                    tr.strand_min[op[2]] = min(tr.strand_min.pop(op[1]), *op[2])
                elif kind == "merge":
                    tr.strand_min[op[3]] = min(
                        tr.strand_min.pop(op[1]), tr.strand_min.pop(op[2])
                    )
                elif kind == "close":
                    eid = tr.strand_min.pop(op[1])
                    caps.append((op[2], tr.labels_by_eid[eid]))
                elif kind == "selfcircle":
                    caps.append((op[1], tr.labels_by_eid[op[2]]))
            refs[tr.ref] = (g_ref, eps, caps)

        old_d = self.d
        self.d = {}
        self.rin = {}
        for x, row in old_d.items():
            if x in refs:
                g_ref, eps, caps = refs[x]
                for y, m in row.items():
                    m2 = _lift_morphism(m, *lift(g_ref, old_gens[y], eps), memo)
                    for marker, lab in caps:
                        m2 = mor_cap(m2, ("s", marker), lab, memo)
                    self._set_entry(x, newid[(y, eps)], m2)
                continue
            gx = old_gens[x]
            for y, m in row.items():
                gy = old_gens[y]
                for eps in (0, 1):
                    m2 = _lift_morphism(m, *lift(gx, gy, eps), memo)
                    self._set_entry(newid[(x, eps)], newid[(y, eps)], m2)

        for gid in sorted(old_gens):
            g = old_gens[gid]
            sign = 1 if g.rawh % 2 == 0 else self.p - 1
            pt, c0 = rewired(g)[2]
            if pt is not None:
                self._set_entry(newid[(gid, 0)], newid[(gid, 1)], {pt: c0 * sign % self.p})

        self.scanned.add(cid)
        for e in set(slot_edges):
            ends_unscanned = sum(
                1 for c2, _ in D.edges[e].ends if c2 not in self.scanned
            )
            if ends_unscanned == 1:
                self.open.add(e)
            else:
                self.open.discard(e)
        self.girth = max(self.girth, len(self.open))

        self._deloop_all(memo)
        self._eliminate_all(memo)

    # -- delooping

    def _deloop_all(self, memo: _SurfaceMemo) -> None:
        queue = [gid for gid, g in self.gens.items() if g.circles]
        while queue:
            gid = queue.pop()
            g = self.gens.get(gid)
            if g is None or not g.circles:
                continue
            marker, rest = g.circles[0], g.circles[1:]
            th, p = self.th, self.p
            gp = self._new_gen(g.matching, g.rawh, g.rawq + 1, rest, g.key, g.side)
            gm = self._new_gen(g.matching, g.rawh, g.rawq - 1, rest, g.key, g.side)
            pi_plus = ((-th.h) % p, 1)
            pi_minus = (1, 0)
            for w in sorted(self.rin.get(gid, set())):
                m = self.d[w][gid]
                self._del_entry(w, gid)
                self._set_entry(w, gp, mor_cap(m, ("t", marker), pi_plus, memo))
                self._set_entry(w, gm, mor_cap(m, ("t", marker), pi_minus, memo))
            for z, m in list(self.d.get(gid, {}).items()):
                self._del_entry(gid, z)
                self._set_entry(gp, z, mor_cap(m, ("s", marker), (1, 0), memo))
                self._set_entry(gm, z, mor_cap(m, ("s", marker), (0, 1), memo))
            del self.gens[gid]
            if rest:
                queue.append(gp)
                queue.append(gm)

    # -- elimination

    def _iso_scalar(self, x: int, y: int, m: Morphism):
        """The unit u of an iso entry (x, y), else None.

        A tracked row's x is no generator, and a split scan cancels only
        within one side.
        """
        gx, gy = self.gens.get(x), self.gens[y]
        if gx is None or gx.side != gy.side or gy.rawq != gx.rawq - 1:
            return None
        if len(m) != 1:
            return None
        (pt, c), = m.items()
        scalar = c
        for arcs, label, chi in pt:
            if label[1] != 0 or label[0] == 0:
                return None
            if len(arcs) != 2:
                return None
            (sa, ka), (sb, kb) = sorted(arcs)
            if {sa, sb} != {"s", "t"} or ka != kb or not _is_strand(ka):
                return None
            scalar = scalar * label[0] % self.p
        return scalar % self.p or None

    def _eliminate(self, x: int, y: int, u: int, memo: _SurfaceMemo) -> list:
        """Cancel the iso entry (x, y); returns the pairs (z, w) it rewrote."""
        p = self.p
        d, rin = self.d, self.rin
        scale = (-inv_mod(u, p)) % p
        ins = [(z, d[z][y]) for z in sorted(rin[y]) if z != x]
        outs = [(w, m) for w, m in sorted(d[x].items()) if w != y]
        for z, bz in ins:
            row = d[z]
            for w, cw in outs:
                # row keeps its entry at y and rin[w] its x until the end,
                # so neither container empties here
                tot = add_into(row.get(w, {}), compose(cw, bz, memo).items(), p, scale)
                if tot:
                    row[w] = tot
                    rin[w].add(z)
                elif w in row:
                    del row[w]
                    rin[w].discard(z)
        for z, _ in ins:
            self._del_entry(z, y)
        for w, _ in outs:
            self._del_entry(x, w)
        self._del_entry(x, y)
        for w in list(self.rin.get(x, set())):
            self._del_entry(w, x)
        for z in list(self.d.get(y, {})):
            self._del_entry(y, z)
        del self.gens[x]
        del self.gens[y]
        return [(z, w) for z, _ in ins for w, _ in outs]

    def _cost(self, x: int, y: int) -> int:
        """Compositions that cancelling (x, y) makes."""
        return (len(self.rin[y]) - 1) * (len(self.d[x]) - 1)

    def _eliminate_all(self, memo: _SurfaceMemo) -> None:
        """Eliminate the cheapest iso entry (x, y) until none is left.

        The heap holds (cost, x, y) for iso entries, with the cost they had
        when pushed.  An entry's iso test reads only its morphism and the
        rawq and side of its two ends, which never change, so an entry turns
        iso only when an elimination rewrites it, and is pushed then.  Costs
        move as eliminations rewrite rows and columns: a popped entry that is
        gone or no longer iso is skipped, and one whose cost has grown goes
        back with its current cost.
        """
        d = self.d
        heap = [
            (self._cost(x, y), x, y)
            for x, row in d.items()
            for y, m in row.items()
            if self._iso_scalar(x, y, m) is not None
        ]
        heapify(heap)
        while heap:
            cost, x, y = heappop(heap)
            m = d.get(x, {}).get(y)
            u = None if m is None else self._iso_scalar(x, y, m)
            if u is None:
                continue
            now = self._cost(x, y)
            if now > cost:
                heappush(heap, (now, x, y))
                continue
            for z, w in self._eliminate(x, y, u, memo):
                m = d.get(z, {}).get(w)
                if m is not None and self._iso_scalar(z, w, m) is not None:
                    heappush(heap, (self._cost(z, w), z, w))

    # -- export

    def finish(self, flips: frozenset) -> ScanResult:
        D, th, p = self.D, self.th, self.p
        for g in self.gens.values():
            assert not g.matching and not g.circles
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
                if not m:
                    continue
                assert set(m) == {frozenset()}, "open surface at export"
                c = m[frozenset()]
                for sigma in signs:
                    cx.add_entry(ids[(x, sigma)], ids[(y, sigma)], c)

        cycles = {}
        for tr in self.tracks:
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
    ro = D.oriented_smoothings(flips)
    st = ResolvedState(D, ro)
    labels_by_eid: dict = {}
    loop_labels: dict = {}
    for idx, circ in enumerate(st.circles):
        lab = th.canonical_label(st.parity(idx, flips))
        if circ.loop is not None:
            loop_labels[circ.loop] = lab
        else:
            for eid in circ.edges:
                labels_by_eid[eid] = lab
    return _Track(flips, ref, ro, labels_by_eid, loop_labels)


def scan_complex(
    D: LinkDiagram,
    theory: Theory,
    flips: frozenset = frozenset(),
    orientations: Sequence[frozenset] | None = None,
    order: Sequence[int] | None = None,
    split_at: int | None = None,
) -> ScanResult:
    """Sweep the diagram and return its reduced complex.

    flips fixes the orientation used for the grading shifts.  orientations
    lists the orientations whose distinguished cycles should be transported;
    the result maps each to a vector in the returned complex.  split_at
    names a crossing to attach last, keeping the generators from its two
    smoothings apart: .split lists them, the one side a subcomplex and the
    zero side its quotient, each reduced by elimination on its own.
    """
    if order is None:
        if split_at is None:
            order, _ = scan_order(D)
        else:
            partial, _ = scan_order(D, exclude=frozenset((split_at,)))
            order = partial + [split_at]
    order = list(order)
    if sorted(order) != sorted(D.crossings):
        raise ValueError("order must list every crossing exactly once")
    sc = _Scan(D, theory, orientations or [])
    for cid in order:
        sc.attach(cid, split=cid == split_at)
    return sc.finish(flips)


def homology_table(D: LinkDiagram, theory: Theory, flips: frozenset = frozenset()):
    """Homology ranks via the sweep; same shape as the cube-based table."""
    return scan_complex(D, theory, flips).complex.homology_dims()
