"""Ladder audits for framed cable families.

A family member is a framed satellite of a companion knot: the width
2*level+1 cable, framed by `framing`, with a positive pattern braid of
`full_rows` complete ascending rows plus a partial row of `tail`
letters.  Entries are enumerated lexicographically in (framing, level,
full_rows, tail), framing running from the companion diagram's writhe
up to zero.

For every entry two statements are audited against the scanned
homology:

  * vanishing: no homology above the top renormalized degree
    2*level*(level+1);
  * top match: the dimension in that degree equals the number of
    orientation classes the writhe census places there.

Entries whose pattern has a partial row are tied to their neighbours by
the one-crossing triangle at the last pattern letter.  Its degree
offset is computed three independent ways (crossing-count arithmetic on
the words, orientation-class degrees on the diagrams, and the grading
translation that matches the resolved block's homology to a smaller
member) and all three must agree, be nonnegative, and be positive when
the pattern is not a full twist.

An entry's audit reads up to three member diagrams (the entry, its
neighbour with one tail letter less, the full twist of its framing and
level); `audit_entry` builds each at most once for `triangle_facts` and
`linking_checks`, and keeps nothing across entries but `tables`.  That
holds every audited entry's homology table under its own key, a
duplicate's included; one running sweep per level under ("sweep",
level); and under "members" the member diagrams the last entry that
built any read, keyed by braid word, so the next entry reuses them.
The members go after the last entry of each framing and level, whose
members no later entry reads.

Every entry of one level is the closure of a prefix of one braid word,
that of the level's last entry, so a level is scanned once: a LevelSweep
runs along the word, and each scanned entry forks it at its prefix and
closes the fork (Bar-Natan's tangle composition, math/0606318).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .braids import BraidWord, braid_closure, count_inter_crossings, row_word
from .cabling import alternating_flips, cable_family_diagram, satellite_word
from .chain_algebra import HomologySpace, induced_matrix, rank
from .cobordism import cone_over_crossing, split_cone
from .diagrams import LinkDiagram, smoothing_arcs
from .frobenius import khovanov
from .lee import expected_h_difference, lee_homology_dims, s_invariant
from .planar import circles_of_arcs
from .scanning import ScanResult, _Scan, greedy_order, homology_table


LEE_SCAN_LIMIT = 12


def strand_width(level: int) -> int:
    return 2 * level + 1


def top_grading(level: int) -> int:
    """Highest renormalized homological degree a level's members can carry."""
    return 2 * level * (level + 1)


def reversal_span(level: int, strands: int) -> int:
    """Degree swept by reversing that many cable strands: 2k(N-k) for
    width N.  Equals the gap between consecutive top gradings when one
    strand is dropped per level."""
    n = strand_width(level)
    if not 0 <= strands <= n:
        raise ValueError(f"reversal_span({level}, {strands}): strands must lie in 0..{n}")
    return 2 * strands * (n - strands)


# -- the ladder ----------------------------------------------------------


@dataclass(frozen=True, order=True)
class LadderEntry:
    framing: int
    level: int
    full_rows: int
    tail: int

    def __post_init__(self) -> None:
        # a negative level leaves no room for either field
        if not (0 <= self.full_rows <= 2 * self.level and 0 <= self.tail <= 2 * self.level):
            raise ValueError(f"{self.label()}: full_rows and tail must lie in 0..2*level")

    def label(self) -> str:
        return (
            f"f={self.framing} level={self.level}"
            f" rows={self.full_rows} tail={self.tail}"
        )


def ladder(writhe: int, max_level: int) -> tuple[LadderEntry, ...]:
    if writhe > 0:
        raise ValueError("companion diagram must not have positive writhe")
    if max_level < 0:
        raise ValueError(f"max_level {max_level} is negative")
    out = []
    for f in range(writhe, 1):
        for m in range(max_level + 1):
            for a in range(2 * m + 1):
                for i in range(2 * m + 1):
                    out.append(LadderEntry(f, m, a, i))
    return tuple(out)


def entry_word(base: BraidWord, e: LadderEntry) -> BraidWord:
    """Braid word whose closure is the entry's diagram."""
    return satellite_word(base, e.framing, row_word(e.level, e.full_rows, e.tail))


def duplicate_partner(e: LadderEntry, writhe: int) -> LadderEntry | None:
    """Earlier entry with the literally identical diagram, if any.

    A tail of zero makes the last full row indistinguishable from a
    finished partial row, and one extra framing twist is the same word
    as one more full twist of pattern; width-one members do not see the
    framing at all.
    """
    if e.level == 0:
        return LadderEntry(e.framing - 1, 0, 0, 0) if e.framing > writhe else None
    if e.tail == 0 and e.full_rows > 0:
        return LadderEntry(e.framing, e.level, e.full_rows - 1, 2 * e.level)
    if e.tail == 0 and e.full_rows == 0 and e.framing > writhe:
        return LadderEntry(e.framing - 1, e.level, 2 * e.level, 2 * e.level)
    return None


def family_diagram(base: BraidWord, e: LadderEntry):
    """The entry's diagram and its CableMeta."""
    return cable_family_diagram(base, e.framing, e.level, e.full_rows, e.tail)


# -- orientation census --------------------------------------------------


def orientation_census(D: LinkDiagram) -> dict[int, int]:
    """How many orientation classes the writhe census forces into each
    homological degree.  One class per component subset; the base
    orientation sits in degree zero."""
    k = len(D.components())
    assert k <= 12, "census is exponential in the component count"
    hist: dict[int, int] = {}
    for bits in range(1 << k):
        flips = frozenset(j for j in range(k) if bits >> j & 1)
        h = expected_h_difference(D, frozenset(), flips)
        hist[h] = hist.get(h, 0) + 1
    return hist


def smoothed_component_count(D: LinkDiagram, cid: int, r: int) -> int:
    """Component count after replacing one crossing by its r-smoothing: the
    circles of the state that joins every other crossing straight through
    (slots 0-2 and 1-3), counted as the cube counts them.  The smoothing is
    never materialized, so curl degeneracies cost nothing."""
    arcs = smoothing_arcs(D.crossings[cid], r)
    for c2, x in D.crossings.items():
        if c2 != cid:
            arcs += [(x.slots[0][0], x.slots[2][0]), (x.slots[1][0], x.slots[3][0])]
    return len(circles_of_arcs(D, arcs))


# -- the one-crossing triangle at the last pattern letter ----------------


def site_strands(level: int, full_rows: int, tail: int) -> tuple[int, int]:
    """The two pattern strands crossing at the last letter: those in
    columns tail-1 and tail after every earlier letter."""
    assert tail >= 1
    perm = row_word(level, full_rows, tail - 1).permutation()
    return perm.index(tail - 1), perm.index(tail)


def _single_strands(word: BraidWord) -> set[int]:
    return {j for j, t in enumerate(word.permutation()) if t == j}


@dataclass(frozen=True)
class TriangleFacts:
    """Degree bookkeeping of the triangle at the last pattern letter."""

    case: str  # "merge" or "split"
    strands: tuple[int, ...]  # single-strand reversals valid at the site
    degrees_by_counts: tuple[int, ...]
    degrees_by_gradings: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.degrees_by_counts[0]

    def consistent(self) -> bool:
        vals = set(self.degrees_by_counts) | set(self.degrees_by_gradings)
        return len(vals) == 1


def triangle_facts(e: LadderEntry, member) -> TriangleFacts:
    """member(entry) gives an entry's (diagram, CableMeta)."""
    m, a, i, f = e.level, e.full_rows, e.tail, e.framing
    assert i >= 1
    word_l = row_word(m, a, i)
    word_o = row_word(m, a, i - 1)
    n_l = len(word_l.closure_cycles())
    n_o = len(word_o.closure_cycles())
    if n_o == n_l - 1:
        case = "merge"
    else:
        assert n_o == n_l + 1, "resolving one crossing moves one component"
        case = "split"
    side_word = word_l if case == "merge" else word_o
    site = set(site_strands(m, a, i))
    valid = tuple(sorted(site & _single_strands(side_word)))
    assert valid, "no single-strand reversal fits the crossing site"

    gap = reversal_span(m, 1)
    minus = 1 if case == "split" else 0
    twist_word = row_word(m, 2 * m, 2 * m)
    by_counts = tuple(
        -f * gap
        + count_inter_crossings(twist_word, {j})
        - count_inter_crossings(side_word, {j})
        - minus
        for j in valid
    )

    side_entry = e if case == "merge" else LadderEntry(f, m, a, i - 1)
    Dg, mg = member(side_entry)
    by_gradings = tuple(
        gap
        - expected_h_difference(
            Dg, frozenset(), frozenset({mg.strand_component[j]})
        )
        - minus
        for j in valid
    )
    return TriangleFacts(case, valid, by_counts, by_gradings)


def linking_checks(e: LadderEntry, member) -> list[str]:
    """Diagram linking numbers against word counts, for every sublink of
    pattern strands.

    Two facts are checked exactly: moving a sublink's pattern crossings
    out to the full twist trades each for one unit of linking, and in
    the full-twist member the sublink's total linking is pinned by the
    framing and bounded by the reversal span.  member(entry) gives an
    entry's (diagram, CableMeta).
    """
    problems: list[str] = []
    m, f = e.level, e.framing
    twist_word = row_word(m, 2 * m, 2 * m)
    C, meta_c = member(LadderEntry(f, m, 2 * m, 2 * m))
    comps_c = set(range(len(C.components())))

    sides = [e, LadderEntry(f, m, e.full_rows, e.tail - 1)] if e.tail >= 1 else [e]
    for side in sides:
        word = row_word(m, side.full_rows, side.tail)
        D, meta = member(side)
        comps_all = set(range(len(D.components())))
        cycles = word.closure_cycles()
        for bits in range(1, (1 << len(cycles)) - 1):
            strands = {
                j
                for c, cyc in enumerate(cycles)
                if bits >> c & 1
                for j in cyc
            }
            comps = {meta.strand_component[j] for j in strands}
            comps_in_c = {meta_c.strand_component[j] for j in strands}
            lk_here = 2 * D.linking_number(comps, comps_all - comps)
            lk_twist = 2 * C.linking_number(comps_in_c, comps_c - comps_in_c)
            moved = count_inter_crossings(twist_word, strands) - (
                count_inter_crossings(word, strands)
            )
            span = reversal_span(m, len(strands))
            where = f"{side.label()} strands {sorted(strands)}:"
            if lk_here + moved != lk_twist:
                problems.append(f"{where} linking {lk_here} + moved {moved} != {lk_twist}")
            if lk_twist != (f + 1) * span:
                problems.append(f"{where} twist linking {lk_twist} != {(f + 1) * span}")
            if lk_twist > span:
                problems.append(f"{where} twist linking {lk_twist} above span {span}")
    return problems


# -- matching a homology block to a standalone diagram -------------------


def translation_match(block: dict, candidate: dict) -> tuple[int, int] | None:
    """The unique bigrading shift with candidate + shift == block, or None."""
    if not block or len(block) != len(candidate):
        return None
    bh, bq = min(block)
    ch, cq = min(candidate)
    dh, dq = bh - ch, bq - cq
    shifted = {(h + dh, q + dq): v for (h, q), v in candidate.items()}
    return (dh, dq) if shifted == block else None


def split_circle_tensor(dims: dict) -> dict:
    """Table of the disjoint union with one more crossingless circle."""
    out: dict = {}
    for (h, q), v in dims.items():
        for dq in (-1, 1):
            out[(h, q + dq)] = out.get((h, q + dq), 0) + v
    return out


def _block_degrees(t_sub: dict, n_under: int, level: int, candidates) -> set[int]:
    """Triangle degrees at which the resolved block t_sub, whose diagram has
    n_under components, matches a member of the level below.

    candidates lists each member's (component count, table); a member gets
    a split circle tensored on per leftover component, two at most.
    """
    found = set()
    for n, table in candidates:
        if n > n_under or n_under - n > 2:
            continue
        for _ in range(n_under - n):
            table = split_circle_tensor(table)
        shift = translation_match(t_sub, table)
        if shift is not None:
            found.add(top_grading(level) - top_grading(level - 1) - shift[0])
    return found


# -- one sweep per level -------------------------------------------------


class LevelSweep:
    """A running scan along the word of a level's last entry.

    The companion cable's crossings come first, in the greedy order
    restricted to them (letter order can open far more edges), then the
    framing twists and pattern rows in letter order.
    """

    def __init__(self, base: BraidWord, level: int, theory):
        self.word = entry_word(base, LadderEntry(0, level, 2 * level, 2 * level))
        self.D, self.columns = braid_closure(self.word, with_columns=True)
        n_cable = len(base.letters) * strand_width(level) ** 2
        order, _ = greedy_order(self.D, range(n_cable))
        self.order = order + list(range(n_cable, len(self.word.letters)))
        self.scan = _Scan(self.D, theory, [])
        self.done = 0  # crossings of self.order attached

    def close(self, word: BraidWord, split: bool, D: LinkDiagram) -> ScanResult:
        """The scan of word's closure D, a prefix of the sweep's word.

        A fork of the sweep at the prefix (less its last letter, with split)
        joins each column's bottom end to its top end, one column at a
        time: first the columns the last letter does not touch, then, after
        attaching that letter split, its two.
        """
        k = len(word.letters)
        assert self.word.letters[:k] == word.letters, "entry is no prefix of the sweep"
        while self.done < k - split:
            self.scan.attach(self.order[self.done])
            self.done += 1
        bottom = {}
        for cid, l in enumerate(word.letters):
            slots = self.D.crossings[cid].slots
            bottom[abs(l) - 1], bottom[abs(l)] = slots[2][0], slots[3][0]
        # a column that no later letter touches is closed already
        ends = {c: (b, self.columns[c][1]) for c, b in bottom.items() if b != self.columns[c][1]}
        last = {abs(word.letters[-1]) - 1, abs(word.letters[-1])} if k else set()
        fork = self.scan.fork()
        for c in sorted(ends.keys() - last):
            fork.join([ends[c]])
        if split:
            fork.attach(k - 1, split=True)
        for c in sorted(ends.keys() & last):
            fork.join([ends[c]])
        return fork.finish(D, frozenset())


def _sweep_scan(base: BraidWord, e: LadderEntry, word: BraidWord, D: LinkDiagram, tables: dict, theory):
    """The entry's scan, split at its last letter when it has a tail, from
    its level's sweep in tables.  A fresh sweep starts when the running one
    does not hold word or has passed its prefix; one that reaches the end
    of its word is dropped."""
    key = ("sweep", e.level)
    sweep = tables.get(key)
    k = len(word.letters)
    split = e.tail >= 1
    if sweep is None or sweep.word.letters[:k] != word.letters or sweep.done > k - split:
        sweep = tables[key] = LevelSweep(base, e.level, theory)
    res = sweep.close(word, split, D)
    if k == len(sweep.word.letters):
        del tables[key]
    return res


# -- per-entry audit -----------------------------------------------------


@dataclass(frozen=True)
class EntryRecord:
    entry: LadderEntry
    crossings: int
    status: str  # "scanned" | "duplicate" | "skipped"
    duplicate_of: LadderEntry | None = None
    vanishing_ok: bool | None = None
    top_dim: int | None = None
    census_top: int = 0
    top_match_ok: bool | None = None
    triangle: TriangleFacts | None = None
    degree_by_blocks: int | None = None
    block_certified: bool | None = None
    quotient_certified: bool | None = None
    lee_scan_ok: bool | None = None
    problems: tuple[str, ...] = ()
    seconds: float = 0.0


@dataclass
class FamilyReport:
    name: str
    writhe: int
    max_level: int
    budget: int
    records: list[EntryRecord] = field(default_factory=list)

    def skipped(self) -> list[EntryRecord]:
        return [r for r in self.records if r.status == "skipped"]

    def problems(self) -> list[str]:
        out = []
        for r in self.records:
            out.extend(f"{r.entry.label()}: {p}" for p in r.problems)
        return out

    def ok(self) -> bool:
        return not self.problems()


def _table_top(dims: dict, h0: int) -> int:
    return sum(v for (h, _), v in dims.items() if h == h0)


def audit_entry(
    base: BraidWord,
    e: LadderEntry,
    writhe: int,
    budget: int,
    lee_scan_limit: int,
    tables: dict,
) -> EntryRecord:
    if len(base.closure_cycles()) != 1:
        raise ValueError("companion must close to a knot")
    if writhe != base.writhe:
        raise ValueError(f"writhe {writhe} is not the companion's {base.writhe}")
    if not writhe <= e.framing <= 0:
        raise ValueError(f"{e.label()}: framing must lie in {writhe}..0")
    t0 = time.monotonic()
    problems: list[str] = []
    word = entry_word(base, e)
    crossings = len(word.letters)
    top = top_grading(e.level)

    partner = duplicate_partner(e, writhe)
    if partner is not None:
        if entry_word(base, partner).letters != word.letters:
            problems.append(f"duplicate of {partner.label()} is not word-equal")
        ref = tables.get(partner)
        if ref is not None:
            tables[e] = ref
        # with nothing scanned to inherit from, the defaults stand
        rec = ref["record"] if ref else EntryRecord(e, crossings, "duplicate")
        return EntryRecord(
            e, crossings, "duplicate", duplicate_of=partner,
            vanishing_ok=rec.vanishing_ok, top_dim=rec.top_dim,
            census_top=rec.census_top, top_match_ok=rec.top_match_ok,
            problems=tuple(problems), seconds=time.monotonic() - t0,
        )

    # the members this entry reads, keyed by braid word, replace the last
    # building entry's, which it reuses: consecutive entries share the
    # shorter-tail neighbour and the full twist, and word-equal ones share
    last = tables.get("members", {})
    built = tables["members"] = {}
    words = {e: word}

    def member(entry: LadderEntry):
        w = words.get(entry)
        if w is None:
            w = words[entry] = entry_word(base, entry)
        if w not in built:
            built[w] = last.get(w) or family_diagram(base, entry)
        return built[w]

    D, _ = member(e)
    if len(D.crossings) != crossings:
        problems.append(
            f"diagram has {len(D.crossings)} crossings, word {crossings}"
        )
    census = orientation_census(D)
    census_top = census.get(top, 0)

    tri = None
    degree_by_blocks = None
    block_certified = None
    quotient_certified = None
    if e.tail >= 1:
        tri = triangle_facts(e, member)
        if not tri.consistent():
            problems.append(
                f"triangle degree disagrees: counts {tri.degrees_by_counts},"
                f" gradings {tri.degrees_by_gradings}"
            )
        if tri.degree < 0:
            problems.append(f"triangle degree {tri.degree} negative")
        if e.full_rows < 2 * e.level and tri.degree < 1:
            problems.append(
                f"triangle degree {tri.degree} not positive below the full twist"
            )
        if tri.case == "split" and e.full_rows >= 2 * e.level:
            problems.append("split case reached a full-twist pattern")
        problems.extend(linking_checks(e, member))
    if e.full_rows == e.tail == 2 * e.level:
        # the last entry of its framing and level: no later entry reads
        # its members
        del tables["members"]

    if crossings > budget:
        return EntryRecord(
            e, crossings, "skipped", census_top=census_top, triangle=tri,
            problems=tuple(problems), seconds=time.monotonic() - t0,
        )

    th = khovanov(3)
    res = _sweep_scan(base, e, word, D, tables, th)
    if e.tail >= 1:
        cid = max(D.crossings)
        cone = split_cone(th, res)
        t_sub = cone.sub_complex().homology_dims()
        t_quot = cone.quot_complex().homology_dims()
        dims = cone.cx.homology_dims()

        # the resolved block against the already-scanned next level down
        m2 = e.level - 1
        candidates = [
            (len(row_word(m2, a2, i2).closure_cycles()), tables[ce]["table"])
            for a2 in range(2 * m2 + 1)
            for i2 in range(2 * m2 + 1)
            if (ce := LadderEntry(e.framing, m2, a2, i2)) in tables
        ]
        n_under = smoothed_component_count(D, cid, 1)
        degrees_found = _block_degrees(t_sub, n_under, e.level, candidates)
        if not candidates:
            block_certified = None
        elif not degrees_found:
            block_certified = False
            problems.append("resolved block does not match a smaller member")
        elif len(degrees_found) > 1:
            block_certified = False
            problems.append(f"resolved block degree ambiguous: {degrees_found}")
        else:
            block_certified = True
            degree_by_blocks = degrees_found.pop()
            if tri is not None and degree_by_blocks != tri.degree:
                problems.append(
                    f"block degree {degree_by_blocks} != {tri.degree}"
                )

        prev = tables.get(LadderEntry(e.framing, e.level, e.full_rows, e.tail - 1))
        if prev is not None:
            shift = translation_match(t_quot, prev["table"])
            quotient_certified = shift is not None and shift[0] == 0
            if not quotient_certified:
                problems.append("kept block does not match the shorter tail")

        for (h, _), v in dims.items():
            have = _table_top(dims, h)
            bound = _table_top(t_sub, h) + _table_top(t_quot, h)
            if have > bound:
                problems.append(
                    f"degree {h}: total {have} above block bound {bound}"
                )
                break
    else:
        dims = res.complex.homology_dims()

    hs = sorted({h for (h, _) in dims})
    vanishing_ok = not hs or hs[-1] <= top
    if not vanishing_ok:
        problems.append(f"homology in degree {hs[-1]} above top {top}")
    top_dim = _table_top(dims, top)
    top_match_ok = top_dim == census_top
    if not top_match_ok:
        problems.append(
            f"top degree dimension {top_dim} != census {census_top}"
        )

    lee_scan_ok = None
    if crossings <= lee_scan_limit:
        lee_scan_ok = lee_homology_dims(D) == census
        if not lee_scan_ok:
            problems.append("deformed scan disagrees with the writhe census")

    rec = EntryRecord(
        e,
        crossings,
        "scanned",
        vanishing_ok=vanishing_ok,
        top_dim=top_dim,
        census_top=census_top,
        top_match_ok=top_match_ok,
        triangle=tri,
        degree_by_blocks=degree_by_blocks,
        block_certified=block_certified,
        quotient_certified=quotient_certified,
        lee_scan_ok=lee_scan_ok,
        problems=tuple(problems),
        seconds=time.monotonic() - t0,
    )
    tables[e] = {"table": dims, "record": rec}
    return rec


def audit_family(
    base: BraidWord,
    name: str,
    max_level: int = 1,
    budget: int = 60,
    tables: dict | None = None,
) -> FamilyReport:
    """Audit every ladder entry of one companion knot.

    Scans are skipped, never silently dropped, above the crossing
    budget; the word and linking arithmetic still runs for those
    entries.  Entries word-equal to an earlier one inherit its verdict.
    Entries of at most LEE_SCAN_LIMIT crossings also get a Lee scan.
    """
    w = base.writhe
    if tables is None:
        tables = {}
    report = FamilyReport(name=name, writhe=w, max_level=max_level, budget=budget)
    for e in ladder(w, max_level):
        report.records.append(audit_entry(base, e, w, budget, LEE_SCAN_LIMIT, tables))
    return report


# -- the inclusion into the next level -----------------------------------


@dataclass(frozen=True)
class InclusionReport:
    level_to: int
    ambient_degree: int
    sub_dim: int
    rank: int
    injective: bool
    block_certified: bool
    degree: int
    small_top_dim: int
    small_census_top: int
    problems: tuple[str, ...]

    def ok(self) -> bool:
        return not self.problems


def inclusion_report(base: BraidWord, level_to: int) -> InclusionReport:
    """Rank of the map induced by the resolved-block inclusion in the
    top degree of the next level's full-twist member.

    The block is identified with the previous level's full-twist member
    plus a split circle; full rank there means every class of the
    smaller member survives into the larger one.
    """
    problems: list[str] = []
    if level_to < 1:
        raise ValueError("the inclusion goes into level 1 or higher")
    m2 = level_to
    m1 = level_to - 1
    e = LadderEntry(0, m2, 2 * m2, 2 * m2)
    th = khovanov(3)
    D, _ = family_diagram(base, e)
    cid = max(D.crossings)
    h0 = top_grading(m2)
    cone = cone_over_crossing(D, th, cid)

    sub_cx = cone.sub_complex()
    S = HomologySpace(sub_cx, h0)
    A = HomologySpace(cone.cx, h0)
    mat = induced_matrix(cone.include, S, A)
    rk = rank(mat, cone.cx.p)
    injective = rk == S.dim
    if not injective:
        problems.append(f"inclusion rank {rk} below block dimension {S.dim}")

    t_sub = sub_cx.homology_dims()
    small, _ = family_diagram(base, LadderEntry(0, m1, 2 * m1, 2 * m1))
    n_small = len(small.components())
    n_under = smoothed_component_count(D, cid, 1)
    assert n_under - n_small == 1, "the resolved block should free exactly one circle"
    t_small = homology_table(small, th)
    degrees = _block_degrees(t_sub, n_under, m2, [(n_small, t_small)])
    block_certified = bool(degrees)
    degree = None
    if not degrees:
        problems.append("resolved block does not match the smaller member")
    else:
        degree = degrees.pop()
        if degree != 0:
            problems.append(f"inclusion sits in degree {degree}, not 0")
    # with the freed circle: Kh(U) has rank 2, and flipping the circle
    # changes no writhe, so both the top degree and the census double
    small_top = 2 * _table_top(t_small, top_grading(m1))
    small_census_top = 2 * orientation_census(small).get(top_grading(m1), 0)
    if block_certified and S.dim != small_top:
        problems.append(
            f"block dimension {S.dim} != smaller member's top {small_top}"
        )
    if small_top != small_census_top:
        problems.append("smaller member's top degree misses its census")
    return InclusionReport(
        level_to=m2,
        ambient_degree=h0,
        sub_dim=S.dim,
        rank=rk,
        injective=injective,
        block_certified=block_certified,
        degree=degree if degree is not None else -1,
        small_top_dim=small_top,
        small_census_top=small_census_top,
        problems=tuple(problems),
    )


# -- the framed-cable slice drop -----------------------------------------


@dataclass(frozen=True)
class SliceDropReport:
    name: str
    level: int
    crossings: int
    status: str  # "verified" | "failed" | "skipped"
    s_companion: int | None
    s_cable: int | None
    expected: int | None

    def ok(self) -> bool:
        return self.status != "failed"


def slice_drop_report(base: BraidWord, name: str, level: int, budget: int = 60) -> SliceDropReport:
    """s of the 1-framed cable with alternating strand orientations
    against the companion's s minus the reversal count.

    Over the crossing budget the attempt is recorded as skipped, never
    silently dropped.
    """
    D, meta = cable_family_diagram(base, 1, level, 0, 0)
    crossings = len(D.crossings)
    if crossings > budget:
        return SliceDropReport(name, level, crossings, "skipped", None, None, None)
    s_comp = s_invariant(braid_closure(base))
    s_cab = s_invariant(D, alternating_flips(meta))
    expected = s_comp - 2 * level
    status = "verified" if s_cab == expected else "failed"
    return SliceDropReport(name, level, crossings, status, s_comp, s_cab, expected)
