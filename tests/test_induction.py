"""The ladder harness: entry bookkeeping, smoothing counts, a small audit."""

import dataclasses
import random
import sys
from collections import Counter

import pytest

from khovanov_cables import cobordism, induction, scanning
from khovanov_cables.braids import BraidWord, braid_closure, random_braid, row_word
from khovanov_cables.cobordism import cone_from_cube, cone_over_crossing, split_cone
from khovanov_cables.frobenius import khovanov, lee_deformation
from khovanov_cables.induction import (
    LEE_SCAN_LIMIT,
    LadderEntry,
    LevelSweep,
    audit_entry,
    audit_family,
    duplicate_partner,
    entry_word,
    inclusion_report,
    ladder,
    site_strands,
    slice_drop_report,
    smoothed_component_count,
    strand_width,
)

UNKNOT = BraidWord(1, ())
WRITHE_M2 = BraidWord(3, (-1, -2))
MIRROR_TREFOIL = BraidWord(2, (-1, -1, -1))


def test_smoothed_component_count_matches_the_cube():
    # by Lee, a link of c components has Lee homology of rank 2^c, and a
    # cone's r-side block is the cube of the r-smoothing
    rng = random.Random(2207)
    diagrams = [
        braid_closure(random_braid(rng, rng.randint(2, 4), rng.randint(1, 5)))
        for _ in range(60)
    ]
    trefoil = braid_closure(BraidWord(2, (1, 1, 1)))
    diagrams += [trefoil.with_free_loop(), trefoil.add_kink(min(trefoil.edges), -1)]
    th = lee_deformation(3)
    compared = 0
    for k, D in enumerate(diagrams):
        for cid in D.crossings:
            cone = cone_from_cube(D, th, cid)
            for r, block in ((0, cone.quot_complex()), (1, cone.sub_complex())):
                rank = sum(block.homology_dims().values())
                assert rank == 2 ** smoothed_component_count(D, cid, r), (k, cid, r)
                compared += 1
    assert compared >= 300


@pytest.mark.parametrize("writhe", [0, -1, -3])
def test_ladder_and_duplicate_partners(writhe):
    base = BraidWord(2, (-1,) * -writhe) if writhe else UNKNOT
    assert base.writhe == writhe
    entries = ladder(writhe, 2)
    per_framing = sum(strand_width(m) ** 2 for m in range(3))
    assert len(entries) == (1 - writhe) * per_framing
    assert list(entries) == sorted(set(entries))
    assert {e.framing for e in entries} == set(range(writhe, 1))
    index = {e: k for k, e in enumerate(entries)}
    partners = {e: duplicate_partner(e, writhe) for e in entries}
    assert any(partners.values())
    for e, partner in partners.items():
        if partner is None:
            continue
        assert index[partner] < index[e]
        assert entry_word(base, partner) == entry_word(base, e)


def test_unknot_audit_levels_zero_and_one():
    report = audit_family(UNKNOT, "unknot", max_level=1)
    assert len(report.records) == 1 + 9
    assert not report.skipped()
    assert report.ok(), report.problems()
    for rec in report.records:
        assert not rec.problems
        assert rec.status in ("scanned", "duplicate")
        assert rec.vanishing_ok and rec.top_match_ok, rec.entry.label()


@pytest.mark.parametrize("level", [1, 2])
def test_unknot_inclusion_is_injective(level):
    report = inclusion_report(UNKNOT, level)
    assert report.ok(), report.problems
    assert report.injective and report.rank == report.sub_dim > 0


def test_writhe_minus_two_unknot_inclusion_is_injective():
    # the full twist of a companion with writhe -2 carries two framing twists
    report = inclusion_report(BraidWord(3, (-1, -2)), 1)
    assert report.ok(), report.problems
    assert (report.sub_dim, report.rank, report.degree) == (4, 4, 0)
    assert (report.small_top_dim, report.small_census_top) == (4, 4)


@pytest.mark.parametrize("level", [1, 2])
def test_inclusion_scans_only_ladder_members(monkeypatch, level):
    # the freed circle costs a factor Kh(U) on the smaller member's table,
    # so no copy of a member with a free loop is scanned
    built, scanned = [], []
    build, scan = induction.cable_family_diagram, scanning.scan_complex

    def build_recorded(*args):
        D, meta = build(*args)
        built.append(D)
        return D, meta

    def scan_recorded(D, *args, **kwargs):
        scanned.append(D)
        return scan(D, *args, **kwargs)

    monkeypatch.setattr(induction, "cable_family_diagram", build_recorded)
    monkeypatch.setattr(scanning, "scan_complex", scan_recorded)
    monkeypatch.setattr(cobordism, "scan_complex", scan_recorded)
    assert inclusion_report(UNKNOT, level).ok()
    assert len(scanned) == 2
    assert all(any(D is B for B in built) for D in scanned)


def test_duplicates_hold_their_partners_tables():
    # the writhe -2 unknot chains duplicates across framings
    tables: dict = {}
    report = audit_family(BraidWord(3, (-1, -2)), "writhe -2 unknot", max_level=1, tables=tables)
    assert report.ok(), report.problems()
    dups = [r for r in report.records if r.status == "duplicate"]
    chained = [r for r in dups if r.duplicate_of in tables and duplicate_partner(r.duplicate_of, -2)]
    assert dups and chained
    for r in dups:
        if r.duplicate_of in tables:
            assert tables[r.entry] is tables[r.duplicate_of], r.entry.label()
            top = induction.top_grading(r.entry.level)
            assert r.top_dim == induction._degree_totals(tables[r.entry]["table"]).get(top, 0)


@pytest.mark.parametrize("level", [1, 2])
def test_unknot_slice_drop_is_verified(level):
    report = slice_drop_report(UNKNOT, "unknot", level)
    assert report.status == "verified", report
    assert report.s_companion == 0
    assert report.s_cable == report.expected == -2 * level


def test_audit_entry_builds_each_member_once(monkeypatch):
    builds = []
    every = []
    build = induction.cable_family_diagram
    # entry_word calls by (audit_entry call, entry, caller)
    words = Counter()
    calls = []
    word_of, audit = induction.entry_word, induction.audit_entry

    def counted_audit(base, e, *args):
        calls.append(e)
        rec = audit(base, e, *args)
        check(rec)
        return rec

    def counted_word(base, e):
        caller = sys._getframe(1).f_code.co_name
        if caller == "audit_entry" and e != calls[-1]:
            caller = "partner"
        words[len(calls), e, {"__init__": "sweep"}.get(caller, caller)] += 1
        return word_of(base, e)

    def counted(base, f, m, a=0, i=0):
        builds.append((f, m, a, i))
        return build(base, f, m, a, i)

    def check(rec):
        e = rec.entry
        if e.level == 1 and e.tail >= 1:
            # the shorter tail and the full twist come from the entry
            # before: the first tail entry builds the full twist too, and
            # the full twist builds nothing
            want = [] if (e.full_rows, e.tail) == (2, 2) else [(0, 1, e.full_rows, e.tail)]
            if (e.full_rows, e.tail) == (0, 1):
                want.append((0, 1, 2, 2))
            assert builds == want, (e.label(), builds)
        every.extend(builds)
        builds.clear()

    monkeypatch.setattr(induction, "cable_family_diagram", counted)
    monkeypatch.setattr(induction, "entry_word", counted_word)
    monkeypatch.setattr(induction, "audit_entry", counted_audit)
    report = audit_family(UNKNOT, "unknot", max_level=1)
    assert report.ok(), report.problems()
    assert len(every) == len(set(every)) == 8
    # each audit_entry call computes its own word and each member's once,
    # hits included
    own = Counter((n, e) for n, e, caller in words.elements() if caller in ("audit_entry", "member"))
    assert set(own.values()) == {1}
    # apart from those, each duplicate reads its partner's word and each
    # level's sweep its last entry's
    assert Counter(caller for _, _, caller in words.elements()) == {
        "audit_entry": 10, "member": 11, "partner": 2, "sweep": 2,
    }


# the paper's companion, -5_2: its closure's Khovanov table is 5_2's Knot
# Atlas PD as read_pd reads it
MINUS_5_2 = BraidWord(3, (-1, -1, -1, -2, 1, -2))


def test_the_papers_companion_drops_at_level_zero():
    report = slice_drop_report(MINUS_5_2, "-5_2", 0)
    assert report.status == "verified", report
    assert report.s_companion == report.s_cable == report.expected == -2


@pytest.mark.parametrize(
    "max_level, budget, statuses, skipped_crossings",
    [
        (0, 60, {"scanned": 1, "duplicate": 4}, set()),
        (1, 20, {"scanned": 1, "duplicate": 18, "skipped": 31}, set(range(54, 85))),
    ],
    ids=["level-0", "level-1-budget-20"],
)
def test_the_papers_companion_audits(max_level, budget, statuses, skipped_crossings):
    report = audit_family(MINUS_5_2, "-5_2", max_level=max_level, budget=budget)
    assert report.ok(), report.problems()
    assert Counter(r.status for r in report.records) == statuses
    # every skip states its crossing count, all above the budget; at budget
    # 20 no level-1 entry is scanned, so level 1 only smoke-tests the skip
    # bookkeeping
    assert {r.crossings for r in report.skipped()} == skipped_crossings


def test_the_mirror_trefoil_drops_at_level_one():
    # a 51-crossing cable: its Lee scans keep only degrees -1..1
    report = slice_drop_report(MIRROR_TREFOIL, "mirror trefoil", 1)
    assert report.status == "verified", report
    assert (report.crossings, report.s_companion, report.s_cable) == (51, -2, -4)


def _occupancy(word, upto):
    """Strand in each column after the first upto letters."""
    occ = list(range(word.strands))
    for l in word.letters[:upto]:
        j = abs(l) - 1
        occ[j], occ[j + 1] = occ[j + 1], occ[j]
    return occ


def test_site_strands_match_the_column_walk():
    for m in range(3):
        for a in range(2 * m + 1):
            for i in range(1, 2 * m + 1):
                w = row_word(m, a, i)
                occ = _occupancy(w, len(w.letters) - 1)
                assert site_strands(m, a, i) == (occ[i - 1], occ[i]), (m, a, i)


def test_mirror_trefoil_ladder_at_level_one():
    report = audit_family(BraidWord(2, (-1, -1, -1)), "mirror trefoil", max_level=1, budget=26)
    assert len(report.records) == 40
    assert Counter(r.status for r in report.records) == {"skipped": 25, "duplicate": 14, "scanned": 1}
    assert report.ok(), report.problems()
    tails = [r for r in report.skipped() if r.entry.tail >= 1]
    assert tails and all(r.triangle.consistent() for r in tails)


# one sweep per ladder level


@pytest.mark.parametrize("base, max_level", [(UNKNOT, 2), (WRITHE_M2, 1)], ids=["unknot", "writhe-2"])
def test_the_level_sweep_reproduces_the_plain_scans(base, max_level):
    th = khovanov(3)
    tables: dict = {}
    compared = 0
    for e in ladder(base.writhe, max_level):
        if duplicate_partner(e, base.writhe) is not None:
            continue
        D, _ = induction.family_diagram(base, e)
        res = induction._sweep_scan(base, e, entry_word(base, e), D, tables, th)
        if e.tail == 0:
            assert res.complex.homology_dims() == scanning.homology_table(D, th), e.label()
            continue
        got, want = split_cone(th, res), cone_over_crossing(D, th, max(D.crossings))
        for part in ("sub_complex", "quot_complex"):
            assert getattr(got, part)().homology_dims() == getattr(want, part)().homology_dims()
        assert got.cx.homology_dims() == want.cx.homology_dims(), e.label()
        compared += 1
    assert compared >= 12
    assert not tables, "a sweep that reached the end of its word is dropped"


def _timeless(rec):
    return dataclasses.replace(rec, seconds=0.0)


def test_an_entry_alone_or_out_of_order_gives_its_family_record():
    tables: dict = {}
    report = audit_family(WRITHE_M2, "writhe -2 unknot", max_level=1, tables=tables)
    known = {k: v for k, v in tables.items() if isinstance(k, LadderEntry)}
    scanned = [r for r in report.records if r.status == "scanned" and r.entry.level == 1]
    assert len(scanned) > 10

    def audit(e, tables):
        return _timeless(audit_entry(WRITHE_M2, e, -2, 60, LEE_SCAN_LIMIT, tables))

    fresh = 0
    for r in scanned[:-1]:
        assert audit(r.entry, dict(known)) == _timeless(r), r.entry.label()
        # a sweep that has passed this entry's prefix gives way to a fresh one
        out_of_order = dict(known)
        audit(scanned[-2].entry, out_of_order)
        sweep = out_of_order[("sweep", 1)]
        passed = sweep.done > len(entry_word(WRITHE_M2, r.entry).letters) - (r.entry.tail >= 1)
        assert audit(r.entry, out_of_order) == _timeless(r), r.entry.label()
        assert (out_of_order[("sweep", 1)] is not sweep) == passed
        fresh += passed
    assert fresh >= len(scanned) - 3


def test_the_sweep_does_the_pinned_work(monkeypatch):
    # one plain scan per scanned entry made 21 scans and 517 attaches
    counts = Counter()
    for name in ("__init__", "attach", "join"):
        step = getattr(scanning._Scan, name)

        def counted(self, *args, _step=step, _name=name, **kwargs):
            counts[_name] += 1
            return _step(self, *args, **kwargs)

        monkeypatch.setattr(scanning._Scan, name, counted)
    assert audit_family(WRITHE_M2, "writhe -2 unknot", max_level=1).ok()
    # level 0's sweep, one Lee scan at level 0, and level 1's sweep
    assert counts == {"__init__": 3, "attach": 57, "join": 53}


# every sweep the ladder benchmark builds
@pytest.mark.parametrize(
    "base, level, girth",
    [
        (UNKNOT, 0, 0), (UNKNOT, 1, 6), (UNKNOT, 2, 10), (WRITHE_M2, 0, 2), (WRITHE_M2, 1, 6),
        (MIRROR_TREFOIL, 0, 4), (MIRROR_TREFOIL, 1, 12),
    ],
    ids=[
        "unknot-0", "unknot-1", "unknot", "writhe-2-0", "writhe-2",
        "mirror-trefoil-0", "mirror-trefoil",
    ],
)
def test_the_sweep_keeps_the_plain_girth(base, level, girth):
    sweep = LevelSweep(base, level, khovanov(3))
    scanned, open_edges = set(), set()
    widths = [scanning._scan_past(sweep.D, cid, scanned, open_edges) for cid in sweep.order]
    longest, _ = induction.family_diagram(base, LadderEntry(0, level, 2 * level, 2 * level))
    assert max(widths, default=0) == scanning.scan_order(longest)[1] == girth


@pytest.mark.parametrize("base, level, girth", [(UNKNOT, 2, 10), (WRITHE_M2, 1, 6)], ids=["unknot", "writhe-2"])
def test_the_longest_fork_reaches_the_plain_girth(base, level, girth):
    e = LadderEntry(0, level, 2 * level, 2 * level)
    D, _ = induction.family_diagram(base, e)
    res = induction._sweep_scan(base, e, entry_word(base, e), D, {}, khovanov(3))
    assert res.girth == girth
