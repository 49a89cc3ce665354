"""The ladder harness: entry bookkeeping, smoothing counts, a small audit."""

import random
from collections import Counter

import pytest

from khovanov_cables import cobordism, induction, scanning
from khovanov_cables.braids import BraidWord, braid_closure, random_braid, row_word
from khovanov_cables.induction import (
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


def test_smoothed_component_count_matches_resolution():
    rng = random.Random(2207)
    compared = 0
    for _ in range(40):
        w = random_braid(rng, rng.randint(2, 4), rng.randint(1, 7))
        D = braid_closure(w)
        for cid in D.crossings:
            for r in (0, 1):
                try:
                    R, _ = D.resolve_crossing(cid, r)
                except NotImplementedError:
                    continue
                assert smoothed_component_count(D, cid, r) == len(
                    R.components()
                ), (w.letters, cid, r)
                compared += 1
    assert compared > 200


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
            assert r.top_dim == induction._table_top(tables[r.entry]["table"], top)


@pytest.mark.parametrize("level", [1, 2])
def test_unknot_slice_drop_is_verified(level):
    report = slice_drop_report(UNKNOT, "unknot", level)
    assert report.status == "verified", report
    assert report.s_companion == 0
    assert report.s_cable == report.expected == -2 * level


def test_audit_entry_builds_each_member_once(monkeypatch):
    builds = []
    build = induction.cable_family_diagram

    def counted(base, f, m, a=0, i=0):
        builds.append((f, m, a, i))
        return build(base, f, m, a, i)

    def check(rec):
        if rec.entry.level == 1 and rec.entry.tail >= 1:
            # the entry, its shorter tail and the full twist
            assert 2 <= len(builds) <= 3, (rec.entry.label(), builds)
        assert len(builds) == len(set(builds)), (rec.entry.label(), builds)
        builds.clear()

    monkeypatch.setattr(induction, "cable_family_diagram", counted)
    report = audit_family(UNKNOT, "unknot", max_level=1, progress=check)
    assert report.ok(), report.problems()


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
