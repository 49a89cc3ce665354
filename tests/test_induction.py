"""The ladder harness: entry bookkeeping, smoothing counts, a small audit."""

import random

import pytest

from khovanov_cables.braids import BraidWord, braid_closure, random_braid
from khovanov_cables.induction import (
    audit_family,
    duplicate_partner,
    entry_word,
    inclusion_report,
    ladder,
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
def test_unknot_slice_drop_is_verified(level):
    report = slice_drop_report(UNKNOT, "unknot", level)
    assert report.status == "verified", report
    assert report.s_companion == 0
    assert report.s_cable == report.expected == -2 * level
