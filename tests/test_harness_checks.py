"""Every problem report of the ladder harness fires under one injected fault.

Each case patches one helper that a check reads through `induction`'s
namespace, or corrupts one `tables` entry, for the length of one test;
it asserts the exact problem texts and the record's flag for the check.
"""

import dataclasses
from functools import reduce

import pytest

from khovanov_cables import induction
from khovanov_cables.braids import BraidWord
from khovanov_cables.induction import (
    LEE_SCAN_LIMIT,
    LadderEntry,
    audit_entry,
    audit_family,
    inclusion_report,
    slice_drop_report,
)

UNKNOT = BraidWord(1, ())
MERGE = LadderEntry(0, 1, 1, 1)  # triangle case "merge", degree 2, 3 crossings
TWIST = LadderEntry(0, 1, 2, 2)  # the full twist of level 1, degree 0
BARE = LadderEntry(0, 1, 0, 0)  # three parallel strands, no crossing


@pytest.fixture(scope="module")
def family_tables():
    """The unknot's level 0 and 1 tables, every record free of problems."""
    tables: dict = {}
    assert audit_family(UNKNOT, "unknot", max_level=1, tables=tables).ok()
    assert not {"members", ("sweep", 0), ("sweep", 1)} & tables.keys()
    return tables


def audit(e, tables):
    return audit_entry(UNKNOT, e, 0, 60, LEE_SCAN_LIMIT, dict(tables))


def patch(name, value):
    """A fault that sets induction.name to value."""
    return lambda mp, tables: mp.setattr(induction, name, value)


def wrap(name, edit):
    """A fault that passes each result of induction.name, with the call's
    arguments, through edit."""

    def fault(mp, tables):
        real = getattr(induction, name)
        mp.setattr(induction, name, lambda *args: edit(real(*args), *args))

    return fault


def corrupt(e):
    """A fault that replaces e's homology in tables by one class no member
    has."""
    return lambda mp, tables: {**tables, e: {**tables[e], "table": {(99, 0): 1}}}


def triangle(**changes):
    """Each named TriangleFacts field replaced by a function of the facts."""
    return wrap(
        "triangle_facts",
        lambda tri, *args: dataclasses.replace(tri, **{k: f(tri) for k, f in changes.items()}),
    )


def same_degree(d):
    return triangle(degrees_by_counts=lambda t: d, degrees_by_gradings=lambda t: d)


def member(target, edit):
    """target's diagram edited; every other member stays real."""
    return wrap(
        "family_diagram", lambda built, base, e: (edit(built[0]), built[1]) if e == target else built
    )


def linking_of(target, by):
    def edit(D):
        real = D.linking_number
        D.linking_number = lambda a, b, flips=frozenset(): real(a, b, flips) + by
        return D

    return member(target, edit)


def scan_gains(h):
    """The scan gains one generator in degree h, with no differential."""

    def edit(res, *args):
        res.complex.add_generator(h, 0)
        return res

    return wrap("_sweep_scan", edit)


def lose_sub_block(cone, *args):
    """The split cone's 1-side block comes out empty."""
    cone.sub_complex = lambda: cone.cx.restrict(set())
    return cone


MOVED = "f=0 level=1 rows=1 tail=1 strands {}: linking {} + moved 2 != {}"
TWISTED = "f=0 level=1 rows=1 tail=1 strands {}: twist linking {} != 4"
ABOVE = "f=0 level=1 rows=1 tail=1 strands {}: twist linking {} above span 4"

# case id -> (entry, whether the family's tables are known, fault, the
# problems it must raise, (record field, value)); a fault takes the
# monkeypatch and the tables, and may return other tables to audit with
ENTRY_FAULTS = {
    "duplicate-not-word-equal": (
        LadderEntry(0, 1, 0, 1), True,
        patch("duplicate_partner", lambda e, w: BARE),
        ("duplicate of f=0 level=1 rows=0 tail=0 is not word-equal",),
        ("status", "duplicate"),
    ),
    "crossing-count": (
        MERGE, False,
        member(MERGE, lambda D: D.add_kink(min(D.edges), 1)),
        ("diagram has 4 crossings, word 3",),
        ("crossings", 3),
    ),
    "triangle-disagrees": (
        MERGE, True,
        triangle(degrees_by_gradings=lambda t: tuple(d + 1 for d in t.degrees_by_gradings)),
        ("triangle degree disagrees: counts (2,), gradings (3,)",),
        ("degree_by_blocks", 2),
    ),
    "triangle-negative": (
        TWIST, False,
        same_degree((-1, -1)),
        ("triangle degree -1 negative",),
        ("block_certified", None),
    ),
    "triangle-not-positive-below-twist": (
        MERGE, False,
        same_degree((0,)),
        ("triangle degree 0 not positive below the full twist",),
        ("block_certified", None),
    ),
    "split-at-full-twist": (
        TWIST, True,
        triangle(case=lambda t: "split"),
        ("split case reached a full-twist pattern",),
        ("block_certified", True),
    ),
    "block-unmatched": (
        MERGE, True,
        corrupt(LadderEntry(0, 0, 0, 0)),
        ("resolved block does not match a smaller member",),
        ("block_certified", False),
    ),
    "block-ambiguous": (
        MERGE, True,
        patch("_block_degrees", lambda *args: {1, 2}),
        ("resolved block degree ambiguous: {1, 2}",),
        ("block_certified", False),
    ),
    "block-against-triangle": (
        MERGE, True,
        patch("_block_degrees", lambda *args: {7}),
        ("block degree 7 != 2",),
        ("degree_by_blocks", 7),
    ),
    "kept-block": (
        MERGE, True,
        corrupt(LadderEntry(0, 1, 1, 0)),
        ("kept block does not match the shorter tail",),
        ("quotient_certified", False),
    ),
    "block-bound": (
        MERGE, False,
        wrap("split_cone", lose_sub_block),
        ("degree 2: total 2 above block bound 0",),
        ("block_certified", None),
    ),
    "vanishing": (
        BARE, True,
        scan_gains(5),
        ("homology in degree 5 above top 4",),
        ("vanishing_ok", False),
    ),
    "top-match": (
        BARE, True,
        scan_gains(4),
        ("top degree dimension 1 != census 0",),
        ("top_match_ok", False),
    ),
    "lee-scan": (
        BARE, True,
        patch("lee_homology_dims", lambda D: {}),
        ("deformed scan disagrees with the writhe census",),
        ("lee_scan_ok", False),
    ),
    # linking_checks: the entry's sublinks are strands [0, 2] and [1]; each
    # has doubled linking 2 in the entry's diagram and 4 in the full twist,
    # 2 crossings moved between them
    "linking-moved": (
        MERGE, False,
        linking_of(MERGE, 1),
        (MOVED.format([0, 2], 4, 4), MOVED.format([1], 4, 4)),
        ("triangle.degree", 2),
    ),
    "twist-linking": (
        MERGE, False,
        linking_of(TWIST, -1),
        tuple(
            text
            for strands in ([0, 2], [1])
            for text in (MOVED.format(strands, 2, 2), TWISTED.format(strands, 2))
        ),
        ("triangle.degree", 2),
    ),
    "twist-linking-above-span": (
        MERGE, False,
        linking_of(TWIST, 5),
        tuple(
            text
            for strands in ([0, 2], [1])
            for text in (
                MOVED.format(strands, 2, 14), TWISTED.format(strands, 14), ABOVE.format(strands, 14),
            )
        ),
        ("triangle.degree", 2),
    ),
}


@pytest.mark.parametrize(
    "e, known, fault, problems, flag", list(ENTRY_FAULTS.values()), ids=list(ENTRY_FAULTS)
)
def test_each_entry_check_fires(family_tables, monkeypatch, e, known, fault, problems, flag):
    tables = family_tables if known else {}
    tables = fault(monkeypatch, tables) or tables
    rec = audit(e, tables)
    assert rec.problems == problems
    name, want = flag
    assert reduce(getattr, name.split("."), rec) == want


def test_an_entry_with_no_smaller_level_leaves_its_block_uncertified(family_tables):
    # with no level m - 1 table there is nothing to match the resolved
    # block against; the shorter tail's table still certifies the kept one
    tables = {k: v for k, v in family_tables.items() if k.level == 1}
    rec = audit(MERGE, tables)
    assert rec.problems == ()
    assert rec.block_certified is None and rec.degree_by_blocks is None
    assert rec.quotient_certified is True


# case id -> (fault, the problems it must raise, (report field, value))
INCLUSION_FAULTS = {
    "rank": (
        patch("rank", lambda mat, p: 0),
        ("inclusion rank 0 below block dimension 4",),
        ("injective", False),
    ),
    "block-unmatched": (
        # the right top dimension in a table of the wrong shape
        patch("homology_table", lambda D, th: {(0, 0): 2}),
        ("resolved block does not match the smaller member",),
        ("block_certified", False),
    ),
    "degree": (
        patch("_block_degrees", lambda *args: {3}),
        ("inclusion sits in degree 3, not 0",),
        ("degree", 3),
    ),
    "block-dimension": (
        patch("_table_top", lambda dims, h: 3),
        ("block dimension 4 != smaller member's top 6", "smaller member's top degree misses its census"),
        ("small_top_dim", 6),
    ),
    "census": (
        patch("orientation_census", lambda D: {}),
        ("smaller member's top degree misses its census",),
        ("small_census_top", 0),
    ),
}


@pytest.mark.parametrize(
    "fault, problems, flag", list(INCLUSION_FAULTS.values()), ids=list(INCLUSION_FAULTS)
)
def test_each_inclusion_check_fires(monkeypatch, fault, problems, flag):
    fault(monkeypatch, None)
    report = inclusion_report(UNKNOT, 1)
    assert report.problems == problems
    assert getattr(report, flag[0]) == flag[1]


def test_a_slice_drop_over_budget_is_skipped():
    report = slice_drop_report(BraidWord(2, (-1, -1, -1)), "mirror trefoil", 1, budget=50)
    assert (report.status, report.crossings) == ("skipped", 51)
    assert report.s_companion is report.s_cable is report.expected is None
    assert report.ok()
