"""Bad user input raises ValueError, also when asserts are compiled out."""

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path
from random import Random

import pytest

from khovanov_cables.braids import (
    BraidWord, braid_closure, cable_word, count_inter_crossings, full_twist, random_braid, row_word,
)
from khovanov_cables.cabling import CableMeta, cable_of_braid, orientation_flips
from khovanov_cables.chain_algebra import HomologySpace, Matrix, ScalarComplex, product_is_zero, solve
from khovanov_cables.cobordism import cone_from_cube, cone_over_crossing
from khovanov_cables.cube import CubeComplex
from khovanov_cables.frobenius import Theory, khovanov, lee_deformation
from khovanov_cables.induction import (
    LadderEntry, audit_entry, audit_family, inclusion_report, ladder, reversal_span,
)
from khovanov_cables.invariants import determinant_from_dims
from khovanov_cables.lee import s_invariant
from khovanov_cables.pdcodes import read_pd, write_pd
from khovanov_cables.scanning import scan_complex

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": 4, "h": 2, "t": 3},
        {"p": 4},
        {"p": 3, "h": 3},
        {"p": 5, "h": 1, "t": 1},
    ],
)
def test_theory_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Theory(**kwargs)


def test_scan_rejects_orientations_naming_a_missing_component():
    # the closure of s1^3 is a knot: component 0 is its only one
    D = braid_closure(BraidWord(2, (1, 1, 1)))
    with pytest.raises(ValueError):
        scan_complex(D, khovanov(3), flips=frozenset({7}))
    with pytest.raises(ValueError):
        scan_complex(D, lee_deformation(3), orientations=[frozenset(), frozenset({5})])
    with pytest.raises(ValueError):
        s_invariant(D, frozenset({9}))
    assert s_invariant(D, frozenset({0})) == s_invariant(D)


# a knot: component 0 is its only one
TRIO = braid_closure(BraidWord(2, (1, 1, 1)))
TRIO_LEE = CubeComplex(TRIO, lee_deformation(3))
THREE_STRANDS = BraidWord(3, (1,))
# three components, pairwise linked
CHAIN = braid_closure(BraidWord(3, (1, 1, 2, 2)))
# generators 0 and 1 in h = 0, generator 2 in h = 1; d(1) = 2
EDGE = ScalarComplex(3)
for h in (0, 0, 1):
    EDGE.add_generator(h, 0)
EDGE.add_entry(1, 2, 1)
EDGE_H0 = HomologySpace(EDGE, 0)

# case id -> (callable name, args): each must raise ValueError, also under
# python -O; a dotted name is read attribute by attribute from this module.
# Each row keeps the id it was first collected under, so adding or dropping
# a row renames no other case; give a new row a new id.
BAD_INPUT = {
    "ladder-args0": ("ladder", (2, 1)),
    "ladder-args1": ("ladder", (0, -1)),
    "LadderEntry-args2": ("LadderEntry", (0, -1, 0, 0)),
    "LadderEntry-args3": ("LadderEntry", (0, 0, 1, 0)),
    "LadderEntry-args4": ("LadderEntry", (0, 1, 0, 3)),
    "LadderEntry-args5": ("LadderEntry", (0, 1, -1, 0)),
    "audit_family-args6": ("audit_family", (BraidWord(2, (1,)), "hopf", 0)),
    "inclusion_report-args8": ("inclusion_report", (BraidWord(1, ()), 0)),
    "Theory-args9": ("Theory", (4, 2, 3)),
    "BraidWord-args10": ("BraidWord", (2, (0, 5))),
    "scan_complex-args11": ("scan_complex", (TRIO, khovanov(3), frozenset(), None, 99)),
    "scan_complex-args12": ("scan_complex", (TRIO, khovanov(3), frozenset({7}))),
    "scan_complex-args13": ("scan_complex", (TRIO, lee_deformation(3), frozenset(), [frozenset({5})])),
    "s_invariant-args14": ("s_invariant", (TRIO, frozenset({9}))),
    "TRIO.writhe-args15": ("TRIO.writhe", (frozenset({7}),)),
    "CubeComplex-args16": ("CubeComplex", (TRIO, khovanov(3), frozenset({7}))),
    "TRIO_LEE.canonical_cycle-args17": ("TRIO_LEE.canonical_cycle", (frozenset({9}),)),
    "read_pd-args19": ("read_pd", ("PD[X[1,2,3], X[3,2,1]]",)),
    "orientation_flips-args20": ("orientation_flips", (CableMeta((0, 1, 0)), {7})),
    "count_inter_crossings-args21": ("count_inter_crossings", (BraidWord(3, (1, 2)), {5})),
    "write_pd-args22": ("write_pd", (TRIO.with_free_loop(),)),
    "cable_of_braid-args26": ("cable_of_braid", (BraidWord(2, (1, 1)), 0, BraidWord(2, (1,)))),
    "cone_over_crossing-args27": ("cone_over_crossing", (TRIO, khovanov(3), 99)),
    "cone_from_cube-args28": ("cone_from_cube", (TRIO, khovanov(3), 99)),
    "THREE_STRANDS.__mul__-args30": ("THREE_STRANDS.__mul__", (BraidWord(2, (1,)),)),
    "row_word-args31": ("row_word", (1, -1, 0)),
    "row_word-args32": ("row_word", (1, 0, 3)),
    "row_word-args33": ("row_word", (1, 0, -1)),
    "row_word-args34": ("row_word", (-1, 0, 0)),
    "TRIO.add_kink-args35": ("TRIO.add_kink", (min(TRIO.edges), 2)),
    "scan_complex-degrees-not-a-pair": ("scan_complex", (TRIO, lee_deformation(3), frozenset(), None, None, (0,))),
    "scan_complex-degrees-not-ints": ("scan_complex", (TRIO, lee_deformation(3), frozenset(), None, None, (0, 1.5))),
    "scan_complex-degrees-lo-above-hi": ("scan_complex", (TRIO, lee_deformation(3), frozenset(), None, None, (1, -1))),
    "Matrix-ragged-row": ("Matrix", ([[1, 2], [3]], 2)),
    "solve-row-counts-differ": ("solve", (Matrix([[1]], 1), Matrix([[1], [0]], 1), 3)),
    "product_is_zero-inner-sizes-differ": ("product_is_zero", (Matrix([[1, 1]], 2), Matrix([[1]], 1), 3)),
    "determinant_from_dims-even-grading": ("determinant_from_dims", ({(0, 0): 2},)),
    "determinant_from_dims-not-divisible": ("determinant_from_dims", ({(0, 1): 1, (0, -1): 1, (2, 5): 1},)),
    "reversal_span-strands-above-width": ("reversal_span", (1, 7)),
    "cable_word-width-zero": ("cable_word", (BraidWord(2, (1,)), 0)),
    "full_twist-no-strands": ("full_twist", (0,)),
    "full_twist-negative-strands": ("full_twist", (-3,)),
    "random_braid-no-strands": ("random_braid", (Random(0), 0, 3)),
    "random_braid-negative-length": ("random_braid", (Random(0), 3, -1)),
    "audit_family-companion-not-a-knot": ("audit_family", (BraidWord(2, (-1, -1)), "hopf", 0)),
    "audit_entry-companion-not-a-knot": ("audit_entry", (BraidWord(2, (-1, -1)), LadderEntry(-2, 0, 0, 0), -2, 60, 12, {})),
    "audit_entry-writhe-not-the-companions": ("audit_entry", (BraidWord(3, (-1, -2)), LadderEntry(0, 1, 0, 1), 0, 60, 12, {})),
    "audit_entry-framing-below-writhe": ("audit_entry", (BraidWord(3, (-1, -2)), LadderEntry(-3, 0, 0, 0), -2, 60, 12, {})),
    "audit_entry-framing-above-zero": ("audit_entry", (BraidWord(3, (-1, -2)), LadderEntry(1, 0, 0, 0), -2, 60, 12, {})),
    "read_pd-not-planar": ("read_pd", ("PD[X[1,1,2,3], X[4,2,4,3]]",)),
    "CHAIN.linking_number-sets-overlap": ("CHAIN.linking_number", ({0}, {0})),
    "CHAIN.linking_number-missing-component": ("CHAIN.linking_number", ({0}, {7})),
    "EDGE.filtration_level-not-a-cycle": ("EDGE.filtration_level", ({1: 1},)),
    "EDGE.filtration_level-not-h-homogeneous": ("EDGE.filtration_level", ({0: 1, 2: 1},)),
    "EDGE_H0.coords-not-a-cycle": ("EDGE_H0.coords", ([{1: 1}],)),
    "EDGE_H0.coords-support-outside-degree": ("EDGE_H0.coords", ([{2: 1}],)),
    "EDGE_H0.coords-support-partly-outside-degree": ("EDGE_H0.coords", ([{0: 1, 2: 1}],)),
    "TRIO.add_kink-missing-edge": ("TRIO.add_kink", (max(TRIO.edges) + 1, 1)),
    "ScalarComplex-modulus-one": ("ScalarComplex", (1,)),
    "read_pd-no-crossings": ("read_pd", ("PD[]",)),
    "read_pd-direction-clash": ("read_pd", ("PD[X[1,1,2,3], X[3,2,4,4]]",)),
}


def call(name, args):
    head, *attrs = name.split(".")
    return reduce(getattr, attrs, globals()[head])(*args)


@pytest.mark.parametrize("name, args", list(BAD_INPUT.values()), ids=list(BAD_INPUT))
def test_harness_rejects_bad_input(name, args):
    with pytest.raises(ValueError):
        call(name, args)


@pytest.mark.parametrize(
    "name, args",
    [row for row in BAD_INPUT.values() if row[0] in ("cone_over_crossing", "cone_from_cube")],
)
def test_cone_builders_name_a_missing_crossing(name, args):
    with pytest.raises(ValueError, match="crossing 99 "):
        call(name, args)


def test_rejections_survive_optimized_mode():
    script = "\n".join(
        [
            "from test_validation import BAD_INPUT, call",
            "for name, args in BAD_INPUT.values():",
            "    try:",
            "        call(name, args)",
            "    except ValueError:",
            "        continue",
            "    raise SystemExit(f'accepted bad input: {name}{args}')",
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    env.pop("PYTHONOPTIMIZE", None)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
