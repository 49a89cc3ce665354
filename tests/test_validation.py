"""Bad user input raises ValueError, also when asserts are compiled out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from khovanov_cables.braids import BraidWord, braid_closure
from khovanov_cables.frobenius import Theory, khovanov, lee_deformation
from khovanov_cables.induction import LadderEntry, audit_family, inclusion_report, ladder
from khovanov_cables.lee import s_invariant
from khovanov_cables.scanning import scan_complex

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_scan_rejects_an_order_missing_a_crossing():
    D = braid_closure(BraidWord(2, (1, 1, 1)))
    with pytest.raises(ValueError):
        scan_complex(D, khovanov(3), order=[0, 1])
    with pytest.raises(ValueError):
        scan_complex(D, khovanov(3), order=[0, 1, 1, 2])


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


# (callable name, args): each must raise ValueError
BAD_HARNESS_INPUT = [
    ("ladder", (2, 1)),
    ("ladder", (0, -1)),
    ("LadderEntry", (0, -1, 0, 0)),
    ("LadderEntry", (0, 0, 1, 0)),
    ("LadderEntry", (0, 1, 0, 3)),
    ("LadderEntry", (0, 1, -1, 0)),
    ("audit_family", (BraidWord(2, (1,)), "hopf", None, 0)),
    ("audit_family", (BraidWord(2, (-1, -1, -1)), "trefoil", -2, 0)),
    ("inclusion_report", (BraidWord(1, ()), 0)),
]


@pytest.mark.parametrize("name, args", BAD_HARNESS_INPUT)
def test_harness_rejects_bad_input(name, args):
    with pytest.raises(ValueError):
        globals()[name](*args)


def test_rejections_survive_optimized_mode():
    script = "\n".join(
        [
            "from khovanov_cables.braids import BraidWord, braid_closure",
            "from khovanov_cables.frobenius import Theory, khovanov, lee_deformation",
            "from khovanov_cables.induction import LadderEntry, audit_family, inclusion_report, ladder",
            "from khovanov_cables.lee import s_invariant",
            "from khovanov_cables.scanning import scan_complex",
            "D = braid_closure(BraidWord(2, (1, 1, 1)))",
            f"harness = {BAD_HARNESS_INPUT!r}",
            "for make in (",
            "    lambda: Theory(p=4, h=2, t=3),",
            "    lambda: BraidWord(2, (0, 5)),",
            "    lambda: scan_complex(D, khovanov(3), order=[0, 1]),",
            "    lambda: scan_complex(D, khovanov(3), flips=frozenset({7})),",
            "    lambda: scan_complex(D, lee_deformation(3), orientations=[frozenset({5})]),",
            "    lambda: s_invariant(D, frozenset({9})),",
            "    *[lambda name=name, args=args: globals()[name](*args) for name, args in harness],",
            "):",
            "    try:",
            "        make()",
            "    except ValueError:",
            "        continue",
            "    raise SystemExit('accepted bad input')",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
