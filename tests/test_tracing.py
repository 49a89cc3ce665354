"""The benchmark tracer wraps callables by name: every name must resolve."""

import importlib.util
import sys
from pathlib import Path

# every module the tracer patches, loaded before the bindings are recorded
from khovanov_cables import cabling, chain_algebra, cobordism, induction, lee, scanning  # noqa: F401
from khovanov_cables.braids import BraidWord, braid_closure
from khovanov_cables.cube import CubeComplex
from khovanov_cables.frobenius import lee_deformation

TRACING = Path(__file__).resolve().parents[1] / "khbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("khbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict:
    """Every attribute of every package module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("khovanov_cables"):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                for attr, member in vars(val).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_resolves_and_restores_every_name():
    tracing = load_tracing()
    before = package_bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert set(tracing.SELF_TIMES) | set(tracing.CALL_COUNTS) <= set(tracer.stats)
        assert tracer._undo
        for owner, key, orig in tracer._undo:
            assert getattr(owner, key) is not orig, key
        cube = CubeComplex(braid_closure(BraidWord(2, (1, 1, 1))), lee_deformation(3))
        chain_algebra.HomologySpace(cube.cx, 0)
        cube.cx.filtration_level(cube.canonical_cycle())
        for name in ("homology_space", "row_reduce", "filtration_level"):
            assert tracer.stats[f"chain_algebra.{name}"][0] > 0, name
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_split_and_tracked_scan_counts_its_sizes():
    # the tracer reads the scan object's gens and d after each attach
    tracing = load_tracing()
    tracer = tracing.Tracer()
    D = braid_closure(BraidWord(3, (1, -2, 1, -2, 1)))
    try:
        tracing.install(tracer)
        scanning.scan_complex(
            D, lee_deformation(3), orientations=[frozenset()], split_at=max(D.crossings)
        )
    finally:
        tracer.uninstall()
    for name in ("peak_gens", "peak_entries", "final_gens"):
        assert tracer.counts.get(f"scanning.{name}", 0) > 0, name
    assert tracer.stats["scanning.attach"][0] == len(D.crossings)
