"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here rather than break ``perfbench/run.py --trace 1``,
and a call that bypasses the wrapped name (a local or default-argument
alias) must fail here rather than quietly zero a per-layer count."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from layerws.layered_tree import LayeredTree
from layerws.workload import GeneratorSpec, generate

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("module_name,path", [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_tracer_target_resolves(module_name, path):
    module = importlib.import_module("layerws." + module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # the tracer swaps the entry in the owner's own namespace
    assert attr in vars(owner), f"layerws.{module_name} has no {path}"
    assert callable(vars(owner)[attr])


def test_tracer_counts_the_balance_steps():
    """A zipf preload and its searches, then a mixed trace with deletes:
    the traced call counts of the balance steps, as the tree makes them."""
    tracer = load_tracer().Tracer()
    tracer.install()
    tracer.set_phase("run")
    try:
        for spec in (GeneratorSpec("zipf_recency", 300, 900, seed=1),
                     GeneratorSpec("uniform", 200, 1500, seed=3)):
            tree = LayeredTree()
            run = {"I": tree.insert, "S": tree.search, "D": tree.delete}
            for op in generate(spec):
                run[op.kind](op.key)
    finally:
        tracer.set_phase(None)
        tracer.uninstall()
    calls = tracer.records["run"]["calls"]
    assert {name: calls.get(name, 0) for name in
            ("split", "join_at", "insert_fixup", "delete_fixup", "Engine.rotate")} == {
        "split": 3986, "join_at": 3559, "insert_fixup": 8343, "delete_fixup": 1422,
        "Engine.rotate": 3716}
