"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here rather than break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module_name,path", [(t[0], t[1]) for t in TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in TARGETS])
def test_tracer_target_resolves(module_name, path):
    module = importlib.import_module("layerws." + module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    # the tracer swaps the entry in the owner's own namespace
    assert attr in vars(owner), f"layerws.{module_name} has no {path}"
    assert callable(vars(owner)[attr])
