"""The calibration tool still runs against the package: its replay reads
the tree's books, and nothing else exercises it."""

import pathlib
import runpy

from layerws.constants import load_constants
from layerws.workload import GeneratorSpec, generate

CALIBRATE = pathlib.Path(__file__).parent.parent / "tools" / "calibrate.py"


def test_calibrate_replays_a_small_matrix_cell():
    tool = runpy.run_path(str(CALIBRATE))
    const = load_constants()
    search, update = tool["replay_costs"](generate(GeneratorSpec("uniform", 60, 600, 7)))
    assert 0 < search <= const["search_per_lgw"]
    assert 0 < update <= const["update_per_lgn"]

    tree, keys = tool["skip_accesses"](2, 42, 40)
    assert tree.n == 3 and len(keys) == 40
    assert all(1 <= k <= tree.n for k in keys)
    assert all(tree.access(k) > 0 for k in keys)
    assert not tree.validate()
