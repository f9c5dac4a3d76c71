"""The tools still run against the package: the calibration replay reads
the tree's books, the opcode count traces its inserts, searches and
deletes and doubled skip-splay accesses, and nothing else exercises
either."""

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


OPCOUNT = pathlib.Path(__file__).parent.parent / "tools" / "opcount.py"


def test_opcount_repeats_and_its_parts_sum_to_the_total(capsys):
    tool = runpy.run_path(str(OPCOUNT))
    first = tool["profile"](300, 200, 100, 1)
    assert first == tool["profile"](300, 200, 100, 1)
    for ops, by_name, total in first.values():
        assert total > 0 and sum(by_name.values()) == total
    assert [(kind, ops) for kind, (ops, _, _) in first.items()] == [
        ("insert", 100), ("search", 200), ("delete", 100), ("access", 200)]

    assert tool["main"](["--n", "300", "--searches", "200", "--inserts", "100"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header[-4:] == ["insert", "search", "delete", "access"]
    *parts, (_, *total) = rows
    assert len(total) == 4
    for col, want in enumerate(total, start=1):
        assert abs(sum(float(r[col]) for r in parts) - float(want)) < 0.05 * len(parts)
