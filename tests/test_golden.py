"""Golden digests of the command's per-operation CSV and JSON summary.

Each cell runs ``layerws --verify-every 1`` on one trace and pins both
output files with two digests:

- a *behaviour* digest: the CSV without its ``cost`` column and the JSON
  without the fields computed from costs (``COST_FIELDS``);
- a *cost* digest: exactly the parts the behaviour digest leaves out.

Together they cover every byte of both files.  A refactor of the tree, the
oracle, the trackers or the validators must leave both unchanged; a change
that only makes operations cheaper or dearer moves the cost digests and
nothing else; any other change to the output has to say so by updating the
behaviour digests here.
"""

import hashlib
import subprocess
import sys

import pytest

from layerws.cli import main
from layerws.workload import SEARCH, GeneratorSpec, generate, serialize

COST_FIELDS = ("amortized_ratio", "max_cost", "max_cost_over_lgw", "mean_cost")

# ``--structure lws`` on a generated trace:
# (family, universe, ops, seed) -> (behaviour sha256, cost sha256)
GOLDEN = {
    ("uniform", 300, 1500, 3): (
        "ae41f1c1f5ff23611d963e4d2d08489d45d192bf85d2c6c4d314d55391b7fa7b",
        "155bba47bf6ce4ae0f28a7a905a959037294b57d28bd5b91ebf2134b4b496f6c"),
    ("uniform", 40, 1500, 11): (
        "0ae75ef02c2d90c857cbf681bce9bb342991e72b11594a7eb1cba22d53415f0d",
        "a3499fb565bf8ec6794bb91e3410f32c91462dbc07a69c639b3f9e21123a916b"),
    ("zipf_recency", 200, 1500, 5): (
        "5a69a62fecee02a1a6e054c7cad3c53922b3599ee8cd41cad2c51184f76d82ac",
        "f438aedd4d14641a7c1f59bfd9ae890739da549a25db3a00787a9c2e2d72d777"),
    ("finger_walk", 250, 1200, 7): (
        "6897e05eab13142e3f12925a79f0027d8f84ccf7e12af50f8621956d0dadf63a",
        "914df3f6c9d05706a6629ee785d3ec4a8a1f6b2c8c7c1b1b98a6e7fae3492bb2"),
    # the one cell whose tree reaches layer 4: it pins the layer-4 pushes,
    # splits and refills (609 layer-4 hits among inserts and deletes)
    ("uniform", 2000, 6000, 13): (
        "20bc117f631ca68a4810a487634cc32534d81aad2058e1d2209c091993f04892",
        "0cbafef8009aec9a1dcb6e76a3e749caba09b154f03c8e0c73f3a10fdc186626"),
}


def _split_csv(text: str) -> tuple[str, str]:
    """(every row without its cost field, the cost fields one per row)."""
    rows = [line.split(",") for line in text.split("\n")]
    col = rows[0].index("cost")
    behaviour = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)
    cost = "\n".join(r[col] for r in rows if len(r) > col)
    return behaviour, cost


def _split_json(text: str) -> tuple[str, str]:
    """(the summary with the values of the cost-derived fields cut out,
    those values one per line).

    The summary is written with ``indent=2``, so every top-level field is
    one line opening with two spaces and a quote; its key stays in the
    behaviour part so the two parts still fix every byte's position."""
    behaviour, cost = [], []
    for line in text.split("\n"):
        if line.startswith('  "') and line.split('"')[1] in COST_FIELDS:
            key, sep, value = line.partition(": ")
            line = key + sep
            cost.append(value)
        behaviour.append(line)
    return "\n".join(behaviour), "\n".join(cost)


def _sha(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode("ascii")).hexdigest()


def _outputs(tmp_path) -> tuple[list[str], tuple]:
    """The command's verification and output flags, and the two paths."""
    paths = tmp_path / "rows.csv", tmp_path / "summary.json"
    return ["--verify-every", "1", "--csv", str(paths[0]), "--json", str(paths[1])], paths


def _digests(argv: list[str], tmp_path, capsys) -> tuple[str, str]:
    flags, paths = _outputs(tmp_path)
    code = main(argv + flags)
    capsys.readouterr()
    assert code == 0
    return _file_digests(*paths)


def _file_digests(csv_path, json_path) -> tuple[str, str]:
    csv_behaviour, csv_cost = _split_csv(csv_path.read_bytes().decode("ascii"))
    json_behaviour, json_cost = _split_json(json_path.read_bytes().decode("ascii"))
    return _sha(csv_behaviour, json_behaviour), _sha(csv_cost, json_cost)


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_cli_outputs_match_golden_digests(cell, tmp_path, capsys):
    family, n, ops, seed = cell
    behaviour, cost = _digests(["--structure", "lws", "--gen", family, "--n", str(n),
                                "--ops", str(ops), "--seed", str(seed)], tmp_path, capsys)
    assert behaviour == GOLDEN[cell][0], "behaviour changed"
    assert cost == GOLDEN[cell][1], "costs changed"


def test_golden_cell_under_python_O(tmp_path):
    """``python -O`` strips every assert; a golden cell of the plain tree
    and one of the band searches still write the same bytes, so no assert
    carries behaviour on either path."""
    family, n, ops, seed = cell = ("uniform", 40, 1500, 11)
    doubled, *doubled_golden = OTHER_GOLDEN["skip_splay_doubled"]
    for argv, golden in (
            (["--structure", "lws", "--gen", family, "--n", str(n), "--ops", str(ops),
              "--seed", str(seed)], GOLDEN[cell]),
            (["--structure", "skip_splay_doubled"] + doubled(tmp_path), tuple(doubled_golden))):
        flags, paths = _outputs(tmp_path)
        proc = subprocess.run([sys.executable, "-O", "-m", "layerws.cli"] + argv + flags,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert _file_digests(*paths) == golden, argv[1]


def _band_searches(path) -> str:
    """The searches of a width-4 ``repeat_block`` trace over the k = 4
    skip-splay universe, written as a trace file: band searches that stop
    at band edges and layer moves inside the bands."""
    spec = GeneratorSpec("repeat_block", 255, 255 + 1500, seed=9, width=4)
    path.write_text(serialize([op for op in generate(spec) if op.kind == SEARCH]),
                    encoding="ascii")
    return str(path)


# the other structures: structure -> (command-line source, behaviour sha256, cost sha256)
OTHER_GOLDEN = {
    # a uniform trace deletes, so it runs RedBlackBaseline.delete and its fixups
    "redblack_baseline": (
        lambda tmp_path: ["--gen", "uniform", "--n", "300", "--ops", "1500", "--seed", "3"],
        "ebc3b640e8f04816d39a0cb103ec4bc2730c5a2e08dc855004aa231d42425f1f",
        "c5354a21cb9611c58a094d14df10fd3f726dfaa20522e88a26ea43d5cea83f61"),
    # the only cell whose CSV carries the skip_per_lgn bound
    "skip_splay": (
        lambda tmp_path: ["--trace", _band_searches(tmp_path / "searches.txt")],
        "d52082eed6df94ee20ad811e0297c4753755d12fab9cba6ebeac32cfc2854eb5",
        "cdcb23afefa58c3d0376ab85c24eab46992501a4bbc36917fc49005ffd06ff7a"),
    "skip_splay_doubled": (
        lambda tmp_path: ["--trace", _band_searches(tmp_path / "searches.txt")],
        "376d517618be40ab6e528d24777bd76edfa7498795dd3ec6a2263f4767fd1909",
        "02af0387d1c86d9019cbe7a0494eb3e3c2a526a51f02ab1923bc411b41635efe"),
    "ws_reference": (
        lambda tmp_path: ["--gen", "uniform", "--n", "300", "--ops", "1500", "--seed", "3"],
        "a4252fd3b33c8590ab09e5d4f8c4a54f4c139ca82809a6f6f627d177cb6fc771",
        "87a9faf59a7f195273e3c07a4ad6203ae3e0f9d666968c25a0f57bbedde39be7"),
}


@pytest.mark.parametrize("structure", sorted(OTHER_GOLDEN))
def test_other_structures_match_golden_digests(structure, tmp_path, capsys):
    source, *golden = OTHER_GOLDEN[structure]
    behaviour, cost = _digests(["--structure", structure] + source(tmp_path), tmp_path, capsys)
    assert behaviour == golden[0], "behaviour changed"
    assert cost == golden[1], "costs changed"
