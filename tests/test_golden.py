"""Golden digests of the command's per-operation CSV and JSON summary.

Each cell runs ``layerws --structure lws --verify-every 1`` on a generated
trace and pins both output files with two digests:

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

import pytest

from layerws.cli import main

COST_FIELDS = ("amortized_ratio", "max_cost", "max_cost_over_lgw", "mean_cost")

# (family, universe, ops, seed) -> (behaviour sha256, cost sha256)
GOLDEN = {
    ("uniform", 300, 1500, 3): (
        "ae41f1c1f5ff23611d963e4d2d08489d45d192bf85d2c6c4d314d55391b7fa7b",
        "9d265bd965832d526c394d33a5e15f0f1f0a7ea8a5195dcd2f308be888885151"),
    ("uniform", 40, 1500, 11): (
        "0ae75ef02c2d90c857cbf681bce9bb342991e72b11594a7eb1cba22d53415f0d",
        "b9274c640366e3b0502b22ae6b845b62520a6d00e2f59549384152f94768a283"),
    ("zipf_recency", 200, 1500, 5): (
        "5a69a62fecee02a1a6e054c7cad3c53922b3599ee8cd41cad2c51184f76d82ac",
        "943acb44d9f892b74af1719be00a069eee551df11d96d1aec5b4e1952d7b62be"),
    ("finger_walk", 250, 1200, 7): (
        "6897e05eab13142e3f12925a79f0027d8f84ccf7e12af50f8621956d0dadf63a",
        "bf9e418abda797e40626437f6b6a188148378a286ea52706235d6b997a6e1a43"),
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


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_cli_outputs_match_golden_digests(cell, tmp_path, capsys):
    family, n, ops, seed = cell
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
    code = main(["--structure", "lws", "--gen", family, "--n", str(n),
                 "--ops", str(ops), "--seed", str(seed), "--verify-every", "1",
                 "--csv", str(csv_path), "--json", str(json_path)])
    capsys.readouterr()
    assert code == 0
    csv_behaviour, csv_cost = _split_csv(csv_path.read_bytes().decode("ascii"))
    json_behaviour, json_cost = _split_json(json_path.read_bytes().decode("ascii"))
    behaviour, cost = GOLDEN[cell]
    assert _sha(csv_behaviour, json_behaviour) == behaviour, "behaviour changed"
    assert _sha(csv_cost, json_cost) == cost, "costs changed"
