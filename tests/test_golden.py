"""Golden digests of the command's per-operation CSV and JSON summary.

Each cell runs ``layerws --structure lws --verify-every 1`` on a generated
trace and hashes both output files.  A refactor of the tree, the oracle,
the trackers or the validators must leave every byte of both files
unchanged; a change that is meant to alter the output has to say so by
updating the digests here.
"""

import hashlib

import pytest

from layerws.cli import main

# (family, universe, ops, seed) -> (csv sha256, json sha256)
GOLDEN = {
    ("uniform", 300, 1500, 3): (
        "ed8b285875044eb8102def379290ae1903503124122301ccb3514b0e9066c117",
        "383acf3bc549e341291e5ddc37b29116b9a6b5eb1f5103bc699e013198b966ad"),
    ("uniform", 40, 1500, 11): (
        "fbe7582f1b64ae16dd1856278543b48609c82978d17abcd9b0b854a9f59b2771",
        "818c634f76a824dec06362baebc1b28bcd445238b227308c97afc4510b0b3ab5"),
    ("zipf_recency", 200, 1500, 5): (
        "fd3ef61764fb090b90d5a15e98e5333bae59f9ea803cfb3fc961279f00a57f4d",
        "b46b596e98d489f3b113941b1f0cfb4fd5fcb62f955c476de1ddb34701613217"),
    ("finger_walk", 250, 1200, 7): (
        "94d7bc868c98c2fae48ee560ffc8e8eaf0f89f57e48a67c847d00b1bf3d38d11",
        "055d7b89d02129147b199ae9f84b557cd640c7bb3537a2f095b08a6fcaccc619"),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_cli_outputs_match_golden_digests(cell, tmp_path, capsys):
    family, n, ops, seed = cell
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
    code = main(["--structure", "lws", "--gen", family, "--n", str(n),
                 "--ops", str(ops), "--seed", str(seed), "--verify-every", "1",
                 "--csv", str(csv_path), "--json", str(json_path)])
    capsys.readouterr()
    assert code == 0
    assert (_digest(csv_path), _digest(json_path)) == GOLDEN[cell]
