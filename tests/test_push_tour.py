"""The push-down, one step per layer, against the tour it replaced.

A hit in layer j pushes the oldest key of each layer 1..j-1 down one
layer.  The tree once did this as one tour of the queue ends, which left
each step's unlink to the next and kept the next layer's ends in a key on
the node.  Now that every layer's ends are kept with the books, each step
unlinks and files its own key.  After every operation of each case, every
node's key, colour, label, parent, left and right keys, and older and
younger keys go into one digest, in key order, together with the books
(the per-layer size record of the tree, or of each band machine of a
skip-splay tree).  The digests were taken from the tree with the tour, so
these tests pin that the stepwise push-down leaves every node as the tour
did: only where the cursor walks changed.

The cases are the five golden cells of ``tests/test_golden.py``, inserts
that open layers 2, 3 and 4, the band searches of the k = 4 skip-splay
golden cell as doubled accesses, and doubled accesses of two families on
skip-splay trees of k = 2, 3 and 4.

    PYTHONPATH=src python tests/test_push_tour.py   # print the digests
"""

import hashlib
import random

import pytest

from layerws import LayeredTree, SkipSplayTree
from layerws.workload import INSERT, SEARCH, GeneratorSpec, TraceOp, generate

from test_finger import skip_plan, step_of

GOLDEN_CELLS = [("finger_walk", 250, 1200, 7), ("uniform", 2000, 6000, 13),
                ("uniform", 300, 1500, 3), ("uniform", 40, 1500, 11),
                ("zipf_recency", 200, 1500, 5)]
SKIP_PLANS = [(family, k, count) for family in ("repeat_block", "uniform")
              for k, count in ((2, 200), (3, 600), (4, 1500))]

# case -> sha256 of every node and the books after every operation
PINNED = {
    "finger_walk-250-1200-7":
        "c09982717135db04e74ed6ab276ec27a4bd96da39f6dbd361fa0258850e761f1",
    "uniform-2000-6000-13":
        "01c2279efca4e4bebfa1d1227b20fc085c77cdf8bbb499b1c5bf593bc3fff21d",
    "uniform-300-1500-3":
        "88b6c3e193532c0f07a3d8203de398962c5cfc096f1317a8160d208f33e76d8a",
    "uniform-40-1500-11":
        "350addf78fafa4e1efd39128edd87c0f3a62932a18a4f96ce8b64b90bce5e442",
    "zipf_recency-200-1500-5":
        "59f9a4ddafb8b448ec72bedb63c2361a890074452e3219680ca82a4a1e26bec9",
    "opening-runs":
        "2d5591bd8420380fe5d038c9f22345f731c792224ed762ef4a121f790873862f",
    "skip_splay_doubled-golden":
        "403a41069a058556a9837883817b2a713085b0eda7a0041e1e35c42e792bdf69",
    "repeat_block-2-200":
        "9bf92a62c43d3f1b5a1634fdc4c9b2d27850e98380030f85196747955df0e807",
    "repeat_block-3-600":
        "723eb94bf859692b1fcd37747765c38017b550602b75bdfc75555c9b9ecb5914",
    "repeat_block-4-1500":
        "4caf99652581987d1e939a3893cfdad3e72dd6f1515083c150d63b7ed4befbfe",
    "uniform-2-200":
        "9bf92a62c43d3f1b5a1634fdc4c9b2d27850e98380030f85196747955df0e807",
    "uniform-3-600":
        "0fda860ee51b0d5fd6696e2785c2004b9323b60ed63ba2d5595886c4718d8c75",
    "uniform-4-1500":
        "bb371c530aa9c0783c30e15573b2bd4ffd41aa38f6ce360ce9b2ca52414bc953",
}


def opening_runs():
    """Inserts that open layers 2, 3 and 4 (at 5, 21 and 277 keys), with
    searches mixed in so the pushes start from every layer."""
    rng = random.Random(21)
    keys = rng.sample(range(10_000), 300)
    trace = []
    for i, key in enumerate(keys):
        trace.append(TraceOp(INSERT, key))
        if i % 3 == 2:
            trace.append(TraceOp(SEARCH, rng.choice(keys[:i + 1])))
    return trace


def nodes_digest(tree, steps, books) -> str:
    """Run each step on ``tree``; after each, hash every node and ``books()``."""
    sha = hashlib.sha256()
    engine = tree.engine
    for step in steps:
        step(tree)
        # ``a and a.key`` reads None for a missing link: nodes are always true
        sha.update(repr([(n.key, n.red, n.layer, n.parent and n.parent.key, n.left and n.left.key,
                          n.right and n.right.key, n.older, n.younger)
                         for n in engine.iter_nodes()]).encode())
        sha.update(repr(books()).encode())
    return sha.hexdigest()


def tree_digest(trace) -> str:
    tree = LayeredTree()
    return nodes_digest(tree, map(step_of, trace), lambda: tree.sizes)


def skip_digest(k, keys) -> str:
    tree = SkipSplayTree(k)
    return nodes_digest(tree, (lambda t, x=x: t.access_doubled(x) for x in keys),
                        lambda: [band.sizes for band in tree.bands])


def golden_band_searches():
    """The searches of the k = 4 skip-splay golden cell of ``tests/test_golden.py``."""
    spec = GeneratorSpec("repeat_block", 255, 255 + 1500, seed=9, width=4)
    return [op.key for op in generate(spec) if op.kind == SEARCH]


def digest(case: str) -> str:
    if case == "opening-runs":
        return tree_digest(opening_runs())
    if case == "skip_splay_doubled-golden":
        return skip_digest(4, golden_band_searches())
    family, *numbers = case.split("-")
    if (family, *map(int, numbers)) in SKIP_PLANS:
        k, count = map(int, numbers)
        return skip_digest(k, skip_plan(family, (1 << (1 << (k - 1))) - 1, count,
                                        random.Random(100 * k + len(family))))
    return tree_digest(generate(GeneratorSpec(family, *map(int, numbers))))


@pytest.mark.parametrize("cell", GOLDEN_CELLS + ["opening-runs"],
                         ids=lambda c: c if isinstance(c, str) else "-".join(map(str, c)))
def test_tour_matches_stepwise_push_on_traces(cell):
    case = cell if isinstance(cell, str) else "-".join(map(str, cell))
    assert digest(case) == PINNED[case]


@pytest.mark.parametrize("plan", SKIP_PLANS + ["golden"],
                         ids=lambda p: p if isinstance(p, str) else "-".join(map(str, p)))
def test_tour_matches_stepwise_push_on_skip_splay(plan):
    case = "skip_splay_doubled-golden" if plan == "golden" else "-".join(map(str, plan))
    assert digest(case) == PINNED[case]


def test_opening_runs_cross_the_layer_counts():
    tree = LayeredTree()
    counts = set()
    for op in opening_runs():
        step_of(op)(tree)
        counts.add(tree.layer_count)
    assert counts == {1, 2, 3, 4}


if __name__ == "__main__":
    for case in PINNED:
        print(f'    "{case}": "{digest(case)}",')
