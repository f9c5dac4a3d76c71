#!/usr/bin/env python3
"""The reference structure as a lockstep oracle.

The reference keeps the same size schedule as plain (set, queue) pairs and
no tree mechanics, so its state transitions are easy to trust.  Running a
random mixed trace on both and comparing every layer's members, recency
order and next-layer keys after every operation is the backbone of the
verification story.
"""

from layerws import LayeredTree, ReferenceStructure
from layerws.errors import DivergenceError
from layerws.faults import corrupt_queue_swap
from layerws.harness import RunConfig, compare_layers, run
from layerws.workload import GeneratorSpec


def main():
    tree = LayeredTree()
    ref = ReferenceStructure()
    for k in (1, 2, 3, 4, 5):
        tree.insert(k)
        ref.insert(k)
    tree.search(1)
    ref.search(1)
    print("tree layers:     ", tree.layer_snapshot())
    print("reference levels:", ref.snapshot())
    assert tree.layer_snapshot() == ref.snapshot()
    print("identical after every operation above.\n")

    result = run(RunConfig("lws", gen=GeneratorSpec("uniform", universe=300, ops=4000, seed=13),
                           verify_every=20))
    s = result.summary
    print(f"replayed {s['ops']} mixed ops in lockstep: "
          f"compared after every op, {s.get('divergence', 'no divergence')}; "
          f"max single-op cost {s['max_cost']} visits, "
          f"{len(result.violations)} structural violations")

    print("\nA deliberately wrong move is caught immediately:")
    bad = LayeredTree()
    good = ReferenceStructure()
    for k in range(1, 9):
        bad.insert(k)
        good.insert(k)
    corrupt_queue_swap(bad, 6)  # sabotage the recency order behind the tree's back
    try:
        compare_layers(bad, good, {n.key: n for n in bad.engine.iter_nodes()})
        print("   ...not caught?!")
    except DivergenceError as exc:
        print(f"   DivergenceError: {exc}")


if __name__ == "__main__":
    main()
