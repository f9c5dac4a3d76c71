#!/usr/bin/env python3
"""Layered working-set tree, step by step.

Insert a handful of keys, watch the layers fill on the doubly-exponential
schedule, and see a search promote its key to the recency front while the
oldest keys sink.  Costs are cursor visits: every node the single access
pointer reaches, including its walks back toward the root.
"""

from layerws import LayeredTree, TraceOp, WorkingSetTracker
from layerws.harness import cost_rows
from layerws.workload import DELETE, INSERT, SEARCH


def play(tree, tracker, kind, *keys):
    """Run one operation per key; return its (op, cost, layer, w) rows."""
    return list(cost_rows(tree, [TraceOp(kind, k) for k in keys], tracker))


def show(tree, label):
    print(f"\n== {label}")
    print(f"   layers t={tree.layer_count}, deepest holds {tree.sizes[tree.layer_count]}")
    for j, order in sorted(tree.layer_snapshot().items()):
        print(f"   L{j} (youngest->oldest): {order}")


def main():
    tree, tracker = LayeredTree(), WorkingSetTracker()
    print("Inserting 1..5: the first layer holds only four keys, so the")
    print("fifth insert opens a second layer and the oldest key sinks.")
    for op, cost, _, _ in play(tree, tracker, INSERT, *range(1, 6)):
        print(f"   insert {op.key}: cost {cost} visits")
    show(tree, "after inserts 1..5")

    [(_, cost, layer, w)] = play(tree, tracker, SEARCH, 1)
    print(f"\nsearch(1): found in layer {layer}, working-set number {w}, "
          f"cost {cost} visits")
    show(tree, "after search(1): key 1 is young again, key 2 sank")

    [(_, cost, layer, _)] = play(tree, tracker, SEARCH, 99)
    assert layer is None
    print(f"\nsearch(99): miss, cost {cost} visits, structure untouched")

    play(tree, tracker, DELETE, 2)
    show(tree, "after delete(2): the deepest layer emptied and was retired")

    print("\nScaling up: 300 ascending inserts")
    big, tracker = LayeredTree(), WorkingSetTracker()
    play(big, tracker, INSERT, *range(300))
    sizes = {j: len(v) for j, v in big.layer_snapshot().items()}
    print(f"   layer sizes: {sizes}  (4, 16, 256-cap schedule)")
    # the oldest key lives in the deepest layer; searched again, it is
    # the youngest of layer 1
    (_, deep_cost, _, _), (_, warm_cost, _, _) = play(big, tracker, SEARCH, 0, 0)
    print(f"   search(0) cold: {deep_cost} visits; repeated: {warm_cost} visits")


if __name__ == "__main__":
    main()
