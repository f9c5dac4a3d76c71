#!/usr/bin/env python3
"""Every invariant is machine-checkable with a pinpointing witness.

Corrupt a healthy tree four different ways and show the validator naming
the fault: a flipped color bit, an inverted layer label, swapped recency
links, and books that miscount the deepest layer.
"""

from layerws import LayeredTree
from layerws.faults import (corrupt_color, corrupt_layer, corrupt_queue_swap,
                            corrupt_sizes)
from layerws.harness import verify_structure


def fresh():
    tree = LayeredTree()
    for k in range(1, 41):
        tree.insert(k)
    assert not verify_structure(tree)
    return tree


def show(label, tree):
    print(f"\n{label}")
    for v in verify_structure(tree):
        print(f"   {v}")


def main():
    t = fresh()
    corrupt_color(t, 10)
    show("color bit flipped on key 10:", t)

    t = fresh()
    corrupt_layer(t, 33, 1)
    show("key 33 relabeled into layer 1:", t)

    t = fresh()
    corrupt_queue_swap(t, 8)
    show("older/younger swapped on key 8:", t)

    t = fresh()
    corrupt_sizes(t, deepest=7)
    show("the tree's books claim the deepest layer holds 7:", t)


if __name__ == "__main__":
    main()
