#!/usr/bin/env python3
"""Skip-splay over layered working-set trees.

A static universe is carved into auxiliary trees along the marked heights
1, 2, 4, ... of a perfectly balanced tree; each auxiliary tree is a layered
working-set tree, cloned from its band's template and searched by its
band's one machine.  One access searches its key's aux tree, then skips to
the parent band and searches that entry point, up to the root.  Worst-case
cost stays logarithmic; doubling every access makes the pair's cost track
lg(lg n) * lg(working set), realizing the rank-and-recency sensitive
unified-bound shape.
"""

import math
import random

from layerws import SkipSplayTree, UnifiedBoundTracker, WorkingSetTracker, lg


def main():
    tree = SkipSplayTree(4)
    n = tree.n
    assignment = tree.aux_assignment()
    members = [key for key, root in assignment.items() if root == assignment[200]]
    print(f"universe 1..{n}; auxiliary tree of key 200 is rooted at "
          f"{assignment[200]} with members {members}, one of the "
          f"{len(set(assignment.values()))} auxiliary trees in {len(tree.bands)} bands")

    rng = random.Random(99)
    worst = 0
    for _ in range(20000):
        worst = max(worst, tree.access(rng.randint(1, n)))
    print(f"20000 random accesses: worst {worst} visits "
          f"(log2(n+2) = {math.log2(n + 2):.1f})")

    print("\nrepeated access settles to a band-linear plateau:")
    costs = [tree.access(137) for _ in range(6)]
    print(f"   access(137) x6: {costs}")

    print("\ndoubled accesses against the working-set number:")
    tracker = WorkingSetTracker(range(1, n + 1))
    coef = math.log2(math.log2(n + 2)) + 1
    for x in (10, 10, 200, 10, 111, 10):
        w = tracker.working_set_number(x)
        pair = tree.access_doubled(x)
        tracker.record_access(x)
        print(f"   key {x:>3}: w={w:>3}  pair cost {pair:>4}  "
              f"(lglg-scaled budget {coef * lg(w):6.1f} units)")

    print("\namortized against the unified bound (rank + recency):")
    ub = UnifiedBoundTracker(range(1, n + 1))
    total = 0
    denom = 0.0
    pos = n // 2
    for _ in range(4000):
        pos = max(1, min(n, pos + rng.choice((-1, 1))))
        denom += ub.unified_bound(pos) + coef
        total += tree.access(pos)
        ub.record_access(pos)
    print(f"   finger-walk trace: total cost / sum(UB + lglg n + 1) = "
          f"{total / denom:.2f}")


if __name__ == "__main__":
    main()
