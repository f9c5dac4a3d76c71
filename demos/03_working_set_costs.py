#!/usr/bin/env python3
"""Search cost tracks recency, not dictionary size.

A recency-skewed workload (keys drawn by recency rank, probability
~ rank^-theta) keeps its working set small, so searches stay near the top
layers no matter how large the dictionary.  A uniform workload pays the
full logarithmic price.  The ratio cost / log2(w+2) stays flat -- that is
the working-set property, per operation, with no amortization.
"""

from layerws import LayeredTree, WorkingSetTracker, lg
from layerws.harness import cost_rows
from layerws.workload import GeneratorSpec, generate


def replay(family, theta, n=2000, ops=20000):
    spec = GeneratorSpec(family, universe=n, ops=ops, seed=4, theta=theta)
    return [(op.key, layer, cost, w)
            for op, cost, layer, w in cost_rows(LayeredTree(), generate(spec), WorkingSetTracker())
            if layer is not None]


def summarize(name, rows):
    by_layer = {}
    worst_ratio = 0.0
    for _, layer, cost, w in rows:
        by_layer.setdefault(layer, []).append(cost)
        worst_ratio = max(worst_ratio, cost / lg(w))
    print(f"\n{name}: {len(rows)} hits, worst cost/lg(w) = {worst_ratio:.1f}")
    for layer in sorted(by_layer):
        costs = by_layer[layer]
        print(f"   layer {layer}: {len(costs):>6} hits, "
              f"mean cost {sum(costs)/len(costs):7.1f}, max {max(costs)}")


def main():
    summarize("zipf_recency theta=2 (hot working set)", replay("zipf_recency", 2.0))
    summarize("zipf_recency theta=1", replay("zipf_recency", 1.0))
    summarize("finger walk (rank-local)", replay("finger_walk", 1.0))
    print("\nThe mean cost per layer roughly doubles per layer index while")
    print("the working-set numbers square, which is the whole point:")
    print("cost = O(2^j) and w >= 2^(2^(j-1)) whenever a search lands in layer j.")


if __name__ == "__main__":
    main()
