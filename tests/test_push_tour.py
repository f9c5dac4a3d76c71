"""The push-down tour: a hit in layer j pushes the oldest key of each layer
1..j-1 down one layer, and the tour visits each queue end it writes once.
A step leaves the unlink of the new oldest of its layer to the next step,
which knows that key's final link when it gets there, and the key it
pushes keeps its link, which names the next key pushed.  The ends a step
reads go into the operation's record.

None of this may change the tree or make an operation dearer; the cursor
may end an operation elsewhere.  ``StepwisePushTree`` keeps the push-down
one layer at a time that the tour replaced: each step unlinks its key,
walks back to aim the layers above, and files it.  Like the tree, the twin
starts every operation, a band search too, from the pair of layer-1 ends
kept with the books, and its steps keep that pair exact.  The tests replay
traces on both, compare them node for node, with the books and the pair,
after every operation, and compare the visits.
"""

import random

import pytest

from layerws import LayeredTree
from layerws import layer_ops as ops
from layerws.errors import CapacityError
from layerws.layered_tree import MAX_LAYERS
from layerws.workload import INSERT, SEARCH, GeneratorSpec, TraceOp, generate

from test_finger import (GOLDEN_CELLS, assert_never_dearer, skip_plan, skip_splay_pair,
                         skip_state_reader, step_of, tree_reader)


class StepwisePushTree(LayeredTree):
    """Pushes one layer at a time, each step repairing every link it
    touches on its own."""

    def _queue_remove(self, x, j, ends):
        xo, xy, xn = x.older, x.younger, x.next_layer
        x.older = x.younger = x.key
        if xo is None and xy is None:
            ends[0][j] = ends[1][j] = None
            if j >= 2 and self.sizes.get(j - 1, 0) > 0:
                self._point_at(j - 1, None, True, ends)
            return
        if xy is None:
            o = self._goto(xo)
            o.younger = None
            o.next_layer = xn
            ends[1][j] = xo
            if j >= 2:
                self._point_at(j - 1, xo, False, ends)
            return
        if xo is None:
            y = self._goto(xy)
            y.older = None
            y.next_layer = xn
            ends[0][j] = xy
            if j >= 2:
                self._extreme_in_layer(j - 1, False, ends).next_layer = xy
            return
        self._goto(xo).younger = xy
        self._goto(xy).older = xo

    def _file_youngest(self, x, recv, ends):
        key = x.key
        if self.sizes.get(recv, 0) == 0:
            ends[0][recv] = ends[1][recv] = key
            return None, None
        y = self._extreme_in_layer(recv, True, ends)
        ends[1][recv] = key
        x_next = y.next_layer
        y.younger = key
        if y.older is not None:
            y.next_layer = None
        return y.key, x_next

    def _point_at(self, m, key, both, ends):
        self._extreme_in_layer(m, True, ends).next_layer = key
        if both:
            self._extreme_in_layer(m, False, ends).next_layer = key

    def _move_down(self, x, ends):
        j = x.layer - self.base
        recv = j + 1
        if recv > MAX_LAYERS + 1:
            raise CapacityError(f"no layer below {MAX_LAYERS}")
        self._queue_remove(x, j, ends)
        y_key, x_next = self._file_youngest(x, recv, ends)
        if self.sizes[j] > 1:
            self._point_at(j, x.key, y_key is None, ends)
        self._sink_to_boundary(x)
        ops.join_at(self.engine, x)
        x.older = y_key
        x.younger = None
        x.next_layer = x_next
        self.sizes[j] -= 1
        self.sizes[recv] = self.sizes.get(recv, 0) + 1

    def _push_down(self, deficit, ends):
        for m in range(1, deficit):
            self._move_down(self._extreme_in_layer(m, False, ends), ends)


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


TRACES = {"-".join(map(str, cell)): lambda cell=cell: generate(GeneratorSpec(*cell))
          for cell in GOLDEN_CELLS + [("uniform", 2000, 6000, 13)]}
TRACES["opening-runs"] = opening_runs


@pytest.mark.parametrize("name", sorted(TRACES))
def test_tour_matches_stepwise_push_on_traces(name):
    trees = (LayeredTree(), StepwisePushTree())
    tour, stepwise = assert_never_dearer(
        trees, [tree_reader(t, cursor=False) for t in trees], map(step_of, TRACES[name]()))
    assert tour < stepwise


def test_opening_runs_cross_the_layer_counts():
    tree = LayeredTree()
    counts = set()
    for op in opening_runs():
        step_of(op)(tree)
        counts.add(tree.layer_count)
    assert counts == {1, 2, 3, 4}


@pytest.mark.parametrize("k,count", [(2, 200), (3, 600), (4, 1500)])
@pytest.mark.parametrize("family", ["repeat_block", "uniform"])
def test_tour_matches_stepwise_push_on_skip_splay(k, count, family):
    pair = skip_splay_pair(k, StepwisePushTree)
    plan = skip_plan(family, pair[0].n, count, random.Random(100 * k + len(family)))
    # every key accessed twice in a row, as in the doubled pairs
    tour, stepwise = assert_never_dearer(
        pair, [skip_state_reader(t, cursor=False) for t in pair],
        (lambda t, x=x: t.access(x) for x in plan for _ in range(2)))
    # bands of k <= 3 are too small for a push that crosses two layers
    assert tour < stepwise if k == 4 else tour == stepwise
    assert not pair[0].validate()
