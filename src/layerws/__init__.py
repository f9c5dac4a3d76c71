"""Dictionary structures with distribution-sensitive access guarantees.

- ``LayeredTree``: a binary search tree whose search cost is worst-case
  logarithmic in the key's working-set number.
- ``ReferenceStructure``: the same size schedule as plain sets and queues,
  used as a step-by-step oracle.
- ``SkipSplayTree``: a static composition of layered trees whose doubled
  accesses track the unified bound.
- ``workload`` / ``harness`` / ``cli``: trace generation, verification,
  and reporting around the structures.
"""

from .engine import Engine, Node
from .errors import (CapacityError, DictError, DivergenceError,
                     DuplicateKeyError, IncompatibleTraceError,
                     MissingKeyError, TraceError)
from .layered_tree import LayeredTree, capacity
from .reference import (ReferenceStructure, UnifiedBoundTracker,
                        WorkingSetTracker, lg)
from .skip_splay import SkipSplayTree
from .baseline import RedBlackBaseline
from .validate import Violation, validate_band, validate_tree
from .workload import GeneratorSpec, TraceOp, generate, parse, serialize

__all__ = [
    "Engine", "Node",
    "LayeredTree", "capacity",
    "ReferenceStructure", "WorkingSetTracker", "UnifiedBoundTracker", "lg",
    "SkipSplayTree", "RedBlackBaseline",
    "Violation", "validate_band", "validate_tree",
    "GeneratorSpec", "TraceOp", "generate", "parse", "serialize",
    "DictError", "DuplicateKeyError", "MissingKeyError", "CapacityError",
    "TraceError", "IncompatibleTraceError", "DivergenceError",
]
