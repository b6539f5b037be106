"""The R+-tree spatial index and its bulk-loading algorithms.

This is the paper's engine.  :class:`~repro.index.rtree.RPlusTree` is a
dynamic, non-overlapping multidimensional index over point data whose leaf
occupancy invariant (between ``k`` and ``c*k`` records per leaf) *is* the
k-anonymity guarantee.  Non-overlap is maintained the way R+-trees and
kd-B-trees maintain it: every node subdivides its region with axis-aligned
binary cuts, so sibling regions tile the parent region exactly and point
data never straddles a boundary.

Two loading paths are provided:

* one-by-one :meth:`~repro.index.rtree.RPlusTree.insert` (the incremental
  path of §2.2);
* the buffer-tree bulk loader of §2.1
  (:class:`~repro.index.buffer_tree.BufferTreeLoader`), which batches
  insertions through per-node external buffers and meters page I/O through
  the simulated storage layer.

The sort-based groupings of :mod:`repro.index.bulk` — STR packing and
Hilbert-curve ordering — serve the ablation the paper alludes to when it
says non-sorting loading "worked better for higher dimensional data sets".
"""

from repro.index.buffer_tree import BufferTreeLoader
from repro.index.node import InternalNode, LeafNode, Node
from repro.index.rtree import RPlusTree
from repro.index.split import (
    BiasedSplitPolicy,
    MidpointSplitPolicy,
    MinMarginSplitPolicy,
    SplitPolicy,
    WeightedSplitPolicy,
)

__all__ = [
    "BiasedSplitPolicy",
    "BufferTreeLoader",
    "InternalNode",
    "LeafNode",
    "MidpointSplitPolicy",
    "MinMarginSplitPolicy",
    "Node",
    "RPlusTree",
    "SplitPolicy",
    "WeightedSplitPolicy",
]
