"""repro — k-anonymization as spatial indexing.

A reproduction of Iwuchukwu & Naughton, *K-Anonymization as Spatial
Indexing: Toward Scalable and Incremental Anonymization* (VLDB 2007).

Quickstart::

    from repro import api, make_landsend_table

    table = make_landsend_table(10_000, seed=1)
    handle = api.open(table, base_k=5)
    handle.load(table)
    release = handle.release(10, constraint=None, strategy="subtree")
    print(release.table.summary(), release.k_satisfied, release.digest)

:func:`repro.api.open` returns the :class:`RTreeAnonymizer` itself, the
single-writer handle; :func:`repro.api.serve` wraps one in a thread-safe
:class:`AnonymizerService`.  Both publish the same frozen
:class:`Release` (table, audit, digest, k, strategy, epoch); only the
service stamps ``epoch``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro import api
from repro.serve import AnonymizerService, ServiceConfig, TelemetryConfig
from repro.baselines.grid import GridFileAnonymizer, gridfile_anonymize
from repro.baselines.mondrian import MondrianAnonymizer, mondrian_anonymize
from repro.core.anonymizer import RTreeAnonymizer
from repro.core.compaction import compact_partitions, compact_table
from repro.core.leafscan import leaf_scan
from repro.core.multigranular import (
    hierarchical_granularities,
    hierarchical_release,
    verify_k_bound,
)
from repro.core.partition import AnonymizedTable, Partition, Release
from repro.dataset.agrawal import AgrawalGenerator, make_agrawal_table
from repro.dataset.census import CensusGenerator, make_census_table
from repro.dataset.export import read_release_csv, write_release_csv
from repro.dataset.landsend import LandsEndGenerator, make_landsend_table
from repro.dataset.record import Record
from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.dataset.table import Table
from repro.durability import DurabilityConfig, RecoveryError
from repro.geometry.box import Box
from repro.hierarchy.tree import GeneralizationHierarchy
from repro.index.buffer_tree import BufferTreeLoader
from repro.index.constrained import ConstrainedSplitPolicy
from repro.index.gridfile import GridFile
from repro.index.rtree import RPlusTree
from repro.index.split import (
    BiasedSplitPolicy,
    MidpointSplitPolicy,
    MinMarginSplitPolicy,
    WeightedSplitPolicy,
)
from repro.metrics.certainty import certainty_penalty
from repro.metrics.discernibility import discernibility_penalty
from repro.metrics.kl import kl_divergence
from repro.metrics.quality import quality_report
from repro.privacy.attack import intersection_attack
from repro.privacy.linkage import linkage_attack
from repro.privacy.registry import ReleaseRegistry, ReleaseRejected
from repro.privacy.kanonymity import is_k_anonymous, verify_release
from repro.privacy.ldiversity import DistinctLDiversity
from repro.query.accuracy import average_error, evaluate_workload
from repro.query.workload import random_range_workload, single_attribute_workload

__version__ = "1.0.0"

__all__ = [
    "AgrawalGenerator",
    "AnonymizedTable",
    "AnonymizerService",
    "Attribute",
    "AttributeKind",
    "BiasedSplitPolicy",
    "Box",
    "BufferTreeLoader",
    "CensusGenerator",
    "ConstrainedSplitPolicy",
    "DurabilityConfig",
    "GridFile",
    "GridFileAnonymizer",
    "DistinctLDiversity",
    "GeneralizationHierarchy",
    "LandsEndGenerator",
    "MidpointSplitPolicy",
    "MinMarginSplitPolicy",
    "MondrianAnonymizer",
    "Partition",
    "RPlusTree",
    "RTreeAnonymizer",
    "Record",
    "RecoveryError",
    "Release",
    "ReleaseRegistry",
    "ReleaseRejected",
    "Schema",
    "ServiceConfig",
    "Table",
    "TelemetryConfig",
    "WeightedSplitPolicy",
    "api",
    "average_error",
    "certainty_penalty",
    "compact_partitions",
    "compact_table",
    "discernibility_penalty",
    "evaluate_workload",
    "gridfile_anonymize",
    "hierarchical_granularities",
    "hierarchical_release",
    "intersection_attack",
    "is_k_anonymous",
    "kl_divergence",
    "leaf_scan",
    "linkage_attack",
    "make_agrawal_table",
    "make_census_table",
    "make_landsend_table",
    "mondrian_anonymize",
    "quality_report",
    "random_range_workload",
    "read_release_csv",
    "single_attribute_workload",
    "verify_k_bound",
    "verify_release",
    "write_release_csv",
]
