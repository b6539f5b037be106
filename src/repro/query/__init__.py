"""Range COUNT queries over original and anonymized tables (§2.3, §5.4).

The paper's utility yardstick: run the same multidimensional COUNT range
query against the original points and against the anonymized boxes, and
report the normalized error.  This package provides the query type, the
two workload generators the paper uses (all-attribute random ranges and
single-attribute zipcode ranges), and the evaluation/bucketing machinery
behind Figures 12(a)-(d).

:mod:`repro.query.engine` adds the serving-side path: a
:class:`QueryEngine` holds one release as numpy columns and answers the
same queries with one chunked scan over every partition, equal to the
scalar oracle :func:`count_anonymized` retained here.
"""

from repro.query.accuracy import (
    QueryOutcome,
    average_error,
    bucket_by_selectivity,
    evaluate_workload,
)
from repro.query.engine import (
    QUERY_KINDS,
    QueryEngine,
    QueryResult,
    group_by_queries,
    point_query,
)
from repro.query.ranges import RangeQuery, count_anonymized, count_original
from repro.query.workload import (
    random_range_workload,
    single_attribute_workload,
)

__all__ = [
    "QUERY_KINDS",
    "QueryEngine",
    "QueryOutcome",
    "QueryResult",
    "RangeQuery",
    "average_error",
    "bucket_by_selectivity",
    "count_anonymized",
    "count_original",
    "evaluate_workload",
    "group_by_queries",
    "point_query",
    "random_range_workload",
    "single_attribute_workload",
]
