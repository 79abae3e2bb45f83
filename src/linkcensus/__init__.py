"""Census enumeration of closed 3-manifold triangulations.

The package enumerates, for a given number of tetrahedra, all connected
combinatorial triangulations whose vertex links are 2-spheres and whose
edges are never identified with themselves in reverse, deduplicated up to
combinatorial isomorphism.  The enumeration prunes its search tree by
watching partially built vertex links: as soon as a link stops being an
orientable punctured sphere no completion can be a 3-manifold, so the
whole branch is dropped.
"""

__version__ = "0.1.0"

from .core import Triangulation, iso_signature, parse_table, serialize
from .search import (
    CensusResult,
    JobDescriptor,
    SearchConfig,
    enumerate_census,
    merge,
    run_job,
    split_jobs,
)

__all__ = [
    "CensusResult",
    "JobDescriptor",
    "SearchConfig",
    "Triangulation",
    "enumerate_census",
    "iso_signature",
    "merge",
    "parse_table",
    "run_job",
    "serialize",
    "split_jobs",
    "__version__",
]
