"""Storage simulator: pages, heap files, layouts, and I/O accounting.

This subpackage stands in for the Microsoft SQL Server 7.0 storage engine of
the paper's experiments.  What the experiments depend on — which tuples share
a disk block, and how many blocks a sampling strategy reads — is modelled
exactly; device timing is deliberately out of scope.
"""

from .faults import (
    BudgetTracker,
    FaultPolicy,
    FaultyHeapFile,
    ReadBudget,
    RetryPolicy,
    page_checksum,
    read_page_resilient,
    read_record_resilient,
)
from .heapfile import HeapFile
from .iostats import IOStats
from .layout import (
    LAYOUT_NAMES,
    apply_layout,
    partially_clustered_layout,
    random_layout,
    sorted_layout,
    value_runs_layout,
)
from .record import DEFAULT_PAGE_SIZE, RecordSpec

__all__ = [
    "BudgetTracker",
    "FaultPolicy",
    "FaultyHeapFile",
    "ReadBudget",
    "RetryPolicy",
    "read_page_resilient",
    "read_record_resilient",
    "HeapFile",
    "IOStats",
    "page_checksum",
    "LAYOUT_NAMES",
    "apply_layout",
    "partially_clustered_layout",
    "random_layout",
    "sorted_layout",
    "value_runs_layout",
    "DEFAULT_PAGE_SIZE",
    "RecordSpec",
]
