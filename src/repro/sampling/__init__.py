"""Sampling primitives: record-level, block-level, and step schedules."""

from .block_sampler import BlockSampleStream, sample_block_ids, sample_blocks
from .design_effect import (
    design_effect,
    effective_sample_size,
    estimate_rho_from_pilot,
    intraclass_correlation,
    required_blocks_with_correlation,
)
from .page_samplers import bernoulli_page_sample, systematic_page_sample
from .record_sampler import sample_records_from_file, sample_with_replacement
from .schedule import (
    DoublingSchedule,
    LinearSchedule,
    SqrtSchedule,
    StepSchedule,
    make_schedule,
)

__all__ = [
    "BlockSampleStream",
    "sample_block_ids",
    "sample_blocks",
    "design_effect",
    "effective_sample_size",
    "estimate_rho_from_pilot",
    "intraclass_correlation",
    "required_blocks_with_correlation",
    "bernoulli_page_sample",
    "systematic_page_sample",
    "sample_records_from_file",
    "sample_with_replacement",
    "DoublingSchedule",
    "LinearSchedule",
    "SqrtSchedule",
    "StepSchedule",
    "make_schedule",
]
