"""Analytical models (Section 4) and calibrated parameters."""

from .params import (
    DEFAULT_PARAMS,
    MachineParams,
    bucket_sort_time,
    count_sort_time,
    fft_compute_time,
    fft_row_flops,
    interleave_time,
    local_transpose_time,
)

__all__ = [
    "DEFAULT_PARAMS",
    "MachineParams",
    "bucket_sort_time",
    "count_sort_time",
    "fft_compute_time",
    "fft_row_flops",
    "interleave_time",
    "local_transpose_time",
]

from .fft_model import (
    FFTModelPoint,
    fft_compute_total,
    inic_fft_series,
    inic_fft_time,
    inic_transpose_time,
    partition_bytes,
    serial_fft_time,
)
from .gige_model import fe_fft_time, gige_fft_time, gige_sort_time, tcp_alltoall_time
from .sort_model import (
    SortModelPoint,
    inic_sort_time,
    receive_buckets,
    serial_sort_time,
    sort_component_series,
    sort_partition_bytes,
    t_inic,
)
from .speedup import Series, crossover_point, speedup_series

__all__ += [
    "FFTModelPoint",
    "Series",
    "SortModelPoint",
    "crossover_point",
    "fe_fft_time",
    "fft_compute_total",
    "gige_fft_time",
    "gige_sort_time",
    "inic_fft_series",
    "inic_fft_time",
    "inic_sort_time",
    "inic_transpose_time",
    "partition_bytes",
    "receive_buckets",
    "serial_fft_time",
    "serial_sort_time",
    "sort_component_series",
    "sort_partition_bytes",
    "speedup_series",
    "t_inic",
    "tcp_alltoall_time",
]
