"""The Intelligent NIC: FPGA fabric, stream cores, and card models."""

from .bitstream import Design, INFRASTRUCTURE_CLBS, INFRASTRUCTURE_RAM_KBITS
from .card import (
    ACEII_PROTOTYPE,
    CardSpec,
    GatherOp,
    IDEAL_INIC,
    INICCard,
    ScatterOp,
    SendBlock,
)
from .fpga import FPGADevice, FPGAFabric, VIRTEX_1000, XILINX_4085XLA

__all__ = [
    "ACEII_PROTOTYPE",
    "CardSpec",
    "Design",
    "FPGADevice",
    "FPGAFabric",
    "GatherOp",
    "IDEAL_INIC",
    "INFRASTRUCTURE_CLBS",
    "INFRASTRUCTURE_RAM_KBITS",
    "INICCard",
    "ScatterOp",
    "SendBlock",
    "VIRTEX_1000",
    "XILINX_4085XLA",
]
