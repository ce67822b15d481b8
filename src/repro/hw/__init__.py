"""Node-hardware substrate: memory hierarchy, CPU, interrupts, DMA, PCI."""

from .cpu import CPU
from .dma import DMAEngine
from .interrupts import IMMEDIATE, CoalescePolicy, InterruptController
from .memory import AccessPattern, CacheLevel, MemoryHierarchy
from .pci import PCI_32_33_RATE, pci_32_33

__all__ = [
    "AccessPattern",
    "CPU",
    "CacheLevel",
    "CoalescePolicy",
    "DMAEngine",
    "IMMEDIATE",
    "InterruptController",
    "MemoryHierarchy",
    "PCI_32_33_RATE",
    "pci_32_33",
]
