"""Storage substrate: virtual-clock SSD simulator, FTL, profiles, probes.

This package replaces the paper's physical SSDs (Optane/PCIe/SATA/Virtual)
with deterministic simulators parameterised by the same (alpha, k_r, k_w)
characteristics the paper measures in Table I.
"""

from repro.storage.device import SimulatedSSD
from repro.storage.probe import probe_device
from repro.storage.profiles import PAPER_DEVICES, PCIE_SSD
from repro.storage.smart import SmartMonitor

__all__ = [
    "SimulatedSSD",
    "PCIE_SSD",
    "PAPER_DEVICES",
    "probe_device",
    "SmartMonitor",
]
