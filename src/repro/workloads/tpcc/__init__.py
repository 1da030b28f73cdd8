"""TPC-C benchmark substrate: schema layout, transactions, mix driver."""

from repro.workloads.tpcc.driver import TPCCWorkload
from repro.workloads.tpcc.transactions import STANDARD_MIX, TransactionType

__all__ = [
    "TPCCWorkload",
    "TransactionType",
    "STANDARD_MIX",
]
