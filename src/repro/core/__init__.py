"""The paper's contribution: the ACE bufferpool manager and its components."""

from repro.core.ace import ACEBufferPoolManager
from repro.core.adaptive import AdaptiveACEBufferPoolManager
from repro.core.config import ACEConfig

__all__ = [
    "ACEBufferPoolManager",
    "AdaptiveACEBufferPoolManager",
    "ACEConfig",
]
