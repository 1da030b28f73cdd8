"""Exact count of Python opcodes executed by one call.

``sys.settrace`` with ``frame.f_trace_opcodes`` delivers one event per
bytecode instruction of every Python frame entered during the call (3.10 to
3.12).  The count is a property of the code and its inputs, not of the
host: two processes give the identical integer, so it compares two versions
of the program exactly — as a count of interpreter work, not as a speed.
Time spent inside C functions is invisible to it.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

__all__ = ["count_opcodes"]


def count_opcodes(call: Callable[[], object]) -> int:
    """Opcodes executed by Python frames entered while ``call()`` runs.

    Pass a ``functools.partial`` of the function under test rather than a
    lambda: a lambda adds its own frame to the count.
    """
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count
