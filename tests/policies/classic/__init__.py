"""Seven classic policies from outside the paper's four, kept as fixtures.

The paper evaluates Clock Sweep, LRU, CFLRU and LRU-WSR; only those are
built into :mod:`repro.policies`.  ACE's claim is that it wraps *any*
policy, so the seam batteries also run over these: FIFO, Second Chance,
LFU, 2Q, ARC, FOR and LIRS, each ordering victims by something other than
plain recency.  Importing this package registers them under the names in
:data:`CLASSIC_POLICIES`.  They are registered in this process only, so a
test that runs them through a process pool passes ``workers=1``.
"""

from __future__ import annotations

from repro.policies.registry import PAPER_POLICIES, register_policy

from tests.policies.classic.arc import ARCPolicy
from tests.policies.classic.fifo import FIFOPolicy, SecondChancePolicy
from tests.policies.classic.flash_for import FORPolicy
from tests.policies.classic.lfu import LFUPolicy
from tests.policies.classic.lirs import LIRSPolicy
from tests.policies.classic.twoq import TwoQPolicy
from tests.policies.mru import MRU

register_policy("fifo", lambda capacity: FIFOPolicy(), display="FIFO")
register_policy(
    "second_chance", lambda capacity: SecondChancePolicy(), display="Second Chance"
)
register_policy("lfu", lambda capacity: LFUPolicy(), display="LFU")
register_policy("twoq", lambda capacity: TwoQPolicy(capacity), display="2Q")
register_policy("arc", lambda capacity: ARCPolicy(capacity), display="ARC")
register_policy("for", lambda capacity: FORPolicy(), display="FOR")
register_policy("lirs", lambda capacity: LIRSPolicy(capacity), display="LIRS")

#: The registry names of the seven classics.
CLASSIC_POLICIES = ("fifo", "second_chance", "lfu", "twoq", "arc", "for", "lirs")

#: What the seam batteries sweep: the paper's four, MRU and the classics.
EVERY_POLICY = (*PAPER_POLICIES, MRU, *CLASSIC_POLICIES)
