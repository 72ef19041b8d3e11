"""Atomic broadcast built on uniform consensus.

The paper's opening line places agreement protocols — "atomic
broadcast, atomic commit" — at the heart of fault-tolerant systems and
motivates the model comparison through them.  Atomic commit lives in
:mod:`repro.commit`; this package supplies the other classic: **atomic
broadcast**, via the standard reduction to a sequence of consensus
instances (Chandra & Toueg, the paper's reference [6]).

Each *instance* occupies ``t + 1`` rounds and runs a FloodSet-style
uniform consensus whose values are *batches* (sets of undelivered
application messages).  The decided batch is delivered in a
deterministic order; leftovers — and messages learned from other
processes' floods during the instance — carry over to the next
instance.  Uniform agreement of each instance then yields uniform
total-order delivery, and the flood-based gossip yields validity:
a message a correct process broadcasts is in every proposal of the
following instance, hence in its decision.

The same code runs in RS and RWS (the WS variant adds the FloodSetWS
``halt`` guard); the RS-only variant inherits FloodSet's RWS anomaly,
which the test suite demonstrates at the broadcast level: a pending
batch can split the *delivery sequences* of two correct processes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "algorithm": (
            "AtomicBroadcast",
            "AtomicBroadcastWS",
            "BroadcastState",
        ),
        "spec": ("BroadcastViolation", "check_atomic_broadcast_run"),
    },
)

__all__ = [
    "AtomicBroadcast",
    "AtomicBroadcastWS",
    "BroadcastState",
    "BroadcastViolation",
    "check_atomic_broadcast_run",
]
