"""Messages exchanged by processes in the step-level kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Message:
    """A point-to-point message.

    Messages are immutable value objects.  The executor assigns each a
    unique ``uid`` and records the global step index at which it was
    sent; both are used by synchrony validators (the Δ bound of the SS
    model is a condition on send/receive step indices).

    Attributes:
        uid: Unique, monotonically increasing identifier assigned by the
            executor at send time.
        sender: Index of the sending process.
        recipient: Index of the destination process.
        payload: Arbitrary application data.  Payloads should be treated
            as immutable; algorithms must not mutate a payload after
            sending it.
        sent_step: Global index of the step during which the message was
            sent.
    """

    uid: int
    sender: int
    recipient: int
    payload: Any
    sent_step: int
