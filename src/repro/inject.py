"""Mutation-testing hooks: known bugs injectable behind an env flag.

The differential fuzzing harness (:mod:`repro.fuzz`) claims to detect
divergences between the engines.  That claim is itself testable: inject
a *known* bug into exactly one engine and assert the harness finds it
within a bounded budget and shrinks it to a minimal counterexample.

Setting ``REPRO_INJECT_BUG=<name>`` activates one of the registered
mutations below.  The flag is read at call time (never cached) so tests
can flip it per-case, and an active injection is folded into every
:meth:`~repro.runtime.request.ExecutionRequest.cache_key` — a mutated
engine must never poison the result cache of the real code.

This module must stay dependency-free: both the engines and the runtime
import it.
"""

from __future__ import annotations

import os

#: The environment variable that activates an injected bug.
INJECT_ENV = "REPRO_INJECT_BUG"

#: Registered mutations.  Keep descriptions accurate: docs/testing.md
#: lists them verbatim.
KNOWN_INJECTIONS: dict[str, str] = {
    "ss-drop-received": (
        "RS-on-SS emulation: whenever a round transition fires with at "
        "least one sender's message missing (i.e. some process crashed "
        "mid-round), additionally drop the lowest-pid peer message that "
        "*was* received — a round-synchrony violation the rounds engine "
        "never reproduces"
    ),
}


def active_injection() -> str | None:
    """The currently injected bug name, or ``None`` for the real code."""
    name = os.environ.get(INJECT_ENV)
    return name if name else None


def unregistered_injection() -> str | None:
    """What is wrong with the active injection, or ``None``.

    A name that is no registered mutation runs the real code, while the
    name still enters every cache key and run manifest: a mistyped
    mutant would read as one the oracle failed to kill.  The CLI
    refuses it for every command with this text.
    """
    name = active_injection()
    if name is None or name in KNOWN_INJECTIONS:
        return None
    return (
        f"{INJECT_ENV}={name!r} is not a registered injection; "
        f"choose from {sorted(KNOWN_INJECTIONS)}"
    )
