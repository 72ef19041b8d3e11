"""The reference encoder of a request's identity.

:meth:`~repro.runtime.request.ExecutionRequest.cache_key` and
:meth:`~repro.runtime.request.ExecutionRequest.work_key` build the
request's canonical JSON from per-field fragments.  This module is the
whole-document encoder they must equal byte for byte: one
``json.dumps`` over ``to_dict()``, the schema version and, under an
active bug injection, its name.  The runtime keeps no second encoder;
the tests that import this one are the check that compares the two.
"""

from __future__ import annotations

import hashlib
import json

from repro.inject import active_injection
from repro.runtime.request import CACHE_SCHEMA_VERSION, ExecutionRequest


def reference_form(request: ExecutionRequest, *, name: str | None = None) -> str:
    """The canonical JSON, with ``name`` in place of the request's own
    when given."""
    data = request.to_dict()
    if name is not None:
        data["name"] = name
    payload = {"v": CACHE_SCHEMA_VERSION, "request": data}
    injected = active_injection()
    if injected is not None:
        payload["injected_bug"] = injected
    return json.dumps(payload, sort_keys=True, default=repr)


def reference_cache_key(request: ExecutionRequest) -> str:
    return hashlib.sha256(reference_form(request).encode("utf-8")).hexdigest()


def reference_work_key(request: ExecutionRequest) -> str:
    """The canonical JSON with the name slot left empty."""
    return reference_form(request, name="")
