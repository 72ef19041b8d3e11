"""Only :func:`backend_name`: ``engine="vector"`` names the round
executor (:mod:`repro.runtime.harness`)."""

from repro._lazy import lazy_exports

# Nothing here is lazy; the helper keeps the package's surface under
# tests/test_lazy_exports.py until ROADMAP 8(h) deletes it.
__getattr__, __dir__ = lazy_exports(globals(), {})
__all__ = ["backend_name"]


def backend_name() -> str:
    """Always ``"python"``.  Kept only because ``ledger/run.py`` records
    it as host metadata (ROADMAP 8(h) drops the field, then this)."""
    return "python"
