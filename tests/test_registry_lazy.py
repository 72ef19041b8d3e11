"""The algorithm registry resolves a name when it is used, not at import.

``ALGORITHM_FACTORIES`` lists eight keys without importing one algorithm
module; ``[name]`` imports that algorithm's home and nothing else.  The
mapping's behaviour — order, ``in``, ``len``, ``.get``, the classes it
hands out, the unknown-name error — is pinned to what the eager dict
did, and every row of the home table is resolved here so a typo fails
in this file, not at a user's first ``--algorithm a1``.
"""

from __future__ import annotations

import pytest

import repro.consensus
from repro.errors import ConfigurationError
from repro.rounds.algorithm import RoundAlgorithm
from repro.runtime.registry import (
    ALGORITHM_FACTORIES,
    UNIFORM_CONSENSUS_ALGORITHMS,
    make_algorithm,
)
from tests.test_startup import _python

#: Registry key -> the public class name it must resolve to, in the
#: eager dict's order.
EXPECTED = {
    "floodset": "FloodSet",
    "floodset-ws": "FloodSetWS",
    "c-opt": "COptFloodSet",
    "c-opt-ws": "COptFloodSetWS",
    "f-opt": "FOptFloodSet",
    "f-opt-ws": "FOptFloodSetWS",
    "a1": "A1",
    "eager-floodset-ws": "EagerFloodSetWS",
}


class TestMappingBehaviour:
    def test_keys_and_order(self):
        assert list(ALGORITHM_FACTORIES) == list(EXPECTED)
        assert len(ALGORITHM_FACTORIES) == 8
        assert tuple(ALGORITHM_FACTORIES)[:7] == UNIFORM_CONSENSUS_ALGORITHMS
        assert sorted(ALGORITHM_FACTORIES) == sorted(EXPECTED)

    @pytest.mark.parametrize("key", list(EXPECTED))
    def test_every_entry_resolves_to_the_exported_class(self, key):
        factory = ALGORITHM_FACTORIES[key]
        assert factory is getattr(repro.consensus, EXPECTED[key])
        assert ALGORITHM_FACTORIES[key] is factory  # remembered
        assert ALGORITHM_FACTORIES.get(key) is factory
        assert isinstance(make_algorithm(key), RoundAlgorithm)
        assert type(make_algorithm(key)) is factory

    def test_membership_get_and_lookup_of_unknown_names(self):
        assert "a1" in ALGORITHM_FACTORIES
        assert "paxos" not in ALGORITHM_FACTORIES
        assert ALGORITHM_FACTORIES.get("paxos") is None
        assert ALGORITHM_FACTORIES.get("paxos", make_algorithm) is make_algorithm
        with pytest.raises(KeyError):
            ALGORITHM_FACTORIES["paxos"]

    def test_items_and_values_cover_every_entry(self):
        assert [key for key, _ in ALGORITHM_FACTORIES.items()] == list(EXPECTED)
        assert [cls.__name__ for cls in ALGORITHM_FACTORIES.values()] == list(
            EXPECTED.values()
        )

    def test_it_is_read_only(self):
        with pytest.raises(TypeError):
            ALGORITHM_FACTORIES["mine"] = object  # type: ignore[index]

    def test_unknown_name_error_text(self):
        with pytest.raises(ConfigurationError) as raised:
            make_algorithm("paxos")
        assert str(raised.value) == (
            "unknown algorithm 'paxos'; choose from ['a1', 'c-opt', 'c-opt-ws', "
            "'eager-floodset-ws', 'f-opt', 'f-opt-ws', 'floodset', 'floodset-ws']"
        )


def _fresh(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter with ``src/`` importable."""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_ALGORITHM_MODULES = (
    "[m for m in sorted(sys.modules) if m.startswith(('repro.consensus.', "
    "'repro.vector.'))]"
)


class TestWhatGetsImported:
    def test_importing_the_registry_loads_no_algorithm(self):
        out = _fresh(
            "import sys\n"
            "from repro.runtime.registry import ALGORITHM_FACTORIES as table\n"
            "assert len(table) == 8 and 'a1' in table and sorted(table)\n"
            f"print({_ALGORITHM_MODULES})\n"
        )
        assert out.strip() == "[]"

    def test_naming_one_algorithm_loads_its_home_only(self):
        out = _fresh(
            "import sys\n"
            "from repro.runtime.registry import make_algorithm\n"
            "make_algorithm('floodset')\n"
            f"print({_ALGORITHM_MODULES})\n"
        )
        assert out.strip() == "['repro.consensus.floodset']"

    def test_the_kernel_table_loads_when_asked(self):
        # There is no kernel table: "vector" names the round executor,
        # and its package is the one function the ledger reads.
        out = _fresh(
            "import sys\n"
            "import repro.runtime.registry as registry\n"
            "import repro.runtime as runtime\n"
            "import repro.vector as vector\n"
            "assert not hasattr(registry, 'VECTOR_KERNELS')\n"
            "assert not hasattr(runtime, 'VECTOR_KERNELS')\n"
            "assert vector.__all__ == ['backend_name']\n"
            "assert vector.backend_name() == 'python'\n"
            f"print({_ALGORITHM_MODULES})\n"
        )
        assert out.strip() == "[]"

    def test_an_inert_campaign_leg_loads_no_run_directory_layer(self):
        out = _fresh(
            "import sys\n"
            "from repro.runtime.campaign import CampaignLeg\n"
            "leg = CampaignLeg(None, kind='sweep', name='x', config={},\n"
            "                  requests=[])\n"
            "with leg:\n"
            "    assert leg.finalize(lambda run_dir: 1 / 0) is None\n"
            "assert leg.path is None and leg.cache is None\n"
            "print([m for m in ('repro.obs.artifacts', 'repro.runtime.cache')\n"
            "       if m in sys.modules])\n"
        )
        assert out.strip() == "[]"
