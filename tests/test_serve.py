"""Fault-injection rig for the sharded campaign fabric (``repro serve``).

The acceptance claims under test, each against a live coordinator:

* a worker killed mid-shard forfeits only its lease — the shard is
  re-leased, and the merged trace stays byte-identical to a
  single-process ``repro sweep`` of the same space;
* a coordinator killed at ~50% resumes from the run directory with
  ``re_executed == 0`` (completed cells are never resharded);
* two workers racing one shard (an expired lease re-granted) both
  submit, the merge dedupes by cache key, and the folded metrics stay
  exact;
* malformed ``/submit`` payloads are quarantined without corrupting
  the result store or the final artifacts.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.runtime.space import ScenarioSpace, e10_lambda_space, oracle_sweep_space
from repro.runtime.sweep import run_space
from repro.obs.report import summary_problems
from repro.serve import (
    Coordinator,
    CoordinatorServer,
    CoordinatorUnreachable,
    ServeAPIError,
    ServeClient,
    ShardPlan,
    ShardState,
    SubmitError,
    execute_shard,
    plan_shards,
    run_worker,
)
from repro.serve.shards import DONE, LEASED, PENDING


def merged_bytes(result) -> str:
    return "\n".join(result.merged_jsonl_lines())


def small_space() -> ScenarioSpace:
    space = e10_lambda_space()
    return ScenarioSpace(name=space.name, requests=space.requests[:10])


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# Shard planning units
# ---------------------------------------------------------------------------


class TestShardPlanning:
    def test_chunks_in_order_covering_every_index(self):
        plans = plan_shards([3, 1, 4, 1, 5, 9, 2], shard_size=3)
        assert [plan.indices for plan in plans] == [
            (3, 1, 4),
            (1, 5, 9),
            (2,),
        ]
        assert [plan.shard_id for plan in plans] == [0, 1, 2]
        assert sum(len(plan) for plan in plans) == 7

    def test_empty_input_plans_nothing(self):
        assert plan_shards([]) == []

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ValueError):
            plan_shards([0, 1], shard_size=0)

    def test_lease_lifecycle(self):
        state = ShardState(ShardPlan(0, (1, 2)))
        assert state.status == PENDING
        state.lease("abc", "w1", deadline=10.0)
        assert state.status == LEASED
        assert state.worker_id == "w1"
        state.expire()
        assert state.status == PENDING
        assert state.lease_id is None
        assert state.requeues == 1
        state.lease("def", "w2", deadline=20.0)
        state.complete()
        assert state.status == DONE


# ---------------------------------------------------------------------------
# Coordinator semantics (direct drive, injectable clock)
# ---------------------------------------------------------------------------


class TestCoordinator:
    def test_distributed_run_matches_single_process_sweep(self, tmp_path):
        space = small_space()
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=3
        )
        while True:
            grant = coordinator.claim("w1")
            if grant.get("done"):
                break
            results = execute_shard(grant)
            receipt = coordinator.submit(
                {
                    "shard_id": grant["shard_id"],
                    "lease_id": grant["lease_id"],
                    "worker_id": "w1",
                    "results": results,
                }
            )
            assert receipt["stale"] is False
        result, summary = coordinator.finalize()
        solo = run_space(space)
        assert merged_bytes(result) == merged_bytes(solo)
        assert result.metrics.state() == solo.metrics.state()
        assert summary["resume"]["re_executed"] == 0
        assert summary["serve"]["cells"]["executed"] == len(space.requests)
        assert summary_problems(summary) == []

    def test_expired_lease_requeues_shard(self, tmp_path):
        clock = FakeClock()
        space = small_space()
        coordinator = Coordinator(
            space,
            run_root=str(tmp_path / "runs"),
            shard_size=4,
            lease_ttl=5.0,
            clock=clock,
        )
        first = coordinator.claim("w1")
        clock.now += 6.0
        second = coordinator.claim("w2")
        # w1's lease expired, so w2 is granted the *same* shard again.
        assert second["shard_id"] == first["shard_id"]
        assert second["lease_id"] != first["lease_id"]
        assert coordinator.shards[first["shard_id"]].requeues == 1
        assert coordinator.status()["shards"]["requeued"] == 1

    def test_lease_race_dedupes_and_keeps_metrics_exact(self, tmp_path):
        clock = FakeClock()
        space = small_space()
        coordinator = Coordinator(
            space,
            run_root=str(tmp_path / "runs"),
            shard_size=len(space.requests),
            lease_ttl=5.0,
            clock=clock,
        )
        slow = coordinator.claim("w-slow")
        clock.now += 10.0
        fast = coordinator.claim("w-fast")
        assert fast["shard_id"] == slow["shard_id"]
        results = execute_shard(fast)
        fast_receipt = coordinator.submit(
            {
                "shard_id": fast["shard_id"],
                "lease_id": fast["lease_id"],
                "worker_id": "w-fast",
                "results": results,
            }
        )
        assert fast_receipt["accepted"] == len(space.requests)
        # The slow worker finally submits the same shard under its dead
        # lease: every cell dedupes, the submission is counted stale.
        slow_receipt = coordinator.submit(
            {
                "shard_id": slow["shard_id"],
                "lease_id": slow["lease_id"],
                "worker_id": "w-slow",
                "results": execute_shard(slow),
            }
        )
        assert slow_receipt["stale"] is True
        assert slow_receipt["accepted"] == 0
        assert slow_receipt["duplicates"] == len(space.requests)
        assert coordinator.duplicate_cells == len(space.requests)

        result, summary = coordinator.finalize()
        solo = run_space(space)
        assert merged_bytes(result) == merged_bytes(solo)
        # Metrics are exact: the duplicate submission contributed nothing.
        assert result.metrics.state() == solo.metrics.state()
        assert summary["resume"]["executed"] == len(space.requests)
        assert summary["serve"]["stale_submissions"] == 1

    def test_coordinator_killed_at_half_resumes_with_zero_reexecution(
        self, tmp_path
    ):
        space = small_space()
        root = str(tmp_path / "runs")
        first = Coordinator(space, run_root=root, shard_size=2)
        total_shards = len(first.shards)
        for _ in range(total_shards // 2):
            grant = first.claim("w1")
            first.submit(
                {
                    "shard_id": grant["shard_id"],
                    "lease_id": grant["lease_id"],
                    "worker_id": "w1",
                    "results": execute_shard(grant),
                }
            )
        done_before = len(first.merged)
        assert 0 < done_before < len(space.requests)
        first.mark_interrupted()
        del first  # the "kill": no finalize, leases lost, state gone

        second = Coordinator(space, run_root=root, shard_size=2)
        # Completed cells were never resharded — only the remainder is.
        assert len(second.completed_before) == done_before
        assert (
            sum(len(shard.plan) for shard in second.shards)
            == len(space.requests) - done_before
        )
        while True:
            grant = second.claim("w2")
            if grant.get("done"):
                break
            second.submit(
                {
                    "shard_id": grant["shard_id"],
                    "lease_id": grant["lease_id"],
                    "worker_id": "w2",
                    "results": execute_shard(grant),
                }
            )
        result, summary = second.finalize()
        assert summary["resume"]["completed_before"] == done_before
        assert summary["resume"]["re_executed"] == 0
        assert summary["resume"]["executed"] == len(space.requests) - done_before
        assert merged_bytes(result) == merged_bytes(run_space(space))
        assert summary_problems(summary) == []

    def test_finalize_refuses_incomplete_campaign(self, tmp_path):
        coordinator = Coordinator(
            small_space(), run_root=str(tmp_path / "runs")
        )
        with pytest.raises(RuntimeError, match="cells still missing"):
            coordinator.finalize()
        assert coordinator.summary_document()["in_progress"] is True

    def test_submit_rejects_junk_without_touching_the_store(self, tmp_path):
        space = small_space()
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=4
        )
        grant = coordinator.claim("w1")
        keys = [request.cache_key() for request in space.requests]
        good = execute_shard(grant)
        bad_payloads = [
            "not even a dict",
            {"shard_id": "zero", "results": []},
            {"shard_id": 999, "results": []},
            {"shard_id": grant["shard_id"], "results": "nope"},
            {"shard_id": grant["shard_id"], "results": [{"garbage": 1}]},
            # A parseable result whose key belongs to a different shard:
            {
                "shard_id": grant["shard_id"],
                "results": [dict(good[0], request_key=keys[-1])],
            },
        ]
        for payload in bad_payloads:
            with pytest.raises(SubmitError):
                coordinator.submit(payload)
        assert coordinator.merged == coordinator.completed_before == set()
        assert len(coordinator.cache) == 0

    def test_quarantine_writes_next_to_results_not_into_them(self, tmp_path):
        coordinator = Coordinator(
            small_space(), run_root=str(tmp_path / "runs")
        )
        path = coordinator.quarantine({"oops": 1}, "test reason")
        record = json.loads(open(path, encoding="utf-8").read())
        assert record["reason"] == "test reason"
        assert coordinator.quarantined == 1
        assert len(coordinator.cache) == 0

    def test_resume_interops_with_single_process_sweep_run_dir(self, tmp_path):
        """serve and ``sweep --run-dir`` share one content-addressed run."""
        from repro.obs.artifacts import RunDir, identity_for_requests
        from repro.runtime.cache import ResultCache
        from repro.runtime.sweep import SweepRunner

        space = small_space()
        root = tmp_path / "runs"
        requests = list(space.requests)
        run_dir = RunDir.open(
            root,
            kind="sweep",
            name=space.name,
            identity=identity_for_requests(requests),
            cells=[(r.name, r.cache_key()) for r in requests],
        )
        SweepRunner(cache=ResultCache(run_dir.results_dir)).run(space)

        coordinator = Coordinator(space, run_root=str(root))
        assert coordinator.run_dir.path == run_dir.path
        assert coordinator.shards == []  # nothing left to do
        assert coordinator.claim("w1") == {"done": True}
        _, summary = coordinator.finalize()
        assert summary["resume"]["completed_before"] == len(requests)
        assert summary["resume"]["re_executed"] == 0


# ---------------------------------------------------------------------------
# The HTTP fabric (real server, real workers, real faults)
# ---------------------------------------------------------------------------


def run_fabric(coordinator, workers=2, **worker_kwargs):
    """Serve ``coordinator`` and drain it with N worker threads."""
    server = CoordinatorServer(coordinator).start()
    try:
        threads = [
            threading.Thread(
                target=run_worker,
                args=(server.url,),
                kwargs=dict(worker_kwargs, worker_id=f"w{i}"),
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert coordinator.is_complete()
        return server
    finally:
        server.shutdown()


class TestHTTPFabric:
    def test_two_workers_over_http_match_sweep_bytes(self, tmp_path):
        space = small_space()
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=3
        )
        run_fabric(coordinator, workers=2)
        result, summary = coordinator.finalize()
        assert merged_bytes(result) == merged_bytes(run_space(space))
        assert summary["resume"]["re_executed"] == 0
        assert len(summary["serve"]["workers"]) >= 1
        assert summary_problems(summary) == []

    def test_killed_worker_mid_shard_is_releases_and_bytes_match(
        self, tmp_path
    ):
        space = small_space()
        coordinator = Coordinator(
            space,
            run_root=str(tmp_path / "runs"),
            shard_size=4,
            lease_ttl=0.3,
        )
        server = CoordinatorServer(coordinator).start()
        try:
            client = ServeClient(server.url)
            # The doomed worker claims a shard, executes it... and dies
            # before submitting (no submit call ever happens).
            doomed = client.claim("doomed")
            assert "shard_id" in doomed
            # A healthy worker drains the run; the forfeited lease
            # expires (ttl 0.3 s) and the shard is re-leased to it.
            stats = run_worker(server.url, worker_id="healthy")
            assert stats["reason"] == "done"
            assert coordinator.is_complete()
            assert coordinator.shards[doomed["shard_id"]].requeues >= 1
        finally:
            server.shutdown()
        result, summary = coordinator.finalize()
        solo = run_space(space)
        assert merged_bytes(result) == merged_bytes(solo)
        assert result.metrics.state() == solo.metrics.state()
        assert summary["serve"]["shards"]["requeued"] >= 1
        assert summary["resume"]["re_executed"] == 0

    def test_malformed_submissions_are_quarantined_not_merged(self, tmp_path):
        space = small_space()
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=4
        )
        server = CoordinatorServer(coordinator).start()
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeAPIError) as invalid_json:
                client.submit_raw(b"this is not json {{{")
            assert invalid_json.value.status == 400
            with pytest.raises(ServeAPIError) as bad_shape:
                client.submit({"shard_id": 0, "results": [{"junk": True}]})
            assert bad_shape.value.status == 400
            assert "quarantined" in bad_shape.value.body
            # The attacks corrupted nothing: the run completes and the
            # trace is still byte-identical to the single-process sweep.
            stats = run_worker(server.url, worker_id="honest")
            assert stats["reason"] == "done"
        finally:
            server.shutdown()
        result, summary = coordinator.finalize()
        assert merged_bytes(result) == merged_bytes(run_space(space))
        assert summary["serve"]["quarantined"] == 2
        quarantine = coordinator.run_dir.path / "quarantine"
        assert len(list(quarantine.glob("q-*.json"))) == 2
        # Quarantine lives *next to* results/, never inside it.
        assert coordinator.run_dir.completed_keys() == set(
            request.cache_key() for request in space.requests
        )

    def test_status_and_summary_endpoints(self, tmp_path):
        space = small_space()
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=4
        )
        server = CoordinatorServer(coordinator).start()
        try:
            client = ServeClient(server.url)
            status = client.status()
            assert status["status"] == "serving"
            assert status["cells"]["planned"] == len(space.requests)
            assert client.summary()["in_progress"] is True
            with pytest.raises(ServeAPIError) as missing:
                client._call("/no-such-endpoint")
            assert missing.value.status == 404
            run_worker(server.url, worker_id="w1")
            coordinator.finalize()
            final = client.summary()
            assert final["resume"]["re_executed"] == 0
            assert client.status()["status"] == "complete"
        finally:
            server.shutdown()

    def test_worker_survives_no_coordinator(self):
        stats = run_worker(
            "127.0.0.1:1",  # nothing listens on port 1
            worker_id="lonely",
            connect_timeout_s=0.2,
        )
        assert stats["reason"] == "disconnected"
        assert stats["shards"] == 0

    def test_client_unreachable_raises_typed_error(self):
        with pytest.raises(CoordinatorUnreachable):
            ServeClient("127.0.0.1:1", timeout_s=0.5).status()


# ---------------------------------------------------------------------------
# Acceptance sweeps: the ISSUE's named spaces, distributed vs solo
# ---------------------------------------------------------------------------


class TestAcceptanceSpaces:
    def test_oracle_sweep_distributed_matches_solo(self, tmp_path):
        space = oracle_sweep_space(count=3)
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=5
        )
        run_fabric(coordinator, workers=2)
        result, summary = coordinator.finalize()
        solo = run_space(space)
        assert merged_bytes(result) == merged_bytes(solo)
        assert result.metrics.state() == solo.metrics.state()
        assert summary["resume"]["re_executed"] == 0

    def test_fuzz_stream_space_over_serve(self, tmp_path):
        from repro.fuzz.strategies import fuzz_stream_space

        space = fuzz_stream_space(budget=6, seed=7)
        assert len(space.requests) == 6
        coordinator = Coordinator(
            space, run_root=str(tmp_path / "runs"), shard_size=2
        )
        run_fabric(coordinator, workers=2)
        result, summary = coordinator.finalize()
        solo = run_space(space)
        assert merged_bytes(result) == merged_bytes(solo)
        assert summary["resume"]["re_executed"] == 0
        # The stream itself is stable: same (budget, seed) → same keys.
        again = fuzz_stream_space(budget=6, seed=7)
        assert [r.cache_key() for r in again.requests] == [
            r.cache_key() for r in space.requests
        ]


class TestServeCLI:
    """`repro serve` / `repro work` end to end, in-process."""

    def test_cli_fabric_matches_cli_sweep(self, tmp_path, capsys):
        from repro.cli.main import main

        solo_jsonl = tmp_path / "solo.jsonl"
        assert main(
            ["sweep", "e10-lambda", "--jsonl", str(solo_jsonl)]
        ) == 0

        runs = tmp_path / "runs"
        serve_jsonl = tmp_path / "serve.jsonl"
        serve_rc: list[int] = []
        server = threading.Thread(
            target=lambda: serve_rc.append(
                main(
                    [
                        "serve",
                        "e10-lambda",
                        "--run-dir",
                        str(runs),
                        "--jsonl",
                        str(serve_jsonl),
                        "--shard-size",
                        "4",
                        "--linger-s",
                        "0.0",
                        "--check",
                    ]
                )
            )
        )
        server.start()
        try:
            endpoint = None
            for _ in range(300):
                candidates = list(runs.glob("*/serve.json"))
                if candidates:
                    endpoint = json.loads(
                        candidates[0].read_text(encoding="utf-8")
                    )
                    break
                threading.Event().wait(0.05)
            assert endpoint is not None, "serve.json never appeared"
            connect = endpoint["url"].removeprefix("http://")

            worker_rcs: list[int] = []
            workers = [
                threading.Thread(
                    target=lambda: worker_rcs.append(
                        main(["work", "--connect", connect])
                    )
                )
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            server.join(timeout=120)
        assert not server.is_alive()
        assert serve_rc == [0]
        assert worker_rcs == [0, 0]
        assert serve_jsonl.read_bytes() == solo_jsonl.read_bytes()
        run_dirs = list(runs.glob("*/summary.json"))
        assert len(run_dirs) == 1
        summary = json.loads(run_dirs[0].read_text(encoding="utf-8"))
        assert summary["serve"]["cells"]["merged"] == 32
        assert summary["oracle"]["failed"] == 0
        assert summary_problems(summary) == []

    def test_serve_rejects_unknown_space(self, capsys):
        from repro.cli.main import main

        assert main(["serve", "no-such-space"]) == 2
        assert "no-such-space" in capsys.readouterr().err

    def test_work_exits_zero_when_coordinator_absent(self, capsys):
        from repro.cli.main import main

        rc = main(
            [
                "work",
                "--connect",
                "127.0.0.1:1",
                "--connect-timeout",
                "0.2",
            ]
        )
        assert rc == 0
        assert "disconnected" in capsys.readouterr().out

    def test_serve_fuzz_stream_space(self, tmp_path):
        from repro.cli.main import main

        runs = tmp_path / "runs"
        serve_rc: list[int] = []
        server = threading.Thread(
            target=lambda: serve_rc.append(
                main(
                    [
                        "serve",
                        "fuzz",
                        "--count",
                        "6",
                        "--seed",
                        "7",
                        "--run-dir",
                        str(runs),
                        "--shard-size",
                        "3",
                        "--linger-s",
                        "0.0",
                    ]
                )
            )
        )
        server.start()
        try:
            endpoint = None
            for _ in range(300):
                candidates = list(runs.glob("*/serve.json"))
                if candidates:
                    endpoint = json.loads(
                        candidates[0].read_text(encoding="utf-8")
                    )
                    break
                threading.Event().wait(0.05)
            assert endpoint is not None
            connect = endpoint["url"].removeprefix("http://")
            rc = main(["work", "--connect", connect])
        finally:
            server.join(timeout=120)
        assert rc == 0
        assert serve_rc == [0]
