#!/usr/bin/env python
"""Which functions under ``src/repro`` no command executes.

Usage::

    python scripts/line_audit.py              # = make line-audit
    python scripts/line_audit.py --work DIR   # keep the copy and the records

Copies the tree into a scratch directory, puts a ``sitecustomize.py``
into the copy's ``src/`` (every command below runs with
``PYTHONPATH=src``, so every interpreter they start loads it) and runs
two sets of commands in the copy:

* the *claim surface*: ``repro report`` (E1-E15, the run behind
  EXPERIMENTS.md), the ``repro mc`` verdicts docs/paper_map.md quotes,
  and every ``make *-smoke`` target;
* everything else a user can run: ``repro experiments --extensions``,
  ``summary``, ``sdd``, ``commit``, ``latency``, ``show [--dot]``,
  ``metrics``, ``trace``, ``diff``, ``replay``, ``check``, ``causal``,
  ``top``, ``report RUNDIR``, ``mc --list``, ``sweep --list``,
  ``sweep e10-lambda`` and ``examples/*.py``.

The hook is a global ``sys.settrace`` function that records
``(co_filename, co_firstlineno)`` on each ``call`` event and returns
``None``, so nothing is traced per line.  A function is matched by the
line its code object starts on: the ``def`` line, or its first
decorator's.  Forked pool workers leave through ``os._exit``, where
``atexit`` never runs: they dump through ``os.register_at_fork`` plus a
``multiprocessing.util.Finalize``, or on the ``SIGTERM`` a terminating
pool sends them.

Prints one row per package: the lines of functions the claim surface
executes, of functions only the other commands execute, and of
functions nothing executes.  A function's lines are its source span,
decorators included, minus the functions nested in it; module and class
bodies, and bodiless stubs (a docstring, ``...``, ``pass`` or ``raise
NotImplementedError``), are not counted.  Then every function nothing
executes, each with its reason from :data:`KEEP`; one without a reason
makes the exit status 1.  Takes about 9 minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SITECUSTOMIZE = '''\
"""Function-entry recorder for scripts/line_audit.py (a scratch copy only)."""
import os
import sys

_OUT = os.environ.get("REPRO_LINE_AUDIT_OUT")
if _OUT:
    import atexit
    import threading

    _seen = set()

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _seen.add((code.co_filename, code.co_firstlineno))
        return None

    def _dump():
        path = os.path.join(_OUT, "%d-%d.tsv" % (os.getpid(), id(_seen)))
        with open(path, "a") as out:
            for name, line in _seen:
                out.write("%s\\t%d\\n" % (name, line))
        _seen.clear()

    def _arm(dump):
        import multiprocessing.util

        multiprocessing.util.Finalize(None, dump, exitpriority=100)

    def _on_sigterm(signum, frame):
        _dump()
        os._exit(128 + signum)

    def _in_child():
        _seen.clear()
        util = sys.modules.get("multiprocessing.util")
        if util is not None:
            # A multiprocessing child clears the finalizer registry after
            # the fork hooks run; an after-forker runs after that clear.
            util.register_after_fork(_dump, _arm)
            import signal

            signal.signal(signal.SIGTERM, _on_sigterm)

    atexit.register(_dump)
    os.register_at_fork(after_in_child=_in_child)
    threading.settrace(_hook)
    sys.settrace(_hook)
'''

#: The ``repro mc`` verdicts docs/paper_map.md quotes (its "model checker"
#: table and the theorems it anchors them to).
MC_VERDICTS = [
    "agreement --algorithm floodset",
    "agreement --algorithm a1",
    "agreement --algorithm floodset --model RWS --out {work}/mc-rws",
    "agreement --algorithm floodset --n 4 --t 2",
    "uniform-agreement --algorithm eager-floodset-ws --model RWS",
    "validity --algorithm floodset",
    "termination --algorithm floodset",
    "lambda --algorithm a1",
    "lambda --algorithm floodset",
    "indistinguishability --algorithm a1 --n 3 --t 1",
    "indistinguishability --algorithm floodset-ws --model RWS",
    "indistinguishability --fixture suspicion",
]

#: Every other command a user can run, after the claim surface; the
#: ``{work}`` files are written by the earlier rows.
OTHER_COMMANDS = [
    "experiments --extensions",
    "summary",
    "sdd",
    "commit",
    "latency a1",
    "latency floodset-ws",
    "show floodset-rws",
    "show a1-rws --dot",
    "metrics",
    "metrics --json",
    "trace floodset-rws --jsonl {work}/a.jsonl",
    "trace a1-rws --jsonl {work}/b.jsonl",
    "diff {work}/a.jsonl {work}/b.jsonl",
    "diff {work}/a.jsonl {work}/b.jsonl --pid 1",
    "replay floodset-rws {work}/a.jsonl",
    "check floodset-rws",
    "check --jsonl {work}/a.jsonl --model RWS",
    "check --sdd-fixture timeout",
    "mc --list",
    "sweep --list",
    "sweep e10-lambda",
    "sweep oracle-sweep --check --run-dir {work}/runs",
    "causal {work}/a.jsonl",
    "causal {work}/runs",
    "top {work}/runs",
    "report {work}/runs",
    "report {work}/runs --json",
]

#: Functions nothing above executes and that stay, each with its reason.
#: Keys are ``path under src/:qualified name``.  A reason starts with its
#: kind: a ledger seam, a validator, an error path, a test tool (a double
#: or helper other tests use), a test reference (what tests compare
#: against), a CLI path the runs above leave out, a protocol method (one
#: a base class declares abstract), or ``deferred`` (only its own tests
#: call it; deleting it is left to a later audit).
_STRATEGY = "test tool: a Hypothesis strategy of repro.fuzz.strategies"
KEEP: dict[str, str] = {
    "repro/_lazy.py:lazy_exports.__dir__":
        "test tool: dir() of every lazy package (tests/test_lazy_exports.py)",
    "repro/analysis/latency.py:VerificationReport.first_violations":
        "test tool: the assertion message of verify_algorithm checks",
    "repro/analysis/timefree.py:_execute_script._ReplayHistory.__init__":
        "deferred: time-free rescheduling of a detector run (ROADMAP 14)",
    "repro/analysis/timefree.py:_execute_script._ReplayHistory.suspects":
        "deferred: time-free rescheduling of a detector run (ROADMAP 14)",
    "repro/commit/spec.py:check_commit_obligation":
        "test reference: the commit obligation SynchronousCommit is held to",
    "repro/consensus/spec.py:check_many":
        "deferred: only tests/test_spec_checkers.py::TestCheckMany calls it",
    "repro/core/experiments.py:run_experiment":
        "test tool: tests run one experiment by id through it",
    "repro/core/extensions.py:run_extension":
        "test tool: tests/test_report_extensions.py runs X1-X7 through it",
    "repro/failures/history.py:FailureDetectorHistory.suspects_at":
        "deferred: only tests/test_detectors.py calls it",
    "repro/failures/pattern.py:FailurePattern.num_failures":
        "test tool: failure-pattern assertions",
    "repro/fuzz/campaign.py:Counterexample.oracles":
        "error path: a fuzz counterexample's report",
    "repro/fuzz/campaign.py:Counterexample.to_dict":
        "error path: a fuzz counterexample's report",
    "repro/fuzz/campaign.py:Counterexample.describe":
        "error path: a fuzz counterexample's report",
    "repro/fuzz/oracles.py:_fmt_decisions":
        "error path: the twin oracle's mismatch message",
    "repro/fuzz/strategies.py:mc_frontier_case": "CLI path: `fuzz --frontier`",
    "repro/fuzz/strategies.py:mc_frontier_cases": "CLI path: `fuzz --frontier`",
    "repro/fuzz/strategies.py:_strategies": _STRATEGY,
    "repro/fuzz/strategies.py:initial_values": _STRATEGY,
    "repro/fuzz/strategies.py:failure_patterns": _STRATEGY,
    "repro/fuzz/strategies.py:crash_events": _STRATEGY,
    "repro/fuzz/strategies.py:crash_events.build": _STRATEGY,
    "repro/fuzz/strategies.py:failure_scenarios": _STRATEGY,
    "repro/fuzz/strategies.py:failure_scenarios.scenarios": _STRATEGY,
    "repro/fuzz/strategies.py:rounds_requests": _STRATEGY,
    "repro/fuzz/strategies.py:rounds_requests.build": _STRATEGY,
    "repro/mc/config.py:canonical_form":
        "test reference: tests/test_mc_symmetry.py's n! orbit reference",
    "repro/mc/fixtures.py:sdd_fixture_names":
        "error path: the unknown --fixture message lists the names",
    "repro/mc/space.py:save_frontier": "CLI path: `mc --save-frontier`",
    "repro/mc/space.py:load_frontier": "CLI path: `fuzz --frontier`",
    "repro/models/asynchronous.py:check_admissible_prefix": "validator",
    "repro/models/asynchronous.py:AsynchronousModel.__init__":
        "validator: the asynchronous model check_admissible_prefix judges",
    "repro/models/asynchronous.py:AsynchronousModel.make_scheduler":
        "validator: the asynchronous model check_admissible_prefix judges",
    "repro/models/asynchronous.py:AsynchronousModel.validate": "validator",
    "repro/models/sp.py:validate_sp_run": "validator",
    "repro/models/sp.py:PerfectFDModel.validate": "validator",
    "repro/models/ss.py:SynchronousModel.validate": "validator",
    "repro/obs/artifacts.py:RunDir.completed_keys":
        "test tool: run-directory resume assertions",
    "repro/obs/artifacts.py:RunDir.metrics_records":
        "test tool: metrics.jsonl assertions",
    "repro/obs/artifacts.py:RunDir.mark_interrupted":
        "error path: a leg that never finalizes",
    "repro/obs/artifacts.py:identity_for_requests":
        "test tool: tests open run directories with it",
    "repro/obs/check.py:CheckReport.by_checker":
        "test tool: trace-oracle assertions",
    "repro/obs/events.py:EventLog.kinds": "test tool: event-log assertions",
    "repro/obs/events.py:EventLog.of_kind": "test tool: event-log assertions",
    "repro/obs/progress.py:ProgressReporter.__enter__":
        "deferred: only tests/test_progress.py and test_artifacts.py use it",
    "repro/obs/progress.py:ProgressReporter.__exit__":
        "deferred: only tests/test_progress.py and test_artifacts.py use it",
    "repro/obs/replay.py:infer_model":
        "test tool: replay_events without a model, as tests call it",
    "repro/obs/report.py:summarize_fuzz": "CLI path: `fuzz --run-dir` summaries",
    "repro/obs/template.py:TemplateEvents.__eq__":
        "test tool: tests compare a result's events with a list",
    "repro/obs/template.py:TemplateEvents.__repr__":
        "test tool: what a failing assertion on events prints",
    "repro/rounds/enumeration.py:expected_scenario_count":
        "test reference: the closed form all_scenarios is counted against",
    "repro/rounds/executor.py:RoundRun.decided_values":
        "test tool: round-run assertions",
    "repro/rounds/executor.py:RoundRun.all_correct_decided":
        "test tool: round-run assertions",
    "repro/runtime/cache.py:ResultCache.__len__": "test tool: store assertions",
    "repro/runtime/harness.py:execute_batch": "ledger seam",
    "repro/runtime/registry.py:_Factories.__contains__":
        "test tool: registry assertions (tests/test_registry_lazy.py)",
    "repro/runtime/registry.py:_Factories.__iter__":
        "error path: the unknown-algorithm messages list the registry",
    "repro/runtime/registry.py:_Factories.__len__":
        "protocol method: collections.abc.Mapping declares it abstract",
    "repro/runtime/request.py:ExecutionResult.to_dict":
        "test tool: tests write an older writer's inline store cell with it",
    "repro/runtime/request.py:ExecutionResult.from_dict":
        "CLI path: ResultCache.get on an older writer's inline store cell",
    "repro/runtime/space.py:ScenarioSpace.__len__": "test tool: space assertions",
    "repro/runtime/space.py:ScenarioSpace.__iter__": "test tool: space assertions",
    "repro/runtime/sweep.py:CellCheck.describe":
        "error path: a failed cell's report",
    "repro/runtime/sweep.py:CellCheck.problems":
        "error path: a failed cell's report",
    "repro/runtime/sweep.py:SweepResult.merged_events":
        "test reference: the merged trace the writer is compared against",
    "repro/runtime/sweep.py:run_space": "test tool: tests run spaces with it",
    "repro/simulation/automaton.py:IdleAutomaton.initial_state":
        "test tool: IdleAutomaton",
    "repro/simulation/automaton.py:IdleAutomaton.on_step":
        "test tool: IdleAutomaton",
    "repro/simulation/run.py:Run.steps_of": "test tool: step-run assertions",
    "repro/simulation/run.py:Run.messages_sent_by":
        "test tool: step-run assertions",
    "repro/simulation/run.py:Run.undelivered_to_correct":
        "validator: check_admissible_prefix's delivery check",
    "repro/simulation/schedule.py:Schedule.__getitem__":
        "test tool: schedule assertions",
    "repro/simulation/schedule.py:Schedule.projection":
        "test tool: schedule assertions",
    "repro/simulation/schedule.py:Schedule.step_counts":
        "test tool: schedule assertions",
    "repro/simulation/schedulers.py:RoundRobinScheduler.__init__":
        "test tool: RoundRobinScheduler",
    "repro/simulation/schedulers.py:RoundRobinScheduler.choose":
        "test tool: RoundRobinScheduler",
    "repro/stats/summary.py:Summary.describe":
        "deferred: only tests/test_workloads_stats.py calls it",
    "repro/stats/summary.py:rate":
        "deferred: only tests/test_workloads_stats.py calls it",
}

def _is_stub(node: ast.AST) -> bool:
    """A body of only a docstring, ``pass``, ``...`` or ``raise
    NotImplementedError``: nothing to execute."""
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (only,) = body
    if isinstance(only, ast.Pass):
        return True
    if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant):
        return only.value.value is Ellipsis
    if isinstance(only, ast.Raise) and only.exc is not None:
        exc = only.exc.func if isinstance(only.exc, ast.Call) else only.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def functions(src: str) -> list[tuple[str, str, int, int]]:
    """``(relpath, qualname, first line, own lines)`` for every function
    under ``src/repro``, stubs excluded.  A line is owned by the
    innermost function or class around it."""
    found = []
    for path in sorted(glob.glob(os.path.join(src, "repro", "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, src)
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        defs = []  # (first line, last line, qualname, counted), outer first

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    counted = not isinstance(child, ast.ClassDef) and not (
                        _is_stub(child))
                    defs.append((first, child.end_lineno, prefix + child.name,
                                 counted))
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        owner = {}
        for index, (first, last, _, _) in enumerate(defs):
            owner.update(dict.fromkeys(range(first, last + 1), index))
        own = Counter(owner.values())
        found.extend((rel, name, first, own[index])
                     for index, (first, _, name, counted) in enumerate(defs)
                     if counted)
    return found


def copy_tree(work: str) -> str:
    tree = os.path.join(work, "tree")
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".ledger_work",
        "runs"))
    with open(os.path.join(tree, "src", "sitecustomize.py"), "w") as out:
        out.write(SITECUSTOMIZE)
    return tree


def smoke_targets(tree: str) -> list[str]:
    with open(os.path.join(tree, "Makefile")) as handle:
        return re.findall(r"^([a-z-]+-smoke):", handle.read(), re.M)


def run(tree: str, records: str, argv: list[str], label: str) -> None:
    os.makedirs(records, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": "src", "REPRO_LINE_AUDIT_OUT": records,
           "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    print(f"  exit {done.returncode} {time.perf_counter() - started:6.1f} s  "
          f"{label}", file=sys.stderr, flush=True)


def claim_surface(tree: str, work: str, records: str) -> None:
    repro = [sys.executable, "-m", "repro"]
    run(tree, records, repro + ["report", "--output", f"{work}/EXPERIMENTS.md"],
        "repro report")
    for verdict in MC_VERDICTS:
        argv = verdict.format(work=work).split()
        run(tree, records, repro + ["mc", *argv], f"repro mc {verdict}")
    scratch = {
        "TRACE_SMOKE_OUT": "trace.jsonl", "CHECK_SMOKE_DIR": "check",
        "SWEEP_SMOKE_CACHE": "sweep", "FUZZ_SMOKE_CACHE": "fuzz",
        "CAUSAL_SMOKE_TRACE": "causal.jsonl", "CAUSAL_SMOKE_JSON": "causal.json",
        "REPORT_SMOKE_RUNS": "report",
        "MC_SMOKE_DIR": "mc",
        "REPORT_CHECK_OUT": "EXPERIMENTS.check.md",
    }
    variables = [f"{name}={work}/smoke/{leaf}" for name, leaf in scratch.items()]
    os.makedirs(f"{work}/smoke", exist_ok=True)
    for target in smoke_targets(tree):
        run(tree, records, ["make", "--no-print-directory", target, *variables],
            f"make {target}")


def other_commands(tree: str, work: str, records: str) -> None:
    repro = [sys.executable, "-m", "repro"]
    for command in OTHER_COMMANDS:
        argv = command.format(work=work).split()
        run(tree, records, repro + argv, f"repro {command}")
    for example in sorted(glob.glob(os.path.join(tree, "examples", "*.py"))):
        run(tree, records, [sys.executable, example],
            os.path.relpath(example, tree))


def executed(records: str, src: str) -> set[tuple[str, int]]:
    prefix = os.path.join(src, "repro") + os.sep
    seen = set()
    for path in glob.glob(os.path.join(records, "*.tsv")):
        with open(path) as handle:
            for row in handle:
                name, _, line = row.rstrip("\n").rpartition("\t")
                if name.startswith(prefix):
                    seen.add((os.path.relpath(name, src), int(line)))
    return seen


def package_of(rel: str) -> str:
    parts = rel.split(os.sep)
    return parts[1] if len(parts) > 2 else "(top)"


def report(src: str, claim: set, other: set) -> int:
    rows: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    idle = []
    for rel, qualname, first, own in functions(src):
        column = 0 if (rel, first) in claim else 1 if (rel, first) in other else 2
        rows[package_of(rel)][column] += own
        if column == 2:
            idle.append((f"{rel}:{qualname}", own))
    print(f"{'package':<14}{'claim':>8}{'other':>8}{'nothing':>9}")
    for package in sorted(rows):
        print(f"{package:<14}" + "".join(
            f"{n:>{w}}" for n, w in zip(rows[package], (8, 8, 9))))
    totals = [sum(row[i] for row in rows.values()) for i in range(3)]
    print(f"{'total':<14}" + "".join(
        f"{n:>{w}}" for n, w in zip(totals, (8, 8, 9))))
    print()
    unexplained = 0
    for name, own in idle:
        reason = KEEP.get(name)
        unexplained += reason is None
        print(f"{own:>5}  {name}  — {reason or 'NO REASON: delete it or keep it'}")
    stale = sorted(set(KEEP) - {name for name, _ in idle})
    for name in stale:
        print(f"  kept but executed or gone: {name}")
    return 1 if unexplained else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="scratch directory to keep "
                        "(default: a temporary one, removed afterwards)")
    args = parser.parse_args(argv)
    work = os.path.abspath(args.work) if args.work else tempfile.mkdtemp(
        prefix="line-audit-")
    try:
        tree = copy_tree(work)
        src = os.path.join(tree, "src")
        print("claim surface:", file=sys.stderr)
        claim_surface(tree, work, f"{work}/claim")
        print("other commands:", file=sys.stderr)
        other_commands(tree, work, f"{work}/other")
        return report(src, executed(f"{work}/claim", src),
                      executed(f"{work}/other", src))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
