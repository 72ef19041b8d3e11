#!/usr/bin/env python
"""Which functions under ``src/repro`` no command executes.

Usage::

    python scripts/line_audit.py              # = make line-audit
    python scripts/line_audit.py --work DIR   # keep the copy and the records

Copies the tree into a scratch directory, puts a ``sitecustomize.py``
into the copy's ``src/`` (every command below runs with
``PYTHONPATH=src``, so every interpreter they start loads it) and runs
every command a user can run, one family of commands at a time, each
family recording into a directory of its own:

* the *claim surface*: ``repro report`` (E1-E15, the run behind
  EXPERIMENTS.md) and the ``repro mc`` verdicts docs/paper_map.md
  quotes;
* the families of :data:`FAMILIES`: ``experiments --ids E2`` and
  ``latency``; the inspection commands with the smoke targets that
  drive them; the campaign commands, likewise; ``make mc-smoke`` with
  ``mc --list``; ``make fuzz-smoke``; any other ``make *-smoke``
  target; and ``examples/*.py``.

The hook is a global ``sys.settrace`` function that records
``(co_filename, co_firstlineno)`` on each ``call`` event and returns
``None``, so nothing is traced per line.  A function is matched by the
line its code object starts on: the ``def`` line, or its first
decorator's.  Forked pool workers leave through ``os._exit``, where
``atexit`` never runs: they dump through ``os.register_at_fork`` plus a
``multiprocessing.util.Finalize``, or on the ``SIGTERM`` a terminating
pool sends them.

Prints one row per family: the lines of functions the claim surface
executes, of functions only that family executes, of functions two or
more families share, and of functions nothing executes, each with its
five largest shares by package.  A function's lines are its source
span, decorators included, minus the functions nested in it; module and
class bodies, and bodiless stubs (a docstring, ``...``, ``pass`` or
``raise NotImplementedError``), are not counted.  Then every function
nothing executes, each with its reason from :data:`KEEP`; one without a
reason makes the exit status 1, and so does a :data:`KEEP` entry for a
function something executes or that no longer exists.  Takes about 9
minutes on a 2-core host.  Each command runs in a session of its own:
one still running after :data:`COMMAND_TIMEOUT_S` is killed with its
whole process group, and the audit prints ``TIMEOUT <command>`` and
exits 1 without a table.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import re
import shutil
import signal
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

#: Every other command a user can run, by family, in the order they
#: run; the ``{work}`` files are written by earlier rows.  A ``make``
#: row runs a smoke target, an ``examples`` row every example script,
#: any other row a ``repro`` command.  A smoke target no family names
#: joins :data:`SMOKE_FAMILY`.
SMOKE_FAMILY = "`make *-smoke` (the others)"
FAMILIES = {
    "`experiments --ids E2`, `latency`": [
        "experiments --ids E2",
        "latency a1",
        "latency floodset-ws",
    ],
    "inspection: `show`, `trace`, `metrics`, `check`, `replay`, `diff`, "
    "`causal`": [
        "show floodset-rws",
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
        "causal {work}/a.jsonl",
        "make trace-smoke",
        "make check-smoke",
        "make causal-smoke",
    ],
    "campaign: `sweep`, `report RUNDIR`, `top`, `causal RUNDIR`": [
        "sweep --list",
        "sweep e10-lambda",
        "sweep oracle-sweep --check --run-dir {work}/runs",
        "causal {work}/runs",
        "top {work}/runs",
        "report {work}/runs",
        "report {work}/runs --json",
        "make sweep-smoke",
        "make report-smoke",
    ],
    "`make mc-smoke`, `mc --list`": ["make mc-smoke", "mc --list"],
    "`make fuzz-smoke`": ["make fuzz-smoke"],
    SMOKE_FAMILY: [],
    "`examples/*.py`": ["examples"],
}

#: Functions nothing above executes and that stay, each with its reason.
#: Keys are ``path under src/:qualified name``.  A reason starts with its
#: kind: a ledger seam, a validator, an error path, a test tool (a double
#: or helper other tests use), a test reference (what tests compare
#: against), a CLI path the runs above leave out, a protocol method (one
#: a base class declares abstract), or ``deferred`` (only its own tests
#: call it; deleting it is left to a later audit).  None is deferred now.
_STRATEGY = "test tool: a Hypothesis strategy of repro.fuzz.strategies"
KEEP: dict[str, str] = {
    "repro/_lazy.py:lazy_exports.__dir__":
        "test tool: dir() of every lazy package (tests/test_lazy_exports.py)",
    "repro/analysis/latency.py:VerificationReport.first_violations":
        "test tool: the assertion message of verify_algorithm checks",
    "repro/commit/spec.py:check_commit_obligation":
        "test reference: the commit obligation SynchronousCommit is held to",
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
    "repro/models/asynchronous.py:AsynchronousModel.__init__":
        "validator: the asynchronous model check_admissible_prefix judges",
    "repro/models/asynchronous.py:AsynchronousModel.make_scheduler":
        "validator: the asynchronous model check_admissible_prefix judges",
    "repro/models/asynchronous.py:AsynchronousModel.validate": "validator",
    "repro/models/sp.py:PerfectFDModel.validate": "validator",
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
    "repro/obs/replay.py:infer_model":
        "test tool: replay_events without a model, as tests call it",
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
    "repro/rounds/executor.py:run_rs":
        "test tool: tests run RS round runs through it",
    "repro/rounds/executor.py:run_rws":
        "test tool: tests run RWS round runs through it",
    "repro/runtime/cache.py:ResultCache.__len__": "test tool: store assertions",
    "repro/runtime/harness.py:execute_batch": "ledger seam",
    "repro/runtime/registry.py:_Factories.__contains__":
        "test tool: registry assertions (tests/test_registry_lazy.py)",
    "repro/runtime/registry.py:_Factories.__iter__":
        "error path: the unknown-algorithm messages list the registry",
    "repro/runtime/registry.py:_Factories.__len__":
        "protocol method: collections.abc.Mapping declares it abstract",
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


#: How long one command may run: the slowest, ``make fuzz-smoke`` and
#: ``make mc-smoke``, take a few minutes on a 2-core host.
COMMAND_TIMEOUT_S = 900


def run(tree: str, records: str, argv: list[str], label: str) -> None:
    """Run one command in a session of its own.  One that outlives
    :data:`COMMAND_TIMEOUT_S` is killed with everything it started, and
    the audit stops: ``TIMEOUT <label>``, exit status 1."""
    os.makedirs(records, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": "src", "REPRO_LINE_AUDIT_OUT": records,
           "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    process = subprocess.Popen(argv, cwd=tree, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        code = process.wait(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session(process)
        print(f"TIMEOUT {label}", flush=True)
        raise SystemExit(1)
    except BaseException:  # an interrupted audit leaves nothing running
        kill_session(process)
        raise
    print(f"  exit {code} {time.perf_counter() - started:6.1f} s  "
          f"{label}", file=sys.stderr, flush=True)


def kill_session(process: subprocess.Popen) -> None:
    """Kill the process group a ``start_new_session`` command leads: the
    command and every process it started (a make recipe's commands, a
    pool's workers)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


#: The ``make`` variables that point each smoke target's outputs into
#: the scratch directory, by leaf name under ``{work}/smoke``.
SMOKE_OUTPUTS = {
    "TRACE_SMOKE_OUT": "trace.jsonl", "CHECK_SMOKE_DIR": "check",
    "SWEEP_SMOKE_CACHE": "sweep", "FUZZ_SMOKE_CACHE": "fuzz",
    "CAUSAL_SMOKE_TRACE": "causal.jsonl", "CAUSAL_SMOKE_JSON": "causal.json",
    "REPORT_SMOKE_RUNS": "report",
    "MC_SMOKE_DIR": "mc",
    "REPORT_CHECK_OUT": "EXPERIMENTS.check.md",
}


def run_family(tree: str, work: str, records: str, commands: list[str]) -> None:
    repro = [sys.executable, "-m", "repro"]
    variables = [f"{name}={work}/smoke/{leaf}"
                 for name, leaf in SMOKE_OUTPUTS.items()]
    os.makedirs(f"{work}/smoke", exist_ok=True)
    for command in commands:
        if command == "examples":
            for example in sorted(glob.glob(os.path.join(tree, "examples",
                                                         "*.py"))):
                run(tree, records, [sys.executable, example],
                    os.path.relpath(example, tree))
        elif command.startswith("make "):
            run(tree, records, ["make", "--no-print-directory",
                                command.split()[1], *variables], command)
        else:
            run(tree, records, repro + command.format(work=work).split(),
                f"repro {command}")


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


def report(src: str, ran: dict[str, set]) -> int:
    """The family table, then the functions nothing executes; ``ran``
    maps each family, the claim surface first, to what it executed."""
    claim, *_ = ran
    shared, nothing = "two or more families share", "nothing"
    rows: dict[str, Counter] = defaultdict(Counter)
    idle = []
    for rel, qualname, first, own in functions(src):
        runners = [name for name, seen in ran.items() if (rel, first) in seen]
        if claim in runners:
            row = claim
        elif len(runners) > 1:
            row = shared
        else:
            row = runners[0] if runners else nothing
        rows[row][package_of(rel)] += own
        if row == nothing:
            idle.append((f"{rel}:{qualname}", own))
    print("| family (the claim surface: what it runs; any other family: "
          "what only it runs) | lines | largest shares |")
    print("|---|---:|---|")
    for row in [*ran, shared, nothing]:
        largest = ", ".join(f"{package} {lines}"
                            for package, lines in rows[row].most_common(5))
        print(f"| {row} | {sum(rows[row].values())} | {largest} |")
    print(f"| total | {sum(sum(row.values()) for row in rows.values())} | |")
    print()
    unexplained = 0
    for name, own in idle:
        reason = KEEP.get(name)
        unexplained += reason is None
        print(f"{own:>5}  {name}  — {reason or 'NO REASON: delete it or keep it'}")
    stale = sorted(set(KEEP) - {name for name, _ in idle})
    for name in stale:
        print(f"  kept but executed or gone: {name}")
    return 1 if unexplained or stale else 0


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
        families = {"claim surface: `report`, the paper_map `mc` verdicts": [
            "report --output {work}/EXPERIMENTS.md",
            *(f"mc {verdict}" for verdict in MC_VERDICTS),
        ]}
        families.update((name, list(commands))
                        for name, commands in FAMILIES.items())
        named = {command.split()[1] for commands in FAMILIES.values()
                 for command in commands if command.startswith("make ")}
        families[SMOKE_FAMILY] += [f"make {target}"
                                   for target in smoke_targets(tree)
                                   if target not in named]
        ran = {}
        for index, (name, commands) in enumerate(families.items()):
            print(f"{name}:", file=sys.stderr)
            records = f"{work}/records/{index}"
            run_family(tree, work, records, commands)
            ran[name] = executed(records, src)
        return report(src, ran)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
