"""Reference oracles written from the paper's definitions.

* :mod:`tests.reference.rounds` — the round models RS and RWS
  (Section 4) as a direct execution of their definitions, independent
  of every engine under ``src/repro``.
* :mod:`tests.reference.consensus` — the consensus and uniform
  consensus clauses (Section 5.1) as run checkers, the second opinion
  on :mod:`repro.consensus.clauses` and its four judges.
* :mod:`tests.reference.validators` — round synchrony and weak round
  synchrony as post-hoc checks over a finished round run.
* :mod:`tests.reference.observations` — what a process observes at
  each step of a step-level run, the step-kernel counterpart of
  :func:`repro.obs.diff.local_view`.
* :mod:`tests.reference.clocks` — Lamport and vector clocks over a
  happens-before DAG, the second opinion on its causal pasts.
* :mod:`tests.reference.records` — the result store's cell and
  template records, template digests, merged sweep traces and the
  ``metrics.jsonl`` audit lines, one whole-record ``json.dumps`` each.
* :mod:`tests.reference.draws` — a seeded random-adversary stream drawn
  the way it was before draws were split from scenario builds: one
  ``Random`` and one validated scenario per cell.
"""
