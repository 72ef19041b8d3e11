.PHONY: install test test-fast coverage examples experiments report report-check trace-smoke check-smoke sweep-smoke fuzz-smoke report-smoke causal-smoke mc-smoke ledger-smoke startup-report line-audit clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src pytest tests/

test-fast:
	PYTHONPATH=src pytest tests/ -m "not slow"

# Tier-1 with line coverage; fails below the floor.  Needs pytest-cov
# (CI installs it; `pip install pytest-cov` locally).
COVERAGE_FLOOR ?= 80

coverage:
	@PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; run: pip install pytest-cov"; exit 1; }
	PYTHONPATH=src pytest tests/ -q \
		--cov=repro --cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COVERAGE_FLOOR)

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

experiments:
	PYTHONPATH=src python -m repro experiments

report:
	PYTHONPATH=src python -m repro report --output EXPERIMENTS.md

REPORT_CHECK_OUT ?= /tmp/EXPERIMENTS.md

# EXPERIMENTS.md is generated, never edited: regenerate it and compare
# byte for byte, so a hand-edited number or a changed verdict wording
# fails here.
report-check:
	PYTHONPATH=src python -m repro report --output $(REPORT_CHECK_OUT)
	cmp $(REPORT_CHECK_OUT) EXPERIMENTS.md

# Copies a pipe's lines to stderr and passes them on.  It writes through
# the inherited descriptor: `tee /dev/stderr` reopens the file with
# O_TRUNC, so `make sweep-smoke > log 2>&1` lost every earlier line.
TEE_STDERR = awk '{ print; print > "/dev/stderr" }'

TRACE_SMOKE_OUT ?= /tmp/repro_trace_smoke.jsonl

trace-smoke:
	PYTHONPATH=src python -m repro trace floodset-rws-violation --jsonl $(TRACE_SMOKE_OUT)
	PYTHONPATH=src python scripts/check_trace.py $(TRACE_SMOKE_OUT)

# The trace oracle on one RS and one RWS scenario, then what must be
# refused with exit 2, one `error:` line and no traceback: three files
# that are not traces (an unknown kind, mistyped fields, an empty file)
# under `check --jsonl`, and operands the chosen form would not read (a
# scenario name beside `check --jsonl`, a scenario and a trace beside
# `replay --repro`, the one-trace options of `causal` on a run
# directory).
CHECK_SMOKE_DIR ?= /tmp/repro_check_smoke

check-smoke:
	PYTHONPATH=src python -m repro check fopt-fast
	PYTHONPATH=src python -m repro check floodset-rws
	rm -rf $(CHECK_SMOKE_DIR) && mkdir -p $(CHECK_SMOKE_DIR)
	echo '{"kind":"teleport","ts":1.0}' > $(CHECK_SMOKE_DIR)/teleport.jsonl
	echo '{"kind":"msg_sent","ts":"x","pid":"a"}' > $(CHECK_SMOKE_DIR)/bad-types.jsonl
	: > $(CHECK_SMOKE_DIR)/empty.jsonl
	PYTHONPATH=src python -m repro trace floodset-rws \
		--jsonl $(CHECK_SMOKE_DIR)/a.jsonl
	PYTHONPATH=src python -m repro sweep oracle-sweep --count 2 \
		--run-dir $(CHECK_SMOKE_DIR)/runs
	status=0; PYTHONPATH=src python -m repro mc agreement \
		--algorithm floodset --model RWS --out $(CHECK_SMOKE_DIR)/mc \
		|| status=$$?; test "$$status" -eq 1
	@for argv in "check --jsonl $(CHECK_SMOKE_DIR)/teleport.jsonl" \
		"check --jsonl $(CHECK_SMOKE_DIR)/bad-types.jsonl" \
		"check --jsonl $(CHECK_SMOKE_DIR)/empty.jsonl" \
		"check nonexistent-name --jsonl $(CHECK_SMOKE_DIR)/a.jsonl" \
		"replay bogus-name /nonexistent.jsonl --repro $(CHECK_SMOKE_DIR)/mc/mc-witness-00.json" \
		"causal $(CHECK_SMOKE_DIR)/runs --decide 9 --suspect 7 --diagram"; do \
		echo "repro $$argv  # must be refused"; \
		PYTHONPATH=src python -m repro $$argv 2> $(CHECK_SMOKE_DIR)/stderr; \
		code=$$?; cat $(CHECK_SMOKE_DIR)/stderr; \
		test $$code -eq 2 || { echo "exit $$code, expected 2"; exit 1; }; \
		test "$$(grep -c '^error: ' $(CHECK_SMOKE_DIR)/stderr)" = 1 || exit 1; \
		! grep -q Traceback $(CHECK_SMOKE_DIR)/stderr || exit 1; \
	done

SWEEP_SMOKE_CACHE ?= /tmp/repro_sweep_smoke_cache

# Run a small checked sweep twice into a fresh run directory: the first
# run executes every cell, the second must serve all of them from its
# results/ store ("executed 0").  Then the usage errors a sweep, a fuzz campaign
# and a trace export must refuse before a cell runs (exit 2, one
# `error:` line, no traceback, no run directory; an uncreatable
# --run-dir, a --count given to a space that takes none and a
# REPRO_INJECT_BUG that names no registered mutation among them; an
# entry may start with one VAR=value for the environment) and an engine that
# cannot finish a run under `mc` (same refusal), the stderr line that
# tells a user how many runs stood behind their cells, and the
# merged-trace writer's routes — the rounds engine's own templates,
# the same run under the engine's second name ("vector"),
# representatives shipped to a pool, and a rounds-engine run directory
# cold and resumed — compared byte for byte, on random-rs (mostly
# renamed twins of a few runs) and random-rws.  The resumed leg's oracle
# verdicts must all be clean, its manifest and summary must parse, and
# its stored cells must have been judged once per distinct trace
# content (0 < oracle.judged < 300); both spellings' run directories
# must store the same set of template digests.  A cold and a warm leg
# under `python -X dev` must leave no file unclosed (the result store's
# shard writer and readers) and write the same merged trace, and a
# checked empty space must fail as vacuous instead of passing.
sweep-smoke:
	rm -rf $(SWEEP_SMOKE_CACHE)
	PYTHONPATH=src python -m repro sweep oracle-sweep --count 2 --check \
		--run-dir $(SWEEP_SMOKE_CACHE)/runs
	PYTHONPATH=src python -m repro sweep oracle-sweep --count 2 --check \
		--run-dir $(SWEEP_SMOKE_CACHE)/runs | $(TEE_STDERR) | grep -q "executed 0,"
	echo "not a directory" > $(SWEEP_SMOKE_CACHE)/file
	@for refused in \
			"sweep random-rs --count 2 --jsonl $(SWEEP_SMOKE_CACHE)/missing/merged.jsonl" \
			"sweep random-rs --count 10 --run-dir $(SWEEP_SMOKE_CACHE)/file/runs" \
			"fuzz --budget 2 --run-dir $(SWEEP_SMOKE_CACHE)/file/runs" \
			"sweep random-rs --count -3 --check" \
			"sweep e10-lambda --count 0 --check" \
			"sweep random-rs --count 2 --jobs 0" \
			"sweep random-rs --count 2 --jobs -3" \
			"trace floodset-rws --jsonl $(SWEEP_SMOKE_CACHE)/missing/x.jsonl" \
			"REPRO_INJECT_BUG=no-such-bug sweep random-rs --count 20 --check" \
			"mc agreement --algorithm a1 --n 3 --t 1 --model RWS --engine rws_on_sp"; do \
		case "$$refused" in [A-Z]*=*) environment=$${refused%% *}; \
			refused=$${refused#* } ;; *) environment= ;; esac; \
		echo "$${environment:+$$environment }repro $$refused  # must be refused"; \
		case "$$refused" in trace*|mc*|*--run-dir*) run_dir= ;; \
			*) run_dir="--run-dir $(SWEEP_SMOKE_CACHE)/refused" ;; esac; \
		env PYTHONPATH=src $$environment python -m repro $$refused $$run_dir \
			2> $(SWEEP_SMOKE_CACHE)/stderr; \
		code=$$?; cat $(SWEEP_SMOKE_CACHE)/stderr; \
		test $$code -eq 2 || { echo "exit $$code, expected 2"; exit 1; }; \
		test "$$(grep -c '^error: ' $(SWEEP_SMOKE_CACHE)/stderr)" = 1 || exit 1; \
		! grep -q Traceback $(SWEEP_SMOKE_CACHE)/stderr || exit 1; \
		test ! -e $(SWEEP_SMOKE_CACHE)/refused || exit 1; \
	done
	PYTHONPATH=src python -m repro sweep random-rs --count 300 --seed 7 \
		--jsonl $(SWEEP_SMOKE_CACHE)/rs_rounds.jsonl 2>&1 \
		| $(TEE_STDERR) | grep -q "300 scenarios (92 distinct)"
	REPRO_INJECT_BUG=ss-drop-received PYTHONPATH=src python -m repro sweep random-rs \
		--count 300 --seed 7 2>&1 | $(TEE_STDERR) | grep -q "300 scenarios (92 distinct)"
	PYTHONPATH=src python -m repro sweep random-rws --count 300 \
		--jsonl $(SWEEP_SMOKE_CACHE)/rws_rounds.jsonl
	PYTHONPATH=src python -m repro sweep random-rws --count 300 --jobs 2 \
		--jsonl $(SWEEP_SMOKE_CACHE)/rws_jobs2.jsonl
	PYTHONPATH=src python -m repro sweep random-rws --count 300 --engine vector \
		--run-dir $(SWEEP_SMOKE_CACHE)/rws_vector_runs \
		--jsonl $(SWEEP_SMOKE_CACHE)/rws_vector.jsonl
	PYTHONPATH=src python -m repro sweep random-rws --count 300 --check \
		--run-dir $(SWEEP_SMOKE_CACHE)/rws_runs --jsonl $(SWEEP_SMOKE_CACHE)/rws_cold.jsonl
	PYTHONPATH=src python -m repro sweep random-rws --count 300 --check \
		--run-dir $(SWEEP_SMOKE_CACHE)/rws_runs --jsonl $(SWEEP_SMOKE_CACHE)/rws_warm.jsonl \
		> $(SWEEP_SMOKE_CACHE)/rws_warm.out
	cat $(SWEEP_SMOKE_CACHE)/rws_warm.out
	grep -q "executed 0," $(SWEEP_SMOKE_CACHE)/rws_warm.out
	grep -q "oracle: 300/300 cells clean" $(SWEEP_SMOKE_CACHE)/rws_warm.out
	python -c "import glob, json; \
		(run,) = glob.glob('$(SWEEP_SMOKE_CACHE)/rws_runs/*/'); \
		json.load(open(run + 'manifest.json')); \
		judged = json.load(open(run + 'summary.json'))['oracle']['judged']; \
		print('warm leg: 300 verdicts from', judged, 'judgements'); \
		assert 0 < judged < 300, judged"
	python -c 'import glob, json, sys; held = [{r["template"] for f in glob.glob(d + "/*/results/*.jsonl") for r in map(json.loads, open(f)) if "key" not in r} for d in sys.argv[1:]]; print(len(held[0]), "template digests under each engine name"); assert held[0] == held[1] and held[0]' $(SWEEP_SMOKE_CACHE)/rws_runs $(SWEEP_SMOKE_CACHE)/rws_vector_runs
	cmp $(SWEEP_SMOKE_CACHE)/rws_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rws_jobs2.jsonl
	cmp $(SWEEP_SMOKE_CACHE)/rws_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rws_vector.jsonl
	cmp $(SWEEP_SMOKE_CACHE)/rws_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rws_cold.jsonl
	cmp $(SWEEP_SMOKE_CACHE)/rws_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rws_warm.jsonl
	PYTHONPATH=src python -m repro sweep random-rs --count 300 --seed 7 --jobs 2 \
		--jsonl $(SWEEP_SMOKE_CACHE)/rs_jobs2.jsonl
	PYTHONPATH=src python -m repro sweep random-rs --count 300 --seed 7 --engine vector \
		--run-dir $(SWEEP_SMOKE_CACHE)/rs_vector_runs \
		--jsonl $(SWEEP_SMOKE_CACHE)/rs_vector.jsonl
	PYTHONPATH=src python -m repro sweep random-rs --count 300 --seed 7 --check \
		--run-dir $(SWEEP_SMOKE_CACHE)/rs_runs --jsonl $(SWEEP_SMOKE_CACHE)/rs_cold.jsonl
	PYTHONPATH=src python -m repro sweep random-rs --count 300 --seed 7 --check \
		--run-dir $(SWEEP_SMOKE_CACHE)/rs_runs --jsonl $(SWEEP_SMOKE_CACHE)/rs_warm.jsonl \
		> $(SWEEP_SMOKE_CACHE)/rs_warm.out
	cat $(SWEEP_SMOKE_CACHE)/rs_warm.out
	grep -q "executed 0," $(SWEEP_SMOKE_CACHE)/rs_warm.out
	cmp $(SWEEP_SMOKE_CACHE)/rs_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rs_jobs2.jsonl
	cmp $(SWEEP_SMOKE_CACHE)/rs_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rs_vector.jsonl
	cmp $(SWEEP_SMOKE_CACHE)/rs_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rs_cold.jsonl
	cmp $(SWEEP_SMOKE_CACHE)/rs_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rs_warm.jsonl
	@for leg in cold warm; do \
		echo "repro sweep random-rws --count 300 --run-dir  # $$leg, -X dev, no unclosed file"; \
		PYTHONPATH=src python -X dev -W error::ResourceWarning -m repro sweep random-rws \
			--count 300 --run-dir $(SWEEP_SMOKE_CACHE)/rws_dev_runs \
			--jsonl $(SWEEP_SMOKE_CACHE)/rws_dev_$$leg.jsonl \
			2> $(SWEEP_SMOKE_CACHE)/stderr || exit 1; \
		cat $(SWEEP_SMOKE_CACHE)/stderr; \
		! grep -qE "ResourceWarning|Exception ignored" $(SWEEP_SMOKE_CACHE)/stderr || exit 1; \
		cmp $(SWEEP_SMOKE_CACHE)/rws_rounds.jsonl $(SWEEP_SMOKE_CACHE)/rws_dev_$$leg.jsonl || exit 1; \
	done
	@echo "repro sweep random-rs --count 0 --check  # vacuous: must exit non-zero"; \
	PYTHONPATH=src python -m repro sweep random-rs --count 0 --check \
		> $(SWEEP_SMOKE_CACHE)/empty.out; \
	code=$$?; cat $(SWEEP_SMOKE_CACHE)/empty.out; \
	test $$code -ne 0 || { echo "exit 0, expected non-zero"; exit 1; }; \
	grep -q "oracle: 0/0 cells — vacuous, nothing checked" $(SWEEP_SMOKE_CACHE)/empty.out

FUZZ_SMOKE_CACHE ?= /tmp/repro_fuzz_smoke_cache

# The CI fuzzing campaign: >= 100 generated scenarios per emulation
# pair (differential twins on every one), plus a rounds-only stream
# and an all-engine round-robin exercising the parallel path into a
# run directory.  Every campaign runs both batch parity oracles.
fuzz-smoke:
	rm -rf $(FUZZ_SMOKE_CACHE)
	PYTHONPATH=src python -m repro fuzz --budget 120 --seed 0 --engine rs_on_ss
	PYTHONPATH=src python -m repro fuzz --budget 120 --seed 0 --engine rws_on_sp
	PYTHONPATH=src python -m repro fuzz --budget 100 --seed 0 --engine rounds
	PYTHONPATH=src python -m repro fuzz --budget 200 --seed 1 --jobs 2 \
		--run-dir $(FUZZ_SMOKE_CACHE)

CAUSAL_SMOKE_TRACE ?= /tmp/repro_causal_smoke.jsonl
CAUSAL_SMOKE_JSON ?= /tmp/repro_causal_smoke.json

# The causal pipeline end to end on a deterministic trace: the FloodSet
# RWS violation exported by `repro trace` must pass check_trace's schema
# and ordering layers, and `repro causal` must extract its critical
# paths (--diagram and --json renderings).  The --json rendering must
# hold at least one decision, a critical path of at least one message
# hop and no Λ-bound anomaly.
causal-smoke:
	PYTHONPATH=src python -m repro trace floodset-rws-violation \
		--jsonl $(CAUSAL_SMOKE_TRACE)
	PYTHONPATH=src python scripts/check_trace.py $(CAUSAL_SMOKE_TRACE)
	PYTHONPATH=src python -m repro causal $(CAUSAL_SMOKE_TRACE) --diagram
	PYTHONPATH=src python -m repro causal $(CAUSAL_SMOKE_TRACE) --json \
		> $(CAUSAL_SMOKE_JSON)
	python -c "import json, sys; s = json.load(open(sys.argv[1])); \
		assert s['decisions'] and s['max_path_length'] >= 1 \
		and s['anomalies'] == [], s; \
		print(len(s['decisions']), 'decisions, max path', \
		s['max_path_length'], 'hops, no anomaly')" $(CAUSAL_SMOKE_JSON)

REPORT_SMOKE_RUNS ?= /tmp/repro_report_smoke_runs
REPORT_SMOKE_COPIES ?= /tmp/repro_report_smoke_copies

# The run-artifact pipeline end to end: a small checked sweep writes a
# run directory, the resumed second leg must re-execute nothing (the
# summary's own counters prove it), and the machine report must pass
# the schema/SLO validator both from disk and over the --json stream.
# Then two damaged copies: one without summary.json and marked
# interrupted must report its progress count from metrics.jsonl (exit
# 0); one whose summary.json is cut short is a finished run with an
# unreadable verdict, refused with one error line (exit 1).
report-smoke:
	rm -rf $(REPORT_SMOKE_RUNS) $(REPORT_SMOKE_COPIES)
	PYTHONPATH=src python -m repro sweep oracle-sweep --check \
		--run-dir $(REPORT_SMOKE_RUNS)
	PYTHONPATH=src python -m repro sweep oracle-sweep --check \
		--run-dir $(REPORT_SMOKE_RUNS) | $(TEE_STDERR) | grep -q "executed 0,"
	PYTHONPATH=src python -m repro report $(REPORT_SMOKE_RUNS)
	PYTHONPATH=src python scripts/check_summary.py $(REPORT_SMOKE_RUNS)
	PYTHONPATH=src python -m repro report $(REPORT_SMOKE_RUNS) --json | \
		PYTHONPATH=src python scripts/check_summary.py -
	mkdir -p $(REPORT_SMOKE_COPIES)
	cp -r $(REPORT_SMOKE_RUNS) $(REPORT_SMOKE_COPIES)/unfinished
	rm $(REPORT_SMOKE_COPIES)/unfinished/*/summary.json
	python -c "import json, sys; path = sys.argv[1]; \
		manifest = json.load(open(path)); manifest['status'] = 'interrupted'; \
		json.dump(manifest, open(path, 'w'))" \
		$(REPORT_SMOKE_COPIES)/unfinished/*/manifest.json
	PYTHONPATH=src python -m repro report $(REPORT_SMOKE_COPIES)/unfinished \
		> $(REPORT_SMOKE_COPIES)/unfinished.out
	cat $(REPORT_SMOKE_COPIES)/unfinished.out
	grep -qx "progress: 30/30 planned cells done" \
		$(REPORT_SMOKE_COPIES)/unfinished.out
	cp -r $(REPORT_SMOKE_RUNS) $(REPORT_SMOKE_COPIES)/damaged
	python -c "import sys; path = sys.argv[1]; \
		data = open(path, 'rb').read(); open(path, 'wb').write(data[:40])" \
		$(REPORT_SMOKE_COPIES)/damaged/*/summary.json
	PYTHONPATH=src python -m repro report $(REPORT_SMOKE_COPIES)/damaged \
		2> $(REPORT_SMOKE_COPIES)/damaged.err; test $$? -eq 1
	cat $(REPORT_SMOKE_COPIES)/damaged.err
	test "$$(grep -c '^error: ' $(REPORT_SMOKE_COPIES)/damaged.err)" -eq 1
	! grep -q Traceback $(REPORT_SMOKE_COPIES)/damaged.err

MC_SMOKE_DIR ?= /tmp/repro_mc_smoke

# The model checker's acceptance gauntlet: exhaustive agreement for A1
# (the CLI must clamp --t 2 to the algorithm's t=1) with reduced and
# unreduced frontiers agreeing, the machine-checked Λ(A1) = 1 verdict,
# the n=4 t=2 and n=5 t=2 FloodSet frontiers, the Section 5.1 witness
# (EagerFloodSetWS: consensus HOLDS, uniform consensus REFUTED in RWS),
# A1's indistinguishability verdict and each SDD candidate's Theorem
# 3.1 quadruple classified as a genuine witness, a planted emulation bug the grid checker must refute with a witness
# that replays (exit 0) under the same injection, and a run-directory
# check run twice — the second leg must serve every cell from the
# store — whose summary must pass the schema/SLO validator.
mc-smoke:
	rm -rf $(MC_SMOKE_DIR) && mkdir -p $(MC_SMOKE_DIR)
	PYTHONPATH=src python -m repro mc agreement --algorithm A1 --n 3 --t 2 | \
		$(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc agreement --algorithm a1 --n 3 --t 1 \
		--no-reduce | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc lambda --algorithm a1 --n 3 --t 1 | \
		$(TEE_STDERR) | grep -q "lambda: 1"
	PYTHONPATH=src python -m repro mc agreement --algorithm floodset --n 4 \
		--t 2 --horizon 4 | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc agreement --algorithm floodset --n 5 \
		--t 2 | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc agreement --algorithm floodset --n 6 \
		--t 2 | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc uniform-agreement --algorithm floodset-ws \
		--n 5 --model RWS | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc termination --algorithm floodset --n 4 \
		--t 3 | $(TEE_STDERR) | \
		grep -q "termination .* horizon=4 .*: HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc agreement --algorithm eager-floodset-ws \
		--model RWS | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	PYTHONPATH=src python -m repro mc uniform-agreement --no-shrink \
		--algorithm eager-floodset-ws --model RWS | $(TEE_STDERR) | \
		grep -q "REFUTED"
	PYTHONPATH=src python -m repro mc indistinguishability --algorithm a1 \
		--n 3 --t 1 | $(TEE_STDERR) | grep -q "HOLDS(exhaustive)"
	for candidate in patient suspicion timeout; do \
		PYTHONPATH=src python -m repro mc indistinguishability \
			--fixture $$candidate | $(TEE_STDERR) | \
			grep -q "genuine indistinguishability witness" || exit 1; \
	done
	status=0; REPRO_INJECT_BUG=ss-drop-received PYTHONPATH=src \
		python -m repro mc agreement --algorithm floodset --engine rs_on_ss \
		--out $(MC_SMOKE_DIR) || status=$$?; test "$$status" -eq 1
	REPRO_INJECT_BUG=ss-drop-received PYTHONPATH=src python -m repro replay \
		--repro $(MC_SMOKE_DIR)/mc-witness-00.json
	PYTHONPATH=src python -m repro mc agreement --algorithm floodset --n 3 \
		--t 1 --run-dir $(MC_SMOKE_DIR)/runs
	PYTHONPATH=src python -m repro mc agreement --algorithm floodset --n 3 \
		--t 1 --run-dir $(MC_SMOKE_DIR)/runs
	PYTHONPATH=src python -c "import glob,json; \
		r=json.load(open(glob.glob('$(MC_SMOKE_DIR)/runs/*/summary.json')[0]))['resume']; \
		assert r['executed'] == r['re_executed'] == 0 < r['cached'], r"
	PYTHONPATH=src python scripts/check_summary.py $(MC_SMOKE_DIR)/runs

# The end-to-end benchmark checks itself (< 30 s, shrunk workloads):
# every workload and metric BENCHMARK.json declares is reported, all 18
# tracer binding sites in ledger/trace.py:SITES still resolve — so a
# rename on the result path cannot silently blind the tracer — spans
# nest, and a wrong reference digest fails every operation.
ledger-smoke:
	python ledger/selftest.py

# What each ledger command imports before it does any work: module and
# repro.* counts, source lines, import self time, compile share.  The
# counts repeat exactly; a start-up change is attributed with them.
startup-report:
	python scripts/import_report.py

# Which functions under src/repro no command executes: the claim
# surface (repro report, the mc verdicts of docs/paper_map.md), every
# *-smoke target and every other command and example run in a scratch
# copy under a call recorder.  Not in CI: about 9 minutes on 2 cores.
line-audit:
	python scripts/line_audit.py

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
