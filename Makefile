# js-ceres — OCaml reproduction of "Are web applications ready for
# parallelism?" (PPoPP 2015)

.PHONY: all build test check chaos analyze analyze-smoke advise advise-smoke serve-smoke serve-stress-smoke par-exec-smoke bench perfbench-selfcheck examples reports clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tier-1 gate: full build, the whole test suite, a 2-workload smoke
# run of the parallel analysis driver, and the deterministic chaos
# suite.
check:
	dune build @all
	dune runtest
	dune exec bin/jsceres.exe -- pipeline --jobs 2 --stats Ace MyScript
	$(MAKE) analyze-smoke
	$(MAKE) advise-smoke
	$(MAKE) serve-smoke
	$(MAKE) serve-stress-smoke
	$(MAKE) par-exec-smoke
	$(MAKE) chaos

# Static analyzer sweep: run `jsceres analyze --format=json` over every
# workload (exit 0 = no sequential loops, 2 = some; both are fine here)
# and diff against the committed goldens in test/golden/analyze/. After
# an intentional analyzer change, regenerate with ANALYZE_REGEN=1.
ANALYZE_WORKLOADS = HAAR.js Tear-able_Cloth CamanJS fluidSim Harmony Ace \
                    MyScript Raytracing Normal_Mapping sigma.js \
                    processing.js D3.js

analyze: build
	@for w in $(ANALYZE_WORKLOADS); do \
	  name=$$(echo $$w | tr '_' ' '); \
	  out=_build/analyze-$$w.json; \
	  dune exec bin/jsceres.exe -- analyze "$$name" --format=json >$$out; \
	  rc=$$?; \
	  test $$rc -eq 0 -o $$rc -eq 2 || \
	    { echo "analyze $$name: exit $$rc"; exit 1; }; \
	  if [ -n "$(ANALYZE_REGEN)" ]; then \
	    cp $$out test/golden/analyze/$$w.json; \
	  else \
	    cmp -s $$out test/golden/analyze/$$w.json || \
	      { echo "analyze $$name: report differs from golden"; exit 1; }; \
	  fi; \
	done; echo "analyze sweep OK ($(words $(ANALYZE_WORKLOADS)) workloads)"

# Prover-power regression gate (in `make check`): the analyze sweep
# must keep at least ANALYZE_PROVEN_FLOOR statically proven loops
# (verdict parallel/reduction) across the 12 workloads — the PR-8
# count — so analyzer changes cannot silently lose proofs. Counted
# from the freshly generated reports, which `analyze` has already
# diffed (or regenerated) against the committed goldens.
ANALYZE_PROVEN_FLOOR = 22

analyze-smoke: analyze
	@proven=$$(grep -ho '"verdict": "parallel"\|"verdict": "reduction"' \
	             _build/analyze-*.json | wc -l); \
	if [ $$proven -lt $(ANALYZE_PROVEN_FLOOR) ]; then \
	  echo "analyze-smoke: $$proven statically proven loops, floor is \
	$(ANALYZE_PROVEN_FLOOR)"; exit 1; \
	fi; \
	echo "analyze-smoke OK ($$proven proven loops >= $(ANALYZE_PROVEN_FLOOR))"

# Advisor sweep: `jsceres advise --format=json` over every workload,
# diffed against the committed goldens in test/golden/advise/ (the
# reports are pure vclock arithmetic, so they are byte-deterministic).
# After an intentional model or analyzer change, regenerate with
# ADVISE_REGEN=1.
advise: build
	@for w in $(ANALYZE_WORKLOADS); do \
	  name=$$(echo $$w | tr '_' ' '); \
	  out=_build/advise-$$w.json; \
	  dune exec bin/jsceres.exe -- advise "$$name" --format=json >$$out || \
	    { echo "advise $$name: exit $$?"; exit 1; }; \
	  if [ -n "$(ADVISE_REGEN)" ]; then \
	    cp $$out test/golden/advise/$$w.json; \
	  else \
	    cmp -s $$out test/golden/advise/$$w.json || \
	      { echo "advise $$name: report differs from golden"; exit 1; }; \
	  fi; \
	done; echo "advise sweep OK ($(words $(ANALYZE_WORKLOADS)) workloads)"

# Advisor grading gate (in `make check`): beyond the golden diff of
# the full sweep, the two par-exec workloads must (a) produce the
# committed deterministic plan and (b) under --measure attach a
# measured speedup row to at least one nest par-exec really executed
# — so every executed nest carries predicted AND measured numbers.
ADVISE_SMOKE_WORKLOADS = HAAR.js fluidSim

advise-smoke: advise
	@for w in $(ADVISE_SMOKE_WORKLOADS); do \
	  out=_build/advise-$$w-measured.json; \
	  dune exec bin/jsceres.exe -- advise "$$w" --measure -j 2 \
	    --format=json >$$out 2>/dev/null || \
	    { echo "advise-smoke: measured advise of $$w failed"; exit 1; }; \
	  grep -q '"measured_nests"' $$out || \
	    { echo "advise-smoke: $$w measured report lacks measured section"; \
	      exit 1; }; \
	  n=$$(grep -o '"measured_nests": [0-9]*' $$out | head -1 | grep -o '[0-9]*'); \
	  test -n "$$n" -a "$$n" -gt 0 2>/dev/null || \
	    { echo "advise-smoke: $$w: no nest carries a measured speedup"; exit 1; }; \
	  grep -q '"predicted"' $$out || \
	    { echo "advise-smoke: $$w measured report lacks predictions"; exit 1; }; \
	  echo "advise-smoke: $$w OK (measured nests: $$n)"; \
	done; echo "advise smoke OK ($(ADVISE_SMOKE_WORKLOADS))"

# Service-mode smoke test: pipe a fixed 12-request JSONL session (two
# analyses, a repeated profile — once explicitly versioned v1, a bad
# pass, a rejected v2 request, an advise request, a cache-stats probe,
# a telemetry probe) through `jsceres serve` and byte-compare against
# the committed golden — the responses are deterministic, and the
# final cache-stats line pins the hit/miss counters, so the repeated
# request must have been served from the cache. The telemetry line's
# GC word counts move with every interpreter change, so they are
# normalised to 0 before the compare (the field names and the
# deterministic cache/pool parts are still pinned byte-for-byte).
# After an intentional protocol change, regenerate with SERVE_REGEN=1.
serve-smoke: build
	@out=_build/serve-smoke.out; \
	dune exec bin/jsceres.exe -- serve \
	  < test/golden/serve/smoke.jsonl \
	  | sed -E 's/("minor_words"|"promoted_words"|"major_words"|"minor_collections"|"major_collections"):[0-9]+/\1:0/g' \
	  > $$out || \
	  { echo "serve-smoke: serve exited nonzero"; exit 1; }; \
	if [ -n "$(SERVE_REGEN)" ]; then \
	  cp $$out test/golden/serve/smoke.expected; \
	else \
	  cmp -s $$out test/golden/serve/smoke.expected || \
	    { echo "serve-smoke: output differs from golden"; \
	      diff test/golden/serve/smoke.expected $$out | head -5; exit 1; }; \
	fi; \
	hits=$$(grep -o '"hits":[0-9]*' $$out | head -1 | cut -d: -f2); \
	test "$$hits" -gt 0 || \
	  { echo "serve-smoke: expected cache hits > 0, got $$hits"; exit 1; }; \
	echo "serve smoke OK (cache hits: $$hits)"

# Server stress smoke: start the socket server with a deliberately
# tiny admission gate, fire a loadgen burst that exceeds it, and
# require shed > 0 (every refusal is a structured overloaded response
# with retry_after_ms), zero server-inflicted connection drops of
# well-behaved exchanges (loadgen exits 1 otherwise), and a clean
# graceful-drain exit 0 on SIGTERM with the socket file unlinked.
# A second round repeats the burst under a chaos seed with transport
# faults injected server-side (doomed accepts, torn responses,
# mid-response disconnects) AND misbehaving clients (torn request
# lines, disconnect-before-read, slow-loris): some exchanges are
# deliberately destroyed, so the zero-drop bar doesn't apply, but the
# well-behaved requests must still complete (ok > 0) and the server
# must still drain cleanly to exit 0 — chaos never crashes it.
# The built binary is invoked directly: the server runs in the
# background while loadgen runs, and two concurrent `dune exec`
# processes would deadlock on dune's build lock.
JSCERES_BIN = _build/default/bin/jsceres.exe

serve-stress-smoke: build
	@sock=_build/serve-stress.sock; out=_build/serve-stress.json; \
	rm -f $$sock; \
	$(JSCERES_BIN) serve --socket $$sock -j 2 --max-inflight 1 \
	  --queue-capacity 0 --deadline-ms 60000 & pid=$$!; \
	i=0; while [ ! -S $$sock ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	test -S $$sock || { echo "serve-stress-smoke: server never bound"; kill $$pid 2>/dev/null; exit 1; }; \
	$(JSCERES_BIN) loadgen --socket $$sock -c 8 -n 40 > $$out || \
	  { echo "serve-stress-smoke: loadgen reported dropped connections"; \
	    cat $$out; kill $$pid 2>/dev/null; exit 1; }; \
	shed=$$(grep -o '"shed":[0-9]*' $$out | cut -d: -f2); \
	dropped=$$(grep -o '"dropped_connections":[0-9]*' $$out | cut -d: -f2); \
	test "$$shed" -gt 0 || \
	  { echo "serve-stress-smoke: burst above --max-inflight shed nothing"; \
	    cat $$out; kill $$pid 2>/dev/null; exit 1; }; \
	test "$$dropped" -eq 0 || \
	  { echo "serve-stress-smoke: $$dropped uncleanly dropped connection(s)"; \
	    kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	test $$rc -eq 0 || { echo "serve-stress-smoke: drain exited $$rc"; exit 1; }; \
	test ! -S $$sock || { echo "serve-stress-smoke: socket not unlinked"; exit 1; }; \
	echo "serve-stress smoke OK (shed: $$shed, dropped: 0, drain exit: 0)"; \
	sock=_build/serve-stress-chaos.sock; out=_build/serve-stress-chaos.json; \
	rm -f $$sock; \
	$(JSCERES_BIN) serve --socket $$sock -j 2 --max-inflight 2 \
	  --queue-capacity 2 --deadline-ms 60000 --chaos-seed 7 \
	  --chaos-transport & pid=$$!; \
	i=0; while [ ! -S $$sock ] && [ $$i -lt 100 ]; do sleep 0.05; i=$$((i+1)); done; \
	test -S $$sock || { echo "serve-stress-smoke: chaos server never bound"; kill $$pid 2>/dev/null; exit 1; }; \
	$(JSCERES_BIN) loadgen --socket $$sock -c 4 -n 25 -s 7 --chaos-clients \
	  > $$out || true; \
	ok=$$(grep -o '"ok":[0-9]*' $$out | head -1 | cut -d: -f2); \
	test -n "$$ok" -a "$$ok" -gt 0 2>/dev/null || \
	  { echo "serve-stress-smoke: no request survived the chaos round"; \
	    cat $$out; kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	test $$rc -eq 0 || { echo "serve-stress-smoke: chaos drain exited $$rc"; exit 1; }; \
	echo "serve-stress smoke OK under chaos (ok: $$ok, drain exit: 0)"

# Parallel-execution smoke test: the two workloads whose proven nests
# are big enough to fork must produce byte-identical stdout with
# `--par-exec -j 2`, and the stderr telemetry must show nests really
# executing through the pool (nests > 0, pool tasks_executed > 0) —
# guarding against the silent regression where every instance falls
# back to the sequential path and the byte-compare passes vacuously.
PAR_EXEC_WORKLOADS = CamanJS HAAR.js

par-exec-smoke: build
	@for w in $(PAR_EXEC_WORKLOADS); do \
	  seq=_build/parexec-$$w-seq.out; par=_build/parexec-$$w-par.out; \
	  err=_build/parexec-$$w-par.err; \
	  dune exec bin/jsceres.exe -- run "$$w" >$$seq 2>/dev/null || \
	    { echo "par-exec-smoke: sequential run of $$w failed"; exit 1; }; \
	  dune exec bin/jsceres.exe -- run "$$w" --par-exec -j 2 --par-stats \
	    >$$par 2>$$err || \
	    { echo "par-exec-smoke: parallel run of $$w failed"; exit 1; }; \
	  cmp -s $$seq $$par || \
	    { echo "par-exec-smoke: $$w parallel output differs from sequential"; \
	      diff $$seq $$par | head -5; exit 1; }; \
	  nests=$$(grep -o '"nests":[0-9]*' $$err | head -1 | cut -d: -f2); \
	  tasks=$$(grep -o '"tasks_executed":[0-9]*' $$err | head -1 | cut -d: -f2); \
	  test -n "$$nests" -a "$$nests" -gt 0 2>/dev/null || \
	    { echo "par-exec-smoke: $$w ran no nests in parallel"; exit 1; }; \
	  test -n "$$tasks" -a "$$tasks" -gt 0 2>/dev/null || \
	    { echo "par-exec-smoke: $$w pool executed no tasks"; exit 1; }; \
	  echo "par-exec-smoke: $$w OK (nests: $$nests, pool tasks: $$tasks)"; \
	done; echo "par-exec smoke OK ($(PAR_EXEC_WORKLOADS))"

# Deterministic fault-injection suite. Each fixed seed must (a) kill at
# least one workload — the run exits 1 and prints a failure summary
# while the survivors still print their rows — and (b) produce
# byte-identical stdout when repeated: the injection plan is a pure
# function of the seed, and every printed failure field is virtual-time
# based, so any nondeterminism here is a real bug.
CHAOS_SEEDS = 1 3 4
CHAOS_WORKLOADS = HAAR.js Ace MyScript fluidSim

chaos: build
	@for s in $(CHAOS_SEEDS); do \
	  echo "== chaos seed $$s =="; \
	  a=_build/chaos-$$s-a.out; b=_build/chaos-$$s-b.out; \
	  rc1=0; dune exec bin/jsceres.exe -- pipeline --keep-going --jobs 2 \
	    --chaos-seed $$s $(CHAOS_WORKLOADS) >$$a 2>/dev/null || rc1=$$?; \
	  rc2=0; dune exec bin/jsceres.exe -- pipeline --keep-going --jobs 2 \
	    --chaos-seed $$s $(CHAOS_WORKLOADS) >$$b 2>/dev/null || rc2=$$?; \
	  test $$rc1 -eq 1 || { echo "seed $$s: expected exit 1, got $$rc1"; exit 1; }; \
	  test $$rc2 -eq 1 || { echo "seed $$s: expected exit 1 on repeat, got $$rc2"; exit 1; }; \
	  cmp -s $$a $$b || { echo "seed $$s: repeated run not byte-identical"; exit 1; }; \
	  grep -q "FAILED" $$a || { echo "seed $$s: no failure row printed"; exit 1; }; \
	  grep -q "workload(s) failed" $$a || { echo "seed $$s: no failure summary"; exit 1; }; \
	  grep "FAILED" $$a; \
	done; echo "chaos suite OK (seeds: $(CHAOS_SEEDS))"

# Regenerate every table and figure of the paper's evaluation.
bench:
	dune exec bench/main.exe

# Benchmark self-check: every perfbench workload briefly, checking
# each metric's presence and unit and that exact counts repeat on one
# seed. It takes minutes, so it stays outside `check`.
perfbench-selfcheck:
	python3 perfbench/selfcheck.py

examples:
	dune exec examples/quickstart.exe
	dune exec examples/nbody_analysis.exe
	dune exec examples/image_pipeline.exe
	dune exec examples/survey_report.exe
	dune exec examples/par_exec_cloth.exe

# Per-application markdown reports (paper Fig. 5 steps 5-7).
reports:
	for w in HAAR.js "Tear-able Cloth" CamanJS fluidSim Harmony Ace \
	         MyScript Raytracing "Normal Mapping" sigma.js processing.js \
	         D3.js; do \
	  dune exec bin/jsceres.exe -- report "$$w" -o reports; \
	done

clean:
	dune clean
