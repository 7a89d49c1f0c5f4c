.PHONY: all build test check lint bench repro clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Bare polymorphic compare/hash silently degrade to structural
# traversal (and allocate through the comparator); library code must
# use the monomorphic Int/String versions or an explicit comparator.
# The same goes for ordering two tuple literals — `(a, b) < (c, d)`
# lexicographic tie-breaks go through the polymorphic comparator too
# (Routing_table.build shipped one); spell the tie-break out in ints.
# A Mutex.lock not immediately followed by Fun.protect leaks the lock
# if the critical section raises — library code must go through a
# with_lock-style helper built on that idiom.
lint:
	@! grep -rEn '(^|[^.A-Za-z0-9_])(compare|Hashtbl\.hash)([^A-Za-z0-9_]|$$)' \
		lib --include='*.ml' \
		|| { echo "lint: bare polymorphic compare/hash in lib/"; exit 1; }
	@! grep -rEn '\([^()]*,[^()]*\) *(<=|>=|<|>) *\(' \
		lib --include='*.ml' \
		|| { echo "lint: polymorphic tuple comparison in lib/"; exit 1; }
	@! grep -rEn "Hashtbl\.(add|replace|mem|find|find_opt|find_all|remove) +[A-Za-z_][A-Za-z0-9_']* +\([^()]*," \
		lib --include='*.ml' \
		|| { echo "lint: tuple-keyed Hashtbl call in lib/ (pack the key into an int)"; exit 1; }
	@! grep -rEn "\([^(),]*\*[^(),]*,[^()]*\) *Hashtbl\.t" \
		lib --include='*.ml' --include='*.mli' \
		|| { echo "lint: tuple-keyed Hashtbl type in lib/ (pack the key into an int)"; exit 1; }
	@bad=0; for f in $$(grep -rl 'Mutex\.lock' lib --include='*.ml'); do \
		awk 'flag && !/Fun\.protect/ { print FILENAME ":" FNR-1 \
			": Mutex.lock without Fun.protect on the next line"; bad=1 } \
			{ flag = /Mutex\.lock/ } END { exit bad }' "$$f" || bad=1; \
	done; [ $$bad -eq 0 ] || { echo "lint: unprotected Mutex.lock in lib/"; exit 1; }
	@echo "lint: ok"

# what CI runs: full build, its profile (cross-module inlining and the
# strict warning set), test suite, the benchmark's smoke test,
# and a CLI smoke pass (list + one validated layout + a malformed spec
# that must fail + malformed wormhole fabrics that must exit 2 + the
# --json/bench-emit telemetry surfaces, which self-validate + --jobs N
# vs --jobs 1 parity of the sweeps, sim and wormhole + the default
# worker count of a process pinned to one CPU).  Every output goes to an
# untracked scratch file, so a run leaves the tracked tree as it was.
check: lint
	dune build @all
	# dune-workspace's release profile: modules are not compiled -opaque,
	# so Int_ring's bodies must reach its callers for inlining, and the
	# root dune file's restated warning set must still be in the flags
	ocamlobjinfo _build/default/lib/core/.mvl_ring.objs/native/mvl_ring__Int_ring.cmx | grep -q 'push.*(inline)'
	dune printenv . | grep -q -- '-strict-sequence'
	dune printenv . | grep -qF -- '@1..3@5..28@30..39@43@46..47@49..57@61..62-40'
	dune runtest
	python3 perfbench/test_smoke.py
	dune exec bin/mvl_cli.exe -- list > /dev/null
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --validate
	! dune exec bin/mvl_cli.exe -- layout hypercube:abc -l 4 2> /dev/null
	@for a in hypercube:0 hypercube:-1 torus:1:2 'hypercube:3 --vcs 0'; do \
		rc=0; dune exec bin/mvl_cli.exe -- wormhole $$a 2> /dev/null || rc=$$?; \
		[ $$rc -eq 2 ] || { echo "mvl wormhole $$a: exit $$rc, expected 2"; exit 1; }; \
	done
	dune exec bin/mvl_cli.exe -- layout hypercube:8 -l 4 --json | grep -q '"schema": "mvl.pipeline.run/1"'
	dune exec bench/main.exe -- emit -o BENCH_emit_smoke.json > /dev/null
	grep -q '"schema": "mvl.bench.pipeline/1"' BENCH_emit_smoke.json
	rm -f BENCH_emit_smoke.json
	dune exec bench/main.exe -- emit --jobs 1 --stable -o BENCH_jobs1.json > /dev/null
	dune exec bench/main.exe -- emit --jobs 4 --stable -o BENCH_jobs2.json > /dev/null
	cmp BENCH_jobs1.json BENCH_jobs2.json
	rm -f BENCH_jobs1.json BENCH_jobs2.json
	@if command -v taskset > /dev/null; then \
		taskset -c 0 dune exec bin/mvl_cli.exe -- sweep hypercube:4 -l 2,4,8 --json | grep -q '"workers": 1,' \
		|| { echo "mvl sweep pinned to one CPU must default to one worker"; exit 1; }; \
	fi
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.05 --json | grep -q '"schema": "mvl.sim.run/1"'
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.25 --jobs 1 --stable --json > SIM_jobs1.json
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.25 --jobs 4 --stable --json > SIM_jobs2.json
	cmp SIM_jobs1.json SIM_jobs2.json
	dune exec bin/mvl_cli.exe -- sim hypercube:8 -l 4 --load 0.3 --jobs 1 --stable --json > SIM_jobs1.json
	dune exec bin/mvl_cli.exe -- sim hypercube:8 -l 4 --load 0.3 --jobs 3 --stable --json > SIM_jobs3.json
	cmp SIM_jobs1.json SIM_jobs3.json
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.05 --pattern hotspot:3 --stable --json --jobs 1 > SIM_jobs1.json
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.05 --pattern hotspot:3 --stable --json --jobs 3 > SIM_jobs3.json
	cmp SIM_jobs1.json SIM_jobs3.json
	rm -f SIM_jobs1.json SIM_jobs2.json SIM_jobs3.json
	dune exec bin/mvl_cli.exe -- wormhole hypercube:6 --load 0.05 --jobs 1 > WH_jobs1.txt
	dune exec bin/mvl_cli.exe -- wormhole hypercube:6 --load 0.05 --jobs 4 > WH_jobs4.txt
	cmp WH_jobs1.txt WH_jobs4.txt
	dune exec bin/mvl_cli.exe -- wormhole hypercube:6 --load 0.05 --jobs 3 > WH_jobs3.txt
	cmp WH_jobs1.txt WH_jobs3.txt
	dune exec bin/mvl_cli.exe -- wormhole torus:4:2 --adaptive --load 0.1 --jobs 1 > WH_jobs1.txt
	dune exec bin/mvl_cli.exe -- wormhole torus:4:2 --adaptive --load 0.1 --jobs 4 > WH_jobs4.txt
	cmp WH_jobs1.txt WH_jobs4.txt
	rm -f WH_jobs1.txt WH_jobs3.txt WH_jobs4.txt
	dune exec bench/main.exe -- throughput --quick -o BENCH_sim_quick.json > /dev/null
	grep -q '"schema": "mvl.bench.sim/1"' BENCH_sim_quick.json
	dune exec bench/main.exe -- throughput --quick --jobs 1 --stable -o BENCH_sim_jobs1.json > /dev/null
	dune exec bench/main.exe -- throughput --quick --jobs 4 --stable -o BENCH_sim_jobs2.json > /dev/null
	cmp BENCH_sim_jobs1.json BENCH_sim_jobs2.json
	rm -f BENCH_sim_quick.json BENCH_sim_jobs1.json BENCH_sim_jobs2.json
	dune exec bench/main.exe -- scale --quick --jobs 2 -o BENCH_layout_quick.json > /dev/null
	grep -q '"schema": "mvl.bench.layout/1"' BENCH_layout_quick.json
	grep -q '"layout_phases"' BENCH_layout_quick.json
	grep -q '"emit_seconds"' BENCH_layout_quick.json
	rm -f BENCH_layout_quick.json
	dune exec bench/main.exe -- scale --quick --stable --jobs 1 -o BENCH_layout_jobs1.json > /dev/null
	dune exec bench/main.exe -- scale --quick --stable --jobs 4 -o BENCH_layout_jobs2.json > /dev/null
	cmp BENCH_layout_jobs1.json BENCH_layout_jobs2.json
	rm -f BENCH_layout_jobs1.json BENCH_layout_jobs2.json
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats | grep -q 'peak_rss_kib='
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats | grep -q 'phases: place'
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats --json | grep -q '"peak_rss_kib"'
	dune exec bin/mvl_cli.exe -- layout hypercube:6 -l 4 --mem-stats --json | grep -q '"layout_phases"'
	dune exec bin/mvl_cli.exe -- sim hypercube:6 --load 0.1 --pattern bursty:tornado:8:25 --json | grep -q '"schema": "mvl.sim.run/1"'
	# serve smoke: daemon on a temp socket, 4 parallel clients whose
	# replies must cmp-equal the one-shot --json --stable document, the
	# shared spec must cost exactly one pipeline build, and the daemon,
	# given the ignored --workers 2, must run one thread (one domain);
	# then the quick serving benchmark (binaries invoked directly:
	# concurrent `dune exec` would contend on the build lock).  set -e
	# makes every check count, and the trap stops a daemon that a failed
	# check left running (SRV is cleared once it has been reaped).
	set -e; MVL=./_build/default/bin/mvl_cli.exe; SOCK=/tmp/mvl-check-$$$$.sock; SRV=; \
	trap 'kill $$SRV 2> /dev/null || true; rm -f $$SOCK' EXIT; \
	rm -f $$SOCK; \
	$$MVL serve --socket $$SOCK --workers 2 & SRV=$$!; \
	for i in $$(seq 50); do [ -S $$SOCK ] && break; sleep 0.1; done; [ -S $$SOCK ]; \
	$$MVL layout hypercube:6 -l 4 --json --stable > CHECK_oneshot.json; \
	pids=""; for i in 1 2 3 4; do \
		$$MVL request layout hypercube:6 -l 4 --connect $$SOCK > CHECK_served_$$i.json & pids="$$pids $$!"; \
	done; \
	for p in $$pids; do wait $$p; done; \
	for i in 1 2 3 4; do cmp CHECK_oneshot.json CHECK_served_$$i.json; done; \
	$$MVL request stats --connect $$SOCK > CHECK_stats.json; \
	grep -q '"schema": "mvl.serve.stats/1"' CHECK_stats.json; \
	sed -n '/"pipeline"/,/}/p' CHECK_stats.json | grep -q '"misses": 1,'; \
	if [ -d /proc/$$SRV/task ]; then \
		[ $$(ls /proc/$$SRV/task | wc -l) -eq 1 ] \
		|| { echo "mvl serve must run one thread"; exit 1; }; \
	fi; \
	$$MVL request shutdown --connect $$SOCK > /dev/null; wait $$SRV; SRV=; \
	rm -f CHECK_oneshot.json CHECK_served_*.json CHECK_stats.json
	dune exec bench/main.exe -- serve --quick -o BENCH_serve_quick.json > /dev/null
	grep -q '"schema": "mvl.bench.serve/1"' BENCH_serve_quick.json
	rm -f BENCH_serve_quick.json

bench:
	dune exec bench/main.exe

# the full reproduction pipeline: tests + every figure/table, with the
# outputs captured at the repository root
repro:
	dune build @all
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# requires odoc (not vendored): opam install odoc
doc:
	dune build @doc

clean:
	dune clean
