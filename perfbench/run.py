#!/usr/bin/env python3
"""The repository's benchmark: one command for the layout, simulation and
serving paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke      # tiny sizes, seconds

Run it from the root of a checkout.  It builds perfbench/perfbench.exe
and bin/mvl_cli.exe with dune, runs the workload in its own process and
prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is {"meta": {...}}: seed, nproc, OCaml version, git
commit (or null outside a git checkout), a digest of the sources and the
sample count behind every metric.  With --trace 0 the metrics are every
end-to-end metric of BENCHMARK.json; with --trace 1 they are every
per-layer metric, measured from spans that perfbench/span.ml records
around each call into a layer (the library itself is not instrumented).
Spans go to .perfbench_run/trace-WORKLOAD-SEED.jsonl.

Both workloads run the same three paths in turn, so that every run
measures every metric; they differ in the inputs (why each was chosen,
with measured shares, is in the header of perfbench/perfbench.ml):

    path     heavy                            light
    layout   hypercube:15, scc:7,             hypercube:12, scc:6,
             mesh:256:256 (77-248 MiB each)   mesh:128:128 (18-42 MiB each)
    sim      mvl sim hypercube:10 --load 0.6  mvl sim hypercube:11 --load 0.05
             (switch loop); wormhole          (routing tables); wormhole
             hypercube:8 --adaptive           hypercube:8 --load 0.02
             --load 0.2, twice a round        (router scan), 3 times a round
    serve    reply cache holds half of the    reply cache holds every key:
             174 keys: hits and misses        hits only

The layout path, at L=4, is `mvl layout SPEC -l 4 --validate --json`
with a cold pipeline cache, over a fixed number of passes over the three
instances (heavy 1, light 9) whatever --seconds says, so that layout_s
is always the median over the same count.  The sim path runs rounds of
one packet op and its flit ops for two thirds of --seconds; sim_pkt_per_s
and wormhole_pkt_per_s are the packets delivered over the host seconds
of all ops of each engine.  The serve path starts three `mvl serve
--workers 1` daemons, each set up (start until ready, then a warm-up of
every key once and 174 Zipf draws) and then driven by one closed-loop
connection replaying Zipf(s=1) for a ninth of --seconds (the traced run
starts one daemon, for a third).  The untraced
run goes through the paths in three rounds, each with a third of the
layout ops, of the sim time and one daemon, so that every metric samples
the whole run rather than one stretch of the host's drifting speed.  No
op runs untimed: the heap growth the first layout op pays is under 1 %
of a heavy pass.  The load process and its daemons run on one CPU.

Every op's output is checked and an op that errors or fails its check
counts in "failed"; the failure rate is failed / attempted (it is in the
meta line, not a metric, because it is 0 whenever the program works).
The seed seeds every simulation that the benchmark configures (the
daemon's sim op has no seed field and uses the simulator's default) and
draws the serve trace.  The layout instances and the order of the serve
catalogue are fixed, so every seed measures the same work.  At the
default seed (1) the simulations must match digests pinned from the seed
commit.

End-to-end metrics:

    setup_s             process start to the first timed op, plus the
                        median daemon set-up (start until ready and the
                        warm-up)
    peak_rss_mib        VmHWM of the load process plus the median VmHWM
                        of the daemons
    layout_s            median wall time of a pass over the three layouts
    sim_pkt_per_s       packets delivered per host second of mvl sim ops
    wormhole_pkt_per_s  packets delivered per host second of Wormhole.run
    serve_p50_ms,       percentiles of the latency of every timed request,
    serve_p99_ms        as the client saw it
    serve_req_per_s     requests completed per second spent in Client.rpc
                        (the load process's bookkeeping between requests
                        is left out)

Per-layer metrics: the layer call each one times or counts, and the
end-to-end metric it should move (on both workloads unless a workload is
named).

    registry.build_s        Registry.parse + Registry.build: topology,
                            collinear factors, Orthogonal place and pack
                            -> layout_s, serve_p99_ms (heavy)
    families.layout_s       Families.layout: Multilayer or Cluster_expand
                            realization into Geom -> layout_s, serve_p99_ms
                            (heavy)
    check.run_s             Check.run ~mode:Strict -> layout_s;
                            serve_p99_ms through validate (heavy)
    check.seg_per_s.ROLE    segments verified per second, per instance
                            (hypercube, scc, mesh) -> layout_s
    layout.metrics_s        Layout.metrics -> layout_s
    telemetry.encode_s      Pipeline.to_json + Telemetry.to_string -> layout_s
    registry.alloc_mw,      millions of GC words allocated inside each
    families.alloc_mw,      call (Gc.counters delta) -> peak_rss_mib,
    check.alloc_mw          layout_s
    geom.segments.ROLE      segment count; must repeat exactly -> none
    route.of_layout_s       Network_sim.link_latency_of_layout
                            -> sim_pkt_per_s
    routing_table.build_s   Routing_table.build for every destination with
                            the layout's edge costs, replayed outside the
                            run -> sim_pkt_per_s (light; a minor share of
                            heavy)
    network_sim.run_s,      Network_sim.run; its seconds per hop_total
    network_sim.ns_per_hop  -> sim_pkt_per_s (heavy; a minor share of
                            light)
    network_sim.zero_load_s Network_sim.zero_load_latency -> sim_pkt_per_s
    wormhole.run_s          Wormhole.run -> wormhole_pkt_per_s
    network_sim.delivered,  counts that must repeat exactly for a seed
    network_sim.cycles,     -> none
    network_sim.undrained,
    wormhole.delivered
    client.rpc_p50_ms.OP,   Client.rpc latency per op (layout, metrics,
    client.rpc_p99_ms.OP    validate, sim) -> serve_p50_ms, serve_p99_ms
    protocol.parse_request_us  Protocol.parse_request over the trace's
                            lines in the load process -> serve_p50_ms,
                            serve_req_per_s
    protocol.eval_ms.OP     Protocol.eval once per distinct key on a cold
                            pipeline cache, the cost of a miss
                            -> serve_p99_ms (heavy)
    server.hit_ratio, server.misses, reply_cache.evictions,
    pipeline.misses
                            the daemon's stats reply, differenced over the
                            timed trace -> serve_p50_ms, serve_req_per_s
    trace.overhead_pct      the layer spans of the traced layout passes
                            against the untraced passes, which must agree
                            within layout_s's bound -> none
    trace.overhead_pct.sim, traced against untraced time of the same sim
    trace.overhead_pct.serve  rounds and requests -> none
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("heavy", "light")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
MVL = os.path.join("_build", "default", "bin", "mvl_cli.exe")
RUN_DIR = ".perfbench_run"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170  # everything after the build
BUILD_TIMEOUT_S = 840


def expected_metrics(spec, trace):
    """Every end-to-end metric untraced, every per-layer metric traced."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        die("run from the root of an mvl checkout (dune-project, lib/, bin/)")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "--display", "quiet", "./perfbench/perfbench.exe",
           "./bin/mvl_cli.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def become_subreaper():
    """Orphans of the load process (a daemon left by a crash) become our
    children, so they can be reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_worker(args, deadline):
    cmd = [EXE] + args + ["--spawn-ns", str(time.monotonic_ns())]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        reap_group(p.pid)
        die("%s timed out" % " ".join(args[:1]))
    reap_group(p.pid)
    if p.returncode != 0:
        die("%s exited with %d" % (" ".join(args[:1]), p.returncode))
    lines = out.strip().splitlines()
    if not lines:
        die("%s printed nothing" % args[0])
    return [json.loads(line) for line in lines]


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=30,
                           env=dict(os.environ, GIT_DIR=".git"))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload runs in seconds")
    a = ap.parse_args()

    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = a.seconds
    if seconds is None:
        seconds = 1.0 if a.smoke else float(spec["run_seconds"])

    build()
    become_subreaper()
    # The load process and its daemons share one CPU.  Spread over two, a
    # request can wake a thread on the other CPU, and on a virtual
    # machine that waits until the host runs that CPU: on a 2-vCPU host,
    # p99 moved between 0.4 and 1.1 ms from run to run with the host's
    # load, and p50 read 0.05 ms against 0.03 ms on one CPU.  The layout
    # and sim paths are serial, so one CPU is all they use.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(RUN_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    args = [a.workload, "--seed", str(a.seed), "--seconds", repr(seconds),
            "--trace", str(a.trace), "--mvl", MVL, "--run-dir", RUN_DIR]
    if a.smoke:
        args.append("--smoke")

    out = run_worker(args, deadline)
    if len(out) < 2 or "meta" not in out[-2]:
        die("unexpected output from the load process")
    meta, result = out[-2]["meta"], out[-1]
    metrics = result["metrics"]

    expected = expected_metrics(spec, a.trace)
    missing = [m for m in expected if m not in metrics]
    extra = [m for m in metrics if m not in expected]
    wrong = [m for m in expected
             if m in metrics and metrics[m]["unit"] != units.get(m)]
    if missing or extra or wrong:
        die("metrics do not match BENCHMARK.json: missing %s, unexpected %s,"
            " wrong unit %s" % (missing, extra, wrong))

    # The layer spans of the traced layout passes must add up to the
    # untraced passes within layout_s's bound; a breach fails the run.
    if a.trace:
        gap = metrics["trace.overhead_pct"]["value"]
        if abs(gap) > 100 * bounds["layout_s"]:
            print("perfbench: FAILED layer spans of the traced pass differ"
                  " from the untraced pass by %.1f %%" % gap, file=sys.stderr)
            result["failed"] += 1
            result["correct"] = False

    meta.update(nproc=os.cpu_count(), commit=git_commit(),
                source_sha256=source_digest(),
                fail_rate=result["failed"] / max(1, result["attempted"]))
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {m: metrics[m] for m in expected}}))


if __name__ == "__main__":
    main()
