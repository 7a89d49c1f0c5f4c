(* perfbench: the load process of the repository's benchmark.

   perfbench/run.py builds this program and bin/mvl_cli.exe, then runs
   one workload per process:

     perfbench.exe WORKLOAD --seed N --seconds S --trace 0|1
                   --spawn-ns NS --mvl PATH --run-dir DIR [--smoke]

   and reads the JSON object this program prints as its last line.
   Every workload runs the three user-visible paths, through the
   library calls that one-shot [mvl layout], [mvl sim], [mvl wormhole]
   and the [mvl serve] daemon make, so that every run measures every
   end-to-end metric; the two workloads differ in the inputs they give
   each path.  Every output is checked, and
   each op that raises or fails its check counts as failed.  Engines
   are serial ([jobs] is never set): the load is sized for a two-core
   host.

   The paths, and why each input was chosen (shares measured on a
   2-core 2.0 GHz Xeon host at the seed commit: the layout ones from
   one-shot CLI runs, the others from traced runs of this program):

   - layout: spec -> strictly verified, measured, JSON-encoded layout,
     i.e. [mvl layout SPEC -l 4 --validate --json], with the pipeline
     cache reset before every instance.  Check.run is 81-96 % of it and
     construction the rest, and each instance loads a different part of
     the verifier.  heavy runs the paper's large instances:
       hypercube:15 (S5.1)   1.1M vias, ~250 MiB peak RSS, more than
                             the last-level cache; validate 2.4 of 2.9 s
       scc:7 (S4.3)          long single-row wires make the via pass
                             superlinear; validate 6.7 of 6.9 s
       mesh:256:256 (S3.2)   the node-footprint sweep grows
                             superlinearly with the row count;
                             validate 2.3 of 2.7 s
     Peak RSS of the one-shot CLI op is 248, 77 and 140 MiB.  light
     runs smaller instances of the same families (hypercube:12, scc:6,
     mesh:128:128; 0.2-0.4 s and 34, 18 and 42 MiB each), which fit in
     the 105 MiB last-level cache and where the superlinear passes do
     not yet dominate (scc:6 validates in 0.1 s).
   - sim: [mvl sim SPEC -l 4 --load P] (pipeline layout,
     link_latency_of_layout, Network_sim.run, zero_load_latency) and
     [mvl wormhole hypercube:8].
       heavy   hypercube:10 at load 0.6: Network_sim.run is 98 % of the
               op (2.88 of 2.93 s) and its routing tables, replayed
               alone, about a fifth of that (0.56 s): the switch loop
               does the work.  The flit op is adaptive at load 0.2, busy
               per flit (100k packets in 1.7 s).
       light   hypercube:11 at load 0.05: Network_sim.run is 97 % of the
               op (3.12 of 3.21 s) and the routing tables, replayed
               alone, take 2.35 s of it (75 %): the only input where
               Routing_table is the main cost.  The flit op is
               deterministic at load 0.02, where the per-cycle scan of
               every router dominates (10k packets in 0.8-1.3 s).
   - serve: an [mvl serve --workers 1] child driven by one closed-loop
     connection replaying a Zipf(s=1) trace over a shuffled catalogue
     of (op, spec, L) keys: one 256-1024-node instance of every registry
     family (rh has none in that range; rh:8, 2048 nodes, is its
     smallest instance above it), layout and metrics at L = 2, 4, 8,
     validate at L = 4, sim at L = 2, load 0.1 on instances of at most
     256 nodes.  In heavy the reply cache holds about half the keys, so
     hits touch only Protocol, Server and Cache while misses re-encode
     payloads or rebuild layouts and simulations (83 % of requests hit;
     GDSF keeps the costly sim and validate replies); a change that
     trades one for the other moves serve_p50_ms against serve_p99_ms.
     In light the cache holds every key, so after the warm-up every
     request is a hit: a change to the miss path should not move it.
     One connection, not two: with two, the client thread and the
     daemon's two domains outnumbered the host's two cores, and while
     the host was busy a daemon domain descheduled inside a
     stop-the-world collection stalled the other, so p99 swung from 0.9
     to 8 ms between runs.  run.py also keeps this process and the
     daemon on one CPU: spread over two, a miss wakes the worker domain
     on the other CPU, which a virtual machine's host runs when its own
     load allows, and p99 moved between 0.4 and 1.1 ms from run to run.

   The traced run ([--trace 1]) wraps every call into a layer's public
   function in a {!Span} and prints per-layer metrics instead of the
   end-to-end ones; end-to-end numbers come only from untraced runs. *)

open Mvl_core
module Protocol = Mvl_serve.Protocol
module Client = Mvl_serve.Client

(* --- clock, statistics, accounting -------------------------------------- *)

let now = Monotonic_clock.now
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let attempted = ref 0
let failed = ref 0

let fail ?(count = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + count;
      Printf.eprintf "perfbench: FAILED (%d op%s) %s\n%!" count
        (if count = 1 then "" else "s")
        msg)
    fmt

(* name, unit, value, sample count; printed in this order *)
let metrics : (string * string * float * int) list ref = ref []

let metric ?(n = 1) name unit value =
  if Float.is_finite value then metrics := (name, unit, value, n) :: !metrics
  else fail "metric %s has no finite value" name

let metric_median name unit xs =
  metric ~n:(List.length xs) name unit (median xs)

let ok_exn = function Ok v -> v | Error msg -> failwith msg

(* splitmix64 streams, one per purpose, all derived from --seed *)
let rng seed stream = Mvl.Rng.create ~seed:((seed * 1_000_003) + stream)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Mvl.Rng.int r ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let vmhwm_mib pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kib -> float_of_int kib /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* --- arguments ---------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  spawn_ns : int64;  (* run.py's CLOCK_MONOTONIC reading just before exec *)
  mvl : string;
  run_dir : string;
}

let parse_args () =
  let usage () =
    prerr_endline
      "usage: perfbench WORKLOAD --seed N --seconds S --trace 0|1 \
       --spawn-ns NS --mvl PATH --run-dir DIR [--smoke]";
    exit 2
  in
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        smoke = false;
        spawn_ns = now ();
        mvl = "_build/default/bin/mvl_cli.exe";
        run_dir = ".";
      }
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--spawn-ns" :: v :: rest ->
        a := { !a with spawn_ns = Int64.of_string v };
        go rest
    | "--mvl" :: v :: rest -> a := { !a with mvl = v }; go rest
    | "--run-dir" :: v :: rest -> a := { !a with run_dir = v }; go rest
    | "--smoke" :: rest -> a := { !a with smoke = true }; go rest
    | w :: rest when !a.workload = "" && w <> "" && w.[0] <> '-' ->
        a := { !a with workload = w };
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !a.workload = "" then usage ();
  !a

(* Every op starts as a one-shot CLI process would: a cold pipeline
   cache and no garbage from the op before, so that op's collection is
   not timed here and peak RSS does not grow with the number of ops. *)
let fresh () =
  Mvl.Pipeline.cache_reset ();
  Gc.full_major ()

let deadline seconds = Int64.add (now ()) (Int64.of_float (seconds *. 1e9))
let before t = Int64.compare (now ()) t < 0

(* total seconds of the spans named [name] among [spans], optionally
   only those whose op satisfies [op] *)
let span_total ?(f = Span.seconds) ?(op = fun _ -> true) spans name =
  List.fold_left
    (fun acc (s : Span.t) ->
      if String.equal s.Span.name name && op s.Span.op then acc +. f s else acc)
    0.0 spans

(* --- layout path ---------------------------------------------------------- *)

(* the layer count of the layout instances and of the simulated
   layouts *)
let layers = 4

(* pinned from the seed commit *)
type pin = {
  area : int;
  max_wire : int;
  total_wire : int;
  vias : int;
  segments : int;
}

type instance = { role : string; spec : string; pin : pin }

let layout_instances ~heavy smoke =
  if smoke then
    [
      { role = "hypercube"; spec = "hypercube:8";
        pin = { area = 36481; max_wire = 149; total_wire = 50944;
                vias = 4736; segments = 6560 } };
      { role = "scc"; spec = "scc:4";
        pin = { area = 9560; max_wire = 454; total_wire = 9216;
                vias = 728; segments = 1044 } };
      { role = "mesh"; spec = "mesh:16:16";
        pin = { area = 8649; max_wire = 7; total_wire = 3360;
                vias = 1440; segments = 2880 } };
    ]
  else if heavy then
    [
      { role = "hypercube"; spec = "hypercube:15";
        pin = { area = 168073857; max_wire = 10529; total_wire = 438420736;
                vias = 1144832; segments = 1577472 } };
      { role = "scc"; spec = "scc:7";
        pin = { area = 829464458; max_wire = 176800; total_wire = 1165292740;
                vias = 285392; segments = 438480 } };
      { role = "mesh"; spec = "mesh:256:256";
        pin = { area = 2350089; max_wire = 7; total_wire = 913920;
                vias = 391680; segments = 783360 } };
    ]
  else
    [
      { role = "hypercube"; spec = "hypercube:12";
        pin = { area = 3682561; max_wire = 1475; total_wire = 8214528;
                vias = 112128; segments = 157056 } };
      { role = "scc"; spec = "scc:6";
        pin = { area = 12670900; max_wire = 21146; total_wire = 17173894;
                vias = 34560; segments = 52200 } };
      { role = "mesh"; spec = "mesh:128:128";
        pin = { area = 585225; max_wire = 7; total_wire = 227584;
                vias = 97536; segments = 195072 } };
    ]

(* zero violations, the pinned cost measures and segment count, and an
   encoded document that parses back to the same area *)
let check_layout inst (r : Mvl.Pipeline.t) json =
  let m = r.Mvl.Pipeline.metrics in
  let segments = Mvl.Geom.n_segments (Mvl.Layout.geom r.Mvl.Pipeline.layout) in
  let violations =
    match r.Mvl.Pipeline.validation with
    | Some v -> List.length v.Mvl.Check.violations
    | None -> -1
  in
  let encoded_area =
    match Mvl.Telemetry.parse json with
    | Ok j -> (
        match
          Option.bind (Mvl.Telemetry.member "metrics" j)
            (Mvl.Telemetry.member "area")
        with
        | Some (Mvl.Telemetry.Int a) -> a
        | _ -> -1)
    | Error _ -> -1
  in
  let p = inst.pin in
  let ok =
    violations = 0 && m.Mvl.Layout.area = p.area
    && m.Mvl.Layout.max_wire = p.max_wire
    && m.Mvl.Layout.total_wire = p.total_wire
    && m.Mvl.Layout.vias = p.vias && segments = p.segments
    && encoded_area = p.area
  in
  if not ok then
    fail
      "%s: violations=%d area=%d max_wire=%d total_wire=%d vias=%d \
       segments=%d encoded_area=%d"
      inst.spec violations m.Mvl.Layout.area m.Mvl.Layout.max_wire
      m.Mvl.Layout.total_wire m.Mvl.Layout.vias segments encoded_area;
  (ok, segments)

(* what one-shot [mvl layout SPEC -l 4 --validate --json] runs *)
let layout_op inst =
  fresh ();
  incr attempted;
  let t0 = now () in
  let out =
    try
      let spec = ok_exn (Mvl.Registry.parse inst.spec) in
      let r =
        ok_exn (Mvl.Pipeline.run ~validate:Mvl.Check.Strict ~layers spec)
      in
      Ok (r, Mvl.Telemetry.to_string ~pretty:true (Mvl.Pipeline.to_json r))
    with e -> Error (Printexc.to_string e)
  in
  let dt = since t0 in
  (match out with
  | Ok (r, json) -> ignore (check_layout inst r json)
  | Error msg -> fail "%s: %s" inst.spec msg);
  dt

(* the same path with each layer's public function called directly,
   inside a span; the segment count, unless the op raised *)
let traced_layout_op ~op inst =
  fresh ();
  incr attempted;
  let stage name stage f =
    Span.record ~alloc:true ~op name (fun () ->
        let t0 = now () in
        let v = f () in
        (v, { Mvl.Pipeline.stage; seconds = since t0 }))
  in
  match
    Span.record ~op "layout.op" (fun () ->
        let (spec, family), t_build =
          stage "registry.build" "build" (fun () ->
              let spec = ok_exn (Mvl.Registry.parse inst.spec) in
              (spec, ok_exn (Mvl.Registry.build spec)))
        in
        let (layout, phases), t_layout =
          stage "families.layout" "layout" (fun () ->
              Mvl.Layout_profile.reset ();
              let l = family.Mvl.Families.layout ~layers in
              (l, Mvl.Layout_profile.snapshot ()))
        in
        let validation, t_validate =
          stage "check.run" "validate" (fun () ->
              Mvl.Check.run ~mode:Mvl.Check.Strict layout)
        in
        let metrics, t_metrics =
          stage "layout.metrics" "metrics" (fun () -> Mvl.Layout.metrics layout)
        in
        let r =
          {
            Mvl.Pipeline.spec;
            family;
            layers;
            layout;
            metrics;
            validation = Some validation;
            report = None;
            timings =
              [ t_build; t_layout; t_validate; t_metrics;
                { Mvl.Pipeline.stage = "report"; seconds = 0.0 } ];
            layout_phases = Some phases;
            from_cache = false;
          }
        in
        let json, _ =
          stage "telemetry.encode" "encode" (fun () ->
              Mvl.Telemetry.to_string ~pretty:true (Mvl.Pipeline.to_json r))
        in
        (r, json))
  with
  | r, json -> Some (snd (check_layout inst r json))
  | exception e ->
      fail "%s: %s" inst.spec (Printexc.to_string e);
      None

let layout_layers =
  [ "registry.build"; "families.layout"; "check.run"; "layout.metrics";
    "telemetry.encode" ]

(* The traced layout passes.  Each instance runs untraced and then
   traced right after it, so that both sides see the same machine; an
   op's id is pass * 16 + the instance's index. *)
let traced_layout ~instances ~passes =
  let first = Span.next () in
  let ops =
    List.concat
      (List.init passes (fun p ->
           List.mapi
             (fun i inst ->
               let u = layout_op inst in
               (i, inst, u, traced_layout_op ~op:((p * 16) + i) inst))
             instances))
  in
  let untraced = List.fold_left (fun acc (_, _, u, _) -> acc +. u) 0.0 ops in
  let spans = Span.since first in
  (* per pass, over every instance or over instance [i] *)
  let total ?f ?i name =
    let op = Option.map (fun i o -> o mod 16 = i) i in
    span_total ?f ?op spans name /. float_of_int passes
  in
  let words (s : Span.t) = s.Span.alloc_words /. 1e6 in
  metric ~n:passes "registry.build_s" "s" (total "registry.build");
  metric ~n:passes "families.layout_s" "s" (total "families.layout");
  metric ~n:passes "check.run_s" "s" (total "check.run");
  metric ~n:passes "layout.metrics_s" "s" (total "layout.metrics");
  metric ~n:passes "telemetry.encode_s" "s" (total "telemetry.encode");
  metric ~n:passes "registry.alloc_mw" "Mword" (total ~f:words "registry.build");
  metric ~n:passes "families.alloc_mw" "Mword" (total ~f:words "families.layout");
  metric ~n:passes "check.alloc_mw" "Mword" (total ~f:words "check.run");
  List.iteri
    (fun i inst ->
      match
        List.find_map
          (fun (j, _, _, segments) -> if j = i then segments else None)
          ops
      with
      | None -> ()
      | Some n ->
          metric ("geom.segments." ^ inst.role) "count" (float_of_int n);
          metric ~n:passes ("check.seg_per_s." ^ inst.role) "seg/s"
            (float_of_int n /. total ~i "check.run"))
    instances;
  (* how far the layer spans of the traced ops are from the untraced
     ops; run.py holds it to layout_s's bound *)
  let traced = List.fold_left (fun acc n -> acc +. total n) 0.0 layout_layers in
  metric ~n:passes "trace.overhead_pct" "%"
    (100.0 *. ((traced *. float_of_int passes) -. untraced) /. untraced)

(* --- sim path ------------------------------------------------------------- *)

type sim_case = {
  spec : string;
  load : float;
  fabric : Mvl.Wormhole.fabric;
  routing : Mvl.Wormhole.routing;
  wh_load : float;
  wormholes : int;  (* flit ops per round *)
  pkt_digest : string;  (* at the default seed, pinned from the seed commit *)
  wh_digest : string;
}

let default_seed = 1

(* A round is one packet op and [wormholes] flit ops, which take about
   as long together as the packet op. *)
let sim_case ~heavy smoke =
  let spec =
    match (heavy, smoke) with
    | _, true -> "hypercube:6"
    | true, false -> "hypercube:10"
    | false, false -> "hypercube:11"
  in
  let pkt_digest, wh_digest =
    match (heavy, smoke) with
    | true, false ->
        ("345819101aee2f8fbb8f9b9ca800d418", "088c4bf50552c7660ecb66eb16c66eb3")
    | false, false ->
        ("585a5e80f05c4bf3728a98e4ead38311", "cc64435bdd81822c1f225bd1084da7ce")
    | true, true ->
        ("855fcf2959a748ed16307a34f73c9c30", "da1c29dc9f75e6e18c3fd952f64bea25")
    | false, true ->
        ("f24f39da9d58b4cc83ebbb8a1f948599", "fd961b37628a8805fa2a562c134d0af7")
  in
  {
    spec;
    load = (if heavy then 0.6 else 0.05);
    fabric = Mvl.Wormhole.Hypercube (if smoke then 4 else 8);
    routing = (if heavy then Mvl.Wormhole.Adaptive else Mvl.Wormhole.Deterministic);
    wh_load = (if heavy then 0.2 else 0.02);
    wormholes = (if heavy then 2 else 3);
    pkt_digest;
    wh_digest;
  }

(* [mvl sim] and [mvl wormhole] with the CLI defaults *)
let units_per_cycle = 32

let packet_config c seed =
  { Mvl.Network_sim.default_config with
    Mvl.Network_sim.traffic = Mvl.Traffic.Uniform; offered_load = c.load; seed }

(* the CLI's defaults but for routing and load: 3 virtual channels *)
let wormhole_config c seed =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.vcs = 3; routing = c.routing; offered_load = c.wh_load; seed }

let hist_sum h = Array.fold_left (fun acc (_, n) -> acc + n) 0 h

let packet_digest (r : Mvl.Network_sim.result) zll =
  Digest.to_hex
    (Digest.string
       (Mvl.Telemetry.to_string (Mvl.Telemetry.of_sim r)
       ^ Printf.sprintf " %h" zll))

let wormhole_digest (r : Mvl.Wormhole.result) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%d %d %h %d %d %d %d %h %d" r.Mvl.Wormhole.injected
    r.delivered r.avg_latency r.p50_latency r.p95_latency r.p99_latency
    r.max_latency r.throughput r.undrained;
  Array.iter (fun (l, n) -> Printf.bprintf b " %d:%d" l n) r.latency_histogram;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* conservation at any seed, the pinned digest at the default one *)
let check_packet c seed (r : Mvl.Network_sim.result) zll =
  let digest = packet_digest r zll in
  let ok =
    r.Mvl.Network_sim.injected = r.delivered + r.undrained
    && hist_sum r.latency_histogram = r.delivered
    && (seed <> default_seed || digest = c.pkt_digest)
  in
  if not ok then
    fail "%s: injected=%d delivered=%d undrained=%d histogram=%d digest=%s"
      c.spec r.injected r.delivered r.undrained
      (hist_sum r.latency_histogram) digest

let check_wormhole c seed (r : Mvl.Wormhole.result) =
  let digest = wormhole_digest r in
  let ok =
    r.Mvl.Wormhole.injected = r.delivered + r.undrained
    && hist_sum r.latency_histogram = r.delivered
    && (seed <> default_seed || digest = c.wh_digest)
  in
  if not ok then
    fail "wormhole: injected=%d delivered=%d undrained=%d histogram=%d digest=%s"
      r.injected r.delivered r.undrained (hist_sum r.latency_histogram) digest

(* one [mvl sim] op: delivered packets and host seconds *)
let sim_op c seed =
  fresh ();
  incr attempted;
  let t0 = now () in
  match
    let spec = ok_exn (Mvl.Registry.parse c.spec) in
    let r = ok_exn (Mvl.Pipeline.run ~layers spec) in
    let graph = r.Mvl.Pipeline.family.Mvl.Families.graph in
    let link =
      Mvl.Network_sim.link_latency_of_layout ~units_per_cycle r.Mvl.Pipeline.layout
    in
    let res =
      Mvl.Network_sim.run ~config:(packet_config c seed) ~link_latency:link graph
    in
    (res, Mvl.Network_sim.zero_load_latency ~link_latency:link graph)
  with
  | res, zll ->
      let dt = since t0 in
      check_packet c seed res zll;
      Some (res.Mvl.Network_sim.delivered, dt)
  | exception e ->
      fail "%s: %s" c.spec (Printexc.to_string e);
      None

let wormhole_op c seed =
  fresh ();
  incr attempted;
  let t0 = now () in
  match Mvl.Wormhole.run ~config:(wormhole_config c seed) c.fabric with
  | r ->
      let dt = since t0 in
      check_wormhole c seed r;
      Some (r.Mvl.Wormhole.delivered, dt)
  | exception e ->
      fail "wormhole: %s" (Printexc.to_string e);
      None

type traced_sim = {
  delivered : int;
  cycles : int;
  undrained : int;
  hop_total : int;
  wh_delivered : int;
}

(* one packet op and one flit op, each layer call inside a span *)
let traced_sim_round ~op c seed =
  attempted := !attempted + 2;
  match
    fresh ();
    let graph, link, res, zll =
      Span.record ~op "sim.op" (fun () ->
          let family =
            Span.record ~op "registry.build" (fun () ->
                ok_exn (Mvl.Registry.build (ok_exn (Mvl.Registry.parse c.spec))))
          in
          let layout =
            Span.record ~op "families.layout" (fun () ->
                family.Mvl.Families.layout ~layers)
          in
          ignore
            (Span.record ~op "layout.metrics" (fun () -> Mvl.Layout.metrics layout));
          let graph = family.Mvl.Families.graph in
          let link =
            Span.record ~op "route.of_layout" (fun () ->
                Mvl.Network_sim.link_latency_of_layout ~units_per_cycle layout)
          in
          let res =
            Span.record ~op "network_sim.run" (fun () ->
                Mvl.Network_sim.run ~config:(packet_config c seed)
                  ~link_latency:link graph)
          in
          let zll =
            Span.record ~op "network_sim.zero_load" (fun () ->
                Mvl.Network_sim.zero_load_latency ~link_latency:link graph)
          in
          (graph, link, res, zll))
    in
    fresh ();
    let wr =
      Span.record ~op "wormhole.run" (fun () ->
          Mvl.Wormhole.run ~config:(wormhole_config c seed) c.fabric)
    in
    (* replayed outside the run: every destination's table with the
       layout's edge costs *)
    Span.record ~op "routing_table.build" (fun () ->
        let rt = Mvl.Routing_table.create ~edge_cost:link graph in
        for d = 0 to Mvl.Graph.n graph - 1 do
          ignore (Mvl.Routing_table.build rt d)
        done);
    (res, zll, wr)
  with
  | res, zll, wr ->
      check_packet c seed res zll;
      check_wormhole c seed wr;
      Some
        {
          delivered = res.Mvl.Network_sim.delivered;
          cycles = res.cycles;
          undrained = res.undrained;
          hop_total = res.hop_total;
          wh_delivered = wr.Mvl.Wormhole.delivered;
        }
  | exception e ->
      fail ~count:2 "%s: %s" c.spec (Printexc.to_string e);
      None

(* sim rounds for [seconds] (at least one): each op's delivered packets
   and host seconds, packet ops and flit ops apart *)
let sim_rounds c seed ~seconds =
  let stop = deadline seconds in
  let rec loop sims whs =
    let sims = Option.to_list (sim_op c seed) @ sims in
    let whs =
      List.filter_map Fun.id
        (List.init c.wormholes (fun _ -> wormhole_op c seed))
      @ whs
    in
    if before stop then loop sims whs else (sims, whs)
  in
  loop [] []

let traced_sim a c ~seconds =
  let seed = a.seed in
  (* one op of each kind, untraced then traced *)
  let round () =
    Option.bind (sim_op c seed) (fun (_, s) ->
        Option.map (fun (_, w) -> s +. w) (wormhole_op c seed))
  in
  let first = Span.next () in
  let stop = deadline seconds in
  let untraced = ref [] and traced = ref [] in
  let rec loop op =
    Option.iter (fun u -> untraced := u :: !untraced) (round ());
    (match traced_sim_round ~op c seed with
    | Some t -> traced := (op, t) :: !traced
    | None -> ());
    if before stop then loop (op + 1)
  in
  loop 0;
  let spans = Span.since first in
  let span_s op name = span_total ~op:(Int.equal op) spans name in
  let per name = List.map (fun (op, _) -> span_s op name) !traced in
  let count f = List.map (fun (_, t) -> float_of_int (f t)) !traced in
  metric_median "route.of_layout_s" "s" (per "route.of_layout");
  metric_median "routing_table.build_s" "s" (per "routing_table.build");
  metric_median "network_sim.run_s" "s" (per "network_sim.run");
  metric_median "network_sim.ns_per_hop" "ns/hop"
    (List.map
       (fun (op, t) -> span_s op "network_sim.run" *. 1e9 /. float_of_int t.hop_total)
       !traced);
  metric_median "network_sim.zero_load_s" "s" (per "network_sim.zero_load");
  metric_median "wormhole.run_s" "s" (per "wormhole.run");
  metric_median "network_sim.delivered" "count" (count (fun t -> t.delivered));
  metric_median "network_sim.cycles" "count" (count (fun t -> t.cycles));
  metric_median "network_sim.undrained" "count" (count (fun t -> t.undrained));
  metric_median "wormhole.delivered" "count" (count (fun t -> t.wh_delivered));
  let base = median !untraced in
  metric_median "trace.overhead_pct.sim" "%"
    (List.map
       (fun (op, _) ->
         100.0 *. (span_s op "sim.op" +. span_s op "wormhole.run" -. base) /. base)
       !traced)

(* --- serve path ----------------------------------------------------------- *)

(* one instance per registry family, with its node count *)
let serve_instances smoke =
  if smoke then
    [ ("hypercube:5", 32); ("kary:3:3", 27); ("mesh:4:3", 12);
      ("complete:9", 9); ("ccc:4", 64); ("scc:4", 72); ("tree:4", 15);
      ("butterfly:3:2", 81) ]
  else
    [ ("hypercube:8", 256); ("kary:4:4", 256); ("torus:16:16", 256);
      ("mesh:16:16", 256); ("ghc:4:4", 256); ("complete:256", 256);
      ("hsn:4:4", 256); ("hhn:2:4", 256); ("ccc:6", 384); ("rh:8", 2048);
      ("butterfly:3:3", 324); ("isn:3:3", 324); ("folded:8", 256);
      ("enhanced:8:7", 256); ("karycluster:4:2:16", 256); ("star:6", 720);
      ("pancake:6", 720); ("bubble:6", 720); ("transposition:6", 720);
      ("scc:5", 480); ("shuffle:8", 256); ("debruijn:8", 256);
      ("tree:9", 511) ]

let op_kinds = [| "layout"; "metrics"; "validate"; "sim" |]

let kind_of = function
  | Protocol.Layout _ -> 0
  | Protocol.Metrics _ -> 1
  | Protocol.Validate _ -> 2
  | Protocol.Sim _ -> 3
  | Protocol.Stats | Protocol.Shutdown -> invalid_arg "kind_of"

let catalogue a =
  let sim_max = if a.smoke then 32 else 256 in
  List.concat_map
    (fun (spec, nodes) ->
      List.map
        (fun layers -> Protocol.Layout { spec; layers; validate = false })
        [ 2; 4; 8 ]
      @ List.map (fun layers -> Protocol.Metrics { spec; layers }) [ 2; 4; 8 ]
      @ [ Protocol.Validate { spec; layers = 4 } ]
      @
      if nodes <= sim_max then
        [ Protocol.Sim { spec; layers = 2; load = 0.1; pattern = "uniform" } ]
      else [])
    (serve_instances a.smoke)
  |> Array.of_list
  (* one fixed order, so every seed ranks the same keys hot; the seed
     draws the trace *)
  |> shuffle (rng 0 2)

(* Zipf(s=1) over catalogue positions: position i has weight 1/(i+1) *)
let zipf_cdf n =
  let acc = ref 0.0 in
  Array.init n (fun i ->
      acc := !acc +. (1.0 /. float_of_int (i + 1));
      !acc)

let zipf_draw r cdf =
  let u = Mvl.Rng.float r *. cdf.(Array.length cdf - 1) in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

type daemon = { pid : int; out : in_channel; sock : string }

(* waits for the daemon to exit, killing it after 10 s *)
let reap d =
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when since t0 < 10.0 ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  close_in_noerr d.out;
  try Sys.remove d.sock with Sys_error _ -> ()

let stop_daemon d =
  (match Client.connect ("unix:" ^ d.sock) with
  | Ok c ->
      (try ignore (Client.rpc c { Protocol.id = 0; op = Protocol.Shutdown })
       with Unix.Unix_error _ -> ());
      Client.close c
  | Error _ -> ());
  reap d

(* ready once it prints its "listening" line *)
let start_daemon a ~entries =
  let sock =
    Filename.concat a.run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process a.mvl
      [| a.mvl; "serve"; "--socket"; sock; "--workers"; "1";
         "--cache-entries"; string_of_int entries |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let d = { pid; out = Unix.in_channel_of_descr r; sock } in
  let ready =
    match input_line d.out with
    | line -> String.starts_with ~prefix:"mvl serve: listening" line
    | exception End_of_file -> false
  in
  if not ready then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d;
    failwith "mvl serve did not start"
  end;
  d

(* one timed request and its latency as the client saw it *)
type sample = { id : int; key : int; latency : float; traced : bool }

type conn = {
  client : Client.t;
  mutable next_id : int;
  zipf : Mvl.Rng.t;
  (* key -> each distinct payload received, with its count; encoded and
     checked only after the trace *)
  replies : (int, (Mvl.Telemetry.json * int ref) list ref) Hashtbl.t;
  mutable timed : sample list;
}

let request conn cat k ~traced =
  let id = conn.next_id in
  conn.next_id <- id + 1;
  incr attempted;
  let req = { Protocol.id; op = cat.(k) } in
  let t0 = now () in
  let rpc () =
    try Client.rpc conn.client req
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let reply = if traced then Span.record ~op:id "client.rpc" rpc else rpc () in
  let dt = since t0 in
  (match reply with
  | Error msg -> fail "%s: %s" (Option.get (Protocol.cache_key cat.(k))) msg
  | Ok payload -> (
      let variants =
        match Hashtbl.find_opt conn.replies k with
        | Some v -> v
        | None ->
            let v = ref [] in
            Hashtbl.add conn.replies k v;
            v
      in
      match List.find_opt (fun (p, _) -> compare p payload = 0) !variants with
      | Some (_, n) -> incr n
      | None -> variants := (payload, ref 1) :: !variants));
  (id, dt)

(* the untimed prefix of the trace: every key once, then Zipf draws *)
let warm cat cdf ~prefix conn =
  Array.iteri (fun k _ -> ignore (request conn cat k ~traced:false)) cat;
  for _ = 1 to prefix do
    ignore (request conn cat (zipf_draw conn.zipf cdf) ~traced:false)
  done

(* the timed trace, closed loop; in the traced run every other request
   is traced, so the untraced ones give the tracing overhead *)
let timed_loop cat cdf ~stop ~trace conn =
  let i = ref 0 in
  while before stop do
    let key = zipf_draw conn.zipf cdf in
    let traced = trace && !i land 1 = 0 in
    let id, latency = request conn cat key ~traced in
    conn.timed <- { id; key; latency; traced } :: conn.timed;
    incr i
  done

(* daemon start until ready, plus the warm-up; [stream] picks the
   connection's Zipf stream *)
let setup a cat cdf ~entries ~prefix ~stream =
  let t0 = now () in
  let d = start_daemon a ~entries in
  match
    (* ids 0 and 1 are left to shutdown and stats *)
    let conn =
      { client = ok_exn (Client.connect ("unix:" ^ d.sock)); next_id = 2;
        zipf = rng a.seed (10 + stream); replies = Hashtbl.create 256;
        timed = [] }
    in
    warm cat cdf ~prefix conn;
    conn
  with
  | conn -> (d, conn, since t0)
  | exception e ->
      stop_daemon d;
      raise e

type server_stats = {
  hits : int;
  misses : int;
  evictions : int;
  pipeline_misses : int;
}

let server_stats conn =
  let j =
    ok_exn (Client.rpc conn.client { Protocol.id = 1; op = Protocol.Stats })
  in
  let int path =
    match
      List.fold_left
        (fun j k -> Option.bind j (Mvl.Telemetry.member k))
        (Some j) path
    with
    | Some (Mvl.Telemetry.Int i) -> i
    | _ -> failwith ("stats reply lacks " ^ String.concat "." path)
  in
  {
    hits = int [ "hits" ];
    misses = int [ "misses" ];
    evictions = int [ "reply_cache"; "evictions" ];
    pipeline_misses = int [ "pipeline"; "misses" ];
  }

(* every payload received must be byte-equal to this process's own
   Protocol.eval of the same request; a cold pipeline cache in the
   traced run makes each eval the cost of a daemon miss *)
let verify_replies a cat conns =
  let merged = Hashtbl.create 256 in
  List.iter
    (fun c ->
      Hashtbl.iter
        (fun k variants ->
          let into =
            match Hashtbl.find_opt merged k with
            | Some v -> v
            | None ->
                let v = ref [] in
                Hashtbl.add merged k v;
                v
          in
          List.iter
            (fun (p, n) ->
              match List.find_opt (fun (q, _) -> compare q p = 0) !into with
              | Some (_, m) -> m := !m + !n
              | None -> into := (p, ref !n) :: !into)
            !variants)
        c.replies)
    conns;
  Mvl.Pipeline.cache_reset ();
  let eval_ms = Array.make (Array.length op_kinds) [] in
  Hashtbl.iter
    (fun k variants ->
      if a.trace then Mvl.Pipeline.cache_reset ();
      let t0 = now () in
      let expected =
        Span.record ~op:k "protocol.eval" (fun () -> Protocol.eval cat.(k))
      in
      let kind = kind_of cat.(k) in
      eval_ms.(kind) <- (since t0 *. 1000.0) :: eval_ms.(kind);
      let key = Option.get (Protocol.cache_key cat.(k)) in
      List.iter
        (fun (p, n) ->
          match expected with
          | Ok e when String.equal e (Mvl.Telemetry.to_string p) -> ()
          | Ok _ -> fail ~count:!n "%s: reply differs from Protocol.eval" key
          | Error msg -> fail ~count:!n "%s: Protocol.eval: %s" key msg)
        !variants)
    merged;
  eval_ms

(* the catalogue, its Zipf table and the reply-cache bound: half the
   keys, or all of them *)
type serve_load = {
  cat : Protocol.op array;
  cdf : float array;
  entries : int;
}

let serve_load a ~all_resident =
  let cat = catalogue a in
  {
    cat;
    cdf = zipf_cdf (Array.length cat);
    entries = (if all_resident then Array.length cat else Array.length cat / 2);
  }

type session = {
  conn : conn;
  setup_s : float;
  s0 : server_stats;
  s1 : server_stats;  (* before and after the timed trace *)
  rss_mib : float;
}

(* one daemon, set up and then replayed for [seconds]; [stream] picks
   its Zipf stream *)
let serve_session a l ~stream ~seconds =
  let d, conn, setup_s =
    setup a l.cat l.cdf ~entries:l.entries ~prefix:(Array.length l.cat) ~stream
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close conn.client;
      stop_daemon d)
    (fun () ->
      let s0 = server_stats conn in
      timed_loop l.cat l.cdf ~stop:(deadline seconds) ~trace:a.trace conn;
      let s1 = server_stats conn in
      { conn; setup_s; s0; s1; rss_mib = vmhwm_mib (Some d.pid) })

(* checks every reply, then prints the serve metrics of the sessions:
   end-to-end untraced, per-layer traced (from the first session) *)
let serve_report a l sessions =
  let cat = l.cat in
  let conns = List.map (fun s -> s.conn) sessions in
  let eval_ms = verify_replies a cat conns in
  let timed = List.concat_map (fun c -> c.timed) conns in
  let n = List.length timed in
  if not a.trace then begin
    let lat = List.map (fun s -> s.latency *. 1000.0) timed in
    metric ~n "serve_p50_ms" "ms" (percentile 50.0 lat);
    metric ~n "serve_p99_ms" "ms" (percentile 99.0 lat);
    (* per second spent in Client.rpc: the load process's bookkeeping
       between requests is not the daemon's to count *)
    metric ~n "serve_req_per_s" "req/s"
      (float_of_int n /. List.fold_left (fun t s -> t +. s.latency) 0.0 timed)
  end
  else begin
    let kind_of_id = Hashtbl.create n in
    List.iter (fun s -> Hashtbl.replace kind_of_id s.id (kind_of cat.(s.key))) timed;
    let rpc_ms = Array.make (Array.length op_kinds) [] in
    List.iter
      (fun (s : Span.t) ->
        if String.equal s.Span.name "client.rpc" then
          match Hashtbl.find_opt kind_of_id s.Span.op with
          | Some kind -> rpc_ms.(kind) <- (Span.seconds s *. 1000.0) :: rpc_ms.(kind)
          | None -> ())
      (Span.all ());
    Array.iteri
      (fun kind name ->
        let xs = rpc_ms.(kind) in
        let n = List.length xs in
        metric ~n ("client.rpc_p50_ms." ^ name) "ms" (percentile 50.0 xs);
        metric ~n ("client.rpc_p99_ms." ^ name) "ms" (percentile 99.0 xs))
      op_kinds;
    let lines =
      List.map (fun s -> Protocol.encode_request { Protocol.id = s.id; op = cat.(s.key) }) timed
    in
    let t0 = now () in
    let parsed =
      Span.record ~op:0 "protocol.parse_request" (fun () ->
          List.map Protocol.parse_request lines)
    in
    metric ~n "protocol.parse_request_us" "us" (since t0 *. 1e6 /. float_of_int n);
    List.iter2
      (fun s p ->
        match p with
        | Ok r when r.Protocol.id = s.id && r.Protocol.op = cat.(s.key) -> ()
        | _ -> fail "request %d does not parse back to its op" s.id)
      timed parsed;
    Array.iteri
      (fun kind name ->
        metric_median ("protocol.eval_ms." ^ name) "ms" eval_ms.(kind))
      op_kinds;
    let { s0; s1; _ } = List.hd sessions in
    let served = (s1.hits - s0.hits) + (s1.misses - s0.misses) in
    metric ~n:served "server.hit_ratio" "fraction"
      (float_of_int (s1.hits - s0.hits) /. float_of_int served);
    metric "server.misses" "count" (float_of_int (s1.misses - s0.misses));
    metric "reply_cache.evictions" "count" (float_of_int (s1.evictions - s0.evictions));
    metric "pipeline.misses" "count"
      (float_of_int (s1.pipeline_misses - s0.pipeline_misses));
    let lat traced =
      List.filter_map (fun s -> if s.traced = traced then Some s.latency else None) timed
    in
    let base = median (lat false) in
    metric ~n "trace.overhead_pct.serve" "%"
      (100.0 *. (median (lat true) -. base) /. base)
  end

(* --- workloads ------------------------------------------------------------ *)

(* The untraced run goes through the three paths in this many rounds,
   each with its share of the layout passes, of the sim time and of the
   serve time (one daemon), so that every metric samples the whole run:
   the host's speed drifts within a run, and a metric measured in one
   stretch of it would follow that stretch.  Three daemons also give
   set-up and the daemon's peak RSS three samples each. *)
let rounds = 3

(* The serve figures steady within a few seconds of requests, the sim
   rates take longer: the sims get two thirds of --seconds. *)
let sim_share = 2.0 /. 3.0

let untraced_run a ~heavy ~instances ~passes =
  let c = sim_case ~heavy a.smoke in
  let l = serve_load a ~all_resident:(not heavy) in
  let share x = x /. float_of_int rounds in
  (* the layout ops of every pass, in order, cut into [rounds] runs *)
  let ops =
    List.concat (List.init passes (fun p -> List.map (fun i -> (p, i)) instances))
  in
  let per_round = (List.length ops + rounds - 1) / rounds in
  let pass_s = Array.make passes 0.0 in
  let sims = ref [] and whs = ref [] and sessions = ref [] in
  for r = 0 to rounds - 1 do
    List.iteri
      (fun k (p, inst) ->
        if k / per_round = r then pass_s.(p) <- pass_s.(p) +. layout_op inst)
      ops;
    let s, w = sim_rounds c a.seed ~seconds:(share (a.seconds *. sim_share)) in
    sims := s @ !sims;
    whs := w @ !whs;
    sessions :=
      serve_session a l ~stream:r ~seconds:(share (a.seconds *. (1.0 -. sim_share)))
      :: !sessions
  done;
  metric_median "layout_s" "s" (Array.to_list pass_s);
  (* delivered packets over the host seconds of every op: a ratio of
     sums weighs each second of the run alike, where a median of a
     handful of ops picks one of them *)
  let rate ops =
    let d, s = List.fold_left (fun (d, s) (n, dt) -> (d + n, s +. dt)) (0, 0.0) ops in
    float_of_int d /. s
  in
  metric ~n:(List.length !sims) "sim_pkt_per_s" "packets/s" (rate !sims);
  metric ~n:(List.length !whs) "wormhole_pkt_per_s" "packets/s" (rate !whs);
  let sessions = List.rev !sessions in
  serve_report a l sessions;
  sessions

(* heavy: the paper's large layouts, the busy packet and flit engines and
   a reply cache that holds half the keys.  light: layouts that fit in
   the last-level cache, the table-bound packet engine, the scan-bound
   flit engine and a reply cache that holds every key.  The layout
   passes are a fixed count rather than a share of --seconds: a count
   that followed the machine's speed would change what the median is
   taken over, and so the estimator, between a slower and a faster
   build.  No op runs untimed first: the first op of every run pays
   alike for growing the heap, which is under 1 % of a heavy pass. *)
let run_workload a ~heavy =
  let instances = layout_instances ~heavy a.smoke in
  (* a smoke-size op takes milliseconds, which one pass's comparison of
     traced and untraced time cannot resolve *)
  let passes, traced_passes =
    if a.smoke then (3, 10) else if heavy then (1, 1) else (9, 5)
  in
  let start_s = since a.spawn_ns in
  if a.trace then begin
    traced_layout ~instances ~passes:traced_passes;
    traced_sim a (sim_case ~heavy a.smoke) ~seconds:(a.seconds *. sim_share);
    let l = serve_load a ~all_resident:(not heavy) in
    serve_report a l
      [ serve_session a l ~stream:0 ~seconds:(a.seconds *. (1.0 -. sim_share)) ]
  end
  else begin
    let sessions = untraced_run a ~heavy ~instances ~passes in
    let n = List.length sessions in
    (* process start to the first timed op, plus a daemon's start until
       ready and its warm-up *)
    metric ~n "setup_s" "s"
      (start_s +. median (List.map (fun s -> s.setup_s) sessions));
    (* this process's peak plus a daemon's *)
    metric ~n "peak_rss_mib" "MiB"
      (vmhwm_mib None +. median (List.map (fun s -> s.rss_mib) sessions))
  end

(* --- main ----------------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  Span.enabled := a.trace;
  (match a.workload with
  | "heavy" -> run_workload a ~heavy:true
  | "light" -> run_workload a ~heavy:false
  | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2);
  if a.trace then
    Span.write_file
      (Filename.concat a.run_dir
         (Printf.sprintf "trace-%s-%d.jsonl" a.workload a.seed));
  let ms = List.rev !metrics in
  let open Mvl.Telemetry in
  print_endline
    (to_string
       (Obj
          [
            ( "meta",
              Obj
                [
                  ("workload", String a.workload);
                  ("seed", Int a.seed);
                  ("ocaml", String Sys.ocaml_version);
                  ("smoke", Bool a.smoke);
                  ("trace", Bool a.trace);
                  ("samples", Obj (List.map (fun (n, _, _, k) -> (n, Int k)) ms));
                ] );
          ]));
  let attempted = !attempted and failed = !failed in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (failed = 0 && attempted > 0));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (n, u, v, _) ->
                     (n, Obj [ ("value", Float v); ("unit", String u) ]))
                   ms) );
          ]))
