(* `bench throughput`: the simulator-engine perf trajectory.

   Runs the packet-level engine (Network_sim, unit link latency) over a
   families x offered-loads grid and writes one record per grid point
   to BENCH_sim.json.  Each point is timed with the monotonic clock
   over [repeats] runs and the best (minimum) wall time is kept — the
   engine is deterministic for a fixed seed, so the simulation
   statistics are identical across repeats and only the rate moves.

   [--jobs N] with N > 1 shards the engine itself across N domains
   (Network_sim.run ?jobs); the grid then runs one point at a time so
   per-point wall timings measure the sharded engine alone rather than
   co-scheduled grid neighbors.  Without [--jobs] the grid points fan
   out over Mvl.Domain_pool instead, and [--jobs 1] runs them one at a
   time in the calling domain; the statistics are the same in all
   three cases.

   Record shape: the deterministic measurement (Telemetry.of_sim) next
   to a volatile "seconds" object holding {wall, cycles_per_sec,
   packets_per_sec}.  Rates sit under "seconds" so
   Telemetry.strip_volatile (the --stable form) removes exactly them:
   two --stable runs — any --jobs counts — are byte-identical, which is
   what the CI determinism step diffs.  Records whose run hit the
   horizon with packets still in flight carry a nonzero
   sim.undrained, and the human table flags them: such a point is
   past saturation and its latency percentiles cover only the packets
   that made it out.

   Non-stable runs additionally time one representative grid point at
   1/2/4/8 engine shards and write the curve under "sim_jobs_scaling"
   (same shape as bench emit's "jobs_scaling"), after checking that
   every multi-shard run reproduced the jobs=1 statistics exactly —
   a mismatch is a hard exit(1), making the scaling record
   self-validating.

   Same output discipline as `bench emit`: atomic same-directory
   tmp+rename write, then a read-back parse so emitting invalid JSON is
   a hard failure. *)
open Mvl_core

let default_path = "BENCH_sim.json"

type profile = {
  specs : string list;
  loads : float list;
  warmup : int;
  measure : int;
  drain : int;
  repeats : int;
}

let full_profile =
  {
    specs = [ "hypercube:8"; "hypercube:10"; "kary:4:3"; "torus:8:8" ];
    loads = [ 0.1; 0.3; 0.6 ];
    warmup = 200;
    measure = 1000;
    drain = 2000;
    repeats = 3;
  }

(* small enough for CI smoke: a few seconds total *)
let quick_profile =
  {
    specs = [ "hypercube:6"; "kary:4:3" ];
    loads = [ 0.1; 0.3 ];
    warmup = 50;
    measure = 200;
    drain = 500;
    repeats = 1;
  }

let config_of p pattern load =
  {
    Mvl.Network_sim.default_config with
    Mvl.Network_sim.offered_load = load;
    traffic = pattern;
    warmup = p.warmup;
    measure = p.measure;
    drain = p.drain;
  }

let graph_of_spec spec_str =
  match Mvl.Registry.parse spec_str with
  | Error msg ->
      Printf.eprintf "bench throughput: %s\n" msg;
      exit 2
  | Ok spec -> (
      match Mvl.Registry.build spec with
      | Error msg ->
          Printf.eprintf "bench throughput: %s\n" msg;
          exit 2
      | Ok fam -> fam.Mvl.Families.graph)

(* best-of-[repeats] run of one grid point at [jobs] engine shards;
   returns the (deterministic) result and the best wall seconds *)
let time_point p ~pattern ?jobs (spec_str, load) =
  let graph = graph_of_spec spec_str in
  let config = config_of p pattern load in
  let result = ref None in
  let best_ns = ref Int64.max_int in
  for _ = 1 to p.repeats do
    let t0 = Monotonic_clock.now () in
    let r = Mvl.Network_sim.run ~config ?jobs graph in
    let ns = Int64.sub (Monotonic_clock.now ()) t0 in
    let ns = if Int64.compare ns 1L < 0 then 1L else ns in
    if Int64.compare ns !best_ns < 0 then best_ns := ns;
    result := Some r
  done;
  (Option.get !result, Int64.to_float !best_ns *. 1e-9)

let record p ~pattern ?jobs ((spec_str, load) as point) =
  let config = config_of p pattern load in
  let r, wall = time_point p ~pattern ?jobs point in
  Mvl.Telemetry.Obj
    [
      ("spec", Mvl.Telemetry.String spec_str);
      ("pattern", Mvl.Telemetry.String (Mvl.Traffic.to_string pattern));
      ("offered_load", Mvl.Telemetry.Float load);
      ("seed", Mvl.Telemetry.Int config.Mvl.Network_sim.seed);
      ("sim", Mvl.Telemetry.of_sim r);
      ( "seconds",
        Mvl.Telemetry.Obj
          [
            ("wall", Mvl.Telemetry.Float wall);
            ( "cycles_per_sec",
              Mvl.Telemetry.Float
                (float_of_int r.Mvl.Network_sim.cycles /. wall) );
            ( "packets_per_sec",
              Mvl.Telemetry.Float
                (float_of_int r.Mvl.Network_sim.delivered /. wall) );
          ] );
    ]

let grid p = List.concat_map (fun s -> List.map (fun l -> (s, l)) p.loads) p.specs

(* engine-shard scaling curve over one representative grid point —
   the heaviest spec at the highest load, where sharding has the most
   cycles to amortize its two barriers per cycle.  Points past
   [cpu_count] measure oversubscription, not speedup; readers should
   mind [cpu_count].  Every multi-shard result must equal the jobs=1
   result exactly (the engine's byte-identity contract) — a mismatch
   here means the parity tests have a hole, and poisoning BENCH_sim
   with it would be worse than failing, so it is exit(1). *)
let scaling_points = [ 1; 2; 4; 8 ]

let measure_scaling p ~pattern =
  let load = List.fold_left max 0.0 p.loads in
  let spec_str =
    List.fold_left
      (fun best s ->
        if Mvl.Graph.n (graph_of_spec s) > Mvl.Graph.n (graph_of_spec best)
        then s
        else best)
      (List.hd p.specs) (List.tl p.specs)
  in
  let point = (spec_str, load) in
  let base_r, base_t = time_point p ~pattern ~jobs:1 point in
  let point_json jobs =
    let r, t =
      if jobs = 1 then (base_r, base_t) else time_point p ~pattern ~jobs point
    in
    if r <> base_r then (
      Printf.eprintf
        "bench throughput: sharded run (--jobs %d) diverged from --jobs 1 \
         on %s load=%.2f — engine byte-identity violated\n"
        jobs spec_str load;
      exit 1);
    let speedup = if t > 0.0 then base_t /. t else 0.0 in
    Mvl.Telemetry.Obj
      [
        ("jobs", Mvl.Telemetry.Int jobs);
        ("seconds", Mvl.Telemetry.Float t);
        ("speedup", Mvl.Telemetry.Float speedup);
        ("efficiency", Mvl.Telemetry.Float (speedup /. float_of_int jobs));
      ]
  in
  Mvl.Telemetry.Obj
    [
      ("backend", Mvl.Telemetry.String "domains");
      ("cpu_count", Mvl.Telemetry.Int (Domain.recommended_domain_count ()));
      ("spec", Mvl.Telemetry.String spec_str);
      ("offered_load", Mvl.Telemetry.Float load);
      ("points", Mvl.Telemetry.List (List.map point_json scaling_points));
    ]

let write path p ?scaling records =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{\n  \"schema\": \"mvl.bench.sim/1\",\n";
      Printf.fprintf oc "  \"warmup\": %d,\n  \"measure\": %d,\n" p.warmup
        p.measure;
      Printf.fprintf oc "  \"drain\": %d,\n  \"repeats\": %d,\n" p.drain
        p.repeats;
      Printf.fprintf oc "  \"loads\": %s,\n"
        (Mvl.Telemetry.to_string
           (Mvl.Telemetry.List
              (List.map (fun l -> Mvl.Telemetry.Float l) p.loads)));
      Option.iter
        (fun s ->
          Printf.fprintf oc "  \"sim_jobs_scaling\": %s,\n"
            (Mvl.Telemetry.to_string s))
        scaling;
      output_string oc "  \"records\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc "    ";
          output_string oc (Mvl.Telemetry.to_string r))
        records;
      output_string oc "\n  ]\n}\n";
      close_out oc;
      (* atomic within the same directory, as in Emit.write *)
      Sys.rename tmp path)

let read_back path expected_records =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Mvl.Telemetry.parse contents with
  | Error msg ->
      Printf.eprintf "bench throughput: %s re-reads as invalid JSON: %s\n"
        path msg;
      exit 1
  | Ok doc -> (
      match Mvl.Telemetry.member "records" doc with
      | Some (Mvl.Telemetry.List rs) when List.length rs = expected_records ->
          ()
      | _ ->
          Printf.eprintf
            "bench throughput: %s does not hold the %d expected records\n"
            path expected_records;
          exit 1)

let run ?(path = default_path) ?jobs ?(quick = false) ?(stable = false)
    ?(pattern = Mvl.Traffic.Uniform) () =
  let p = if quick then quick_profile else full_profile in
  let points = grid p in
  (* --jobs > 1 shards the engine, and the grid then runs one point at
     a time so wall timings stay honest; otherwise the grid fans out
     over the pool *)
  let engine_jobs, grid_jobs =
    match jobs with
    | Some j when j > 1 -> (Some j, Some 1)
    | _ -> (None, jobs)
  in
  let rs, pool =
    Mvl.Domain_pool.map ?domains:grid_jobs
      ~f:(record p ~pattern ?jobs:engine_jobs)
      (Array.of_list points)
  in
  let rs = Array.to_list rs in
  let rs = if stable then List.map Mvl.Telemetry.strip_volatile rs else rs in
  let scaling = if stable then None else Some (measure_scaling p ~pattern) in
  write path p ?scaling rs;
  read_back path (List.length rs);
  Printf.printf "wrote %s: %d records (%d specs x %d loads), %d worker(s)\n"
    path (List.length rs) (List.length p.specs) (List.length p.loads)
    (match engine_jobs with
    | Some j -> j
    | None -> pool.Mvl.Domain_pool.domains);
  if not stable then (
    let int_of k o =
      match Option.bind o (Mvl.Telemetry.member k) with
      | Some (Mvl.Telemetry.Int i) -> i
      | _ -> 0
    in
    List.iter
      (fun r ->
        let str k o =
          match Option.bind o (Mvl.Telemetry.member k) with
          | Some (Mvl.Telemetry.String s) -> s
          | _ -> "?"
        in
        let flt k o =
          match Option.bind o (Mvl.Telemetry.member k) with
          | Some (Mvl.Telemetry.Float f) -> f
          | Some (Mvl.Telemetry.Int i) -> float_of_int i
          | _ -> 0.0
        in
        let seconds = Mvl.Telemetry.member "seconds" r in
        let undrained = int_of "undrained" (Mvl.Telemetry.member "sim" r) in
        Printf.printf "  %-14s load=%.2f  %8.0f pkt/s  %9.0f cyc/s  %.3fs%s\n"
          (str "spec" (Some r))
          (flt "offered_load" (Some r))
          (flt "packets_per_sec" seconds)
          (flt "cycles_per_sec" seconds) (flt "wall" seconds)
          (if undrained > 0 then
             Printf.sprintf "  [UNDRAINED %d]" undrained
           else "");
        if undrained > 0 then
          Printf.printf
            "    ^ horizon expired with %d tracked packets in flight: this \
             point is past saturation and its percentiles cover only the \
             delivered packets\n"
            undrained)
      rs;
    match Option.bind scaling (Mvl.Telemetry.member "points") with
    | Some (Mvl.Telemetry.List pts) ->
        let flt k o =
          match Option.bind o (Mvl.Telemetry.member k) with
          | Some (Mvl.Telemetry.Float f) -> f
          | Some (Mvl.Telemetry.Int i) -> float_of_int i
          | _ -> 0.0
        in
        Printf.printf "  engine scaling (%s load=%.2f):"
          (match Option.bind scaling (Mvl.Telemetry.member "spec") with
          | Some (Mvl.Telemetry.String s) -> s
          | _ -> "?")
          (flt "offered_load" scaling);
        List.iter
          (fun pt ->
            Printf.printf "  %dj %.2fx"
              (int_of "jobs" (Some pt))
              (flt "speedup" (Some pt)))
          pts;
        print_newline ()
    | _ -> ())

let run_cli args =
  let usage () =
    prerr_endline
      "usage: bench throughput [--quick] [--jobs N] [--stable] \
       [--pattern PATTERN] [-o FILE]";
    exit 2
  in
  let rec go path jobs quick stable pattern = function
    | [] -> run ~path ?jobs ~quick ~stable ~pattern ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> go path (Some j) quick stable pattern rest
        | _ -> usage ())
    | "--quick" :: rest -> go path jobs true stable pattern rest
    | "--stable" :: rest -> go path jobs quick true pattern rest
    | "--pattern" :: s :: rest -> (
        match Mvl.Traffic.of_string s with
        | Ok pattern -> go path jobs quick stable pattern rest
        | Error msg ->
            Printf.eprintf "bench throughput: %s\n" msg;
            exit 2)
    | ("-o" | "--out") :: p :: rest -> go p jobs quick stable pattern rest
    | _ -> usage ()
  in
  go default_path None false false Mvl.Traffic.Uniform args
