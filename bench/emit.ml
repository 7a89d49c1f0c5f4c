(* `bench emit`: the machine-readable perf trajectory.

   Runs the full pipeline (with strict validation) on every registry
   family's representative small instance across a layer sweep and
   writes one Mvl.Telemetry record per (spec, L) to BENCH_pipeline.json.
   Key order inside a record is fixed by Pipeline.to_json and records
   are written one per line, so regenerating the file yields reviewable
   diffs (only the "seconds" and cumulative "cache" numbers move).

   `--jobs N` fans the (spec, L) grid out over N work-stealing domains
   (Mvl.Domain_pool) that share the one Pipeline layout cache; records
   land in the file in grid order regardless of worker scheduling.
   `--stable` strips the volatile "seconds"/"cache" fields so two
   emits at any job counts are byte-identical; the CI determinism step
   diffs multi-job runs against a --jobs 1 run.  Non-stable emits
   additionally time the grid at 1/2/4/8 workers and record the scaling
   curve under "jobs_scaling".

   The output file is written to a temporary name in the same directory
   and renamed into place, so a crash or kill mid-run never leaves a
   truncated BENCH_pipeline.json — the previous version stays intact.

   The file is re-read and parsed before exiting: emitting invalid JSON
   is a hard failure, which is what the CI smoke step relies on. *)
open Mvl_core

let layer_sweep = [ 2; 4; 8 ]

let default_path = "BENCH_pipeline.json"

let grid () =
  List.concat_map
    (fun entry ->
      let spec = Mvl.Registry.small_spec entry in
      List.map (fun layers -> (spec, layers)) layer_sweep)
    (Mvl.Registry.all ())

let record (spec, layers) =
  match Mvl.Pipeline.run ~validate:Mvl.Check.Strict ~layers spec with
  | Ok r -> Mvl.Pipeline.to_json r
  | Error msg ->
      Mvl.Telemetry.Obj
        [
          ("schema", Mvl.Telemetry.String "mvl.pipeline.error/1");
          ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
          ("layers", Mvl.Telemetry.Int layers);
          ("error", Mvl.Telemetry.String msg);
        ]

let map_grid ?jobs g =
  let rs, pool =
    Mvl.Domain_pool.map ?domains:jobs ~f:record (Array.of_list g)
  in
  (Array.to_list rs, pool.Mvl.Domain_pool.domains)

(* the grid's records and worker count, and the cache counters of the
   run — every domain shares the one cache, so its counters, read
   before anything resets them, are the totals over all workers *)
let records ?jobs ~stable () =
  Mvl.Pipeline.cache_reset ();
  let rs, workers = map_grid ?jobs (grid ()) in
  let cache = Mvl.Pipeline.cache_stats () in
  let rs = if stable then List.map Mvl.Telemetry.strip_volatile rs else rs in
  (rs, workers, cache)

(* wall-time the whole grid at 1/2/4/8 workers — the pool's scaling
   signature, recorded alongside the per-record timings.  Each
   measurement starts from a cold layout cache so every point does the
   same work; speedup is against the 1-worker run of the same process,
   efficiency is speedup/workers.  On a machine with fewer cores than
   workers the extra points measure oversubscription, not speedup —
   readers should mind [cpu_count]. *)
let scaling_points = [ 1; 2; 4; 8 ]

let measure_scaling () =
  let g = grid () in
  let time_run jobs =
    Mvl.Pipeline.cache_reset ();
    let t0 = Unix.gettimeofday () in
    ignore (map_grid ~jobs g);
    Unix.gettimeofday () -. t0
  in
  match scaling_points with
  | [] -> Mvl.Telemetry.Null
  | base_jobs :: _ ->
      let base = time_run base_jobs in
      let point jobs =
        let t = if jobs = base_jobs then base else time_run jobs in
        let speedup = if t > 0.0 then base /. t else 0.0 in
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
          ( "cpu_count",
            Mvl.Telemetry.Int (Domain.recommended_domain_count ()) );
          ("points", Mvl.Telemetry.List (List.map point scaling_points));
        ]

let write ?cache ?scaling path records =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{\n  \"schema\": \"mvl.bench.pipeline/1\",\n";
      Printf.fprintf oc "  \"layer_sweep\": %s,\n"
        (Mvl.Telemetry.to_string
           (Mvl.Telemetry.List
              (List.map (fun l -> Mvl.Telemetry.Int l) layer_sweep)));
      (match cache with
      | None -> ()
      | Some (c : Mvl.Pipeline.cache_stats) ->
          Printf.fprintf oc "  \"cache\": {\"hits\": %d, \"misses\": %d},\n"
            c.Mvl.Pipeline.hits c.Mvl.Pipeline.misses);
      (match scaling with
      | None -> ()
      | Some json ->
          Printf.fprintf oc "  \"jobs_scaling\": %s,\n"
            (Mvl.Telemetry.to_string json));
      output_string oc "  \"records\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc "    ";
          output_string oc (Mvl.Telemetry.to_string r))
        records;
      output_string oc "\n  ]\n}\n";
      close_out oc;
      (* atomic within the same directory: readers (and interrupted
         runs) only ever observe a complete file *)
      Sys.rename tmp path)

let read_back path expected_records =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Mvl.Telemetry.parse contents with
  | Error msg ->
      Printf.eprintf "bench emit: %s re-reads as invalid JSON: %s\n" path msg;
      exit 1
  | Ok doc -> (
      match Mvl.Telemetry.member "records" doc with
      | Some (Mvl.Telemetry.List rs) when List.length rs = expected_records ->
          ()
      | _ ->
          Printf.eprintf
            "bench emit: %s does not hold the %d expected records\n" path
            expected_records;
          exit 1)

let run ?(path = default_path) ?jobs ?(stable = false) () =
  let rs, workers, cache = records ?jobs ~stable () in
  (* the cache counters and the scaling timings are volatile
     (scheduling, machine load), so the --stable form omits both —
     that's what keeps two stable emits byte-identical *)
  let scaling = if stable then None else Some (measure_scaling ()) in
  write ?cache:(if stable then None else Some cache) ?scaling path rs;
  read_back path (List.length rs);
  let errors =
    List.filter
      (fun r ->
        Mvl.Telemetry.member "error" r <> None
        || Mvl.Telemetry.member "violations" r
           |> Option.map (Mvl.Telemetry.member "count")
           |> Option.join
           |> Option.map (fun c -> c <> Mvl.Telemetry.Int 0)
           |> Option.value ~default:false)
      rs
  in
  Printf.printf
    "wrote %s: %d records (%d families x L in {%s}), %d worker(s), cache \
     %d/%d hit/miss, %d problem(s)\n"
    path (List.length rs)
    (List.length (Mvl.Registry.all ()))
    (String.concat "," (List.map string_of_int layer_sweep))
    workers cache.Mvl.Pipeline.hits cache.Mvl.Pipeline.misses
    (List.length errors);
  List.iter
    (fun r ->
      match Mvl.Telemetry.member "spec" r with
      | Some (Mvl.Telemetry.String s) -> Printf.printf "  problem: %s\n" s
      | _ -> ())
    errors

let run_cli args =
  let usage () =
    prerr_endline "usage: bench emit [--jobs N] [--stable] [-o FILE]";
    exit 2
  in
  let rec go path jobs stable = function
    | [] -> run ~path ?jobs ~stable ()
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> go path (Some j) stable rest
        | _ -> usage ())
    | "--stable" :: rest -> go path jobs true rest
    | ("-o" | "--out") :: p :: rest -> go p jobs stable rest
    | _ -> usage ()
  in
  go default_path None false args
