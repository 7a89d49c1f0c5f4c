(* `bench scale`: the layout scale benchmark and the 10^5-node gates.

   Constructs and fully verifies (strict model) a grid of large
   instances, recording per-record wall times, a per-phase breakdown of
   construction ({!Layout_profile}: place and pack run in the build,
   terminals, emit and build in the layout), verify throughput in
   segments per second, layout metrics against the paper's closed-form
   leading terms, and the process peak RSS (VmHWM) after each record.
   Results land in BENCH_layout.json (schema mvl.bench.layout/1) via
   the same tmp-write + rename + parse-back discipline as `bench emit`,
   so a crash never leaves a truncated file and emitting invalid JSON
   is a hard failure.

   The full grid ends with hypercube:18 — 262144 nodes — which doubles
   as the memory gate: that record must verify with zero violations and
   the peak RSS afterwards must stay under 4 GiB.  hypercube:17 earlier
   in the grid is the timing gate: its build + layout wall time must
   stay under 3.7 s.  The linearity gate holds verification to
   near-linear cost: hypercube:18's verify throughput (segments per
   second) must be at least half of hypercube:12's, over a 96x range of
   segment counts.  Any gate failing exits non-zero.  `--quick` swaps in
   a small grid for CI smoke and skips the gates.

   Layout construction shards wire emission over `--jobs` domains
   (Families.layout_jobs); the geometry is byte-identical at every job
   count, which `--stable` makes checkable end to end: it strips the
   volatile fields (every `*_seconds` / `*_per_second` key, the
   peak RSS, the phase breakdown) from the written records, so two runs
   at different job counts must produce byte-identical files.

   VmHWM is a process-lifetime high-water mark, so the grid runs
   smallest-first and each record reports the running peak; only the
   final (largest) record's value is gated. *)
open Mvl_core

let default_path = "BENCH_layout.json"

let gate_spec = "hypercube:18"

let gate_limit_kib = 4 * 1024 * 1024 (* 4 GiB *)

let time_gate_spec = "hypercube:17"

let time_gate_limit_s = 3.7 (* build + layout *)

(* verify seg/s of [gate_spec] must reach this share of [linear_base]'s *)
let linear_base = "hypercube:12"

let linear_min_ratio = 0.5

let quick_grid = [ ("hypercube:10", 4); ("kary:4:5", 4); ("hypercube:12", 4) ]

let full_grid =
  [
    ("hypercube:12", 4);
    ("kary:4:6", 4);
    ("hypercube:14", 4);
    ("kary:4:8", 4);
    (time_gate_spec, 4);
    (gate_spec, 4);
  ]

let vmhwm_kib () =
  (* "VmHWM:    1234 kB" from /proc/self/status; 0 when unreadable *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            acc
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let rest = String.sub line 6 (String.length line - 6) in
              let digits =
                String.to_seq rest
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              go (Option.value ~default:acc (int_of_string_opt digits))
            else go acc
      in
      go 0

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let phase_keys =
  [
    "place_seconds";
    "pack_seconds";
    "terminals_seconds";
    "emit_seconds";
    "build_seconds";
  ]

let phases_json (p : Mvl.Layout_profile.phases) =
  let open Mvl.Telemetry in
  Obj
    [
      ("place_seconds", Float p.Mvl.Layout_profile.place_seconds);
      ("pack_seconds", Float p.Mvl.Layout_profile.pack_seconds);
      ("terminals_seconds", Float p.Mvl.Layout_profile.terminals_seconds);
      ("emit_seconds", Float p.Mvl.Layout_profile.emit_seconds);
      ("build_seconds", Float p.Mvl.Layout_profile.build_seconds);
    ]

(* a field the byte-identity diff must not see: wall times, throughput,
   the RSS high-water mark and the phase breakdown all vary run to run
   and job count to job count *)
let volatile_key k =
  let suffix s =
    let ls = String.length s and lk = String.length k in
    lk >= ls && String.sub k (lk - ls) ls = s
  in
  suffix "_seconds" || suffix "_per_second" || k = "peak_rss_kib"
  || k = "layout_phases"

let stable_record = function
  | Mvl.Telemetry.Obj fields ->
      Mvl.Telemetry.Obj
        (List.filter (fun (k, _) -> not (volatile_key k)) fields)
  | j -> j

(* what the gates read from one record *)
type outcome = {
  spec : string;
  violations : int;
  peak_kib : int;
  construct_s : float; (* build + layout *)
  verify_seg_per_s : float;
}

let record ~jobs (spec_str, layers) =
  let spec = Mvl.Registry.spec_exn spec_str in
  (* reset before the build: Registry.build runs the orthogonal
     placement and track packing, so place and pack are timed there *)
  Mvl.Layout_profile.reset ();
  let fam, build_s = time (fun () -> Mvl.Registry.build_exn spec) in
  let layout, layout_s =
    time (fun () -> fam.Mvl.Families.layout_jobs ~jobs ~layers)
  in
  let phases = Mvl.Layout_profile.snapshot () in
  let result, verify_s =
    time (fun () -> Mvl.Check.run ~mode:Mvl.Check.Strict ~jobs layout)
  in
  let violations = List.length result.Mvl.Check.violations in
  let m = Mvl.Layout.metrics layout in
  let g = Mvl.Layout.geom layout in
  let n_segments = Mvl.Geom.n_segments g in
  let seg_per_s =
    if verify_s > 0.0 then float_of_int n_segments /. verify_s else 0.0
  in
  let peak = vmhwm_kib () in
  let open Mvl.Telemetry in
  let fields =
    [
      ("spec", String spec_str);
      ("layers", Int layers);
      ("n_nodes", Int fam.Mvl.Families.n_nodes);
      ("n_edges", Int (Mvl.Graph.m fam.Mvl.Families.graph));
      ("n_segments", Int n_segments);
      ("build_seconds", Float build_s);
      ("layout_seconds", Float layout_s);
      ("layout_phases", phases_json phases);
      ("verify_seconds", Float verify_s);
      ("verify_segments_per_second", Float seg_per_s);
      ("violations", Int violations);
      ("area", Int m.Mvl.Layout.area);
      ("max_wire", Int m.Mvl.Layout.max_wire);
      ("total_wire", Int m.Mvl.Layout.total_wire);
      ("vias", Int m.Mvl.Layout.vias);
      ("peak_rss_kib", Int peak);
    ]
  in
  let fields =
    match fam.Mvl.Families.paper_area with
    | Some f ->
        let predicted = f ~layers in
        fields
        @ [
            ("paper_area", Float predicted);
            ( "paper_area_ratio",
              Float (float_of_int m.Mvl.Layout.area /. predicted) );
          ]
    | None -> fields
  in
  Printf.printf
    "  %-14s L=%d  N=%-6d  build %.2fs (place %.2f pack %.2f)  layout %.2fs \
     (term %.2f emit %.2f)  verify %.2fs  (%.2e seg/s)  violations=%d  peak=%d \
     KiB\n\
     %!"
    spec_str layers fam.Mvl.Families.n_nodes build_s
    phases.Mvl.Layout_profile.place_seconds
    phases.Mvl.Layout_profile.pack_seconds layout_s
    phases.Mvl.Layout_profile.terminals_seconds
    phases.Mvl.Layout_profile.emit_seconds verify_s seg_per_s violations peak;
  ( Obj fields,
    {
      spec = spec_str;
      violations;
      peak_kib = peak;
      construct_s = build_s +. layout_s;
      verify_seg_per_s = seg_per_s;
    } )

let write path ~quick records =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{\n  \"schema\": \"mvl.bench.layout/1\",\n";
      Printf.fprintf oc "  \"quick\": %b,\n" quick;
      output_string oc "  \"records\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc "    ";
          output_string oc (Mvl.Telemetry.to_string r))
        records;
      output_string oc "\n  ]\n}\n";
      close_out oc;
      Sys.rename tmp path)

let read_back path ~stable expected_records =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match Mvl.Telemetry.parse contents with
  | Error msg ->
      Printf.eprintf "bench scale: %s re-reads as invalid JSON: %s\n" path msg;
      exit 1
  | Ok doc -> (
      match Mvl.Telemetry.member "records" doc with
      | Some (Mvl.Telemetry.List rs) when List.length rs = expected_records ->
          (* every record carries the full phase breakdown — unless
             --stable stripped it, in which case none may remain *)
          List.iter
            (fun r ->
              match Mvl.Telemetry.member "layout_phases" r with
              | Some (Mvl.Telemetry.Obj fs) when not stable ->
                  List.iter
                    (fun k ->
                      match List.assoc_opt k fs with
                      | Some (Mvl.Telemetry.Float _) -> ()
                      | _ ->
                          Printf.eprintf
                            "bench scale: %s: record missing phase field %s\n"
                            path k;
                          exit 1)
                    phase_keys
              | None when stable -> ()
              | _ ->
                  Printf.eprintf
                    "bench scale: %s: bad layout_phases (stable=%b)\n" path
                    stable;
                  exit 1)
            rs
      | _ ->
          Printf.eprintf
            "bench scale: %s does not hold the %d expected records\n" path
            expected_records;
          exit 1)

let run ?(path = default_path) ?(quick = false) ?(jobs = 1) ?(stable = false)
    () =
  let grid = if quick then quick_grid else full_grid in
  Printf.printf "bench scale (%s grid, %d records, jobs=%d%s):\n%!"
    (if quick then "quick" else "full")
    (List.length grid) jobs
    (if stable then ", stable output" else "");
  let out =
    List.map
      (fun entry ->
        (* drop the previous instance before building the next so VmHWM
           reflects one instance at a time, not two neighbours at once *)
        Gc.compact ();
        record ~jobs entry)
      grid
  in
  let records = List.map fst out in
  let records = if stable then List.map stable_record records else records in
  write path ~quick records;
  read_back path ~stable (List.length records);
  Printf.printf "wrote %s: %d records\n%!" path (List.length records);
  let outcomes = List.map snd out in
  let failures = List.filter (fun o -> o.violations <> 0) outcomes in
  List.iter
    (fun o ->
      Printf.eprintf "bench scale: %s FAILED verification (%d violations)\n"
        o.spec o.violations)
    failures;
  let find spec =
    match List.find_opt (fun o -> o.spec = spec) outcomes with
    | None ->
        Printf.eprintf "bench scale: gate instance %s missing from grid\n"
          spec;
        None
    | found -> found
  in
  let pass ok = if ok then "PASS" else "FAIL" in
  let mem_gate_ok () =
    match find gate_spec with
    | None -> false
    | Some o ->
        let ok =
          o.violations = 0 && o.peak_kib > 0 && o.peak_kib < gate_limit_kib
        in
        Printf.printf
          "gate %s: violations=%d  peak=%d KiB (limit %d KiB)  %s\n%!"
          gate_spec o.violations o.peak_kib gate_limit_kib (pass ok);
        ok
  in
  let time_gate_ok () =
    match find time_gate_spec with
    | None -> false
    | Some o ->
        let ok = o.construct_s <= time_gate_limit_s in
        Printf.printf "gate %s: build+layout %.2fs (limit %.2fs)  %s\n%!"
          time_gate_spec o.construct_s time_gate_limit_s (pass ok);
        ok
  in
  let linear_gate_ok () =
    match (find linear_base, find gate_spec) with
    | Some base, Some top ->
        let ok =
          top.verify_seg_per_s >= linear_min_ratio *. base.verify_seg_per_s
        in
        Printf.printf
          "gate linearity: %s verify %.2e seg/s vs %s %.2e seg/s (need >= \
           %.2fx)  %s\n\
           %!"
          gate_spec top.verify_seg_per_s linear_base base.verify_seg_per_s
          linear_min_ratio (pass ok);
        ok
    | _ -> false
  in
  (* every gate runs (and prints) even after another one fails *)
  let gates_ok =
    quick
    ||
    let mem = mem_gate_ok () in
    let time = time_gate_ok () in
    let linear = linear_gate_ok () in
    mem && time && linear
  in
  if failures <> [] || not gates_ok then exit 1

let run_cli args =
  let usage () =
    prerr_endline
      "usage: bench scale [--quick] [--stable] [--jobs N] [-o FILE]";
    exit 2
  in
  let rec go path quick jobs stable = function
    | [] -> run ~path ~quick ~jobs ~stable ()
    | "--quick" :: rest -> go path true jobs stable rest
    | "--stable" :: rest -> go path quick jobs true rest
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> go path quick j stable rest
        | _ -> usage ())
    | ("-o" | "--out") :: p :: rest -> go p quick jobs stable rest
    | _ -> usage ()
  in
  go default_path false 1 false args
