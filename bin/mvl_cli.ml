(* mvl: command-line front end.

   Subcommands:
     layout   - build a family's multilayer layout, print metrics,
                optionally validate/report/save/render it
     sweep    - run one family across a list of layer counts
     validate - check a family's layout geometry, violations on stdout
     tracks   - collinear track counts vs the paper's formulas
     figure   - ASCII renderings of the paper's figures 2-4
     verify   - re-verify a serialized layout file
     sim      - packet-level simulation with layout link latencies
     wormhole - flit-level wormhole simulation (VCs, adaptive routing)
     list     - the supported network families

   layout/sweep/validate accept --json: exactly one JSON document on
   stdout (the Mvl.Telemetry schema), nothing else. *)
open Mvl_core
open Cmdliner

(* --- family parsing ----------------------------------------------------
   The grammar, the help string and the `list` output are all derived
   from the declarative Mvl.Registry catalog: adding a family there is
   all it takes to make it available here. *)

let family_doc = Mvl.Registry.family_doc ()

let family_conv =
  Arg.conv
    ( (fun s ->
        match Mvl.Registry.parse s with
        | Ok spec -> Ok spec
        | Error msg -> Error (`Msg msg)),
      fun ppf spec -> Format.fprintf ppf "%s" (Mvl.Registry.to_string spec) )

let family_arg =
  Arg.(
    required
    & pos 0 (some family_conv) None
    & info [] ~docv:"NETWORK" ~doc:family_doc)

(* run the cached pipeline for a parsed spec, or exit with the registry's
   usage message on construction errors (e.g. out-of-range parameters) *)
let pipeline_or_die ?validate ?report ~layers spec =
  match Mvl.Pipeline.run ?validate ?report ~layers spec with
  | Ok r -> r
  | Error msg ->
      Printf.eprintf "mvl: %s\n" msg;
      exit 2

let layers_arg =
  Arg.(
    value & opt int 2
    & info [ "l"; "layers" ] ~docv:"L" ~doc:"Number of wiring layers (>= 2).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit one machine-readable JSON document on stdout instead of \
           the human-readable rendering.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan independent runs out over $(docv) workers — a \
           work-stealing pool of OCaml domains sharing one layout \
           cache (default: every processor this process may run on; 1 \
           forces the sequential path).  Output order and content are \
           independent of $(docv).")

let print_json j = print_endline (Mvl.Telemetry.to_string ~pretty:true j)

(* --- merged-record accessors --------------------------------------------
   Sweep runs come back as Telemetry records (the same records --json
   prints, and what a --connect daemon replies with), so the human
   renderings below read fields back out of the merged records rather
   than out of in-process Pipeline.t values. *)

let jint key j =
  match Mvl.Telemetry.member key j with
  | Some (Mvl.Telemetry.Int i) -> Some i
  | _ -> None

let jfloat key j =
  match Mvl.Telemetry.member key j with
  | Some (Mvl.Telemetry.Float f) -> Some f
  | _ -> None

let jstring key j =
  match Mvl.Telemetry.member key j with
  | Some (Mvl.Telemetry.String s) -> Some s
  | _ -> None

let jbool key j =
  match Mvl.Telemetry.member key j with
  | Some (Mvl.Telemetry.Bool b) -> Some b
  | _ -> None

let record_error j = jstring "error" j

let violation_count j =
  Option.bind (Mvl.Telemetry.member "violations" j) (jint "count")

(* exit 2 on the first build error in a merged record set, matching
   pipeline_or_die on the sequential path *)
let die_on_record_errors records =
  match List.find_map record_error records with
  | Some msg ->
      Printf.eprintf "mvl: %s\n" msg;
      exit 2
  | None -> ()

(* [List.map f xs] over up to [jobs] domains, in input order, plus the
   sweep's "cache" object.  Every domain shares the one Pipeline cache
   and this process started with its counters at zero, so they hold
   the sweep's totals. *)
let sweep_map ?jobs ~f xs =
  let records, pool =
    Mvl.Domain_pool.map ?domains:jobs ~f (Array.of_list xs)
  in
  let cache = Mvl.Pipeline.cache_stats () in
  ( Array.to_list records,
    Mvl.Telemetry.Obj
      [
        ("workers", Mvl.Telemetry.Int pool.Mvl.Domain_pool.domains);
        ("hits", Mvl.Telemetry.Int cache.Mvl.Pipeline.hits);
        ("misses", Mvl.Telemetry.Int cache.Mvl.Pipeline.misses);
      ] )

(* Gc + peak-RSS snapshot for --mem-stats.  VmHWM comes from
   /proc/self/status and reads 0 where /proc is unavailable. *)
let vmhwm_kib () =
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

(* finish a major cycle first: OCaml 5's quick_stat reports live/heap
   words as 0 until one completes, which is exactly the short-lived-CLI
   case; the heap is small next to the off-heap geometry columns, so
   the collection is cheap even at 10^5 nodes *)
let mem_snapshot () =
  Gc.full_major ();
  Gc.quick_stat ()

let mem_json () =
  let s = mem_snapshot () in
  Mvl.Telemetry.Obj
    [
      ("live_words", Mvl.Telemetry.Int s.Gc.live_words);
      ("heap_words", Mvl.Telemetry.Int s.Gc.heap_words);
      ("top_heap_words", Mvl.Telemetry.Int s.Gc.top_heap_words);
      ("peak_rss_kib", Mvl.Telemetry.Int (vmhwm_kib ()));
    ]

(* --- layout command ----------------------------------------------------- *)

let layout_cmd =
  let svg_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG rendering to $(docv).")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"Check the geometry under the strict multilayer grid model.")
  in
  let report_arg =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Print the layout anatomy: area breakdown, wire-length \
             distribution, per-layer usage.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Serialize the layout to $(docv) (mvl-layout text format).")
  in
  let time_arg =
    Arg.(
      value & flag
      & info [ "time" ] ~doc:"Print per-stage wall-clock timings.")
  in
  let mem_stats_arg =
    Arg.(
      value & flag
      & info [ "mem-stats" ]
          ~doc:
            "Report heap occupancy (Gc.quick_stat) and process peak RSS \
             after the pipeline finishes.")
  in
  let stable_arg =
    Arg.(
      value & flag
      & info [ "stable" ]
          ~doc:
            "Strip volatile fields (timings, cache state) from the JSON \
             so runs can be compared byte for byte — the same document a \
             running $(b,mvl serve) daemon replies with; implies nothing \
             without $(b,--json).")
  in
  let run spec layers svg validate report save time mem_stats stable json =
    let r =
      pipeline_or_die
        ?validate:(if validate then Some Mvl.Check.Strict else None)
        ~report ~layers spec
    in
    let fam = r.Mvl.Pipeline.family in
    let m = r.Mvl.Pipeline.metrics in
    if json then begin
      let j = Mvl.Pipeline.to_json r in
      let j = if stable then Mvl.Telemetry.strip_volatile j else j in
      let j =
        if not mem_stats then j
        else
          match j with
          | Mvl.Telemetry.Obj fields ->
              Mvl.Telemetry.Obj (fields @ [ ("mem", mem_json ()) ])
          | other -> other
      in
      print_json j
    end
    else begin
      Printf.printf "%s  N=%d  L=%d\n" fam.Mvl.Families.name
        fam.Mvl.Families.n_nodes layers;
      Format.printf "  %a@." Mvl.Layout.pp_metrics m;
      (match fam.Mvl.Families.paper_area with
      | Some f ->
          let paper = f ~layers in
          Printf.printf "  paper leading area: %.0f (ratio %.3f)\n" paper
            (float_of_int m.Mvl.Layout.area /. paper)
      | None -> ());
      (match fam.Mvl.Families.bisection with
      | Some b ->
          Printf.printf "  bisection lower bound: %.0f\n"
            (Mvl.Lower_bounds.area ~bisection:b ~layers)
      | None -> ());
      (match Mvl.Pipeline.violations r with
      | None -> ()
      | Some [] -> print_endline "  validation: ok (strict model)"
      | Some violations ->
          List.iter
            (fun v -> Format.printf "  VIOLATION %a@." Mvl.Check.pp_violation v)
            violations);
      (match r.Mvl.Pipeline.report with
      | None -> ()
      | Some rep -> Format.printf "%a@." Mvl.Report.pp rep);
      if time then Format.printf "  %a@." Mvl.Pipeline.pp_timings r;
      (if time || mem_stats then
         match r.Mvl.Pipeline.layout_phases with
         | Some p -> Format.printf "  phases: %a@." Mvl.Pipeline.pp_phases p
         | None -> ());
      if mem_stats then begin
        let s = mem_snapshot () in
        Printf.printf
          "  mem: live_words=%d heap_words=%d top_heap_words=%d \
           peak_rss_kib=%d\n"
          s.Gc.live_words s.Gc.heap_words s.Gc.top_heap_words (vmhwm_kib ())
      end
    end;
    (match save with
    | None -> ()
    | Some file ->
        Mvl.Serialize.write_file file r.Mvl.Pipeline.layout;
        if not json then Printf.printf "  saved %s\n" file);
    (match svg with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Mvl.Render.layout_svg r.Mvl.Pipeline.layout);
        close_out oc;
        if not json then Printf.printf "  wrote %s\n" file);
    if Mvl.Pipeline.validity r = Mvl.Pipeline.Invalid then exit 1
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Build and measure a multilayer layout")
    Term.(
      const run $ family_arg $ layers_arg $ svg_arg $ validate_arg $ report_arg
      $ save_arg $ time_arg $ mem_stats_arg $ stable_arg $ json_arg)

(* --- sweep command ------------------------------------------------------ *)

let sweep_cmd =
  let layers_list_arg =
    Arg.(
      value
      & opt (list int) [ 2; 4; 8 ]
      & info [ "l"; "layers" ] ~docv:"L1,L2,..."
          ~doc:"Comma-separated wiring-layer counts to sweep.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"Validate each layout under the strict grid model.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Issue the sweep's layout requests to a running $(b,mvl \
             serve) daemon at $(docv) (unix:PATH or HOST:PORT) instead \
             of building in-process.  Remote records are the daemon's \
             stable form (volatile fields stripped) and the sweep \
             document carries no local \"cache\" object.")
  in
  let run spec layer_list validate jobs connect json =
    let error_record layers msg =
      Mvl.Telemetry.Obj
        [
          ("schema", Mvl.Telemetry.String "mvl.pipeline.error/1");
          ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
          ("layers", Mvl.Telemetry.Int layers);
          ("error", Mvl.Telemetry.String msg);
        ]
    in
    let records, cache =
      match connect with
      | Some addr -> (
          match Mvl_serve.Client.connect addr with
          | Error msg ->
              Printf.eprintf "mvl: %s\n" msg;
              exit 2
          | Ok c ->
              let records =
                List.mapi
                  (fun i layers ->
                    let op =
                      Mvl_serve.Protocol.Layout
                        {
                          spec = Mvl.Registry.to_string spec;
                          layers;
                          validate;
                        }
                    in
                    match
                      Mvl_serve.Client.rpc c
                        { Mvl_serve.Protocol.id = i + 1; op }
                    with
                    | Ok payload -> payload
                    | Error msg -> error_record layers msg)
                  layer_list
              in
              Mvl_serve.Client.close c;
              (records, None))
      | None ->
          let f layers =
            match
              Mvl.Pipeline.run
                ?validate:(if validate then Some Mvl.Check.Strict else None)
                ~layers spec
            with
            | Ok r -> Mvl.Pipeline.to_json r
            | Error msg -> error_record layers msg
          in
          let records, cache = sweep_map ?jobs ~f layer_list in
          (records, Some cache)
    in
    die_on_record_errors records;
    if json then
      print_json
        (Mvl.Telemetry.Obj
           ([
              ("schema", Mvl.Telemetry.String "mvl.pipeline.sweep/1");
              ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
              ( "layer_sweep",
                Mvl.Telemetry.List
                  (List.map (fun l -> Mvl.Telemetry.Int l) layer_list) );
              ("runs", Mvl.Telemetry.List records);
            ]
           @ match cache with Some c -> [ ("cache", c) ] | None -> []))
    else begin
      (match records with
      | r :: _ ->
          Printf.printf "%s  N=%d\n"
            (Option.value ~default:"?" (jstring "family" r))
            (Option.value ~default:0 (jint "n_nodes" r))
      | [] -> ());
      List.iter
        (fun r ->
          let metric k =
            Option.value ~default:0
              (Option.bind (Mvl.Telemetry.member "metrics" r) (jint k))
          in
          let seconds =
            Option.value ~default:0.0
              (Option.bind (Mvl.Telemetry.member "seconds" r) (jfloat "total"))
          in
          Printf.printf
            "  L=%-3d area=%-10d volume=%-10d max_wire=%-8d %.4fs%s%s\n"
            (Option.value ~default:0 (jint "layers" r))
            (metric "area") (metric "volume") (metric "max_wire") seconds
            (if jbool "from_cache" r = Some true then " (cached)" else "")
            (match violation_count r with
            | None -> ""
            | Some 0 -> "  valid"
            | Some _ -> "  INVALID"))
        records
    end;
    if List.exists (fun r -> Option.value ~default:0 (violation_count r) > 0)
         records
    then exit 1
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Build one network across several layer counts")
    Term.(
      const run $ family_arg $ layers_list_arg $ validate_arg $ jobs_arg
      $ connect_arg $ json_arg)

(* --- validate command --------------------------------------------------- *)

let validate_cmd =
  let thompson_arg =
    Arg.(
      value & flag
      & info [ "thompson" ]
          ~doc:"Check under the Thompson model (interior point crossings \
                allowed) instead of the strict multilayer grid model.")
  in
  let max_violations_arg =
    Arg.(
      value & opt int 20
      & info [ "max-violations" ] ~docv:"N"
          ~doc:"Stop collecting after $(docv) violations (the result is \
                marked truncated).")
  in
  let specs_arg =
    Arg.(
      non_empty
      & pos_all family_conv []
      & info [] ~docv:"NETWORK" ~doc:family_doc)
  in
  let run specs layers thompson max_violations jobs json =
    let mode = if thompson then Mvl.Check.Thompson else Mvl.Check.Strict in
    match specs with
    | [ spec ] ->
        (* single spec: the original sequential path, byte-for-byte *)
        let r = pipeline_or_die ~layers spec in
        let res =
          Mvl.Check.run ~mode ~max_violations r.Mvl.Pipeline.layout
        in
        if json then
          print_json
            (Mvl.Telemetry.Obj
               [
                 ("schema", Mvl.Telemetry.String "mvl.validate/1");
                 ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
                 ("layers", Mvl.Telemetry.Int layers);
                 ("validation", Mvl.Telemetry.of_check res);
               ])
        else begin
          match res.Mvl.Check.violations with
          | [] ->
              Printf.printf "validation: ok (%s model)\n"
                (Mvl.Check.mode_name mode)
          | violations ->
              List.iter
                (fun v ->
                  Format.printf "VIOLATION %a@." Mvl.Check.pp_violation v)
                violations;
              if res.Mvl.Check.truncated then
                Printf.printf "... truncated at %d violations\n" max_violations
        end;
        if res.Mvl.Check.violations <> [] then exit 1
    | specs ->
        let f spec =
          match Mvl.Pipeline.run ~layers spec with
          | Error msg ->
              Mvl.Telemetry.Obj
                [
                  ("schema", Mvl.Telemetry.String "mvl.pipeline.error/1");
                  ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
                  ("layers", Mvl.Telemetry.Int layers);
                  ("error", Mvl.Telemetry.String msg);
                ]
          | Ok r ->
              let res =
                Mvl.Check.run ~mode ~max_violations r.Mvl.Pipeline.layout
              in
              Mvl.Telemetry.Obj
                [
                  ("schema", Mvl.Telemetry.String "mvl.validate/1");
                  ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
                  ("layers", Mvl.Telemetry.Int layers);
                  ("validation", Mvl.Telemetry.of_check res);
                ]
        in
        let records, cache = sweep_map ?jobs ~f specs in
        die_on_record_errors records;
        let count r =
          Option.value ~default:0
            (Option.bind (Mvl.Telemetry.member "validation" r) (jint "count"))
        in
        if json then
          print_json
            (Mvl.Telemetry.Obj
               [
                 ("schema", Mvl.Telemetry.String "mvl.validate.multi/1");
                 ("layers", Mvl.Telemetry.Int layers);
                 ("runs", Mvl.Telemetry.List records);
                 ("cache", cache);
               ])
        else
          List.iter
            (fun r ->
              let name = Option.value ~default:"?" (jstring "spec" r) in
              if count r = 0 then
                Printf.printf "%s: validation ok (%s model)\n" name
                  (Mvl.Check.mode_name mode)
              else begin
                let v = Mvl.Telemetry.member "validation" r in
                (match Option.bind v (Mvl.Telemetry.member "violations") with
                | Some (Mvl.Telemetry.List vs) ->
                    List.iter
                      (fun violation ->
                        Printf.printf "%s: VIOLATION [%s] %s\n" name
                          (Option.value ~default:"?"
                             (jstring "rule" violation))
                          (Option.value ~default:""
                             (jstring "detail" violation)))
                      vs
                | _ -> ());
                if Option.bind v (jbool "truncated") = Some true then
                  Printf.printf "%s: ... truncated at %d violations\n" name
                    max_violations
              end)
            records;
        if List.exists (fun r -> count r > 0) records then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate one or more networks' layout geometry (several \
          networks fan out over --jobs workers)")
    Term.(
      const run $ specs_arg $ layers_arg $ thompson_arg $ max_violations_arg
      $ jobs_arg $ json_arg)

(* --- tracks command ------------------------------------------------------ *)

let tracks_cmd =
  let run spec =
    let fam =
      match Mvl.Registry.build spec with
      | Ok fam -> fam
      | Error msg ->
          Printf.eprintf "mvl: %s\n" msg;
          exit 2
    in
    let c = Mvl.Collinear.natural fam.Mvl.Families.graph in
    Printf.printf "%s: greedy collinear layout uses %d tracks (max span %d)\n"
      fam.Mvl.Families.name c.Mvl.Collinear.tracks (Mvl.Collinear.max_span c)
  in
  Cmd.v
    (Cmd.info "tracks"
       ~doc:"Collinear (single-row) track count for a network")
    Term.(const run $ family_arg)

(* --- figure command ------------------------------------------------------ *)

let figure_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("2", `F2); ("3", `F3); ("4", `F4) ])) None
      & info [] ~docv:"N" ~doc:"Figure number: 2, 3 or 4.")
  in
  let run which =
    let c =
      match which with
      | `F2 -> Mvl.Collinear_kary.create ~k:3 ~n:2 ()
      | `F3 -> Mvl.Collinear_complete.create 9
      | `F4 -> Mvl.Collinear_hypercube.create 4
    in
    print_string (Mvl.Render.collinear_ascii c);
    Printf.printf "tracks: %d\n" c.Mvl.Collinear.tracks
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"ASCII rendering of the paper's figures 2-4")
    Term.(const run $ which)

(* --- sim command ------------------------------------------------------------ *)

let sim_cmd =
  let load_arg =
    Arg.(
      value & opt float 0.1
      & info [ "load" ] ~docv:"P"
          ~doc:"Offered load: injection probability per node per cycle.")
  in
  let pattern_conv =
    Arg.conv
      ( (fun s ->
          match Mvl.Traffic.of_string s with
          | Ok p -> Ok p
          | Error msg -> Error (`Msg msg)),
        fun ppf p -> Format.fprintf ppf "%s" (Mvl.Traffic.to_string p) )
  in
  let pattern_arg =
    Arg.(
      value & opt pattern_conv Mvl.Traffic.Uniform
      & info [ "pattern" ] ~docv:"PATTERN"
          ~doc:
            "Traffic pattern: uniform, transpose, bit-reversal, \
             bit-complement, tornado, hotspot:N (N hot destinations), or \
             bursty:PATTERN:BURST:DUTY (on/off bursts of mean length \
             BURST at DUTY percent duty cycle over any non-bursty inner \
             pattern, e.g. bursty:uniform:16:25).")
  in
  let sim_jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard the simulated routers over $(docv) domains advancing \
             in barrier-phased lockstep.  Statistics are byte-identical \
             for every $(docv) (absent or 1, one shard runs in the \
             calling domain and no domain is spawned).")
  in
  let stable_arg =
    Arg.(
      value & flag
      & info [ "stable" ]
          ~doc:
            "Strip volatile fields (timings, cache state) from the JSON \
             so runs can be compared byte for byte; implies nothing \
             without $(b,--json).")
  in
  let run spec layers load pattern jobs stable json =
    let r = pipeline_or_die ~layers spec in
    let fam = r.Mvl.Pipeline.family in
    let layout = r.Mvl.Pipeline.layout in
    let link =
      Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:32 layout
    in
    let cfg =
      { Mvl.Network_sim.default_config with
        Mvl.Network_sim.traffic = pattern; offered_load = load }
    in
    let res =
      Mvl.Network_sim.run ~config:cfg ~link_latency:link ?jobs
        fam.Mvl.Families.graph
    in
    let zll =
      Mvl.Network_sim.zero_load_latency ~link_latency:link
        fam.Mvl.Families.graph
    in
    if json then begin
      let doc =
        Mvl.Telemetry.Obj
          [
            ("schema", Mvl.Telemetry.String "mvl.sim.run/1");
            ("spec", Mvl.Telemetry.String (Mvl.Registry.to_string spec));
            ("family", Mvl.Telemetry.String fam.Mvl.Families.name);
            ("layers", Mvl.Telemetry.Int layers);
            ( "pattern",
              Mvl.Telemetry.String
                (Format.asprintf "%a" Mvl.Traffic.pp pattern) );
            ("offered_load", Mvl.Telemetry.Float load);
            ("seed", Mvl.Telemetry.Int cfg.Mvl.Network_sim.seed);
            ("zero_load_latency", Mvl.Telemetry.Float zll);
            ("sim", Mvl.Telemetry.of_sim res);
          ]
      in
      print_json (if stable then Mvl.Telemetry.strip_volatile doc else doc)
    end
    else begin
      Printf.printf "%s  L=%d  load=%.3f  pattern=%s\n" fam.Mvl.Families.name
        layers load
        (Format.asprintf "%a" Mvl.Traffic.pp pattern);
      Format.printf "  zero-load latency: %.1f cycles@." zll;
      Format.printf "  %a@." Mvl.Network_sim.pp_result res
    end
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Simulate traffic over a network with layout-derived link \
          latencies")
    Term.(
      const run $ family_arg $ layers_arg $ load_arg $ pattern_arg
      $ sim_jobs_arg $ stable_arg $ json_arg)

(* --- layout3d command -------------------------------------------------------- *)

let layout3d_cmd =
  let n_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Hypercube dimension.")
  in
  let active_arg =
    Arg.(
      value & opt int 4
      & info [ "active" ] ~docv:"LA"
          ~doc:"Active layers (power of two, slabs of the stack).")
  in
  let lps_arg =
    Arg.(
      value & opt int 4
      & info [ "layers-per-slab" ] ~docv:"LW"
          ~doc:"Wiring layers per slab (>= 2).")
  in
  let run n active lps =
    let t = Mvl.Multilayer3d.hypercube ~n ~active ~layers_per_slab:lps in
    let m = Mvl.Layout.metrics t.Mvl.Multilayer3d.layout in
    Printf.printf "hypercube(n=%d) on %d active layers, %d wiring/slab\n" n
      active lps;
    Format.printf "  %a@." Mvl.Layout.pp_metrics m;
    (match
       Mvl.Check.validate ~mode:Mvl.Check.Strict t.Mvl.Multilayer3d.layout
     with
    | [] -> print_endline "  validation: ok (strict 3-D grid model)"
    | violations ->
        List.iter
          (fun v -> Format.printf "  VIOLATION %a@." Mvl.Check.pp_violation v)
          violations;
        exit 1);
    let flat = Mvl.Families.hypercube n in
    let m2 =
      Mvl.Layout.metrics (flat.Mvl.Families.layout ~layers:(active * lps))
    in
    Printf.printf "  flat 2-D at the same %d layers: area=%d volume=%d\n"
      (active * lps) m2.Mvl.Layout.area m2.Mvl.Layout.volume
  in
  Cmd.v
    (Cmd.info "layout3d"
       ~doc:"Stacked-slab 3-D grid model layout of a hypercube")
    Term.(const run $ n_arg $ active_arg $ lps_arg)

(* --- wormhole command -------------------------------------------------------- *)

let wormhole_cmd =
  let fabric_conv =
    Arg.conv
      ( (fun s ->
          match String.split_on_char ':' s with
          | [ "hypercube"; n ] ->
              Ok (Mvl.Wormhole.Hypercube (int_of_string n))
          | [ "torus"; k; n ] ->
              Ok
                (Mvl.Wormhole.Torus
                   { k = int_of_string k; n = int_of_string n })
          | _ -> Error (`Msg "expected hypercube:N or torus:K:N")),
        fun ppf f ->
          match f with
          | Mvl.Wormhole.Hypercube n -> Format.fprintf ppf "hypercube:%d" n
          | Mvl.Wormhole.Torus { k; n } -> Format.fprintf ppf "torus:%d:%d" k n
      )
  in
  let fabric_arg =
    Arg.(
      required
      & pos 0 (some fabric_conv) None
      & info [] ~docv:"FABRIC" ~doc:"hypercube:N or torus:K:N.")
  in
  let load_arg =
    Arg.(
      value & opt float 0.02
      & info [ "load" ] ~docv:"P" ~doc:"Packet injection probability.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:"Duato minimal-adaptive routing instead of e-cube.")
  in
  let vcs_arg =
    Arg.(
      value & opt int 3
      & info [ "vcs" ] ~docv:"V" ~doc:"Virtual channels per link.")
  in
  let wh_jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard the routers over $(docv) domains in barrier-phased \
             lockstep; statistics are byte-identical for every \
             $(docv).")
  in
  let run fabric load adaptive vcs jobs =
    let cfg =
      { Mvl.Wormhole.default_config with
        Mvl.Wormhole.offered_load = load;
        routing =
          (if adaptive then Mvl.Wormhole.Adaptive
           else Mvl.Wormhole.Deterministic);
        vcs }
    in
    (* bad fabric parameters and configs surface from the run (which
       builds the fabric) as Invalid_argument: a usage error, like the
       other commands' constructor errors *)
    match Mvl.Wormhole.run ~config:cfg ?jobs fabric with
    | r -> Format.printf "%a@." Mvl.Wormhole.pp_result r
    | exception Invalid_argument msg ->
        Printf.eprintf "mvl: wormhole: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "wormhole"
       ~doc:"Flit-level wormhole simulation (VCs, credits, e-cube/adaptive)")
    Term.(
      const run $ fabric_arg $ load_arg $ adaptive_arg $ vcs_arg $ wh_jobs_arg)

(* --- verify command -------------------------------------------------------- *)

let verify_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A layout saved with 'layout --save'.")
  in
  let thompson_arg =
    Arg.(
      value & flag
      & info [ "thompson" ]
          ~doc:"Verify under the Thompson model (point crossings allowed) \
                instead of the strict multilayer grid model.")
  in
  let run file thompson =
    match Mvl.Serialize.read_file file with
    | Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 2
    | Ok layout -> (
        let mode = if thompson then Mvl.Check.Thompson else Mvl.Check.Strict in
        Format.printf "%a@." Mvl.Report.pp (Mvl.Report.analyze layout);
        match Mvl.Check.validate ~mode layout with
        | [] -> print_endline "verification: ok"
        | violations ->
            List.iter
              (fun v -> Format.printf "VIOLATION %a@." Mvl.Check.pp_violation v)
              violations;
            exit 1)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Re-verify a serialized layout file")
    Term.(const run $ file_arg $ thompson_arg)

(* --- list command --------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "families (spec, representative small instance, doc):";
    List.iter
      (fun e ->
        let fam = Mvl.Registry.build_exn (Mvl.Registry.small_spec e) in
        Printf.printf "  %-28s %-32s N=%-6d %s\n" (Mvl.Registry.signature e)
          fam.Mvl.Families.name fam.Mvl.Families.n_nodes e.Mvl.Registry.doc)
      (Mvl.Registry.all ())
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the supported network families")
    Term.(const run $ const ())

(* --- serve command --------------------------------------------------------- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt string "/tmp/mvl.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen on TCP at $(docv) instead of a Unix socket (PORT 0 \
             binds an ephemeral port, printed on startup).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Evaluation domains serving cache misses (>= 1).")
  in
  let cache_mb_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Reply-cache byte budget in MiB (GDSF admission/eviction).")
  in
  let cache_entries_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Reply-cache entry bound.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 300.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Disconnect clients idle for $(docv) seconds (<= 0 disables).")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Queued replies per client before a slow reader is \
             disconnected (backpressure bound).")
  in
  let log_arg =
    Arg.(
      value & flag
      & info [ "log" ] ~doc:"One stderr line per connection/request event.")
  in
  let run socket tcp workers cache_mb cache_entries idle_timeout max_pending
      log =
    let addr =
      match tcp with
      | None -> Mvl_serve.Server.Unix_sock socket
      | Some hp -> (
          match String.rindex_opt hp ':' with
          | None ->
              Printf.eprintf "mvl serve: --tcp expects HOST:PORT\n";
              exit 2
          | Some i -> (
              let host = String.sub hp 0 i in
              let host = if host = "" then "127.0.0.1" else host in
              let port = String.sub hp (i + 1) (String.length hp - i - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p < 65536 -> Mvl_serve.Server.Tcp (host, p)
              | _ ->
                  Printf.eprintf "mvl serve: bad port %S\n" port;
                  exit 2))
    in
    let config =
      {
        Mvl_serve.Server.addr;
        workers = max 1 workers;
        cache_entries;
        cache_bytes = cache_mb * 1024 * 1024;
        max_pending;
        idle_timeout;
        log;
      }
    in
    let t =
      try Mvl_serve.Server.create config
      with Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "mvl serve: bind %s: %s\n" arg (Unix.error_message e);
        exit 1
    in
    (match addr with
    | Mvl_serve.Server.Unix_sock path ->
        Printf.printf "mvl serve: listening on unix:%s\n%!" path
    | Mvl_serve.Server.Tcp (host, _) ->
        Printf.printf "mvl serve: listening on %s:%d\n%!" host
          (Mvl_serve.Server.port t));
    Mvl_serve.Server.serve t
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the layout service daemon (newline-delimited JSON over a \
          Unix or TCP socket)")
    Term.(
      const run $ socket_arg $ tcp_arg $ workers_arg $ cache_mb_arg
      $ cache_entries_arg $ idle_timeout_arg $ max_pending_arg $ log_arg)

(* --- request command -------------------------------------------------------- *)

let request_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("layout", `Layout);
                  ("validate", `Validate);
                  ("sim", `Sim);
                  ("metrics", `Metrics);
                  ("stats", `Stats);
                  ("shutdown", `Shutdown);
                ]))
          None
      & info [] ~docv:"OP"
          ~doc:
            "Request kind: layout, validate, sim, metrics, stats or \
             shutdown.")
  in
  let spec_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"NETWORK"
          ~doc:"Network spec (required for every op but stats/shutdown).")
  in
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Daemon address: unix:PATH (or any path) or HOST:PORT.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"For layout: also validate under the strict grid model.")
  in
  let load_arg =
    Arg.(
      value & opt float 0.1
      & info [ "load" ] ~docv:"P" ~doc:"For sim: offered load.")
  in
  let pattern_arg =
    Arg.(
      value & opt string "uniform"
      & info [ "pattern" ] ~docv:"PATTERN" ~doc:"For sim: traffic pattern.")
  in
  let run op spec connect layers validate load pattern =
    let need_spec op_name =
      match spec with
      | Some s -> s
      | None ->
          Printf.eprintf "mvl request: %s requires a NETWORK argument\n"
            op_name;
          exit 2
    in
    let op =
      match op with
      | `Layout ->
          Mvl_serve.Protocol.Layout
            { spec = need_spec "layout"; layers; validate }
      | `Validate ->
          Mvl_serve.Protocol.Validate { spec = need_spec "validate"; layers }
      | `Sim ->
          Mvl_serve.Protocol.Sim
            { spec = need_spec "sim"; layers; load; pattern }
      | `Metrics ->
          Mvl_serve.Protocol.Metrics { spec = need_spec "metrics"; layers }
      | `Stats -> Mvl_serve.Protocol.Stats
      | `Shutdown -> Mvl_serve.Protocol.Shutdown
    in
    match Mvl_serve.Client.connect connect with
    | Error msg ->
        Printf.eprintf "mvl request: %s\n" msg;
        exit 1
    | Ok c ->
        let outcome =
          Mvl_serve.Client.rpc_pretty c { Mvl_serve.Protocol.id = 1; op }
        in
        Mvl_serve.Client.close c;
        (match outcome with
        | Ok doc -> print_endline doc
        | Error msg ->
            Printf.eprintf "mvl request: %s\n" msg;
            exit 1)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running mvl serve daemon and print the \
          reply (byte-identical to the one-shot --json --stable output)")
    Term.(
      const run $ op_arg $ spec_arg $ connect_arg $ layers_arg $ validate_arg
      $ load_arg $ pattern_arg)

let () =
  let doc = "multilayer VLSI layouts for interconnection networks" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "mvl" ~doc)
          [ layout_cmd; sweep_cmd; validate_cmd; layout3d_cmd; tracks_cmd;
            figure_cmd; verify_cmd; sim_cmd; wormhole_cmd; serve_cmd;
            request_cmd; list_cmd ]))
