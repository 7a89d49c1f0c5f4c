open Mvl_core

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* --- spec round-trips --------------------------------------------------- *)

let test_roundtrip_small_specs () =
  (* every registered family's printed spec string re-parses to the same
     spec — with and without its optional flags *)
  List.iter
    (fun e ->
      let base = Mvl.Registry.small_spec e in
      let with_flags =
        { base with Mvl.Registry.set_flags = List.map fst e.Mvl.Registry.flags }
      in
      List.iter
        (fun spec ->
          let s = Mvl.Registry.to_string spec in
          match Mvl.Registry.parse s with
          | Ok spec' ->
              Alcotest.(check string) (s ^ " round-trips")
                (Mvl.Registry.to_string spec')
                s
          | Error msg -> Alcotest.fail (s ^ ": " ^ msg))
        [ base; with_flags ])
    (Mvl.Registry.all ())

let test_every_listed_name_parses () =
  (* every name shown by `mvl list` is accepted by the parser *)
  List.iter
    (fun name ->
      match Mvl.Registry.find name with
      | None -> Alcotest.fail ("listed name not found: " ^ name)
      | Some e -> (
          let s = Mvl.Registry.to_string (Mvl.Registry.small_spec e) in
          match Mvl.Registry.parse s with
          | Ok spec ->
              Alcotest.(check string) (name ^ " family") name
                spec.Mvl.Registry.family
          | Error msg -> Alcotest.fail (s ^ ": " ^ msg)))
    (Mvl.Registry.names ())

let test_small_specs_build () =
  let fams = Mvl.Registry.all_small () in
  Alcotest.(check int) "one small instance per entry"
    (List.length (Mvl.Registry.all ()))
    (List.length fams)

(* --- malformed specs: Error with a usage message, never an exception ---- *)

let check_error name input fragments =
  match Mvl.Registry.parse input with
  | Ok spec ->
      Alcotest.fail
        (Printf.sprintf "%s: %S unexpectedly parsed as %s" name input
           (Mvl.Registry.to_string spec))
  | Error msg ->
      List.iter
        (fun frag ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: error mentions %S (got %S)" name frag msg)
            true (contains msg frag))
        fragments

let test_malformed_int () =
  (* the CLI's famous `hypercube:abc` must name the expected signature *)
  check_error "non-int" "hypercube:abc" [ "hypercube"; "abc"; "hypercube:N" ]

let test_wrong_arity () =
  check_error "too few" "kary:3" [ "kary"; "kary:K:N" ];
  check_error "too many" "hypercube:3:4" [ "hypercube:N" ];
  check_error "variadic too few" "torus" [ "torus" ]

let test_unknown_family () =
  check_error "unknown" "hypertorus:3" [ "hypertorus"; "known" ]

let test_flag_handling () =
  (match Mvl.Registry.parse "hypercube:5:fold" with
  | Ok spec ->
      Alcotest.(check (list string)) "fold flag" [ "fold" ]
        spec.Mvl.Registry.set_flags
  | Error msg -> Alcotest.fail msg);
  (* a flag a family does not declare is not silently accepted *)
  check_error "undeclared flag" "ccc:4:opt" [ "ccc" ]

let test_build_error_is_usage () =
  (* arity-correct but out-of-range parameters surface the constructor's
     message plus the usage line, as an Error (no exception) *)
  match Mvl.Registry.parse "kary:2:3" with
  | Error msg -> Alcotest.fail ("parse should accept kary:2:3: " ^ msg)
  | Ok spec -> (
      match Mvl.Registry.build spec with
      | Ok _ -> Alcotest.fail "kary k=2 should be rejected by the constructor"
      | Error msg ->
          Alcotest.(check bool) "mentions usage" true
            (contains msg "usage: kary:K:N"))

(* --- pipeline cache ------------------------------------------------------ *)

let test_cache_two_runs_one_construction () =
  Mvl.Pipeline.cache_reset ();
  let r1 = Mvl.Pipeline.run_exn ~layers:2 "hypercube:4" in
  let r2 = Mvl.Pipeline.run_exn ~layers:2 "hypercube:4" in
  let s = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "one construction" 1 s.Mvl.Pipeline.misses;
  Alcotest.(check int) "one hit" 1 s.Mvl.Pipeline.hits;
  Alcotest.(check bool) "first run is fresh" false r1.Mvl.Pipeline.from_cache;
  Alcotest.(check bool) "second run is cached" true r2.Mvl.Pipeline.from_cache;
  Alcotest.(check int) "same area"
    r1.Mvl.Pipeline.metrics.Mvl.Layout.area
    r2.Mvl.Pipeline.metrics.Mvl.Layout.area

let test_cache_layer_sweep_constructs_each_once () =
  (* acceptance: a timing-style sweep over L plus a metrics+sim-style
     second pass constructs each distinct layout exactly once *)
  Mvl.Pipeline.cache_reset ();
  let sweep = [ 2; 4; 8 ] in
  List.iter
    (fun layers -> ignore (Mvl.Pipeline.run_exn ~layers "kary:3:3"))
    sweep;
  (* second pass over the same spec (metrics, then a sim-style reuse) *)
  List.iter
    (fun layers ->
      let r = Mvl.Pipeline.run_exn ~layers "kary:3:3" in
      let link =
        Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:32
          r.Mvl.Pipeline.layout
      in
      ignore (link 0 1))
    sweep;
  let s = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "three constructions" (List.length sweep)
    s.Mvl.Pipeline.misses;
  Alcotest.(check int) "three hits" (List.length sweep) s.Mvl.Pipeline.hits

let test_cache_bypass () =
  Mvl.Pipeline.cache_reset ();
  ignore (Mvl.Pipeline.run_exn ~cache:false ~layers:2 "tree:4");
  ignore (Mvl.Pipeline.run_exn ~cache:false ~layers:2 "tree:4");
  let s = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "bypass leaves counters untouched" 0
    (s.Mvl.Pipeline.misses + s.Mvl.Pipeline.hits)

let test_pipeline_stages () =
  Mvl.Pipeline.cache_reset ();
  let r =
    Mvl.Pipeline.run_exn ~validate:Mvl.Check.Strict ~report:true ~layers:3
      "complete:9"
  in
  Alcotest.(check bool) "valid" true (Mvl.Pipeline.is_valid r);
  (match r.Mvl.Pipeline.report with
  | Some rep ->
      Alcotest.(check int) "report wire count"
        (Array.length (Mvl.Layout.wires r.Mvl.Pipeline.layout))
        rep.Mvl.Report.wire_count
  | None -> Alcotest.fail "report requested but absent");
  Alcotest.(check int) "five stage timings" 5
    (List.length r.Mvl.Pipeline.timings);
  Alcotest.(check bool) "total time is finite and non-negative" true
    (Mvl.Pipeline.total_seconds r >= 0.0)

let test_pipeline_error_paths () =
  (match Mvl.Pipeline.run_string ~layers:2 "hypercube:abc" with
  | Ok _ -> Alcotest.fail "hypercube:abc must not run"
  | Error _ -> ());
  match Mvl.Pipeline.run_string ~layers:2 "torus:2:2" with
  | Ok _ -> Alcotest.fail "torus side 2 must not run"
  | Error msg ->
      Alcotest.(check bool) "names the family" true
        (String.length msg > 5 && String.sub msg 0 5 = "torus")

let suite =
  [
    Alcotest.test_case "small specs round-trip" `Quick
      test_roundtrip_small_specs;
    Alcotest.test_case "every listed name parses" `Quick
      test_every_listed_name_parses;
    Alcotest.test_case "small specs build" `Slow test_small_specs_build;
    Alcotest.test_case "malformed int parameter" `Quick test_malformed_int;
    Alcotest.test_case "wrong arity" `Quick test_wrong_arity;
    Alcotest.test_case "unknown family" `Quick test_unknown_family;
    Alcotest.test_case "flag handling" `Quick test_flag_handling;
    Alcotest.test_case "constructor errors carry usage" `Quick
      test_build_error_is_usage;
    Alcotest.test_case "cache: two runs, one construction" `Quick
      test_cache_two_runs_one_construction;
    Alcotest.test_case "cache: layer sweep builds each L once" `Quick
      test_cache_layer_sweep_constructs_each_once;
    Alcotest.test_case "cache: bypass mode" `Quick test_cache_bypass;
    Alcotest.test_case "pipeline stages and timings" `Quick
      test_pipeline_stages;
    Alcotest.test_case "pipeline error paths" `Quick test_pipeline_error_paths;
  ]
