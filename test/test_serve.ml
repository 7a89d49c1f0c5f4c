(* Mvl_serve: wire-protocol round trips and an in-process daemon
   driven over a real Unix socket.

   The load-bearing case is byte identity: for every registry family's
   small instance, the pretty-printed daemon reply must equal the
   document the one-shot pipeline produces for [--json --stable] —
   under four concurrent clients, so the answer also survives cache
   admission.  The single-miss case pins the contract end to end: four
   clients racing on one cold key must cost exactly one pipeline
   build.  The daemon evaluates each miss in its event loop before it
   reads another request, so the rest hit the reply cache. *)

open Mvl_core
module P = Mvl_serve.Protocol
module S = Mvl_serve.Server
module C = Mvl_serve.Client

(* --- protocol round trips ---------------------------------------------- *)

let test_request_roundtrip () =
  List.iter
    (fun op ->
      let r = { P.id = 42; op } in
      let line = P.encode_request r in
      match P.parse_request line with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "round trip %s" (P.op_cost_hint op))
            true (r = r')
      | Error m -> Alcotest.fail m)
    [
      P.Layout { spec = "hypercube:6"; layers = 4; validate = true };
      P.Validate { spec = "kary:4:3"; layers = 2 };
      (* 0.25 is exact in binary, so the float survives re-encoding *)
      P.Sim { spec = "torus:4:4"; layers = 2; load = 0.25; pattern = "tornado" };
      P.Metrics { spec = "tree:4"; layers = 2 };
      P.Stats;
      P.Shutdown;
    ]

let test_request_defaults () =
  match P.parse_request "{\"op\":\"layout\",\"spec\":\"hypercube:5\"}" with
  | Ok { P.id; op = P.Layout { spec; layers; validate } } ->
      Alcotest.(check int) "id defaults to 0" 0 id;
      Alcotest.(check string) "spec" "hypercube:5" spec;
      Alcotest.(check int) "layers default" 2 layers;
      Alcotest.(check bool) "validate default" false validate
  | Ok _ -> Alcotest.fail "parsed to the wrong op"
  | Error m -> Alcotest.fail m

let test_request_rejects () =
  let bad l =
    match P.parse_request l with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "garbage" true (bad "not json");
  Alcotest.(check bool) "no op" true (bad "{\"id\":1}");
  Alcotest.(check bool) "unknown op" true (bad "{\"op\":\"frobnicate\"}")

let test_reply_roundtrip () =
  (match P.parse_reply (P.encode_reply_ok ~id:7 ~payload:"{\"a\":1}") with
  | Ok (7, Ok (Telemetry.Obj [ ("a", Telemetry.Int 1) ])) -> ()
  | Ok _ -> Alcotest.fail "ok reply parsed to the wrong shape"
  | Error m -> Alcotest.fail m);
  match P.parse_reply (P.encode_reply_error ~id:3 "boom") with
  | Ok (3, Error "boom") -> ()
  | Ok _ -> Alcotest.fail "error reply parsed to the wrong shape"
  | Error m -> Alcotest.fail m

let test_cache_keys () =
  let key op = Option.get (P.cache_key op) in
  Alcotest.(check bool)
    "validate flag separates keys" true
    (key (P.Layout { spec = "x"; layers = 2; validate = false })
    <> key (P.Layout { spec = "x"; layers = 2; validate = true }));
  Alcotest.(check bool)
    "layers separate keys" true
    (key (P.Layout { spec = "x"; layers = 2; validate = false })
    <> key (P.Layout { spec = "x"; layers = 4; validate = false }));
  Alcotest.(check (option string)) "stats is uncacheable" None
    (P.cache_key P.Stats);
  Alcotest.(check (option string)) "shutdown is uncacheable" None
    (P.cache_key P.Shutdown)

(* --- in-process daemon -------------------------------------------------- *)

let sock_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mvl-serve-test-%d.sock" (Unix.getpid ()))

let with_server ?(idle_timeout = S.default_config.idle_timeout) f =
  let path = sock_path () in
  let t =
    S.create { S.default_config with S.addr = S.Unix_sock path; idle_timeout }
  in
  let d = Domain.spawn (fun () -> S.serve t) in
  Fun.protect
    ~finally:(fun () ->
      (match C.connect path with
      | Ok c ->
          ignore (C.rpc c { P.id = 0; op = P.Shutdown });
          C.close c
      | Error _ -> ());
      Domain.join d)
    (fun () -> f path)

let connect_exn path =
  match C.connect path with
  | Ok c -> c
  | Error m -> Alcotest.fail m

(* a raw connection, for what [Client] never does: shut its write side,
   or wait for the daemon to close *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* every byte the daemon sends until it closes the connection *)
let read_to_eof ?(within = 10.0) fd =
  let deadline = Unix.gettimeofday () +. within in
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then
      Alcotest.failf "daemon kept the connection open for %.0f s" within;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ())
  in
  go ()

let stats_exn c =
  match C.rpc c { P.id = 99; op = P.Stats } with
  | Ok j -> j
  | Error m -> Alcotest.fail m

let stat_int path j =
  let rec go j = function
    | [] -> ( match j with Mvl.Telemetry.Int i -> i | _ -> -1)
    | k :: rest -> (
        match Mvl.Telemetry.member k j with Some j -> go j rest | None -> -1)
  in
  go j path

(* the document the one-shot CLI prints for --json --stable, computed
   through the same pipeline the CLI uses *)
let expected_layout spec_str layers =
  match Mvl.Pipeline.run_string ~layers spec_str with
  | Ok r ->
      Mvl.Telemetry.to_string ~pretty:true
        (Mvl.Telemetry.strip_volatile (Mvl.Pipeline.to_json r))
  | Error m -> Alcotest.fail m

let test_byte_identity_all_small () =
  with_server @@ fun path ->
  let specs =
    List.map
      (fun e -> Mvl.Registry.to_string (Mvl.Registry.small_spec e))
      (Mvl.Registry.all ())
  in
  let worker () =
    let c = connect_exn path in
    let out =
      List.map
        (fun s ->
          ( s,
            C.rpc_pretty c
              { P.id = 1; op = P.Layout { spec = s; layers = 2; validate = false } }
          ))
        specs
    in
    C.close c;
    out
  in
  let results =
    Array.init 4 (fun _ -> Domain.spawn worker) |> Array.map Domain.join
  in
  Array.iter
    (fun per_client ->
      List.iter
        (fun (s, r) ->
          match r with
          | Error m -> Alcotest.fail (s ^ ": " ^ m)
          | Ok pretty ->
              Alcotest.(check string)
                (s ^ " matches one-shot --json --stable")
                (expected_layout s 2) pretty)
        per_client)
    results

let test_coalesced_single_miss () =
  with_server @@ fun path ->
  Mvl.Pipeline.cache_reset ();
  let op = P.Layout { spec = "hypercube:8"; layers = 5; validate = false } in
  let worker () =
    let c = connect_exn path in
    let r = C.rpc_pretty c { P.id = 5; op } in
    C.close c;
    r
  in
  let results =
    Array.init 4 (fun _ -> Domain.spawn worker) |> Array.map Domain.join
  in
  let first =
    match results.(0) with Ok s -> s | Error m -> Alcotest.fail m
  in
  Array.iter
    (fun r ->
      match r with
      | Ok s -> Alcotest.(check string) "replies byte-identical" first s
      | Error m -> Alcotest.fail m)
    results;
  let stats = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "exactly one pipeline build" 1
    stats.Mvl.Pipeline.misses;
  Mvl.Pipeline.cache_reset ()

let test_stats_op () =
  with_server @@ fun path ->
  let c = connect_exn path in
  ignore
    (C.rpc c
       {
         P.id = 1;
         op = P.Layout { spec = "hypercube:5"; layers = 2; validate = false };
       });
  (match C.rpc c { P.id = 2; op = P.Stats } with
  | Error m -> Alcotest.fail m
  | Ok j ->
      let jstr k =
        match Mvl.Telemetry.member k j with
        | Some (Mvl.Telemetry.String s) -> Some s
        | _ -> None
      in
      Alcotest.(check (option string))
        "schema" (Some "mvl.serve.stats/1") (jstr "schema");
      Alcotest.(check bool)
        "counts the layout request" true
        (stat_int [ "requests" ] j >= 1);
      Alcotest.(check int) "one reply-cache admission" 1
        (stat_int [ "reply_cache"; "admissions" ] j);
      Alcotest.(check bool)
        "pipeline block present" true
        (Mvl.Telemetry.member "pipeline" j <> None));
  C.close c

let test_error_reply () =
  with_server @@ fun path ->
  let c = connect_exn path in
  (match
     C.rpc c
       {
         P.id = 9;
         op = P.Layout { spec = "nosuch:3"; layers = 2; validate = false };
       }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus spec must be refused");
  (* and the connection stays usable after an error reply *)
  (match
     C.rpc c
       {
         P.id = 10;
         op = P.Layout { spec = "hypercube:5"; layers = 2; validate = false };
       }
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  C.close c

(* two sims pipelined on one connection for a layout the pipeline
   cache already holds: both run on one shared [Layout.t], which used
   to memoize its wire view in a [Lazy.t] (two domains forcing it
   together got a [CamlinternalLazy.Undefined] error) *)
let test_concurrent_sims_on_cached_layout () =
  with_server @@ fun path ->
  let c = connect_exn path in
  let spec = "hypercube:9" and layers = 4 in
  (match
     C.rpc c { P.id = 1; op = P.Layout { spec; layers; validate = false } }
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let sim id load =
    P.encode_request
      { P.id; op = P.Sim { spec; layers; load; pattern = "uniform" } }
  in
  C.send_raw c (sim 2 0.01 ^ "\n" ^ sim 3 0.02 ^ "\n");
  for _ = 1 to 2 do
    match Result.bind (C.recv_line c) P.parse_reply with
    | Ok (_, Ok _) -> ()
    | Ok (id, Error m) -> Alcotest.failf "sim %d: %s" id m
    | Error m -> Alcotest.fail m
  done;
  C.close c

(* one connection, one write: miss A, hit A, miss B, a spec the
   registry refuses, hit B.  Every miss is answered before the next
   line is read, so the replies come back in request order with their
   ids. *)
let test_pipelined_in_order () =
  with_server @@ fun path ->
  let c = connect_exn path in
  let batch = [ "hypercube:4"; "hypercube:4"; "ccc:3"; "nosuch:3"; "ccc:3" ] in
  C.send_raw c
    (String.concat ""
       (List.mapi
          (fun i spec ->
            P.encode_request
              {
                P.id = i + 1;
                op = P.Layout { spec; layers = 2; validate = false };
              }
            ^ "\n")
          batch));
  List.iteri
    (fun i spec ->
      match Result.bind (C.recv_line c) P.parse_reply with
      | Error m -> Alcotest.fail m
      | Ok (id, outcome) -> (
          Alcotest.(check int) "replies in request order" (i + 1) id;
          match outcome with
          | Ok j when spec <> "nosuch:3" ->
              Alcotest.(check string)
                (spec ^ " matches one-shot --json --stable")
                (expected_layout spec 2)
                (Mvl.Telemetry.to_string ~pretty:true j)
          | Ok _ -> Alcotest.fail "bogus spec must be refused"
          | Error m ->
              if spec <> "nosuch:3" then Alcotest.failf "%s: %s" spec m))
    batch;
  let j = stats_exn c in
  Alcotest.(check (list int))
    "hits, misses" [ 2; 3 ]
    (List.map (fun k -> stat_int [ k ] j) [ "hits"; "misses" ]);
  C.close c

(* a client that sends its request and then shuts its write side (as
   [printf ... | nc -U] does) still gets the reply, for a miss and for
   a hit alike, and is closed once it has it *)
let test_half_close () =
  with_server @@ fun path ->
  let op = P.Layout { spec = "hypercube:5"; layers = 3; validate = false } in
  let request_then_shut id =
    let fd = raw_connect path in
    let line = P.encode_request { P.id; op } ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    let got = read_to_eof fd in
    Unix.close fd;
    match String.split_on_char '\n' got with
    | [ reply; "" ] -> (
        match P.parse_reply reply with
        | Ok (id', Ok j) ->
            Alcotest.(check int) "id echoed" id id';
            Alcotest.(check string)
              "matches one-shot --json --stable"
              (expected_layout "hypercube:5" 3)
              (Mvl.Telemetry.to_string ~pretty:true j)
        | Ok (_, Error m) | Error m -> Alcotest.fail m)
    | _ ->
        Alcotest.failf "expected one reply line, got %d bytes"
          (String.length got)
  in
  request_then_shut 1;
  request_then_shut 2;
  let c = connect_exn path in
  let j = stats_exn c in
  Alcotest.(check (list int))
    "one miss, then one hit" [ 1; 1 ]
    (List.map (fun k -> stat_int [ k ] j) [ "misses"; "hits" ]);
  C.close c

(* a request whose newline never comes is still answered once the
   client shuts its write side *)
let test_unterminated_last_line () =
  with_server @@ fun path ->
  let fd = raw_connect path in
  let line = P.encode_request { P.id = 7; op = P.Stats } in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let got = read_to_eof fd in
  Unix.close fd;
  match P.parse_reply (String.trim got) with
  | Ok (id, Ok _) -> Alcotest.(check int) "id echoed" 7 id
  | Ok (_, Error m) | Error m -> Alcotest.failf "%s (got %S)" m got

(* a connection that never sends a byte is closed by the idle scan once
   [idle_timeout] has passed, not before, and not a whole select
   timeout late either *)
let test_idle_timeout () =
  with_server ~idle_timeout:0.2 @@ fun path ->
  let t0 = Unix.gettimeofday () in
  let fd = raw_connect path in
  let got = read_to_eof fd in
  let waited = Unix.gettimeofday () -. t0 in
  Unix.close fd;
  Alcotest.(check string) "no reply to no request" "" got;
  Alcotest.(check bool)
    (Printf.sprintf "closed 0.2-0.9 s after connecting (%.2f s)" waited)
    true
    (waited >= 0.2 && waited < 0.9)

(* the loop evaluates a miss before it reads anything else, so a build
   can block it for longer than [idle_timeout].  A client that sends
   its request meanwhile is not idle: its request is answered, not
   dropped by an idle scan run after the build.  Nor is the client
   that waited for the build: it gets its reply and can go on asking.
   The sim takes about a second, four times the timeout. *)
let test_request_during_build () =
  with_server ~idle_timeout:0.25 @@ fun path ->
  let waiting = connect_exn path in
  let building = connect_exn path in
  let sim =
    P.Sim { spec = "hypercube:11"; layers = 2; load = 0.4; pattern = "uniform" }
  in
  C.send_raw building (P.encode_request { P.id = 1; op = sim } ^ "
");
  Unix.sleepf 0.05;
  (match
     C.rpc waiting
       {
         P.id = 2;
         op = P.Layout { spec = "hypercube:4"; layers = 2; validate = false };
       }
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "request sent during the build: %s" m);
  (match Result.bind (C.recv_line building) P.parse_reply with
  | Ok (1, Ok _) -> ()
  | Ok (id, Ok _) -> Alcotest.failf "sim reply has id %d" id
  | Ok (_, Error m) | Error m -> Alcotest.failf "sim: %s" m);
  (match C.rpc building { P.id = 3; op = P.Stats } with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "request after the build: %s" m);
  C.close waiting;
  C.close building

let suite =
  [
    Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
    Alcotest.test_case "request field defaults" `Quick test_request_defaults;
    Alcotest.test_case "malformed requests refused" `Quick
      test_request_rejects;
    Alcotest.test_case "reply round trip" `Quick test_reply_roundtrip;
    Alcotest.test_case "cache keys" `Quick test_cache_keys;
    Alcotest.test_case "byte identity: all small specs, 4 clients" `Quick
      test_byte_identity_all_small;
    Alcotest.test_case "4 racing clients, one build" `Quick
      test_coalesced_single_miss;
    Alcotest.test_case "stats op" `Quick test_stats_op;
    Alcotest.test_case "error reply keeps the connection" `Quick
      test_error_reply;
    Alcotest.test_case "two sims on one cached layout" `Quick
      test_concurrent_sims_on_cached_layout;
    Alcotest.test_case "pipelined batch in order" `Quick
      test_pipelined_in_order;
    Alcotest.test_case "half-closed client gets its replies" `Quick
      test_half_close;
    Alcotest.test_case "unterminated last line answered" `Quick
      test_unterminated_last_line;
    Alcotest.test_case "silent client closed after idle timeout" `Quick
      test_idle_timeout;
    Alcotest.test_case "request during another client's build answered"
      `Quick test_request_during_build;
  ]
