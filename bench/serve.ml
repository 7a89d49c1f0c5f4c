(* `bench serve`: the serving-daemon perf trajectory.

   Boots an in-process Mvl_serve.Server on an ephemeral loopback TCP
   port (own domain), drives it through the real client, and writes
   BENCH_serve.json:

     - warm:       one miss per catalog entry; measures each spec's
                   evaluation cost (wall seconds for the miss RPC) and
                   compact payload bytes — the cost/size inputs GDSF
                   ranks by, reused below.
     - throughput: pipelined (depth [pipeline_depth]) requests for one
                   hot cached spec; every reply must be byte-identical
                   to the first (same id on purpose), so the req/s
                   number is self-validating.
     - latency:    strictly serial request/reply RPCs on the same hot
                   spec; p50/p99 in microseconds.
     - policy:     offline replay of a Zipf-skewed access trace over
                   the measured catalog against GDSF (Mvl.Cache) and
                   plain FIFO at the SAME byte budget — the hit-rate
                   gap is the reason the daemon carries GDSF at all.

   Full mode enforces the trajectory's gates: >= [min_req_per_sec]
   req/s on the cached hot spec, and GDSF strictly beating FIFO on the
   trace.  --quick shrinks the counts and skips both gates (CI smoke).

   Same output discipline as the other bench writers: atomic
   same-directory tmp+rename, then a read-back parse so invalid JSON
   is a hard failure. *)
open Mvl_core

let default_path = "BENCH_serve.json"

type profile = {
  throughput_reqs : int;
  pipeline_depth : int;
  latency_reqs : int;
  zipf_accesses : int;
  gates : bool;
}

let full_profile =
  {
    throughput_reqs = 20_000;
    pipeline_depth = 64;
    latency_reqs = 1_000;
    zipf_accesses = 20_000;
    gates = true;
  }

let quick_profile =
  {
    throughput_reqs = 2_000;
    pipeline_depth = 64;
    latency_reqs = 200;
    zipf_accesses = 2_000;
    gates = false;
  }

let min_req_per_sec = 20_000.0

(* catalog, most-popular first: Zipf rank below follows this order.
   The hot spec heads the list and is also the throughput target. *)
let hot_spec = ("hypercube:10", 2)

let catalog =
  [
    hot_spec;
    ("hypercube:8", 2);
    ("hypercube:8", 4);
    ("kary:4:3", 2);
    ("torus:8:8", 2);
    ("hypercube:6", 2);
    ("hypercube:6", 4);
    ("ccc:4", 2);
    ("butterfly:3:2", 2);
    ("tree:6", 2);
    ("mesh:16:16", 2);
    ("debruijn:6", 2);
  ]

let zipf_s = 1.0
let zipf_seed = 42

(* byte budget for the policy replay: a quarter of the catalog's total
   payload bytes, so neither policy can hold the working set *)
let budget_frac = 0.25

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let seconds_since t0 =
  let ns = Int64.sub (Monotonic_clock.now ()) t0 in
  (if Int64.compare ns 1L < 0 then 1.0 else Int64.to_float ns) *. 1e-9

(* --- phases ------------------------------------------------------------- *)

type warm_entry = {
  w_spec : string;
  w_layers : int;
  w_cost : float; (* miss-RPC wall seconds *)
  w_bytes : int;  (* compact payload bytes *)
}

let warm client =
  List.mapi
    (fun i (spec, layers) ->
      let op = Mvl_serve.Protocol.Layout { spec; layers; validate = false } in
      let t0 = Monotonic_clock.now () in
      match Mvl_serve.Client.rpc client { Mvl_serve.Protocol.id = i + 1; op } with
      | Error msg -> die "bench serve: warm %s@%d: %s" spec layers msg
      | Ok payload ->
          let w_cost = seconds_since t0 in
          let w_bytes = String.length (Mvl.Telemetry.to_string payload) in
          { w_spec = spec; w_layers = layers; w_cost; w_bytes })
    catalog

(* pipelined closed loop at fixed depth over the raw line interface;
   all requests share one id, so every reply line must equal the first
   byte for byte — a divergence is a hard failure, not a slow result *)
let throughput p client =
  let spec, layers = hot_spec in
  let op = Mvl_serve.Protocol.Layout { spec; layers; validate = false } in
  let line = Mvl_serve.Protocol.encode_request { Mvl_serve.Protocol.id = 0; op } in
  let total = p.throughput_reqs in
  let depth = min p.pipeline_depth total in
  let golden = ref "" in
  let recv () =
    match Mvl_serve.Client.recv_line client with
    | Error msg -> die "bench serve: throughput recv: %s" msg
    | Ok reply ->
        if !golden = "" then golden := reply
        else if reply <> !golden then
          die
            "bench serve: throughput reply diverged from the first on the \
             same cached request — cache byte-identity violated"
  in
  (* keep between [depth - batch] and [depth] requests in flight,
     sending each refill as one write so syscalls amortize over the
     batch on both sides of the socket *)
  let batch = max 1 (depth / 4) in
  let msg = line ^ "\n" in
  let batch_msg = String.concat "" (List.init batch (fun _ -> msg)) in
  let t0 = Monotonic_clock.now () in
  let sent = ref 0 and received = ref 0 in
  let send_n n =
    if n = batch then Mvl_serve.Client.send_raw client batch_msg
    else for _ = 1 to n do Mvl_serve.Client.send_raw client msg done;
    sent := !sent + n
  in
  send_n (min depth total);
  while !received < total do
    recv ();
    incr received;
    if !sent < total && !sent - !received <= depth - batch then
      send_n (min batch (total - !sent))
  done;
  let wall = seconds_since t0 in
  (wall, float_of_int total /. wall)

let latency p client =
  let spec, layers = hot_spec in
  let op = Mvl_serve.Protocol.Layout { spec; layers; validate = false } in
  let req = { Mvl_serve.Protocol.id = 7; op } in
  let samples =
    Array.init p.latency_reqs (fun _ ->
        let t0 = Monotonic_clock.now () in
        match Mvl_serve.Client.rpc client req with
        | Error msg -> die "bench serve: latency rpc: %s" msg
        | Ok _ -> seconds_since t0 *. 1e6)
  in
  Array.sort compare samples;
  let pct q =
    let n = Array.length samples in
    samples.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  (pct 0.50, pct 0.99)

(* offline policy replay: one Zipf-skewed trace, two caches, equal
   byte budget.  FIFO is the policy the pipeline used before GDSF:
   evict in insertion order, blind to cost, size and frequency. *)
type policy_run = { p_hits : int; p_misses : int }

let hit_rate r = float_of_int r.p_hits /. float_of_int (r.p_hits + r.p_misses)

let zipf_trace p entries =
  let n = Array.length entries in
  let weights =
    Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let rng = Mvl.Rng.create ~seed:zipf_seed in
  Array.init p.zipf_accesses (fun _ ->
      let x = Mvl.Rng.float rng *. total in
      let rec pick i acc =
        if i >= n - 1 then i
        else
          let acc = acc +. weights.(i) in
          if x < acc then i else pick (i + 1) acc
      in
      pick 0 0.0)

let replay_gdsf trace entries budget =
  let cache = Mvl.Cache.create ~max_bytes:budget ~capacity:(Array.length entries) () in
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun i ->
      match Mvl.Cache.find_opt cache i with
      | Some () -> incr hits
      | None ->
          incr misses;
          let e = entries.(i) in
          ignore (Mvl.Cache.add cache i () ~cost:e.w_cost ~size:e.w_bytes))
    trace;
  { p_hits = !hits; p_misses = !misses }

let replay_fifo trace entries budget =
  let q = Queue.create () in
  let resident = Hashtbl.create 64 in
  let bytes = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun i ->
      if Hashtbl.mem resident i then incr hits
      else begin
        incr misses;
        let sz = entries.(i).w_bytes in
        if sz <= budget then begin
          Queue.push i q;
          Hashtbl.replace resident i ();
          bytes := !bytes + sz;
          while !bytes > budget do
            let victim = Queue.pop q in
            Hashtbl.remove resident victim;
            bytes := !bytes - entries.(victim).w_bytes
          done
        end
      end)
    trace;
  { p_hits = !hits; p_misses = !misses }

(* --- output ------------------------------------------------------------- *)

let doc_of ~quick warm_entries (tp_wall, req_per_sec) (p50, p99) budget gdsf
    fifo p =
  Mvl.Telemetry.Obj
    [
      ("schema", Mvl.Telemetry.String "mvl.bench.serve/1");
      ("quick", Mvl.Telemetry.Bool quick);
      ( "warm",
        Mvl.Telemetry.List
          (List.map
             (fun w ->
               Mvl.Telemetry.Obj
                 [
                   ("spec", Mvl.Telemetry.String w.w_spec);
                   ("layers", Mvl.Telemetry.Int w.w_layers);
                   ("cost_seconds", Mvl.Telemetry.Float w.w_cost);
                   ("payload_bytes", Mvl.Telemetry.Int w.w_bytes);
                 ])
             warm_entries) );
      ( "throughput",
        Mvl.Telemetry.Obj
          [
            ("spec", Mvl.Telemetry.String (fst hot_spec));
            ("layers", Mvl.Telemetry.Int (snd hot_spec));
            ("requests", Mvl.Telemetry.Int p.throughput_reqs);
            ("pipeline_depth", Mvl.Telemetry.Int p.pipeline_depth);
            ("seconds", Mvl.Telemetry.Float tp_wall);
            ("req_per_sec", Mvl.Telemetry.Float req_per_sec);
          ] );
      ( "latency",
        Mvl.Telemetry.Obj
          [
            ("requests", Mvl.Telemetry.Int p.latency_reqs);
            ("p50_us", Mvl.Telemetry.Float p50);
            ("p99_us", Mvl.Telemetry.Float p99);
          ] );
      ( "policy",
        Mvl.Telemetry.Obj
          [
            ("accesses", Mvl.Telemetry.Int p.zipf_accesses);
            ("zipf_s", Mvl.Telemetry.Float zipf_s);
            ("seed", Mvl.Telemetry.Int zipf_seed);
            ("byte_budget", Mvl.Telemetry.Int budget);
            ( "gdsf",
              Mvl.Telemetry.Obj
                [
                  ("hits", Mvl.Telemetry.Int gdsf.p_hits);
                  ("misses", Mvl.Telemetry.Int gdsf.p_misses);
                  ("hit_rate", Mvl.Telemetry.Float (hit_rate gdsf));
                ] );
            ( "fifo",
              Mvl.Telemetry.Obj
                [
                  ("hits", Mvl.Telemetry.Int fifo.p_hits);
                  ("misses", Mvl.Telemetry.Int fifo.p_misses);
                  ("hit_rate", Mvl.Telemetry.Float (hit_rate fifo));
                ] );
          ] );
    ]

let write path doc =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc (Mvl.Telemetry.to_string ~pretty:true doc);
      output_char oc '\n';
      close_out oc;
      Sys.rename tmp path);
  (* read-back: emitting invalid JSON is a hard failure *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Mvl.Telemetry.parse contents with
  | Error msg -> die "bench serve: %s re-reads as invalid JSON: %s" path msg
  | Ok doc -> (
      match Mvl.Telemetry.member "schema" doc with
      | Some (Mvl.Telemetry.String "mvl.bench.serve/1") -> ()
      | _ -> die "bench serve: %s lost its schema on the way to disk" path)

(* --- driver ------------------------------------------------------------- *)

let run ?(path = default_path) ?(quick = false) () =
  let p = if quick then quick_profile else full_profile in
  let server =
    Mvl_serve.Server.create
      {
        Mvl_serve.Server.default_config with
        Mvl_serve.Server.addr = Mvl_serve.Server.Tcp ("127.0.0.1", 0);
      }
  in
  let port = Mvl_serve.Server.port server in
  let server_domain = Domain.spawn (fun () -> Mvl_serve.Server.serve server) in
  let client =
    match Mvl_serve.Client.connect (Printf.sprintf "127.0.0.1:%d" port) with
    | Ok c -> c
    | Error msg -> die "bench serve: %s" msg
  in
  let warm_entries = warm client in
  let tp = throughput p client in
  let req_per_sec = snd tp in
  let lat = latency p client in
  let entries = Array.of_list warm_entries in
  let total_bytes = Array.fold_left (fun a e -> a + e.w_bytes) 0 entries in
  let budget =
    max 1 (int_of_float (budget_frac *. float_of_int total_bytes))
  in
  let trace = zipf_trace p entries in
  let gdsf = replay_gdsf trace entries budget in
  let fifo = replay_fifo trace entries budget in
  (* orderly shutdown before judging the gates, so a gate failure does
     not leave a daemon domain running *)
  (match
     Mvl_serve.Client.rpc client
       { Mvl_serve.Protocol.id = 99; op = Mvl_serve.Protocol.Shutdown }
   with
  | Ok _ -> ()
  | Error msg -> die "bench serve: shutdown: %s" msg);
  Mvl_serve.Client.close client;
  Domain.join server_domain;
  let doc = doc_of ~quick warm_entries tp lat budget gdsf fifo p in
  write path doc;
  let p50, p99 = lat in
  Printf.printf "wrote %s\n" path;
  Printf.printf
    "  throughput: %.0f req/s on cached %s (depth %d, %d requests)\n"
    req_per_sec (fst hot_spec) p.pipeline_depth p.throughput_reqs;
  Printf.printf "  latency: p50=%.0fus p99=%.0fus (%d serial requests)\n" p50
    p99 p.latency_reqs;
  Printf.printf
    "  policy @ %d bytes: GDSF %.1f%% vs FIFO %.1f%% hit rate (%d accesses)\n"
    budget
    (100.0 *. hit_rate gdsf)
    (100.0 *. hit_rate fifo)
    p.zipf_accesses;
  if p.gates then begin
    if req_per_sec < min_req_per_sec then
      die
        "bench serve: GATE FAILED: %.0f req/s on the cached hot spec is \
         below the %.0f floor"
        req_per_sec min_req_per_sec;
    if hit_rate gdsf <= hit_rate fifo then
      die
        "bench serve: GATE FAILED: GDSF hit rate %.4f does not beat FIFO \
         %.4f at a %d-byte budget"
        (hit_rate gdsf) (hit_rate fifo) budget
  end

let run_cli args =
  let usage () =
    prerr_endline "usage: bench serve [--quick] [-o FILE]";
    exit 2
  in
  let rec go path quick = function
    | [] -> run ~path ~quick ()
    | "--quick" :: rest -> go path true rest
    | ("-o" | "--out") :: p :: rest -> go p quick rest
    | _ -> usage ()
  in
  go default_path false args
