(* The domain pool behind every sweep: its output must be
   byte-identical to the sequential path at any worker count (modulo
   the volatile timing/cache fields), merged in input order, with the
   shared cache's counters holding the sweep's totals, exceptions
   surfacing with sequential semantics, and work actually stolen under
   a skewed load. *)
open Mvl_core

let stable json = Mvl.Telemetry.to_string (Mvl.Telemetry.strip_volatile json)

let sweep_points =
  [
    ("tree:4", 2);
    ("complete:6", 2);
    ("hypercube:3", 2);
    ("kary:3:2", 2);
    ("mesh:3:3", 2);
    ("tree:4", 4);
    ("hypercube:3", 4);
    ("ccc:3", 4);
  ]

let record (spec, layers) =
  match Mvl.Pipeline.run_string ~validate:Mvl.Check.Strict ~layers spec with
  | Ok r -> Mvl.Pipeline.to_json r
  | Error msg -> Mvl.Telemetry.Obj [ ("error", Mvl.Telemetry.String msg) ]

(* one sweep over [sweep_points] from a cold cache, as the CLI runs it *)
let sweep ~jobs =
  Mvl.Pipeline.cache_reset ();
  let rs, pool =
    Mvl.Domain_pool.map ~domains:jobs ~f:record (Array.of_list sweep_points)
  in
  (Array.to_list rs, pool)

let test_parallel_matches_sequential () =
  let seq = List.map stable (fst (sweep ~jobs:1)) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "stable records byte-identical at %d workers" jobs)
        seq
        (List.map stable (fst (sweep ~jobs))))
    [ 3; 4 ]

let test_merge_preserves_input_order () =
  let records, _ = sweep ~jobs:3 in
  List.iter2
    (fun (spec, layers) r ->
      (match Mvl.Telemetry.member "spec" r with
      | Some (Mvl.Telemetry.String s) ->
          Alcotest.(check string) "spec in input position" spec s
      | _ -> Alcotest.fail "record without spec");
      match Mvl.Telemetry.member "layers" r with
      | Some (Mvl.Telemetry.Int l) ->
          Alcotest.(check int) "layers in input position" layers l
      | _ -> Alcotest.fail "record without layers")
    sweep_points records

let test_worker_stats_aggregate () =
  (* every domain shares the one cache, so its counters after the map
     are the totals over all workers *)
  let _, pool = sweep ~jobs:4 in
  let stats = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "workers used" 4 pool.Mvl.Domain_pool.domains;
  Alcotest.(check int) "every distinct (spec, L) constructed once"
    (List.length sweep_points)
    stats.Mvl.Pipeline.misses;
  Alcotest.(check int) "no hits across distinct points" 0
    stats.Mvl.Pipeline.hits;
  let _, seq_pool = sweep ~jobs:1 in
  let seq_stats = Mvl.Pipeline.cache_stats () in
  Alcotest.(check int) "sequential path reports one worker" 1
    seq_pool.Mvl.Domain_pool.domains;
  Alcotest.(check int) "sequential misses agree"
    stats.Mvl.Pipeline.misses seq_stats.Mvl.Pipeline.misses

let test_exception_propagates () =
  Alcotest.check_raises "f's exception surfaces in the caller"
    (Failure "boom")
    (fun () ->
      ignore
        (Mvl.Domain_pool.map ~domains:2
           ~f:(fun _ -> failwith "boom")
           [| 1; 2; 3; 4 |]))

let test_exception_lowest_index () =
  (* several jobs fail; the one the sequential run would have hit
     first is the one that surfaces, regardless of scheduling *)
  Alcotest.check_raises "lowest failing index wins" (Failure "boom-2")
    (fun () ->
      ignore
        (Mvl.Domain_pool.map ~domains:3
           ~f:(fun i ->
             if i = 2 || i = 5 then failwith (Printf.sprintf "boom-%d" i)
             else i)
           (Array.init 8 Fun.id)))

let test_work_stealing () =
  (* two domains; the deques are dealt round-robin, so domain 0 owns
     0,2,4,6 and domain 1 owns 1,3,5,7.  The first item domain 1 can
     run (1) sleeps, so domain 0 drains its own deque in microseconds
     and must steal domain 1's remaining items from the back — a
     static partition would leave them waiting behind the sleep. *)
  let executed_by = Array.make 8 (-1) in
  let f i =
    if i = 1 then Unix.sleepf 0.25;
    executed_by.(i) <- (Domain.self () :> int);
    i * 10
  in
  let out, stats = Mvl.Domain_pool.map ~domains:2 ~f (Array.init 8 Fun.id) in
  Alcotest.(check (array int)) "results in input order"
    (Array.init 8 (fun i -> i * 10))
    out;
  Alcotest.(check int) "two domains ran" 2 stats.Mvl.Domain_pool.domains;
  Alcotest.(check bool) "work was stolen" true
    (stats.Mvl.Domain_pool.steals > 0);
  let d0 = executed_by.(0) in
  Alcotest.(check bool) "an item owned by the sleeping domain migrated" true
    (executed_by.(3) = d0 || executed_by.(5) = d0 || executed_by.(7) = d0)

let test_split_seed () =
  let a = Mvl.Domain_pool.split_seed ~seed:42 ~index:0 in
  let b = Mvl.Domain_pool.split_seed ~seed:42 ~index:1 in
  Alcotest.(check bool) "distinct per-task streams" true (a <> b);
  Alcotest.(check int) "deterministic" a
    (Mvl.Domain_pool.split_seed ~seed:42 ~index:0);
  Alcotest.(check bool) "non-negative" true (a >= 0 && b >= 0);
  Alcotest.(check bool) "seed-sensitive" true
    (a <> Mvl.Domain_pool.split_seed ~seed:43 ~index:0)

let test_small_inputs () =
  let f i = i * 10 in
  let empty, _ = Mvl.Domain_pool.map ~domains:4 ~f [||] in
  Alcotest.(check int) "empty input" 0 (Array.length empty);
  let one, stats = Mvl.Domain_pool.map ~domains:4 ~f [| 42 |] in
  Alcotest.(check (array int)) "singleton input" [| 420 |] one;
  Alcotest.(check int) "never more workers than jobs" 1
    stats.Mvl.Domain_pool.domains

let test_default_jobs_bounds () =
  (* what every --jobs flag defaults to: one worker per processor this
     process may run on (its affinity mask, so a pinned process gets
     1), never more workers than items *)
  let items = Array.init 8 Fun.id in
  let _, stats = Mvl.Domain_pool.map ~f:Fun.id items in
  Alcotest.(check int) "min items (recommended domain count)"
    (min (Array.length items) (Domain.recommended_domain_count ()))
    stats.Mvl.Domain_pool.domains

let test_barrier_basics () =
  Alcotest.check_raises "parties < 1 rejected"
    (Invalid_argument "Barrier.create: parties < 1") (fun () ->
      ignore (Mvl.Barrier.create ~parties:0));
  let solo = Mvl.Barrier.create ~parties:1 in
  Alcotest.(check int) "parties" 1 (Mvl.Barrier.parties solo);
  (* a single-party barrier never blocks, and stays cyclic *)
  for _ = 1 to 3 do Mvl.Barrier.wait solo done;
  Alcotest.(check bool) "not broken" false (Mvl.Barrier.is_broken solo);
  Mvl.Barrier.break solo;
  Mvl.Barrier.break solo;
  Alcotest.(check bool) "break is sticky" true (Mvl.Barrier.is_broken solo);
  Alcotest.check_raises "wait on broken barrier"
    Mvl.Barrier.Broken (fun () -> Mvl.Barrier.wait solo)

(* gang + barrier keep workers in lockstep: between the two rendezvous
   of a phase no worker can be behind (it arrived) or ahead (it has
   not passed the second wait), so the counter snapshot is exact —
   and race-free, because nobody writes between them *)
let test_gang_lockstep () =
  let workers = 4 and phases = 200 in
  let b = Mvl.Barrier.create ~parties:workers in
  let counts = Array.make workers 0 in
  Mvl.Domain_pool.gang ~workers (fun w ->
      for p = 1 to phases do
        counts.(w) <- counts.(w) + 1;
        Mvl.Barrier.wait b;
        Array.iteri
          (fun peer c ->
            if c <> p then
              Alcotest.failf "worker %d saw peer %d at phase %d, not %d" w
                peer c p)
          counts;
        Mvl.Barrier.wait b
      done);
  Array.iter (fun c -> Alcotest.(check int) "phases run" phases c) counts

(* one worker of a gang dies before its rendezvous: abort must break
   the barrier so the peers wake with Broken instead of deadlocking,
   and the original exception — not the Broken echoes — must be what
   the caller sees *)
let test_gang_failure_breaks_barrier () =
  let workers = 3 in
  let b = Mvl.Barrier.create ~parties:workers in
  let broken_seen = Atomic.make 0 in
  (try
     Mvl.Domain_pool.gang ~workers
       ~abort:(fun () -> Mvl.Barrier.break b)
       (fun w ->
         if w = 1 then failwith "worker 1 exploded"
         else
           try
             Mvl.Barrier.wait b;
             Alcotest.fail "rendezvous should have broken"
           with Mvl.Barrier.Broken as e ->
             Atomic.incr broken_seen;
             raise e);
     Alcotest.fail "gang swallowed the failure"
   with Failure m ->
     Alcotest.(check string) "original exception wins" "worker 1 exploded" m);
  Alcotest.(check int) "both peers woke with Broken" 2
    (Atomic.get broken_seen)

(* both simulators have one engine, which at one shard must run in the
   calling domain: without [jobs] and at [jobs = 1].  Runs first, before
   anything spawns a domain. *)
let test_one_shard_spawns_no_domain () =
  let ns =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.warmup = 10; measure = 20; drain = 50 }
  and wh =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.warmup = 10; measure = 20; drain = 50 }
  in
  let sims ?jobs () =
    ignore (Mvl.Network_sim.run ~config:ns ?jobs (Mvl.Hypercube.create 4));
    ignore (Mvl.Wormhole.run ~config:wh ?jobs (Mvl.Wormhole.Hypercube 4))
  in
  sims ();
  sims ~jobs:1 ();
  Alcotest.(check bool) "no domain spawned" false
    (Mvl.Domain_pool.spawned_domains ())

(* order matters: the one-shard case reads Domain_pool.spawned_domains,
   so it must run before anything spawns a domain — it comes first
   here, and this suite is registered first in main.ml *)
let suite =
  [
    Alcotest.test_case "one-shard simulators spawn no domain" `Quick
      test_one_shard_spawns_no_domain;
    Alcotest.test_case "parallel matches sequential (stable form)" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "merge preserves input order" `Quick
      test_merge_preserves_input_order;
    Alcotest.test_case "per-worker cache stats aggregate" `Quick
      test_worker_stats_aggregate;
    Alcotest.test_case "exceptions surface sequentially" `Quick
      test_exception_propagates;
    Alcotest.test_case "lowest failing index wins" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "skewed load is stolen" `Quick test_work_stealing;
    Alcotest.test_case "split_seed streams" `Quick test_split_seed;
    Alcotest.test_case "empty and singleton inputs" `Quick test_small_inputs;
    Alcotest.test_case "default job count bounds" `Quick
      test_default_jobs_bounds;
    Alcotest.test_case "barrier basics" `Quick test_barrier_basics;
    Alcotest.test_case "gang lockstep phases" `Quick test_gang_lockstep;
    Alcotest.test_case "gang failure breaks barrier" `Quick
      test_gang_failure_breaks_barrier;
  ]
