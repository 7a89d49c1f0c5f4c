open Mvl_core

let run_with ?(fabric = Mvl.Wormhole.Hypercube 6) ?(load = 0.01)
    ?(packet_len = 4) ?link_latency () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.offered_load = load; packet_len; warmup = 300;
      measure = 1500 }
  in
  Mvl.Wormhole.run ~config:cfg ?link_latency fabric

let test_low_load_delivers_all () =
  let r = run_with () in
  Alcotest.(check int) "hypercube all delivered" r.Mvl.Wormhole.injected
    r.Mvl.Wormhole.delivered;
  let rt = run_with ~fabric:(Mvl.Wormhole.Torus { k = 4; n = 2 }) () in
  Alcotest.(check int) "torus all delivered" rt.Mvl.Wormhole.injected
    rt.Mvl.Wormhole.delivered

let test_serialization_latency () =
  (* zero-load packet latency ~ hops + (packet_len - 1) + ejection *)
  let short = run_with ~load:0.001 ~packet_len:1 () in
  let long = run_with ~load:0.001 ~packet_len:8 () in
  Alcotest.(check bool) "longer packets, higher latency" true
    (long.Mvl.Wormhole.avg_latency
    > short.Mvl.Wormhole.avg_latency +. 5.0)

let test_contention_grows_latency () =
  let quiet = run_with ~load:0.002 () in
  let busy = run_with ~load:0.05 () in
  Alcotest.(check bool) "contention" true
    (busy.Mvl.Wormhole.avg_latency > quiet.Mvl.Wormhole.avg_latency)

let test_no_deadlock_under_stress () =
  (* past saturation the network must keep making progress (wormhole
     with e-cube + dateline VCs is deadlock-free) *)
  let r =
    run_with ~fabric:(Mvl.Wormhole.Torus { k = 4; n = 2 }) ~load:0.2 ()
  in
  Alcotest.(check bool) "progress under overload" true
    (r.Mvl.Wormhole.delivered > r.Mvl.Wormhole.injected / 2)

let test_torus_needs_two_vcs () =
  try
    let cfg = { Mvl.Wormhole.default_config with Mvl.Wormhole.vcs = 1 } in
    ignore (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }));
    Alcotest.fail "single-VC torus accepted"
  with Invalid_argument _ -> ()

let test_deterministic () =
  let a = run_with () and b = run_with () in
  Alcotest.(check bool) "reproducible" true (a = b)

let test_layout_latencies_matter () =
  let fam = Mvl.Families.hypercube 6 in
  let link layers =
    Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:16
      (fam.Mvl.Families.layout ~layers)
  in
  let slow = run_with ~link_latency:(link 2) () in
  let fast = run_with ~link_latency:(link 8) () in
  Alcotest.(check bool) "more layers, faster wormhole network" true
    (fast.Mvl.Wormhole.avg_latency < slow.Mvl.Wormhole.avg_latency)

let test_adaptive_delivers () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
      offered_load = 0.02; warmup = 200; measure = 1000 }
  in
  let r = Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }) in
  Alcotest.(check int) "adaptive torus delivers all" r.Mvl.Wormhole.injected
    r.Mvl.Wormhole.delivered;
  let rh =
    Mvl.Wormhole.run
      ~config:{ cfg with Mvl.Wormhole.vcs = 2 }
      (Mvl.Wormhole.Hypercube 5)
  in
  Alcotest.(check int) "adaptive hypercube delivers all"
    rh.Mvl.Wormhole.injected rh.Mvl.Wormhole.delivered

let test_adaptive_no_deadlock_under_stress () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
      traffic = Mvl.Traffic.Transpose; offered_load = 0.25; warmup = 200;
      measure = 800 }
  in
  let r = Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }) in
  Alcotest.(check bool) "keeps making progress" true
    (r.Mvl.Wormhole.delivered > r.Mvl.Wormhole.injected / 2)

let test_adaptive_vc_requirements () =
  (try
     let cfg =
       { Mvl.Wormhole.default_config with
         Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 2 }
     in
     ignore (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }));
     Alcotest.fail "2-VC adaptive torus accepted"
   with Invalid_argument _ -> ());
  try
    let cfg =
      { Mvl.Wormhole.default_config with
        Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 1 }
    in
    ignore (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Hypercube 4));
    Alcotest.fail "1-VC adaptive hypercube accepted"
  with Invalid_argument _ -> ()

(* fixed-seed golden statistics, captured from the original list-based
   router before the zero-allocation rewrite: the histogram hash pins
   every delivered packet's latency, so any change to VC arbitration
   order or candidate sorting shows up here *)
let hash_hist pairs =
  Array.fold_left
    (fun h (lat, cnt) -> (((h * 1000003) + (lat * 8191) + cnt) land max_int))
    0 pairs

(* [cycles] is one past the last tracked delivery (at least warmup +
   measure), or the whole horizon when worms are left undrained *)
let check_golden name (r : Mvl.Wormhole.result) ~injected ~delivered ~p50
    ~p95 ~p99 ~max ~hist_hash ~cycles =
  Alcotest.(check int) (name ^ " injected") injected r.Mvl.Wormhole.injected;
  Alcotest.(check int) (name ^ " delivered") delivered r.Mvl.Wormhole.delivered;
  Alcotest.(check int)
    (name ^ " undrained")
    (injected - delivered)
    r.Mvl.Wormhole.undrained;
  Alcotest.(check int) (name ^ " p50") p50 r.Mvl.Wormhole.p50_latency;
  Alcotest.(check int) (name ^ " p95") p95 r.Mvl.Wormhole.p95_latency;
  Alcotest.(check int) (name ^ " p99") p99 r.Mvl.Wormhole.p99_latency;
  Alcotest.(check int) (name ^ " max") max r.Mvl.Wormhole.max_latency;
  Alcotest.(check int)
    (name ^ " histogram hash") hist_hash
    (hash_hist r.Mvl.Wormhole.latency_histogram);
  Alcotest.(check int) (name ^ " cycles") cycles r.Mvl.Wormhole.cycles

let test_golden_hypercube_ecube () =
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.offered_load = 0.03; warmup = 100; measure = 400;
      drain = 2000; seed = 2 }
  in
  check_golden "wh hypercube/e-cube"
    (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Hypercube 5))
    ~injected:386 ~delivered:386 ~p50:6 ~p95:10 ~p99:11 ~max:14
    ~hist_hash:3420119115101005763 ~cycles:506

let test_golden_torus_adaptive () =
  (* adaptive + datelines + 3 VCs: the candidate-scan ordering and the
     credit-sorted stable arbitration are all on this path *)
  let cfg =
    { Mvl.Wormhole.default_config with
      Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
      traffic = Mvl.Traffic.Transpose; offered_load = 0.05; warmup = 100;
      measure = 400; drain = 2000; seed = 5 }
  in
  check_golden "wh torus/adaptive"
    (Mvl.Wormhole.run ~config:cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }))
    ~injected:345 ~delivered:345 ~p50:5 ~p95:11 ~p99:16 ~max:19
    ~hist_hash:2103898282786443092 ~cycles:506

(* past saturation with a drain too short to empty the fabric: the
   horizon expires with worms still in flight, which must be reported
   as undrained rather than silently vanishing (they used to) *)
let undrained_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.offered_load = 0.2; warmup = 50; measure = 200; drain = 20;
    seed = 13 }

let test_golden_torus_undrained () =
  let r = Mvl.Wormhole.run ~config:undrained_cfg (Mvl.Wormhole.Torus { k = 4; n = 2 }) in
  Alcotest.(check bool) "horizon leaves worms in flight" true
    (r.Mvl.Wormhole.undrained > 0);
  check_golden "wh torus/undrained" r ~injected:662 ~delivered:524
    ~p50:29 ~p95:67 ~p99:85 ~max:106
    ~hist_hash:1399783060572037098
    ~cycles:(undrained_cfg.warmup + undrained_cfg.measure + undrained_cfg.drain)

(* The next three goldens were captured from the fixed-horizon engine,
   which ran every cycle up to warmup + measure + drain and scanned
   every router each cycle, so they pin that the early stop and the
   idle-router skip change no statistic. *)

(* adaptive past the knee on a hypercube: the escape lane pinned to VC 0
   and the credit-sorted candidates over two adaptive VCs *)
let hypercube_adaptive_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
    offered_load = 0.2; warmup = 100; measure = 400; drain = 2000; seed = 3 }

let test_golden_hypercube_adaptive () =
  check_golden "wh hypercube/adaptive"
    (Mvl.Wormhole.run ~config:hypercube_adaptive_cfg (Mvl.Wormhole.Hypercube 6))
    ~injected:5229 ~delivered:5229 ~p50:18 ~p95:54 ~p99:80 ~max:104
    ~hist_hash:4414111960313768994 ~cycles:587

(* link latencies of the 2-layer hypercube:6 layout, up to 5 cycles:
   flits and credits land several wheel slots ahead *)
let layout_latency_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.offered_load = 0.03; warmup = 100; measure = 400;
    drain = 2000; seed = 4 }

let layout_link_latency () =
  Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:16
    ((Mvl.Families.hypercube 6).Mvl.Families.layout ~layers:2)

let test_golden_layout_latency () =
  check_golden "wh hypercube/layout latency"
    (Mvl.Wormhole.run ~config:layout_latency_cfg
       ~link_latency:(layout_link_latency ()) (Mvl.Wormhole.Hypercube 6))
    ~injected:704 ~delivered:704 ~p50:10 ~p95:17 ~p99:21 ~max:26
    ~hist_hash:2806664397467316332 ~cycles:512

(* a light load under the default 20,000-cycle drain: the fabric
   empties a few cycles after injection ends, and stopping there
   leaves every statistic as the full horizon would *)
let long_drain_cfg =
  { Mvl.Wormhole.default_config with
    Mvl.Wormhole.offered_load = 0.01; warmup = 300; measure = 1500;
    drain = 20_000; seed = 1 }

let test_golden_long_drain () =
  let r = Mvl.Wormhole.run ~config:long_drain_cfg (Mvl.Wormhole.Hypercube 6) in
  check_golden "wh hypercube/long drain" r ~injected:967 ~delivered:967
    ~p50:6 ~p95:8 ~p99:9 ~max:12 ~hist_hash:541119100925147137
    ~cycles:1803;
  Alcotest.(check bool) "stops far below the horizon" true
    (r.Mvl.Wormhole.cycles * 10
    < long_drain_cfg.warmup + long_drain_cfg.measure + long_drain_cfg.drain)

(* a zero horizon simulates no cycle at all; with nothing injected no
   tracked packet is ever pending, so the run ends with the last
   injection cycle, not one cycle later *)
let test_stop_rule_edges () =
  let d = Mvl.Wormhole.default_config in
  List.iter
    (fun (name, config, cycles) ->
      List.iter
        (fun jobs ->
          let r = Mvl.Wormhole.run ~config ~jobs (Mvl.Wormhole.Hypercube 4) in
          Alcotest.(check int)
            (Printf.sprintf "%s at jobs=%d" name jobs)
            cycles r.Mvl.Wormhole.cycles)
        [ 1; 2 ])
    [
      ("zero horizon", { d with Mvl.Wormhole.warmup = 0; measure = 0; drain = 0 }, 0);
      ( "no traffic",
        { d with Mvl.Wormhole.offered_load = 0.0; warmup = 10; measure = 20;
          drain = 100 },
        30 );
    ]

(* a 1-node fabric used to get as far as the first destination draw
   and fail there, inside [Rng.int] *)
let test_one_node_fabric () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "1-node fabric rejected at jobs=%d" jobs)
        (Invalid_argument "Wormhole.run: need at least 2 nodes")
        (fun () -> ignore (Mvl.Wormhole.run ~jobs (Mvl.Wormhole.Hypercube 0))))
    [ 1; 2 ]

(* the wormhole engine's contract mirrors {!Network_sim}'s: full-record
   equality with the one-shard run at every jobs value — [cycles]
   included, so the stop vote ends every shard on the same cycle — over
   deterministic e-cube, adaptive + datelines on both fabrics, an
   overloaded run with undrained worms, multi-cycle layout link
   latencies, and a long drain cut short; three shards give uneven
   ranges *)
let test_sharded_matches_serial () =
  let configs =
    [
      ( "wh hypercube/e-cube",
        { Mvl.Wormhole.default_config with
          Mvl.Wormhole.offered_load = 0.03; warmup = 100; measure = 400;
          drain = 2000; seed = 2 },
        Mvl.Wormhole.Hypercube 5,
        None );
      ( "wh torus/adaptive",
        { Mvl.Wormhole.default_config with
          Mvl.Wormhole.routing = Mvl.Wormhole.Adaptive; vcs = 3;
          traffic = Mvl.Traffic.Transpose; offered_load = 0.05; warmup = 100;
          measure = 400; drain = 2000; seed = 5 },
        Mvl.Wormhole.Torus { k = 4; n = 2 },
        None );
      ( "wh torus/undrained",
        undrained_cfg,
        Mvl.Wormhole.Torus { k = 4; n = 2 },
        None );
      ( "wh hypercube/adaptive",
        hypercube_adaptive_cfg,
        Mvl.Wormhole.Hypercube 6,
        None );
      ( "wh hypercube/layout latency",
        layout_latency_cfg,
        Mvl.Wormhole.Hypercube 6,
        Some (layout_link_latency ()) );
      ("wh hypercube/long drain", long_drain_cfg, Mvl.Wormhole.Hypercube 6, None);
    ]
  in
  List.iter
    (fun (name, config, fabric, link_latency) ->
      let serial = Mvl.Wormhole.run ~config ?link_latency fabric in
      List.iter
        (fun jobs ->
          let sharded = Mvl.Wormhole.run ~config ?link_latency ~jobs fabric in
          Alcotest.(check bool)
            (Printf.sprintf "%s sharded=serial at jobs=%d" name jobs)
            true (sharded = serial))
        [ 2; 3; 4 ])
    configs

let test_graph_of_fabric () =
  Alcotest.(check bool) "hypercube fabric" true
    (Mvl.Graph.equal
       (Mvl.Wormhole.graph_of_fabric (Mvl.Wormhole.Hypercube 4))
       (Mvl.Hypercube.create 4));
  Alcotest.(check bool) "torus fabric" true
    (Mvl.Graph.equal
       (Mvl.Wormhole.graph_of_fabric (Mvl.Wormhole.Torus { k = 5; n = 2 }))
       (Mvl.Kary_ncube.create ~k:5 ~n:2))

let suite =
  [
    Alcotest.test_case "low load delivers all" `Quick test_low_load_delivers_all;
    Alcotest.test_case "serialization latency" `Quick test_serialization_latency;
    Alcotest.test_case "contention grows latency" `Quick
      test_contention_grows_latency;
    Alcotest.test_case "no deadlock under stress" `Slow
      test_no_deadlock_under_stress;
    Alcotest.test_case "torus needs 2 VCs" `Quick test_torus_needs_two_vcs;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "layout latencies matter" `Quick
      test_layout_latencies_matter;
    Alcotest.test_case "adaptive delivers" `Quick test_adaptive_delivers;
    Alcotest.test_case "adaptive stress" `Slow
      test_adaptive_no_deadlock_under_stress;
    Alcotest.test_case "adaptive vc requirements" `Quick
      test_adaptive_vc_requirements;
    Alcotest.test_case "golden: hypercube e-cube" `Quick
      test_golden_hypercube_ecube;
    Alcotest.test_case "golden: torus adaptive" `Quick
      test_golden_torus_adaptive;
    Alcotest.test_case "golden: torus undrained" `Quick
      test_golden_torus_undrained;
    Alcotest.test_case "golden: hypercube adaptive" `Quick
      test_golden_hypercube_adaptive;
    Alcotest.test_case "golden: layout link latencies" `Quick
      test_golden_layout_latency;
    Alcotest.test_case "golden: long drain stops early" `Quick
      test_golden_long_drain;
    Alcotest.test_case "stop rule at the edges" `Quick test_stop_rule_edges;
    Alcotest.test_case "1-node fabric rejected" `Quick test_one_node_fabric;
    Alcotest.test_case "sharded engine matches serial" `Quick
      test_sharded_matches_serial;
    Alcotest.test_case "fabric graphs" `Quick test_graph_of_fabric;
  ]
