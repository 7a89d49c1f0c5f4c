open Mvl_core

let test_rng_deterministic () =
  let a = Mvl.Rng.create ~seed:5 and b = Mvl.Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Mvl.Rng.int a ~bound:1000)
      (Mvl.Rng.int b ~bound:1000)
  done;
  let c = Mvl.Rng.create ~seed:6 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Mvl.Rng.int a ~bound:1000 <> Mvl.Rng.int c ~bound:1000 then
      differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let r = Mvl.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Mvl.Rng.int r ~bound:7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    let f = Mvl.Rng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0)
  done

let test_traffic_patterns () =
  let rng = Mvl.Rng.create ~seed:1 in
  (* permutation patterns are self-inverse on their domain *)
  for src = 0 to 63 do
    let d = Mvl.Traffic.destination Mvl.Traffic.Bit_complement rng ~n_nodes:64 ~src in
    Alcotest.(check bool) "complement differs" true (d <> src);
    let dr = Mvl.Traffic.destination Mvl.Traffic.Bit_reversal rng ~n_nodes:64 ~src in
    Alcotest.(check bool) "reversal in range" true (dr >= 0 && dr < 64)
  done;
  (* uniform never picks self *)
  for _ = 1 to 500 do
    let d = Mvl.Traffic.destination Mvl.Traffic.Uniform rng ~n_nodes:10 ~src:4 in
    Alcotest.(check bool) "no self traffic" true (d <> 4 && d >= 0 && d < 10)
  done;
  (* hotspot goes to the hotspot *)
  let d = Mvl.Traffic.destination (Mvl.Traffic.Hotspot 3) rng ~n_nodes:8 ~src:0 in
  Alcotest.(check int) "hotspot" 3 d

let test_bit_reversal_involution () =
  let rng = Mvl.Rng.create ~seed:1 in
  for src = 0 to 255 do
    let d = Mvl.Traffic.destination Mvl.Traffic.Bit_reversal rng ~n_nodes:256 ~src in
    if d <> src then begin
      let back = Mvl.Traffic.destination Mvl.Traffic.Bit_reversal rng ~n_nodes:256 ~src:d in
      (* reversal is an involution except for the self-fixup *)
      if back <> d + 1 && d <> src + 1 then
        Alcotest.(check int) (Printf.sprintf "involution at %d" src) src back
    end
  done

let test_hotspot_validation () =
  let rng = Mvl.Rng.create ~seed:1 in
  (* a negative hotspot used to come back negative through [mod], and
     an oversized one was silently wrapped — both are now rejected *)
  Alcotest.check_raises "negative hotspot rejected"
    (Invalid_argument "Traffic: hotspot node out of range") (fun () ->
      ignore
        (Mvl.Traffic.destination (Mvl.Traffic.Hotspot (-3)) rng ~n_nodes:8
           ~src:0));
  Alcotest.check_raises "oversized hotspot rejected"
    (Invalid_argument "Traffic: hotspot node out of range") (fun () ->
      ignore
        (Mvl.Traffic.destination (Mvl.Traffic.Hotspot 8) rng ~n_nodes:8
           ~src:0));
  (* in-range hotspots still work, including the self-fixup *)
  Alcotest.(check int) "valid hotspot" 7
    (Mvl.Traffic.destination (Mvl.Traffic.Hotspot 7) rng ~n_nodes:8 ~src:0);
  Alcotest.(check int) "hotspot self-fixup" 4
    (Mvl.Traffic.destination (Mvl.Traffic.Hotspot 3) rng ~n_nodes:8 ~src:3)

let test_permutation_bijectivity () =
  (* every deterministic pattern's raw map must be a bijection on
     [0, 2^bits) — checked exhaustively across label widths *)
  List.iter
    (fun (name, pattern) ->
      for bits = 1 to 12 do
        let n = 1 lsl bits in
        let seen = Array.make n false in
        for src = 0 to n - 1 do
          let d = Mvl.Traffic.permute pattern ~n_nodes:n ~src in
          Alcotest.(check bool)
            (Printf.sprintf "%s in range (bits=%d src=%d)" name bits src)
            true
            (d >= 0 && d < n);
          if seen.(d) then
            Alcotest.failf "%s not injective at bits=%d: %d hit twice" name
              bits d;
          seen.(d) <- true
        done
      done)
    [
      ("transpose", Mvl.Traffic.Transpose);
      ("bit-reversal", Mvl.Traffic.Bit_reversal);
      ("bit-complement", Mvl.Traffic.Bit_complement);
    ];
  Alcotest.check_raises "uniform has no deterministic map"
    (Invalid_argument "Traffic.permute: Uniform has no deterministic map")
    (fun () -> ignore (Mvl.Traffic.permute Mvl.Traffic.Uniform ~n_nodes:8 ~src:0));
  Alcotest.check_raises "src out of range"
    (Invalid_argument "Traffic.permute: src out of range") (fun () ->
      ignore (Mvl.Traffic.permute Mvl.Traffic.Transpose ~n_nodes:8 ~src:8))

let test_percentile_validation () =
  let h = Mvl.Histogram.create () in
  List.iter (Mvl.Histogram.add h) [ 5; 1; 9; 3; 7 ];
  (* both edges of the valid range answer the extremes *)
  Alcotest.(check int) "p=0 is the minimum" 1 (Mvl.Histogram.percentile h 0);
  Alcotest.(check int) "p=100 is the maximum" 9
    (Mvl.Histogram.percentile h 100);
  (* out-of-range p used to clamp silently; now it raises *)
  Alcotest.check_raises "p < 0 rejected"
    (Invalid_argument "Histogram.percentile: p not in [0,100]") (fun () ->
      ignore (Mvl.Histogram.percentile h (-1)));
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Histogram.percentile: p not in [0,100]") (fun () ->
      ignore (Mvl.Histogram.percentile h 101));
  (* the empty histogram stays 0 at valid p *)
  let empty = Mvl.Histogram.create () in
  Alcotest.(check int) "empty histogram" 0 (Mvl.Histogram.percentile empty 50)

let test_routing_table_minimal () =
  let g = Mvl.Hypercube.create 5 in
  let t = Mvl.Routing_table.create g in
  for dest = 0 to 31 do
    for src = 0 to 31 do
      if src <> dest then begin
        (* hop count equals Hamming distance *)
        let expected = ref 0 in
        let x = ref (src lxor dest) in
        while !x > 0 do
          expected := !expected + (!x land 1);
          x := !x lsr 1
        done;
        Alcotest.(check int)
          (Printf.sprintf "hops %d->%d" src dest)
          !expected
          (Mvl.Routing_table.hops t ~src ~dest)
      end
    done
  done

let test_routing_deterministic () =
  let g = Mvl.Kary_ncube.create ~k:4 ~n:2 in
  let t = Mvl.Routing_table.create g in
  let p1 = Mvl.Routing_table.path t ~src:0 ~dest:10 in
  let p2 = Mvl.Routing_table.path t ~src:0 ~dest:10 in
  Alcotest.(check (list int)) "stable" p1 p2

(* Reference Int64 splitmix64, transcribed from the published
   algorithm with a boxed [int64] state.  Rng keeps its state unboxed
   and draws [bool] without dividing; this pins the two streams (raw
   draws, floats, bools, bounded ints across the rejection-sampling
   paths) against each other. *)
module Rng_reference = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int ((seed * 2) + 1) }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
    float_of_int bits /. 9007199254740992.0

  let int t ~bound =
    let b = Int64.of_int bound in
    let excess = Int64.rem (Int64.add (Int64.rem Int64.max_int b) 1L) b in
    let threshold = Int64.sub Int64.max_int excess in
    let rec draw () =
      let v = Int64.shift_right_logical (Int64.shift_left (next t) 1) 1 in
      if Int64.compare v threshold <= 0 then Int64.to_int (Int64.rem v b)
      else draw ()
    in
    draw ()
end

let test_rng_matches_reference () =
  List.iter
    (fun seed ->
      let r = Mvl.Rng.create ~seed and ref_r = Rng_reference.create ~seed in
      (* floats pin the raw 64-bit draws (top 53 bits of each) *)
      for i = 1 to 500 do
        Alcotest.(check (float 0.0))
          (Printf.sprintf "float draw %d (seed %d)" i seed)
          (Rng_reference.float ref_r) (Mvl.Rng.float r)
      done;
      (* bounded ints cover the power-of-two, small-bound and wide-bound
         residue paths, including bounds that force rejections *)
      List.iter
        (fun bound ->
          let r = Mvl.Rng.create ~seed
          and ref_r = Rng_reference.create ~seed in
          for i = 1 to 300 do
            Alcotest.(check int)
              (Printf.sprintf "int bound=%d draw %d (seed %d)" bound i seed)
              (Rng_reference.int ref_r ~bound)
              (Mvl.Rng.int r ~bound)
          done)
        [ 1; 2; 7; 64; 1000; 0x40000000 - 1; 0x40000000; (1 lsl 53) + 7 ];
      (* [bool] compares the draw with [p] scaled by 2^53 instead of
         dividing the draw; both scalings are exact, so it must answer
         [float < p] at every [p], the edges of the float range
         included *)
      List.iter
        (fun p ->
          let r = Mvl.Rng.create ~seed
          and ref_r = Rng_reference.create ~seed in
          for i = 1 to 300 do
            Alcotest.(check bool)
              (Printf.sprintf "bool p=%h draw %d (seed %d)" p i seed)
              (Rng_reference.float ref_r < p)
              (Mvl.Rng.bool r ~p)
          done)
        [ 0.0; 1.0; 0.5; Float.pred 1.0; 5e-324; -1.0; 2.0; infinity;
          neg_infinity; nan ])
    [ 0; 1; 7; 123456789 ]

(* a draw allocates nothing: the state stays an unboxed int64 *)
let test_rng_allocates_nothing () =
  if Sys.backend_type <> Sys.Native then
    Alcotest.skip ()
  else begin
    let r = Mvl.Rng.create ~seed:3 in
    let draws = 100_000 in
    let words f =
      let before = Gc.minor_words () in
      f ();
      Gc.minor_words () -. before
    in
    (* what measuring itself costs: the boxed float [minor_words]
       returns *)
    let overhead = words ignore in
    let acc = ref 0 in
    let ints =
      words (fun () ->
          for _ = 1 to draws do
            acc := !acc + Mvl.Rng.int r ~bound:2047
          done)
    in
    let bools =
      words (fun () ->
          for _ = 1 to draws do
            if Mvl.Rng.bool r ~p:0.3 then incr acc
          done)
    in
    ignore (Sys.opaque_identity !acc);
    Alcotest.(check (float 0.0)) "Rng.int minor words" 0.0 (ints -. overhead);
    Alcotest.(check (float 0.0)) "Rng.bool minor words" 0.0 (bools -. overhead)
  end

(* fixed-seed golden statistics, captured from the original list/Hashtbl
   engine before the zero-allocation rewrite: any drift in the packet
   engine's event ordering shows up here as a changed count or histogram
   hash *)
let hash_hist pairs =
  Array.fold_left
    (fun h (lat, cnt) -> (((h * 1000003) + (lat * 8191) + cnt) land max_int))
    0 pairs

let check_golden name (r : Mvl.Network_sim.result) ~injected ~delivered
    ~undrained ~hop_total ~cycles ~p50 ~p95 ~p99 ~max ~hist_hash =
  Alcotest.(check int) (name ^ " injected") injected r.Mvl.Network_sim.injected;
  Alcotest.(check int)
    (name ^ " delivered") delivered r.Mvl.Network_sim.delivered;
  Alcotest.(check int)
    (name ^ " undrained") undrained r.Mvl.Network_sim.undrained;
  Alcotest.(check int)
    (name ^ " hop_total") hop_total r.Mvl.Network_sim.hop_total;
  Alcotest.(check int) (name ^ " cycles") cycles r.Mvl.Network_sim.cycles;
  Alcotest.(check int) (name ^ " p50") p50 r.Mvl.Network_sim.p50_latency;
  Alcotest.(check int) (name ^ " p95") p95 r.Mvl.Network_sim.p95_latency;
  Alcotest.(check int) (name ^ " p99") p99 r.Mvl.Network_sim.p99_latency;
  Alcotest.(check int) (name ^ " max") max r.Mvl.Network_sim.max_latency;
  Alcotest.(check int)
    (name ^ " histogram hash") hist_hash
    (hash_hist r.Mvl.Network_sim.latency_histogram)

let test_golden_hypercube_uniform () =
  let cfg =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.offered_load = 0.25; warmup = 100; measure = 400;
      drain = 2000; seed = 3 }
  in
  check_golden "hypercube/uniform"
    (Mvl.Network_sim.run ~config:cfg (Mvl.Hypercube.create 6))
    ~injected:6545 ~delivered:6545 ~undrained:0 ~hop_total:20014 ~cycles:530 ~p50:4
    ~p95:37 ~p99:46 ~max:56 ~hist_hash:963587506372009307

let test_golden_kary_transpose_latencies () =
  (* non-unit link latencies + transpose traffic + shallow lookahead:
     exercises the timing wheel beyond slot 1 and the requeue path *)
  let cfg =
    { Mvl.Network_sim.traffic = Mvl.Traffic.Transpose; offered_load = 0.15;
      warmup = 100; measure = 400; drain = 2000; seed = 11; lookahead = 4 }
  in
  check_golden "kary/transpose"
    (Mvl.Network_sim.run ~config:cfg
       ~link_latency:(fun u v -> 1 + ((u + v) mod 3))
       (Mvl.Kary_ncube.create ~k:4 ~n:3))
    ~injected:3882 ~delivered:3882 ~undrained:0 ~hop_total:12246 ~cycles:507 ~p50:4 ~p95:7
    ~p99:8 ~max:10 ~hist_hash:1997538072982475168

let test_golden_hypercube_saturated () =
  (* past saturation with a short drain: undelivered packets, full
     queues, the lookahead window constantly active *)
  let cfg =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.offered_load = 0.7; warmup = 50; measure = 200;
      drain = 300; seed = 7 }
  in
  check_golden "hypercube/saturated"
    (Mvl.Network_sim.run ~config:cfg (Mvl.Hypercube.create 6))
    ~injected:8965 ~delivered:7975 ~undrained:990 ~hop_total:23174 ~cycles:550 ~p50:13
    ~p95:298 ~p99:401 ~max:482 ~hist_hash:2948049736240518677

(* the paper's geometry as link latencies (up to 5 cycles from the
   4-layer hypercube:8 layout) near the knee: multi-slot wheel buckets
   on every shard, so a shard that let its own grants jump the mailbox
   order shows up in the parity test below *)
let layout_latency_cfg =
  { Mvl.Network_sim.default_config with
    Mvl.Network_sim.offered_load = 0.3; warmup = 100; measure = 400;
    drain = 2000; seed = 1 }

let hypercube8_l4_latency =
  lazy
    (Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:32
       ((Mvl.Families.hypercube 8).Mvl.Families.layout ~layers:4))

let test_golden_layout_latencies () =
  check_golden "hypercube:8 L=4 latencies"
    (Mvl.Network_sim.run ~config:layout_latency_cfg
       ~link_latency:(Lazy.force hypercube8_l4_latency)
       (Mvl.Hypercube.create 8))
    ~injected:30742 ~delivered:30742 ~undrained:0 ~hop_total:123658
    ~cycles:519 ~p50:9 ~p95:17 ~p99:29 ~max:44
    ~hist_hash:3680214140189885059

(* link latencies of -2..3, different in each direction: a link
   charges max 1 of its value, while the route tie-break compares the
   raw values, so -2 beats 0 and the clamp must not reach the
   tie-break.  Captured from the engine that called the closure once
   per candidate and once per grant; zero-load walks clamp the same
   way *)
let clamped_latency u v = (((u * 7) + (v * 3)) mod 6) - 2

let clamped_cfg =
  { Mvl.Network_sim.default_config with
    Mvl.Network_sim.offered_load = 0.3; warmup = 100; measure = 400;
    drain = 2000; seed = 5 }

let test_golden_clamped_latencies () =
  let g = Mvl.Hypercube.create 6 in
  check_golden "hypercube:6 clamped latencies"
    (Mvl.Network_sim.run ~config:clamped_cfg ~link_latency:clamped_latency g)
    ~injected:7760 ~delivered:7760 ~undrained:0 ~hop_total:23556
    ~cycles:541 ~p50:5 ~p95:34 ~p99:42 ~max:56
    ~hist_hash:1266138061897620718;
  Alcotest.(check (float 0.0))
    "zero-load latency" 3.828125
    (Mvl.Network_sim.zero_load_latency ~link_latency:clamped_latency g)

(* a zero horizon (warmup + measure + drain = 0) simulates no cycle,
   with one shard or two *)
let test_zero_horizon () =
  let config =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.warmup = 0; measure = 0; drain = 0 }
  in
  List.iter
    (fun jobs ->
      let r = Mvl.Network_sim.run ~config ~jobs (Mvl.Hypercube.create 4) in
      Alcotest.(check int)
        (Printf.sprintf "cycles at jobs=%d" jobs)
        0 r.Mvl.Network_sim.cycles;
      Alcotest.(check int)
        (Printf.sprintf "injected at jobs=%d" jobs)
        0 r.Mvl.Network_sim.injected)
    [ 1; 2 ]

let test_sim_delivers_everything_at_low_load () =
  let g = Mvl.Hypercube.create 6 in
  let cfg =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.offered_load = 0.02; warmup = 100; measure = 500 }
  in
  let r = Mvl.Network_sim.run ~config:cfg g in
  Alcotest.(check int) "all delivered" r.Mvl.Network_sim.injected
    r.Mvl.Network_sim.delivered;
  Alcotest.(check bool) "sane latency" true
    (r.Mvl.Network_sim.avg_latency >= 1.0
    && r.Mvl.Network_sim.avg_latency < 20.0)

let test_sim_latency_grows_with_load () =
  let g = Mvl.Hypercube.create 6 in
  let latency load =
    let cfg =
      { Mvl.Network_sim.default_config with
        Mvl.Network_sim.offered_load = load; warmup = 200; measure = 1000 }
    in
    (Mvl.Network_sim.run ~config:cfg g).Mvl.Network_sim.avg_latency
  in
  Alcotest.(check bool) "contention costs" true (latency 0.4 > latency 0.05)

let test_sim_reproducible () =
  let g = Mvl.Kary_ncube.create ~k:4 ~n:2 in
  let run () = Mvl.Network_sim.run g in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical results" true (a = b)

let test_layout_latencies_improve_with_layers () =
  let fam = Mvl.Families.hypercube 7 in
  let g = fam.Mvl.Families.graph in
  let zero layers =
    let lay = fam.Mvl.Families.layout ~layers in
    Mvl.Network_sim.zero_load_latency
      ~link_latency:(Mvl.Network_sim.link_latency_of_layout ~units_per_cycle:16 lay)
      g
  in
  Alcotest.(check bool) "more layers, faster network" true (zero 8 < zero 2)

let test_saturation_below_bisection_bound () =
  let cfg =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.warmup = 100; measure = 400; drain = 0 }
  in
  let sat g = Mvl.Network_sim.saturation_throughput ~config:cfg g in
  (* hypercube: bound 2B/N = 1.0; mesh 8x8: bound 0.25 *)
  let hc = sat (Mvl.Hypercube.create 6) in
  let mesh = sat (Mvl.Mesh.create ~dims:[| 8; 8 |]) in
  Alcotest.(check bool) "hypercube below bound" true (hc <= 1.0);
  Alcotest.(check bool) "mesh below bound" true (mesh <= 0.26);
  Alcotest.(check bool) "richer network, more capacity" true (hc > mesh)

let test_zero_load_matches_sim () =
  let g = Mvl.Hypercube.create 6 in
  let zl = Mvl.Network_sim.zero_load_latency ~samples:200 g in
  let cfg =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.offered_load = 0.005; warmup = 100; measure = 2000 }
  in
  let r = Mvl.Network_sim.run ~config:cfg g in
  (* at vanishing load the simulated latency approaches the analytic
     zero-load value (within ~30%) *)
  Alcotest.(check bool) "consistent" true
    (abs_float (r.Mvl.Network_sim.avg_latency -. zl) /. zl < 0.3)

(* the engine's contract: every statistic — counts, percentiles, the
   full histogram, undrained — is the same for every jobs value as for
   one shard, which the goldens pin.  Structural equality over the
   whole result record checks all of it at once; the saturated config
   also proves the undrained accounting survives sharding.  Three
   shards give uneven ranges and a middle shard with a lower
   neighbour. *)
let test_sharded_matches_serial () =
  let configs =
    [
      ( "hypercube/uniform",
        { Mvl.Network_sim.default_config with
          Mvl.Network_sim.offered_load = 0.25; warmup = 100; measure = 400;
          drain = 2000; seed = 3 },
        None,
        Mvl.Hypercube.create 6 );
      ( "kary/transpose",
        { Mvl.Network_sim.traffic = Mvl.Traffic.Transpose;
          offered_load = 0.15; warmup = 100; measure = 400; drain = 2000;
          seed = 11; lookahead = 4 },
        Some (fun u v -> 1 + ((u + v) mod 3)),
        Mvl.Kary_ncube.create ~k:4 ~n:3 );
      ( "hypercube/saturated",
        { Mvl.Network_sim.default_config with
          Mvl.Network_sim.offered_load = 0.7; warmup = 50; measure = 200;
          drain = 300; seed = 7 },
        None,
        Mvl.Hypercube.create 6 );
      ( "hypercube:8 L=4 latencies",
        layout_latency_cfg,
        Some (Lazy.force hypercube8_l4_latency),
        Mvl.Hypercube.create 8 );
      ( "hypercube:6 clamped latencies",
        clamped_cfg,
        Some clamped_latency,
        Mvl.Hypercube.create 6 );
    ]
  in
  List.iter
    (fun (name, config, link_latency, graph) ->
      let serial = Mvl.Network_sim.run ~config ?link_latency graph in
      List.iter
        (fun jobs ->
          let sharded =
            Mvl.Network_sim.run ~config ?link_latency ~jobs graph
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s sharded=serial at jobs=%d" name jobs)
            true (sharded = serial))
        [ 2; 3; 4 ])
    configs

(* four domains build every table from one shared [t] at once, each
   starting at a different destination: every table must equal the
   serial build and be minimal.  A [t] holding any scratch (a shared
   BFS queue, distance or hop array) would let one domain's build
   overwrite another's mid-flight *)
let test_routing_table_domain_safe () =
  let g = Mvl.Hypercube.create 8 in
  let n = Mvl.Graph.n g in
  let t = Mvl.Routing_table.create ~edge_cost:clamped_latency g in
  let grab offset =
    Array.init n (fun i ->
        let dest = (i + (offset * 61)) mod n in
        (dest, Mvl.Routing_table.build t dest))
  in
  let per_domain, _stats =
    Mvl.Domain_pool.map ~domains:4 ~f:grab [| 0; 1; 2; 3 |]
  in
  let serial = Array.init n (Mvl.Routing_table.build t) in
  Array.iter
    (Array.iter (fun (dest, tbl) ->
         Alcotest.(check (array int))
           (Printf.sprintf "table to %d complete" dest)
           serial.(dest) tbl))
    per_domain;
  (* structural properties of every serial table: dest maps to -1,
     every other node to a neighbour one BFS step closer *)
  Array.iteri
    (fun dest tbl ->
      let dist = Mvl.Graph.bfs_dist g dest in
      Array.iteri
        (fun v next ->
          if v = dest then Alcotest.(check int) "dest slot" (-1) next
          else if
            not (Mvl.Graph.mem_edge g v next && dist.(next) = dist.(v) - 1)
          then
            Alcotest.failf "table to %d: %d -> %d is not minimal" dest v next)
        tbl)
    serial

(* reference table build sharing nothing with [Routing_table] but the
   graph: a closure call per candidate, [Graph.iter_neighbors], a
   [Queue] BFS and the (cost, id) tie-break spelled out *)
let reference_table ~edge_cost g dest =
  let n = Mvl.Graph.n g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(dest) <- 0;
  Queue.add dest queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Mvl.Graph.iter_neighbors g u (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  Array.init n (fun u ->
      if u = dest || dist.(u) = max_int then -1
      else begin
        let best = ref (-1) and best_cost = ref max_int in
        Mvl.Graph.iter_neighbors g u (fun v ->
            if dist.(v) = dist.(u) - 1 then begin
              let c = edge_cost u v in
              if c < !best_cost || (c = !best_cost && (!best < 0 || v < !best))
              then begin
                best_cost := c;
                best := v
              end
            end);
        !best
      end)

let small_graphs =
  lazy
    (Array.of_list
       (List.map (fun f -> f.Mvl.Families.graph) (Mvl.Registry.all_small ())))

(* random asymmetric costs in [-2, 3] give many ties, negative and zero
   costs included; [None] is [create] with no [edge_cost] *)
let prop_routing_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"routing tables match the closure/Queue reference"
    QCheck.(pair (int_bound 10_000) (option (int_bound 1_000_000)))
    (fun (which, seed) ->
      let graphs = Lazy.force small_graphs in
      let g = graphs.(which mod Array.length graphs) in
      let edge_cost =
        Option.map (fun seed u v -> (Hashtbl.hash (seed, u, v) mod 6) - 2) seed
      in
      let t = Mvl.Routing_table.create ?edge_cost g in
      let reference =
        reference_table
          ~edge_cost:(Option.value edge_cost ~default:(fun _ _ -> 0))
          g
      in
      for dest = 0 to Mvl.Graph.n g - 1 do
        if Mvl.Routing_table.build t dest <> reference dest then
          QCheck.Test.fail_reportf "graph %d, table to %d differs" which dest
      done;
      true)

(* the sweep driven directly: a random subset of the nodes in random
   order, swept [width] destinations at a time (the last sweep short)
   through one scratch, must give each reachable (u, dest <> u) exactly
   one emission, from a slot of u's own row, whose hop is the
   reference's; every other cell stays -1 *)
let prop_sweep_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"bit-parallel sweeps match the reference, one emission a cell"
    QCheck.(
      triple (int_bound 10_000) (option (int_bound 1_000_000))
        (int_bound 1_000_000))
    (fun (which, cost_seed, seed) ->
      let graphs = Lazy.force small_graphs in
      let g = graphs.(which mod Array.length graphs) in
      let n = Mvl.Graph.n g in
      let row = Mvl.Graph.row_offsets g and adj = Mvl.Graph.adjacency g in
      let edge_cost =
        Option.map
          (fun seed u v -> (Hashtbl.hash (seed, u, v) mod 6) - 2)
          cost_seed
      in
      let t = Mvl.Routing_table.create ?edge_cost g in
      let st = Random.State.make [| seed |] in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      let width = 1 + Random.State.int st Mvl.Routing_table.width in
      let k = 1 + Random.State.int st n in
      (* keep the count off a multiple of the width, so the last sweep
         is short (impossible at width 1) *)
      let k = if k > 1 && k mod width = 0 then k - 1 else k in
      let dests = Array.sub perm 0 k in
      let cells = Array.init k (fun _ -> Array.make n (-1)) in
      let sc = Mvl.Routing_table.scratch t in
      let pos = ref 0 in
      while !pos < k do
        let base = !pos in
        let len = min width (k - base) in
        Mvl.Routing_table.sweep t sc dests ~pos:base ~len ~emit:(fun u mask s ->
            if mask = 0 then QCheck.Test.fail_reportf "empty mask at %d" u;
            if s < row.(u) || s >= row.(u + 1) then
              QCheck.Test.fail_reportf "slot %d is not in row %d" s u;
            let m = ref mask in
            while !m <> 0 do
              let i = Mvl.Routing_table.lowest_bit !m in
              if i >= len then
                QCheck.Test.fail_reportf "bit %d past a sweep of %d" i len;
              if cells.(base + i).(u) >= 0 then
                QCheck.Test.fail_reportf "(%d, %d) emitted twice" u
                  dests.(base + i);
              cells.(base + i).(u) <- adj.(s);
              m := !m land (!m - 1)
            done);
        pos := base + len
      done;
      let reference =
        reference_table
          ~edge_cost:(Option.value edge_cost ~default:(fun _ _ -> 0))
          g
      in
      Array.iteri
        (fun i dest ->
          if cells.(i) <> reference dest then
            QCheck.Test.fail_reportf
              "graph %d, width %d: table to %d differs" which width dest)
        dests;
      true)

(* two triangles with no edge between them: nothing crosses, and
   every engine that needs a crossing says so instead of looping *)
let test_unreachable_components () =
  let g =
    Mvl.Graph.of_edges ~n:6
      [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]
  in
  let t = Mvl.Routing_table.create g in
  Alcotest.(check (array int))
    "table to 4" [| -1; -1; -1; 4; -1; 4 |]
    (Mvl.Routing_table.build t 4);
  Alcotest.(check (array int))
    "table to 1" [| 1; -1; 1; -1; -1; -1 |]
    (Mvl.Routing_table.build t 1);
  Alcotest.check_raises "path across"
    (Invalid_argument "Routing_table.path: unreachable") (fun () ->
      ignore (Mvl.Routing_table.path t ~src:0 ~dest:4));
  let config =
    { Mvl.Network_sim.default_config with
      Mvl.Network_sim.offered_load = 0.5; warmup = 10; measure = 50;
      drain = 50 }
  in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "run at jobs=%d" jobs)
        (Invalid_argument "Network_sim.run: unreachable node") (fun () ->
          ignore (Mvl.Network_sim.run ~config ~jobs g)))
    [ 1; 2 ];
  Alcotest.check_raises "zero-load walk"
    (Invalid_argument "Network_sim.zero_load_latency: unreachable node")
    (fun () -> ignore (Mvl.Network_sim.zero_load_latency g))

(* [link_latency_of_layout] from two domains on one layout: the layout
   used to memoize its wire view in a [Lazy.t], and the domain that
   lost the race to force it raised [Lazy.Undefined] *)
let test_layout_latency_two_domains () =
  let lay = (Mvl.Families.hypercube 10).Mvl.Families.layout ~layers:4 in
  let g = Mvl.Layout.graph lay in
  let latencies () =
    let link = Mvl.Network_sim.link_latency_of_layout lay in
    Array.map (fun (u, v) -> link u v) (Mvl.Graph.edges g)
  in
  let a = Domain.spawn latencies and b = Domain.spawn latencies in
  let la = Domain.join a and lb = Domain.join b in
  Alcotest.(check (array int)) "same latencies" la lb;
  Alcotest.(check int) "one per edge" (Mvl.Graph.m g) (Array.length la)

let test_traffic_destinations () =
  let n = 64 in
  List.iter
    (fun (name, pattern) ->
      let ds = Mvl.Traffic.destinations pattern ~n_nodes:n in
      Array.iteri
        (fun i d ->
          Alcotest.(check bool) (name ^ " in range") true (d >= 0 && d < n);
          if i > 0 then
            Alcotest.(check bool)
              (name ^ " sorted unique") true
              (ds.(i - 1) < d))
        ds;
      let member d = Array.exists (fun x -> x = d) ds in
      (* every destination the pattern can actually draw is covered *)
      let rng = Mvl.Rng.create ~seed:9 in
      for src = 0 to n - 1 do
        for _ = 1 to 4 do
          let d = Mvl.Traffic.destination pattern rng ~n_nodes:n ~src in
          Alcotest.(check bool)
            (Printf.sprintf "%s draw %d->%d covered" name src d)
            true (member d)
        done
      done)
    [
      ("uniform", Mvl.Traffic.Uniform);
      ("transpose", Mvl.Traffic.Transpose);
      ("bit-complement", Mvl.Traffic.Bit_complement);
      ("bit-reversal", Mvl.Traffic.Bit_reversal);
      ("hotspot", Mvl.Traffic.Hotspot 5);
    ];
  (* hotspot's needed set is exactly the hotspot and its self-fixup *)
  Alcotest.(check (array int))
    "hotspot set" [| 5; 6 |]
    (Mvl.Traffic.destinations (Mvl.Traffic.Hotspot 5) ~n_nodes:n);
  Alcotest.(check (array int))
    "hotspot wrap" [| 0; 7 |]
    (Mvl.Traffic.destinations (Mvl.Traffic.Hotspot 7) ~n_nodes:8)

let test_histogram_merge () =
  (* recording a stream into shards and merging must equal recording
     it whole — the property the sharded engines' stats merge uses *)
  let rng = Mvl.Rng.create ~seed:21 in
  let whole = Mvl.Histogram.create () in
  let shards = Array.init 3 (fun _ -> Mvl.Histogram.create ~initial:4 ()) in
  for i = 0 to 999 do
    let v = Mvl.Rng.int rng ~bound:700 in
    Mvl.Histogram.add whole v;
    Mvl.Histogram.add shards.(i mod 3) v
  done;
  let merged = Mvl.Histogram.create ~initial:1 () in
  Array.iter (fun s -> Mvl.Histogram.merge_into ~into:merged s) shards;
  Alcotest.(check int) "count" (Mvl.Histogram.count whole)
    (Mvl.Histogram.count merged);
  Alcotest.(check int) "total" (Mvl.Histogram.total whole)
    (Mvl.Histogram.total merged);
  Alcotest.(check int) "max" (Mvl.Histogram.max_value whole)
    (Mvl.Histogram.max_value merged);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d" p)
        (Mvl.Histogram.percentile whole p)
        (Mvl.Histogram.percentile merged p))
    [ 0; 25; 50; 95; 99; 100 ];
  Alcotest.(check bool) "pairs" true
    (Mvl.Histogram.to_pairs whole = Mvl.Histogram.to_pairs merged)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng matches int64 reference" `Quick
      test_rng_matches_reference;
    Alcotest.test_case "rng draws allocate nothing" `Quick
      test_rng_allocates_nothing;
    Alcotest.test_case "golden: hypercube uniform" `Quick
      test_golden_hypercube_uniform;
    Alcotest.test_case "golden: kary transpose latencies" `Quick
      test_golden_kary_transpose_latencies;
    Alcotest.test_case "golden: hypercube saturated" `Quick
      test_golden_hypercube_saturated;
    Alcotest.test_case "golden: hypercube:8 layout latencies" `Quick
      test_golden_layout_latencies;
    Alcotest.test_case "golden: clamped latencies" `Quick
      test_golden_clamped_latencies;
    Alcotest.test_case "zero horizon runs no cycle" `Quick test_zero_horizon;
    Alcotest.test_case "traffic patterns" `Quick test_traffic_patterns;
    Alcotest.test_case "bit reversal involution" `Quick
      test_bit_reversal_involution;
    Alcotest.test_case "hotspot validation" `Quick test_hotspot_validation;
    Alcotest.test_case "permutation bijectivity" `Quick
      test_permutation_bijectivity;
    Alcotest.test_case "percentile validation" `Quick
      test_percentile_validation;
    Alcotest.test_case "routing is minimal" `Quick test_routing_table_minimal;
    Alcotest.test_case "routing deterministic" `Quick test_routing_deterministic;
    Alcotest.test_case "low load delivers all" `Quick
      test_sim_delivers_everything_at_low_load;
    Alcotest.test_case "latency grows with load" `Quick
      test_sim_latency_grows_with_load;
    Alcotest.test_case "simulation reproducible" `Quick test_sim_reproducible;
    Alcotest.test_case "layers speed up the network" `Quick
      test_layout_latencies_improve_with_layers;
    Alcotest.test_case "saturation below bisection bound" `Quick
      test_saturation_below_bisection_bound;
    Alcotest.test_case "zero-load consistency" `Quick test_zero_load_matches_sim;
    Alcotest.test_case "sharded engine matches serial" `Quick
      test_sharded_matches_serial;
    Alcotest.test_case "routing table is domain-safe" `Quick
      test_routing_table_domain_safe;
    QCheck_alcotest.to_alcotest prop_routing_matches_reference;
    QCheck_alcotest.to_alcotest prop_sweep_matches_reference;
    Alcotest.test_case "unreachable components" `Quick
      test_unreachable_components;
    Alcotest.test_case "layout latencies from two domains" `Quick
      test_layout_latency_two_domains;
    Alcotest.test_case "traffic destination sets" `Quick
      test_traffic_destinations;
    Alcotest.test_case "histogram shard merge" `Quick test_histogram_merge;
  ]
