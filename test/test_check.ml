(* Negative tests: the verifier must actually catch broken geometry. *)
open Mvl_core

let pt x y z = Mvl.Point.make ~x ~y ~z

let two_node_graph = Mvl.Graph.of_edges ~n:2 [ (0, 1) ]

let simple_nodes =
  [|
    Mvl.Rect.make ~x0:0 ~y0:0 ~x1:2 ~y1:2;
    Mvl.Rect.make ~x0:10 ~y0:0 ~x1:12 ~y1:2;
  |]

let wire_of points = Mvl.Wire.make ~edge:(0, 1) points

(* rises from node 0's top, runs above the nodes, drops into node 1 *)
let good_layout =
  Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes:simple_nodes
    ~wires:
      [|
        wire_of
          [ pt 1 2 1; pt 1 2 2; pt 1 4 2; pt 1 4 1; pt 11 4 1; pt 11 4 2; pt 11 2 2; pt 11 2 1 ];
      |]
    ()

let rule_of_violations violations =
  List.map (fun v -> v.Mvl.Check.rule) violations

let test_good_layout_passes () =
  Alcotest.(check (list string)) "no violations" []
    (rule_of_violations (Mvl.Check.validate good_layout))

let test_layer_range () =
  let lay =
    Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes:simple_nodes
      ~wires:[| wire_of [ pt 1 2 1; pt 1 2 3; pt 11 2 3; pt 11 2 1 ] |] ()
  in
  Alcotest.(check bool) "layer overflow caught" true
    (List.mem "layer-range" (rule_of_violations (Mvl.Check.validate lay)))

let test_node_overlap () =
  let nodes =
    [| Mvl.Rect.make ~x0:0 ~y0:0 ~x1:4 ~y1:2; Mvl.Rect.make ~x0:3 ~y0:0 ~x1:7 ~y1:2 |]
  in
  let lay =
    Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes
      ~wires:[| wire_of [ pt 1 2 1; pt 1 3 1; pt 6 3 1; pt 6 2 1 ] |] ()
  in
  Alcotest.(check bool) "overlapping footprints caught" true
    (List.mem "node-overlap" (rule_of_violations (Mvl.Check.validate lay)))

let test_terminal_mismatch () =
  (* wire endpoints float in space rather than on the node boundary *)
  let lay =
    Mvl.Layout.make ~graph:two_node_graph ~layers:2 ~nodes:simple_nodes
      ~wires:[| wire_of [ pt 5 5 1; pt 6 5 1 ] |] ()
  in
  Alcotest.(check bool) "bad terminal caught" true
    (List.mem "terminal" (rule_of_violations (Mvl.Check.validate lay)))

let test_foreign_node_crossing () =
  (* a third node sits in the wire's path on layer 1 *)
  let graph = Mvl.Graph.of_edges ~n:3 [ (0, 1) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:2 ~y1:2;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:12 ~y1:2;
      Mvl.Rect.make ~x0:5 ~y0:0 ~x1:7 ~y1:2;
    |]
  in
  let lay =
    Mvl.Layout.make ~graph ~layers:2 ~nodes
      ~wires:[| wire_of [ pt 2 1 1; pt 10 1 1 ] |] ()
  in
  Alcotest.(check bool) "foreign node hit caught" true
    (List.mem "node-hit" (rule_of_violations (Mvl.Check.validate lay)))

let overlapping_wires_layout () =
  (* two wires sharing a horizontal run on the same layer *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:2 ~y1:2;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:12 ~y1:2;
      Mvl.Rect.make ~x0:0 ~y0:10 ~x1:2 ~y1:12;
      Mvl.Rect.make ~x0:10 ~y0:10 ~x1:12 ~y1:12;
    |]
  in
  let w1 = wire_of [ pt 1 2 1; pt 1 5 1; pt 11 5 1; pt 11 2 1 ] in
  let w2 =
    Mvl.Wire.make ~edge:(2, 3) [ pt 2 11 1; pt 5 11 1; pt 5 5 1; pt 8 5 1; pt 8 11 1; pt 10 11 1 ]
  in
  Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] ()

let test_wire_overlap () =
  let rules = rule_of_violations (Mvl.Check.validate (overlapping_wires_layout ())) in
  Alcotest.(check bool) "same-line overlap caught" true
    (List.mem "overlap" rules)

let crossing_layout () =
  (* two wires crossing at a point on the same layer *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:4 ~x1:1 ~y1:5;
      Mvl.Rect.make ~x0:10 ~y0:4 ~x1:11 ~y1:5;
      Mvl.Rect.make ~x0:4 ~y0:0 ~x1:5 ~y1:1;
      Mvl.Rect.make ~x0:4 ~y0:10 ~x1:5 ~y1:11;
    |]
  in
  (* horizontal wire through y=4.5 region: runs at y=4 between nodes *)
  let w1 = Mvl.Wire.make ~edge:(0, 1) [ pt 1 4 1; pt 10 4 1 ] in
  (* vertical wire crossing it at (4,4) on the same layer *)
  let w2 = Mvl.Wire.make ~edge:(2, 3) [ pt 4 1 1; pt 4 10 1 ] in
  Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] ()

let test_crossing_strict_vs_thompson () =
  let lay = crossing_layout () in
  Alcotest.(check bool) "strict rejects point crossing" true
    (List.mem "crossing"
       (rule_of_violations (Mvl.Check.validate ~mode:Mvl.Check.Strict lay)));
  Alcotest.(check bool) "thompson allows interior crossing" false
    (List.mem "crossing"
       (rule_of_violations (Mvl.Check.validate ~mode:Mvl.Check.Thompson lay)))

let test_knock_knee_rejected_in_thompson () =
  (* crossing exactly at a wire's bend: a knock-knee, illegal even under
     Thompson *)
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:4 ~x1:1 ~y1:5;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:11 ~y1:1;
      Mvl.Rect.make ~x0:4 ~y0:8 ~x1:5 ~y1:9;
      Mvl.Rect.make ~x0:6 ~y0:8 ~x1:7 ~y1:9;
    |]
  in
  (* w1 turns left->down at (4,4); w2 turns up->right at the same point:
     the arms are disjoint except for the shared bend — a knock-knee *)
  let w1 = Mvl.Wire.make ~edge:(0, 1) [ pt 1 4 1; pt 4 4 1; pt 4 0 1; pt 10 0 1 ] in
  let w2 = Mvl.Wire.make ~edge:(2, 3) [ pt 4 8 1; pt 4 4 1; pt 6 4 1; pt 6 8 1 ] in
  let lay = Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] () in
  Alcotest.(check bool) "knock-knee rejected" true
    (rule_of_violations (Mvl.Check.validate ~mode:Mvl.Check.Thompson lay) <> [])

let test_via_collision () =
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:1 ~y1:1;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:11 ~y1:1;
      Mvl.Rect.make ~x0:0 ~y0:10 ~x1:1 ~y1:11;
      Mvl.Rect.make ~x0:10 ~y0:10 ~x1:11 ~y1:11;
    |]
  in
  (* both wires drop a via at (5,5) *)
  let w1 =
    Mvl.Wire.make ~edge:(0, 1)
      [ pt 1 1 1; pt 5 1 1; pt 5 5 1; pt 5 5 2; pt 10 5 2; pt 10 1 2; pt 10 1 1 ]
  in
  let w2 =
    Mvl.Wire.make ~edge:(2, 3)
      [ pt 1 10 1; pt 5 10 1; pt 5 5 1; pt 5 5 2; pt 10 5 2; pt 10 10 2; pt 10 10 1 ]
  in
  let lay = Mvl.Layout.make ~graph ~layers:2 ~nodes ~wires:[| w1; w2 |] () in
  let rules = rule_of_violations (Mvl.Check.validate lay) in
  Alcotest.(check bool) "via collision caught" true
    (List.exists (fun r -> r = "via-overlap" || r = "overlap") rules)

let test_via_pierces_run () =
  let graph = Mvl.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let nodes =
    [|
      Mvl.Rect.make ~x0:0 ~y0:0 ~x1:1 ~y1:1;
      Mvl.Rect.make ~x0:10 ~y0:0 ~x1:11 ~y1:1;
      Mvl.Rect.make ~x0:0 ~y0:6 ~x1:1 ~y1:7;
      Mvl.Rect.make ~x0:10 ~y0:6 ~x1:11 ~y1:7;
    |]
  in
  (* w2 runs horizontally on layer 2 at y=3 passing x=5; w1 vias through
     layer 2 at (5,3) *)
  let w1 =
    Mvl.Wire.make ~edge:(0, 1)
      [ pt 1 1 1; pt 5 1 1; pt 5 3 1; pt 5 3 3; pt 10 3 3; pt 10 1 3; pt 10 1 1 ]
  in
  let w2 =
    Mvl.Wire.make ~edge:(2, 3)
      [ pt 1 6 1; pt 1 3 1; pt 1 3 2; pt 9 3 2; pt 9 6 2; pt 9 6 1; pt 10 6 1 ]
  in
  let lay = Mvl.Layout.make ~graph ~layers:3 ~nodes ~wires:[| w1; w2 |] () in
  let rules = rule_of_violations (Mvl.Check.validate lay) in
  Alcotest.(check bool) "via piercing caught" true (List.mem "via-run" rules)

let test_max_violations_limit () =
  let lay = overlapping_wires_layout () in
  let all = Mvl.Check.validate ~max_violations:1 lay in
  Alcotest.(check int) "limit respected" 1 (List.length all)

let test_truncation_flagged () =
  (* a result with exactly [max_violations] entries used to look
     complete; Check.run now says whether the cap was hit *)
  let lay = overlapping_wires_layout () in
  let capped = Mvl.Check.run ~max_violations:1 lay in
  Alcotest.(check int) "capped to one" 1
    (List.length capped.Mvl.Check.violations);
  Alcotest.(check bool) "capped result flagged truncated" true
    capped.Mvl.Check.truncated;
  let full = Mvl.Check.run lay in
  Alcotest.(check bool) "default cap not reached here" false
    full.Mvl.Check.truncated;
  Alcotest.(check bool) "mode recorded" true
    (full.Mvl.Check.mode = Mvl.Check.Strict);
  (* validate stays the plain list view of run *)
  Alcotest.(check int) "validate = run.violations"
    (List.length full.Mvl.Check.violations)
    (List.length (Mvl.Check.validate lay))

let test_sharded_matches_sequential () =
  (* the domain-sharded sweeps must reproduce the sequential result
     exactly — violations, order, truncation flag — on both a clean
     and a broken layout, at several job counts *)
  let layouts =
    [
      ("valid", Mvl.Pipeline.layout_exn ~cache:false ~layers:4 "hypercube:6");
      ("broken", overlapping_wires_layout ());
    ]
  in
  List.iter
    (fun (name, lay) ->
      let seq = Mvl.Check.run ~jobs:1 lay in
      List.iter
        (fun jobs ->
          let par = Mvl.Check.run ~jobs lay in
          Alcotest.(check bool)
            (Printf.sprintf "%s identical at jobs=%d" name jobs)
            true (par = seq))
        [ 2; 4; 7 ];
      (* the cap behaves identically too *)
      let seq1 = Mvl.Check.run ~jobs:1 ~max_violations:1 lay in
      let par1 = Mvl.Check.run ~jobs:4 ~max_violations:1 lay in
      Alcotest.(check bool)
        (Printf.sprintf "%s capped result identical" name)
        true (par1 = seq1))
    layouts

(* --- order pinning: via-run and node-overlap ------------------------ *)

(* A brute-force reference for the two rules Check.run answers with
   stabbing queries, emitting their reports in the order the checker has
   always used.  Vias are visited sorted by (x, y, lower layer,
   generation index); on each layer a via spans, every H run on its row
   and then every V run on its column is tested, a line's runs taken by
   (span start, generation index).  The generation index numbers the
   segments wire by wire, in path order. *)
type ref_run = { gen : int; wire : int; k1 : int; k2 : int; lo : int; hi : int }

(* H runs: k1 = z, k2 = y, span x; V runs: k1 = z, k2 = x, span y; vias:
   k1 = x, k2 = y, span z — each list sorted by (k1, k2, lo, gen) *)
let ref_segments (lay : Mvl.Layout.t) =
  let h = ref [] and v = ref [] and z = ref [] and gen = ref 0 in
  Array.iteri
    (fun wire (w : Mvl.Wire.t) ->
      let p = w.Mvl.Wire.points in
      for k = 0 to Array.length p - 2 do
        let a = p.(k) and b = p.(k + 1) in
        let run k1 k2 lo hi =
          { gen = !gen; wire; k1; k2; lo = min lo hi; hi = max lo hi }
        in
        let open Mvl.Point in
        (if a.x <> b.x then h := run a.z a.y a.x b.x :: !h
         else if a.y <> b.y then v := run a.z a.x a.y b.y :: !v
         else z := run a.x a.y a.z b.z :: !z);
        incr gen
      done)
    (Mvl.Layout.wires lay);
  let sorted l =
    List.sort
      (fun r s -> compare (r.k1, r.k2, r.lo, r.gen) (s.k1, s.k2, s.lo, s.gen))
      l
  in
  (sorted !h, sorted !v, sorted !z)

let reference_via_runs lay =
  let h, v, vias = ref_segments lay in
  List.concat_map
    (fun via ->
      let x = via.k1 and y = via.k2 in
      List.concat_map
        (fun z ->
          let pierced runs line at =
            List.filter_map
              (fun r ->
                if
                  r.k1 = z && r.k2 = line && r.wire <> via.wire && r.lo <= at
                  && at <= r.hi
                then
                  Some
                    ( "via-run",
                      Printf.sprintf
                        "via of wire %d pierces run of wire %d at (%d,%d,%d)"
                        via.wire r.wire x y z )
                else None)
              runs
          in
          pierced h y x @ pierced v x y)
        (List.init (via.hi - via.lo + 1) (fun i -> via.lo + i)))
    vias

(* every node pair on one active layer, in the order of a sweep over the
   nodes sorted by x0 with [Array.sort] — ties keep the order that sort
   leaves them in *)
let reference_node_overlaps (lay : Mvl.Layout.t) =
  let nodes = Mvl.Layout.nodes lay and layer = Mvl.Layout.node_layers lay in
  let n = Array.length nodes in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> Int.compare nodes.(a).Mvl.Rect.x0 nodes.(b).Mvl.Rect.x0)
    order;
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j ->
             let a = order.(i) and b = order.(j) in
             if layer.(a) = layer.(b) && Mvl.Rect.overlaps nodes.(a) nodes.(b)
             then
               Some
                 ( "node-overlap",
                   Format.asprintf "nodes %d and %d overlap: %a vs %a" a b
                     Mvl.Rect.pp nodes.(a) Mvl.Rect.pp nodes.(b) )
             else None)
           (List.init (n - i - 1) (fun k -> i + 1 + k))))

let reported rule (r : Mvl.Check.result) =
  List.filter_map
    (fun (v : Mvl.Check.violation) ->
      if v.Mvl.Check.rule = rule then Some (rule, v.Mvl.Check.detail) else None)
    r.Mvl.Check.violations

let pairs = Alcotest.(list (pair string string))

(* move node [victim] so its corner lands near node [onto]'s *)
let translate_node lay ~victim ~onto ~dx ~dy =
  let nodes = Array.copy (Mvl.Layout.nodes lay) in
  let r = nodes.(victim) and t = nodes.(onto) in
  let ox = t.Mvl.Rect.x0 + dx - r.Mvl.Rect.x0
  and oy = t.Mvl.Rect.y0 + dy - r.Mvl.Rect.y0 in
  nodes.(victim) <-
    Mvl.Rect.make ~x0:(r.Mvl.Rect.x0 + ox) ~y0:(r.Mvl.Rect.y0 + oy)
      ~x1:(r.Mvl.Rect.x1 + ox) ~y1:(r.Mvl.Rect.y1 + oy);
  Mvl.Layout.make ~graph:(Mvl.Layout.graph lay)
    ~layers:(Mvl.Layout.layers lay)
    ~node_layers:(Mvl.Layout.node_layers lay) ~nodes
    ~wires:(Mvl.Layout.wires lay) ()

(* shift wire [victim] so that one of its in-plane runs passes through a
   via of another wire on a layer the via spans; [pick] chooses the
   (run, via, point) triple *)
let shift_onto_via lay ~victim ~pick =
  let h, v, vias = ref_segments lay in
  let mine = List.filter (fun r -> r.wire = victim) in
  let moves =
    List.concat_map
      (fun via ->
        if via.wire = victim then []
        else
          let on_layer r = via.lo <= r.k1 && r.k1 <= via.hi in
          List.map
            (fun r ->
              (* an H run's row goes to the via's y, a point of its span
                 to the via's x *)
              let at = r.lo + (pick mod (r.hi - r.lo + 1)) in
              (via.k1 - at, via.k2 - r.k2))
            (List.filter on_layer (mine h))
          @ List.map
              (fun r ->
                let at = r.lo + (pick mod (r.hi - r.lo + 1)) in
                (via.k1 - r.k2, via.k2 - at))
              (List.filter on_layer (mine v)))
      vias
  in
  match moves with
  | [] -> lay
  | _ ->
      let dx, dy = List.nth moves (pick mod List.length moves) in
      let wires = Array.copy (Mvl.Layout.wires lay) in
      wires.(victim) <- Test_mutations.shift_wire wires.(victim) ~dx ~dy;
      Test_mutations.with_wires lay wires

(* give wire [victim] the route of wire [donor] *)
let clone_route lay ~victim ~donor =
  let wires = Array.copy (Mvl.Layout.wires lay) in
  wires.(victim) <-
    { (wires.(donor)) with Mvl.Wire.edge = wires.(victim).Mvl.Wire.edge };
  Test_mutations.with_wires lay wires

let small_layouts =
  lazy
    (Array.of_list
       (List.map
          (fun fam -> fam.Mvl.Families.layout ~layers:4)
          (Mvl.Registry.all_small ())))

let prop_stabbing_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"via-run and node-overlap reports match the reference, in order"
    QCheck.(quad (int_bound 10_000) (int_bound 2) (int_bound 10_000)
              (int_bound 10_000))
    (fun (which, mutation, i, j) ->
      let layouts = Lazy.force small_layouts in
      let lay = layouts.(which mod Array.length layouts) in
      let n_nodes = Array.length (Mvl.Layout.nodes lay) in
      let n_wires = Array.length (Mvl.Layout.wires lay) in
      let mutated =
        match mutation with
        | 0 ->
            translate_node lay ~victim:(i mod n_nodes) ~onto:(j mod n_nodes)
              ~dx:((j mod 5) - 2) ~dy:((i mod 5) - 2)
        | 1 -> shift_onto_via lay ~victim:(i mod n_wires) ~pick:j
        | _ -> clone_route lay ~victim:(i mod n_wires) ~donor:(j mod n_wires)
      in
      let via_runs = reference_via_runs mutated in
      let overlaps = reference_node_overlaps mutated in
      List.for_all
        (fun jobs ->
          let r = Mvl.Check.run ~max_violations:max_int ~jobs mutated in
          reported "via-run" r = via_runs
          && reported "node-overlap" r = overlaps)
        [ 1; 4 ])

let dot x y = Mvl.Rect.make ~x0:x ~y0:y ~x1:x ~y1:y

(* Row y=10 of layer 2 carries runs of wires 0 (x 0..20), 1 (x 4..8,
   inside wire 0's) and 2 (x 24..30).  Wires 3-6 drop a via through the
   row at x = 6, 12, 27 and 22; wire 1's own terminal vias at x = 4 and
   8 pierce wire 0's run; wire 7 runs up column x=12 of layer 2, where
   wire 4's via pierces it right after wire 0's run. *)
let pierced_line () =
  let on_line a b = [ pt a 10 1; pt a 10 2; pt b 10 2; pt b 10 1 ] in
  let drop x = [ pt x 0 1; pt x 0 3; pt x 10 3; pt x 10 1; pt x 15 1 ] in
  let routes =
    [
      ((dot 0 10, dot 20 10), on_line 0 20);
      ((dot 4 10, dot 8 10), on_line 4 8);
      ((dot 24 10, dot 30 10), on_line 24 30);
      ((dot 6 0, dot 6 15), drop 6);
      ((dot 12 0, dot 12 15), drop 12);
      ((dot 27 0, dot 27 15), drop 27);
      ((dot 22 0, dot 22 15), drop 22);
      ( (dot 13 8, dot 13 12),
        [ pt 13 8 1; pt 13 8 2; pt 12 8 2; pt 12 12 2; pt 13 12 2; pt 13 12 1 ]
      );
    ]
  in
  (* wire i joins nodes 2i and 2i+1 *)
  let edges = List.mapi (fun i _ -> (2 * i, (2 * i) + 1)) routes in
  let nodes =
    Array.of_list (List.concat_map (fun ((a, b), _) -> [ a; b ]) routes)
  in
  let wires =
    Array.of_list
      (List.map2 (fun edge (_, r) -> Mvl.Wire.make ~edge r) edges routes)
  in
  Mvl.Layout.make
    ~graph:(Mvl.Graph.of_edges ~n:(Array.length nodes) edges)
    ~layers:3 ~nodes ~wires ()

(* four footprints share x0 = 0 and several pairs overlap; node 7
   coincides with node 0 on another active layer *)
let shared_x0 () =
  let r x0 y0 x1 y1 = Mvl.Rect.make ~x0 ~y0 ~x1 ~y1 in
  let nodes =
    [|
      r 0 0 4 4;
      r 0 3 2 6;
      r 0 6 6 8;
      r 2 2 5 3;
      r 10 0 12 2;
      r 0 20 1 21;
      r 4 4 4 9;
      r 0 0 4 4;
      r 5 7 9 7;
    |]
  in
  Mvl.Layout.make
    ~graph:(Mvl.Graph.of_edges ~n:(Array.length nodes) [])
    ~layers:2 ~node_layers:[| 1; 1; 1; 1; 1; 1; 1; 2; 1 |] ~nodes ~wires:[||]
    ()

(* full reports at max_violations 10 000; the caps 1 and 3 keep a prefix
   and flag truncation *)
let pierced_line_reports =
  [
    ("overlap", "horizontal runs of wires 0 and 1 share x/y=4..");
    ("crossing", "wires 0 and 7 meet at (12,10,z=2)");
    ("via-run", "via of wire 1 pierces run of wire 0 at (4,10,2)");
    ("via-run", "via of wire 3 pierces run of wire 0 at (6,10,2)");
    ("via-run", "via of wire 3 pierces run of wire 1 at (6,10,2)");
    ("via-run", "via of wire 1 pierces run of wire 0 at (8,10,2)");
    ("via-run", "via of wire 4 pierces run of wire 0 at (12,10,2)");
    ("via-run", "via of wire 4 pierces run of wire 7 at (12,10,2)");
    ("via-run", "via of wire 5 pierces run of wire 2 at (27,10,2)");
  ]

let shared_x0_reports =
  [
    ("node-overlap", "nodes 0 and 1 overlap: [0..4]x[0..4] vs [0..2]x[3..6]");
    ("node-overlap", "nodes 0 and 3 overlap: [0..4]x[0..4] vs [2..5]x[2..3]");
    ("node-overlap", "nodes 0 and 6 overlap: [0..4]x[0..4] vs [4..4]x[4..9]");
    ("node-overlap", "nodes 2 and 1 overlap: [0..6]x[6..8] vs [0..2]x[3..6]");
    ("node-overlap", "nodes 2 and 6 overlap: [0..6]x[6..8] vs [4..4]x[4..9]");
    ("node-overlap", "nodes 2 and 8 overlap: [0..6]x[6..8] vs [5..9]x[7..7]");
    ("node-overlap", "nodes 1 and 3 overlap: [0..2]x[3..6] vs [2..5]x[2..3]");
  ]

let check_pinned name lay expected () =
  List.iter
    (fun (cap, truncated) ->
      List.iter
        (fun jobs ->
          let r = Mvl.Check.run ~max_violations:cap ~jobs lay in
          let label = Printf.sprintf "%s cap %d jobs %d" name cap jobs in
          Alcotest.check pairs label
            (List.filteri (fun i _ -> i < cap) expected)
            (List.map
               (fun (v : Mvl.Check.violation) ->
                 (v.Mvl.Check.rule, v.Mvl.Check.detail))
               r.Mvl.Check.violations);
          Alcotest.(check bool) (label ^ " truncated") truncated
            r.Mvl.Check.truncated)
        [ 1; 4 ])
    [ (1, true); (3, true); (10_000, false) ];
  (* the reference agrees with the pinned lists *)
  let full = Mvl.Check.run ~max_violations:10_000 lay in
  Alcotest.check pairs (name ^ " via-run reference") (reference_via_runs lay)
    (reported "via-run" full);
  Alcotest.check pairs (name ^ " node-overlap reference")
    (reference_node_overlaps lay)
    (reported "node-overlap" full)

let suite =
  [
    Alcotest.test_case "hand-built good layout passes" `Quick
      test_good_layout_passes;
    Alcotest.test_case "layer range" `Quick test_layer_range;
    Alcotest.test_case "node overlap" `Quick test_node_overlap;
    Alcotest.test_case "terminal mismatch" `Quick test_terminal_mismatch;
    Alcotest.test_case "foreign node crossing" `Quick test_foreign_node_crossing;
    Alcotest.test_case "wire overlap" `Quick test_wire_overlap;
    Alcotest.test_case "strict vs thompson crossings" `Quick
      test_crossing_strict_vs_thompson;
    Alcotest.test_case "knock-knee in thompson" `Quick
      test_knock_knee_rejected_in_thompson;
    Alcotest.test_case "via collision" `Quick test_via_collision;
    Alcotest.test_case "via pierces run" `Quick test_via_pierces_run;
    Alcotest.test_case "violation limit" `Quick test_max_violations_limit;
    Alcotest.test_case "truncation flagged" `Quick test_truncation_flagged;
    Alcotest.test_case "sharded check matches sequential" `Quick
      test_sharded_matches_sequential;
    Alcotest.test_case "pinned via-run order" `Quick
      (check_pinned "pierced line" (pierced_line ()) pierced_line_reports);
    Alcotest.test_case "pinned node-overlap order" `Quick
      (check_pinned "shared x0" (shared_x0 ()) shared_x0_reports);
    QCheck_alcotest.to_alcotest prop_stabbing_matches_reference;
  ]
