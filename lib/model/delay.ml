open Mvl_topology
open Mvl_layout

type params = {
  t_node : float;
  t_drive : float;
  rc : float;
  via_penalty : float;
  repeater_every : int;
}

let default =
  { t_node = 20.0; t_drive = 1.0; rc = 0.01; via_penalty = 0.5; repeater_every = 0 }

let with_repeaters every =
  if every < 1 then invalid_arg "Delay.with_repeaters";
  { default with repeater_every = every }

let wire_delay p ~length ~vias =
  let quadratic len = p.rc *. float_of_int (len * len) /. 2.0 in
  let wire_term =
    if p.repeater_every <= 0 || length <= p.repeater_every then
      quadratic length
    else begin
      (* full segments plus the remainder; each repeater re-drives *)
      let segments = length / p.repeater_every in
      let remainder = length mod p.repeater_every in
      (float_of_int segments *. (quadratic p.repeater_every +. p.t_drive))
      +. quadratic remainder
    end
  in
  p.t_drive +. wire_term +. (p.via_penalty *. float_of_int vias)

(* one delay per wire, read straight from the geometry columns: the
   in-plane length, and the vias as the rest of the full length *)
let wire_delays p (layout : Layout.t) =
  let g = Layout.geom layout in
  Array.init g.Geom.n_wires (fun i ->
      let xy = Geom.wire_length_xy g i in
      wire_delay p ~length:xy ~vias:(Geom.wire_length g i - xy))

let slowest_wire p layout = Array.fold_left max 0.0 (wire_delays p layout)

let worst_route_latency ?(samples = 8) p (layout : Layout.t) =
  let graph = Layout.graph layout in
  let edge_delay =
    Layout.edge_column layout ~missing:nan (Array.get (wire_delays p layout))
  in
  let delay_at s =
    let d = edge_delay.(s) in
    if Float.is_nan d then raise Not_found;
    d
  in
  let row = Graph.row_offsets graph and adj = Graph.adjacency graph in
  let n = Graph.n graph in
  let best_from src =
    let dist = Graph.bfs_dist graph src in
    let best = Array.make n infinity in
    best.(src) <- 0.0;
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> Int.compare dist.(a) dist.(b)) order;
    Array.iter
      (fun v ->
        if dist.(v) > 0 && dist.(v) < max_int then
          for s = row.(v) to row.(v + 1) - 1 do
            let u = adj.(s) in
            if dist.(u) = dist.(v) - 1 && best.(u) < infinity then begin
              let candidate = best.(u) +. p.t_node +. delay_at s in
              if candidate < best.(v) then best.(v) <- candidate
            end
          done)
      order;
    Array.fold_left
      (fun acc b -> if b < infinity && b > acc then b else acc)
      0.0 best
  in
  let step = max 1 (n / max 1 samples) in
  let worst = ref 0.0 in
  let src = ref 0 in
  while !src < n do
    let b = best_from !src in
    if b > !worst then worst := b;
    src := !src + step
  done;
  !worst
