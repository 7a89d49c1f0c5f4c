open Mvl_topology
open Mvl_layout

type t = {
  graph : Graph.t;
  (* in-plane wire length per directed edge, aligned with
     [Graph.adjacency] (both slots of an edge hold its wire's length);
     -1 for an edge the layout has no wire for *)
  lengths : int array;
  max_wire : int;
}

let of_layout (layout : Layout.t) =
  let geom = Layout.geom layout in
  let lens = Array.init geom.Geom.n_wires (Geom.wire_length_xy geom) in
  {
    graph = Layout.graph layout;
    lengths = Layout.edge_column layout ~missing:(-1) (Array.get lens);
    max_wire = Array.fold_left max 0 lens;
  }

let length_at t s =
  let len = t.lengths.(s) in
  if len < 0 then raise Not_found;
  len

let edge_length t u v =
  let s = Graph.slot t.graph u v in
  if s < 0 then raise Not_found;
  length_at t s

let best_path_wire t ~src =
  let n = Graph.n t.graph in
  let dist = Graph.bfs_dist t.graph src in
  let best = Array.make n max_int in
  best.(src) <- 0;
  (* relax nodes in increasing BFS distance: every hop-shortest path
     enters a node from a predecessor one BFS level below *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare dist.(a) dist.(b)) order;
  let row = Graph.row_offsets t.graph and adj = Graph.adjacency t.graph in
  Array.iter
    (fun v ->
      if dist.(v) > 0 && dist.(v) < max_int then
        for s = row.(v) to row.(v + 1) - 1 do
          let u = adj.(s) in
          if dist.(u) = dist.(v) - 1 && best.(u) < max_int then begin
            let candidate = best.(u) + length_at t s in
            if candidate < best.(v) then best.(v) <- candidate
          end
        done)
    order;
  best

let max_path_wire ?(samples = 16) t =
  let n = Graph.n t.graph in
  let step = max 1 (n / max 1 samples) in
  let worst = ref 0 in
  let src = ref 0 in
  while !src < n do
    Array.iter
      (fun b -> if b < max_int && b > !worst then worst := b)
      (best_path_wire t ~src:!src);
    src := !src + step
  done;
  !worst

let max_wire t = t.max_wire
