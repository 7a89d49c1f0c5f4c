open Mvl_topology

type line_edge = { edge_id : int; a : int; b : int; track : int }

type t = {
  graph : Graph.t;
  rows : int;
  cols : int;
  place : (int * int) array;
  node_at : int array array;
  row_off : int array;
  row_eid : int array;
  row_a : int array;
  row_b : int array;
  row_track : int array;
  col_off : int array;
  col_eid : int array;
  col_a : int array;
  col_b : int array;
  col_track : int array;
  row_tracks : int array;
  col_tracks : int array;
}

let create ?(jobs = 1) graph ~rows ~cols ~place =
  let t_place = Unix.gettimeofday () in
  let n = Graph.n graph in
  if rows * cols <> n then
    invalid_arg
      (Printf.sprintf "Orthogonal.create: %dx%d grid for %d nodes" rows cols n);
  let placements = Array.init n place in
  let node_at = Array.make_matrix rows cols (-1) in
  Array.iteri
    (fun u (r, c) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then
        invalid_arg "Orthogonal.create: placement out of grid";
      if node_at.(r).(c) >= 0 then
        invalid_arg "Orthogonal.create: two nodes on one grid cell";
      node_at.(r).(c) <- u)
    placements;
  (* two-pass counting sort of edges into per-line CSR columns: count,
     prefix-sum, fill.  Each line's edges end up in ascending edge id
     order; nothing downstream depends on intra-line order (terminals
     re-sort incidence, emission is reordered by wire id at build). *)
  let row_off = Array.make (rows + 1) 0 and col_off = Array.make (cols + 1) 0 in
  Graph.iter_edges graph (fun u v ->
      let ru, cu = placements.(u) and rv, cv = placements.(v) in
      if ru = rv && cu <> cv then row_off.(ru + 1) <- row_off.(ru + 1) + 1
      else if cu = cv && ru <> rv then col_off.(cu + 1) <- col_off.(cu + 1) + 1
      else
        invalid_arg
          (Printf.sprintf
             "Orthogonal.create: edge %d-%d is not row- or column-aligned" u v));
  for r = 1 to rows do
    row_off.(r) <- row_off.(r) + row_off.(r - 1)
  done;
  for c = 1 to cols do
    col_off.(c) <- col_off.(c) + col_off.(c - 1)
  done;
  let rm = row_off.(rows) and cm = col_off.(cols) in
  let row_eid = Array.make rm 0
  and row_a = Array.make rm 0
  and row_b = Array.make rm 0
  and row_track = Array.make rm 0 in
  let col_eid = Array.make cm 0
  and col_a = Array.make cm 0
  and col_b = Array.make cm 0
  and col_track = Array.make cm 0 in
  let row_cur = Array.copy row_off and col_cur = Array.copy col_off in
  let next_eid = ref 0 in
  Graph.iter_edges graph (fun u v ->
      let e = !next_eid in
      incr next_eid;
      let ru, cu = placements.(u) and rv, cv = placements.(v) in
      if ru = rv then begin
        let k = row_cur.(ru) in
        row_cur.(ru) <- k + 1;
        row_eid.(k) <- e;
        row_a.(k) <- min cu cv;
        row_b.(k) <- max cu cv
      end
      else begin
        let k = col_cur.(cu) in
        col_cur.(cu) <- k + 1;
        col_eid.(k) <- e;
        col_a.(k) <- min ru rv;
        col_b.(k) <- max ru rv
      end);
  Layout_profile.record Place (Unix.gettimeofday () -. t_place);
  (* per-line track packing: lines are independent, so a unified line
     index [0, rows + cols) shards across domains in contiguous chunks;
     each line writes only its own track slice and tracks cell, and the
     result per line is deterministic, so output is identical at every
     job count *)
  let t_pack = Unix.gettimeofday () in
  let row_tracks = Array.make rows 0 and col_tracks = Array.make cols 0 in
  let pack_range s line_lo line_hi =
    for line = line_lo to line_hi - 1 do
      if line < rows then
        row_tracks.(line) <-
          Track_assign.greedy_into s ~lo:row_a ~hi:row_b ~track:row_track
            ~off:row_off.(line)
            ~len:(row_off.(line + 1) - row_off.(line))
      else begin
        let c = line - rows in
        col_tracks.(c) <-
          Track_assign.greedy_into s ~lo:col_a ~hi:col_b ~track:col_track
            ~off:col_off.(c)
            ~len:(col_off.(c + 1) - col_off.(c))
      end
    done
  in
  let lines = rows + cols in
  let jobs = min jobs lines in
  if jobs <= 1 then pack_range (Track_assign.scratch ()) 0 lines
  else begin
    let workers = Array.init jobs (fun w -> w) in
    let _, _stats =
      Mvl_pool.Domain_pool.map ~domains:jobs
        ~f:(fun w ->
          pack_range (Track_assign.scratch ()) (w * lines / jobs)
            ((w + 1) * lines / jobs))
        workers
    in
    ()
  end;
  Layout_profile.record Pack (Unix.gettimeofday () -. t_pack);
  {
    graph;
    rows;
    cols;
    place = placements;
    node_at;
    row_off;
    row_eid;
    row_a;
    row_b;
    row_track;
    col_off;
    col_eid;
    col_a;
    col_b;
    col_track;
    row_tracks;
    col_tracks;
  }

let of_product ?jobs ~row_factor ~col_factor graph =
  let na = Graph.n row_factor.Collinear.graph in
  let nb = Graph.n col_factor.Collinear.graph in
  if na * nb <> Graph.n graph then
    invalid_arg "Orthogonal.of_product: factor sizes do not match";
  let place v =
    let x = v mod na and y = v / na in
    (col_factor.Collinear.position.(y), row_factor.Collinear.position.(x))
  in
  create ?jobs graph ~rows:nb ~cols:na ~place

let row_edge_count t r = t.row_off.(r + 1) - t.row_off.(r)
let col_edge_count t c = t.col_off.(c + 1) - t.col_off.(c)

let row_edges t r =
  Array.init (row_edge_count t r) (fun i ->
      let k = t.row_off.(r) + i in
      {
        edge_id = t.row_eid.(k);
        a = t.row_a.(k);
        b = t.row_b.(k);
        track = t.row_track.(k);
      })

let col_edges t c =
  Array.init (col_edge_count t c) (fun i ->
      let k = t.col_off.(c) + i in
      {
        edge_id = t.col_eid.(k);
        a = t.col_a.(k);
        b = t.col_b.(k);
        track = t.col_track.(k);
      })
