type t = {
  n : int;
  (* CSR adjacency: neighbours of u are adj.(row.(u)) .. adj.(row.(u+1)-1),
     sorted increasingly. *)
  row : int array;
  adj : int array;
  (* Edges with u < v, sorted lexicographically. *)
  edge_list : (int * int) array;
}

let check_endpoint n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" u n)

let of_edges_array ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let norm (u, v) =
    check_endpoint n u;
    check_endpoint n v;
    if u = v then invalid_arg (Printf.sprintf "Graph: self-loop at %d" u);
    if u < v then (u, v) else (v, u)
  in
  let normalized = Array.map norm edges in
  Array.sort
    (fun (u1, v1) (u2, v2) ->
      match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
    normalized;
  (* dedupe *)
  let uniq = ref [] in
  let last = ref (-1, -1) in
  Array.iter
    (fun e ->
      if e <> !last then begin
        uniq := e :: !uniq;
        last := e
      end)
    normalized;
  let edge_list = Array.of_list (List.rev !uniq) in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edge_list;
  let row = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row.(u + 1) <- row.(u) + deg.(u)
  done;
  let adj = Array.make row.(n) 0 in
  let cursor = Array.copy row in
  Array.iter
    (fun (u, v) ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    edge_list;
  for u = 0 to n - 1 do
    let lo = row.(u) and hi = row.(u + 1) in
    let slice = Array.sub adj lo (hi - lo) in
    Array.sort Int.compare slice;
    Array.blit slice 0 adj lo (hi - lo)
  done;
  { n; row; adj; edge_list }

let of_edges ~n edges = of_edges_array ~n (Array.of_list edges)
let n g = g.n
let m g = Array.length g.edge_list

let degree g u =
  check_endpoint g.n u;
  g.row.(u + 1) - g.row.(u)

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    let d = g.row.(u + 1) - g.row.(u) in
    if d > !best then best := d
  done;
  !best

let min_degree g =
  if g.n = 0 then 0
  else begin
    let best = ref max_int in
    for u = 0 to g.n - 1 do
      let d = g.row.(u + 1) - g.row.(u) in
      if d < !best then best := d
    done;
    !best
  end

let is_regular g = g.n = 0 || max_degree g = min_degree g

let neighbors g u =
  check_endpoint g.n u;
  Array.sub g.adj g.row.(u) (g.row.(u + 1) - g.row.(u))

let iter_neighbors g u f =
  check_endpoint g.n u;
  for i = g.row.(u) to g.row.(u + 1) - 1 do
    f g.adj.(i)
  done

let row_offsets g = g.row
let adjacency g = g.adj

let slot g u v =
  check_endpoint g.n u;
  check_endpoint g.n v;
  (* binary search for v among neighbours of u *)
  let lo = ref g.row.(u) and hi = ref (g.row.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.adj.(mid) in
    if w = v then found := mid
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem_edge g u v = slot g u v >= 0

let edges g = Array.copy g.edge_list

let iter_edges g f = Array.iter (fun (u, v) -> f u v) g.edge_list

let fold_edges g ~init ~f =
  Array.fold_left (fun acc (u, v) -> f acc u v) init g.edge_list

(* every node enters the queue at most once, so an [n]-slot int array
   with a head and a tail index is the whole queue *)
let bfs_dist g s =
  check_endpoint g.n s;
  let dist = Array.make g.n max_int and queue = Array.make g.n 0 in
  dist.(s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = g.row.(u) to g.row.(u + 1) - 1 do
      let v = g.adj.(i) in
      if dist.(v) = max_int then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let is_connected g =
  if g.n <= 1 then true
  else begin
    let dist = bfs_dist g 0 in
    Array.for_all (fun d -> d < max_int) dist
  end

let diameter g =
  if g.n = 0 then 0
  else begin
    let best = ref 0 in
    for s = 0 to g.n - 1 do
      let dist = bfs_dist g s in
      Array.iter (fun d -> if d > !best then best := d) dist
    done;
    !best
  end

let cartesian_product a b =
  let na = a.n and nb = b.n in
  let encode x y = (y * na) + x in
  let edges = ref [] in
  for y = 0 to nb - 1 do
    Array.iter
      (fun (x, x') -> edges := (encode x y, encode x' y) :: !edges)
      a.edge_list
  done;
  for x = 0 to na - 1 do
    Array.iter
      (fun (y, y') -> edges := (encode x y, encode x y') :: !edges)
      b.edge_list
  done;
  of_edges ~n:(na * nb) !edges

let relabel g ~perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: length";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      check_endpoint g.n p;
      if seen.(p) then invalid_arg "Graph.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  of_edges_array ~n:g.n
    (Array.map (fun (u, v) -> (perm.(u), perm.(v))) g.edge_list)

let equal g h = g.n = h.n && g.edge_list = h.edge_list

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d])" g.n (m g) (min_degree g)
    (max_degree g)
