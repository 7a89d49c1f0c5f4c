open Mvl_topology

type t = {
  graph : Graph.t;
  (* [edge_cost] resolved once per directed edge, aligned with
     [Graph.adjacency]: cost.(s) = edge_cost u adj.(s) for the row [u]
     holding slot [s]. *)
  cost : int array;
  (* each row's slots in increasing (cost, neighbour id) order:
     order.(row.(u) + k) is the slot of [u]'s k-th preferred
     neighbour.  Both columns are immutable after [create], so a [t]
     may be shared by every domain. *)
  order : int array;
}

let create ?edge_cost graph =
  let row = Graph.row_offsets graph and adj = Graph.adjacency graph in
  let m = Array.length adj in
  let cost = Array.make m 0 in
  let order = Array.init m Fun.id in
  (match edge_cost with
  | None -> () (* equal costs: a row's slots already ascend by id *)
  | Some f ->
      (* a row's neighbours ascend with its slots, so a stable sort by
         cost breaks cost ties by neighbour id *)
      let by_cost a b = Int.compare cost.(a) cost.(b) in
      for u = 0 to Graph.n graph - 1 do
        let lo = row.(u) and hi = row.(u + 1) in
        for s = lo to hi - 1 do
          cost.(s) <- f u adj.(s)
        done;
        let slots = Array.sub order lo (hi - lo) in
        Array.stable_sort by_cost slots;
        Array.blit slots 0 order lo (hi - lo)
      done);
  { graph; cost; order }

let costs t = t.cost

let width = 62

type scratch = {
  (* per node: the batch's destination bits already reached, and those
     reached at the current BFS level *)
  seen : int array;
  front : int array;
  (* per node: the level that last listed it as a candidate *)
  stamp : int array;
  mutable gen : int;
  (* the current level's nodes and the next level's, with the bits
     each next-level node took *)
  level : int array;
  next : int array;
  next_bits : int array;
}

let scratch t =
  let n = Graph.n t.graph in
  {
    seen = Array.make n 0;
    front = Array.make n 0;
    stamp = Array.make n 0;
    gen = 0;
    level = Array.make n 0;
    next = Array.make n 0;
    next_bits = Array.make n 0;
  }

(* bit_index.((1 lsl i) mod 67) = i for i < 62: 2 has order 66 modulo
   the prime 67, so those residues are distinct *)
let bit_index =
  let tbl = Array.make 67 0 in
  for i = 0 to width - 1 do
    tbl.((1 lsl i) mod 67) <- i
  done;
  tbl

let lowest_bit mask = bit_index.((mask land -mask) mod 67)

(* A BFS from every destination of the batch at once, one bit each.
   Level by level, the candidates are the neighbours of the nodes the
   last level reached (stamped, so each is pulled once per level).  A
   candidate [v] walks its slots in (cost, id) order and takes, from
   each neighbour's [front], the bits it still wants: for each such
   destination that neighbour is one level closer, and the first in
   (cost, id) order is exactly the one-destination tie-break (a
   max_int or negative cost included).  The bits taken form [v]'s next
   front, held aside until every candidate of the level has pulled.
   With one destination each edge is read at most twice, once from
   each end, as a BFS plus a tie-break pass would.

   The level loop reads unchecked: every index is a node or a slot of
   the graph's own CSR arrays, every scratch array has [n] cells, and
   a level lists each node at most once. *)
let sweep t sc dests ~pos ~len ~emit =
  let g = t.graph in
  let n = Graph.n g in
  let row = Graph.row_offsets g and adj = Graph.adjacency g in
  let order = t.order in
  if len < 0 || len > width || pos < 0 || pos > Array.length dests - len then
    invalid_arg "Routing_table.sweep: bad destination range";
  if Array.length sc.seen <> n then
    invalid_arg "Routing_table.sweep: scratch sized for another graph";
  let seen = sc.seen and front = sc.front and stamp = sc.stamp in
  let next_bits = sc.next_bits in
  (* a sweep cut short (a bad destination, a raising [emit]) may have
     left bits behind *)
  Array.fill seen 0 n 0;
  Array.fill front 0 n 0;
  let level = ref sc.level and next = ref sc.next in
  let level_len = ref 0 in
  for i = 0 to len - 1 do
    let d = dests.(pos + i) in
    if d < 0 || d >= n then
      invalid_arg "Routing_table.sweep: destination out of range";
    if front.(d) = 0 then begin
      !level.(!level_len) <- d;
      incr level_len
    end;
    front.(d) <- front.(d) lor (1 lsl i);
    seen.(d) <- front.(d)
  done;
  let full = (1 lsl len) - 1 in
  (* [v] pulls the bits it still wants from its neighbours' fronts and
     returns those it took *)
  let pull v =
    let want = full land lnot (Array.unsafe_get seen v) in
    let w = ref want and k = ref (Array.unsafe_get row v) in
    let stop = Array.unsafe_get row (v + 1) in
    while !w <> 0 && !k < stop do
      let hop = Array.unsafe_get order !k in
      let got = Array.unsafe_get front (Array.unsafe_get adj hop) land !w in
      if got <> 0 then begin
        w := !w lxor got;
        emit v got hop
      end;
      incr k
    done;
    want lxor !w
  in
  while !level_len > 0 do
    sc.gen <- sc.gen + 1;
    let gen = sc.gen in
    let lv = !level and nx = !next in
    let next_len = ref 0 in
    for j = 0 to !level_len - 1 do
      let x = Array.unsafe_get lv j in
      for s = Array.unsafe_get row x to Array.unsafe_get row (x + 1) - 1 do
        let v = Array.unsafe_get adj s in
        if Array.unsafe_get stamp v <> gen then begin
          Array.unsafe_set stamp v gen;
          let taken = pull v in
          if taken <> 0 then begin
            Array.unsafe_set nx !next_len v;
            Array.unsafe_set next_bits !next_len taken;
            incr next_len;
            Array.unsafe_set seen v (Array.unsafe_get seen v lor taken)
          end
        end
      done
    done;
    for j = 0 to !level_len - 1 do
      front.(lv.(j)) <- 0
    done;
    for j = 0 to !next_len - 1 do
      front.(nx.(j)) <- next_bits.(j)
    done;
    level := nx;
    next := lv;
    level_len := !next_len
  done

let build t dest =
  let adj = Graph.adjacency t.graph in
  let hop = Array.make (Graph.n t.graph) (-1) in
  sweep t (scratch t) [| dest |] ~pos:0 ~len:1 ~emit:(fun u _ s ->
      hop.(u) <- adj.(s));
  hop

let path t ~src ~dest =
  if src = dest then [ src ]
  else begin
    let hop = build t dest in
    let rec go acc at =
      if at = dest then List.rev (dest :: acc)
      else if hop.(at) < 0 then invalid_arg "Routing_table.path: unreachable"
      else go (at :: acc) hop.(at)
    in
    go [] src
  end

let hops t ~src ~dest = List.length (path t ~src ~dest) - 1
