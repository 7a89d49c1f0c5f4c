open Mvl_topology

type t = {
  graph : Graph.t;
  (* [edge_cost] resolved once per directed edge, aligned with
     [Graph.adjacency]: cost.(s) = edge_cost u adj.(s) for the row [u]
     holding slot [s].  Immutable after [create], so a [t] may be
     shared by every domain. *)
  cost : int array;
}

let create ?edge_cost graph =
  let row = Graph.row_offsets graph and adj = Graph.adjacency graph in
  let cost = Array.make (Array.length adj) 0 in
  (match edge_cost with
  | None -> ()
  | Some f ->
      for u = 0 to Graph.n graph - 1 do
        for s = row.(u) to row.(u + 1) - 1 do
          cost.(s) <- f u adj.(s)
        done
      done);
  { graph; cost }

let costs t = t.cost

(* BFS from [dest]; each node forwards to the predecessor that
   minimizes (cost, id) among neighbours one level closer to dest.  A
   row's slots list its neighbours in increasing id order, so the first
   slot reaching the minimum cost is the (cost, id) minimum: a later
   slot wins only on a strictly lower cost, or by being the first
   candidate (which makes even a max_int cost win, as the old
   (max_int, max_int) sentinel pair did).  Everything it writes lives
   in the caller's arrays, so any number of domains may fill tables
   from one shared [t] at once. *)
let fill t ~dist ~queue ~slots dest =
  let g = t.graph in
  let n = Graph.n g in
  let row = Graph.row_offsets g and adj = Graph.adjacency g in
  let cost = t.cost in
  if Array.length slots < n then
    invalid_arg "Routing_table.fill: scratch shorter than the node count";
  Graph.bfs_fill g ~dist ~queue dest;
  for u = 0 to n - 1 do
    let du = dist.(u) in
    let best = ref (-1) in
    if u <> dest && du < max_int then begin
      let best_cost = ref max_int in
      for s = row.(u) to row.(u + 1) - 1 do
        if dist.(adj.(s)) = du - 1 then begin
          let c = cost.(s) in
          if !best < 0 || c < !best_cost then begin
            best := s;
            best_cost := c
          end
        end
      done
    end;
    slots.(u) <- !best
  done

let build t dest =
  let n = Graph.n t.graph in
  let adj = Graph.adjacency t.graph in
  let hop = Array.make n 0 in
  fill t ~dist:(Array.make n 0) ~queue:(Array.make n 0) ~slots:hop dest;
  for u = 0 to n - 1 do
    if hop.(u) >= 0 then hop.(u) <- adj.(hop.(u))
  done;
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
