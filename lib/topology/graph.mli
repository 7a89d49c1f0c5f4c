(** Immutable undirected simple graphs in compressed sparse row form.

    Nodes are integers [0 .. n-1].  Parallel edges are collapsed and
    self-loops rejected at construction; multiplicities, where a network
    definition requires them (e.g. butterfly clusters connected by 4
    parallel links), are tracked separately by the layout engines. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph on [n] nodes with the given
    undirected edges.  Duplicate edges (in either orientation) are
    collapsed; self-loops raise [Invalid_argument], as do endpoints
    outside [0 .. n-1]. *)

val of_edges_array : n:int -> (int * int) array -> t
(** Array variant of {!of_edges}. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int
(** [degree g u] is the number of neighbours of [u]. *)

val max_degree : t -> int
val min_degree : t -> int

val is_regular : t -> bool
(** True when every node has the same degree. *)

val neighbors : t -> int -> int array
(** [neighbors g u] is a fresh sorted array of the neighbours of [u]. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Iterates over neighbours of a node in increasing order without
    allocating. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency (in either orientation). *)

(** {2 CSR access}

    The neighbours of [u] sit at the slots [row.(u) .. row.(u+1) - 1]
    of the adjacency column, each row sorted increasingly, so slot [s]
    of row [u] names the directed edge [u -> adj.(s)].  Data kept per
    directed edge (a link latency, a wire length) can live in an array
    of [2 * m g] entries aligned with the adjacency column, and a hot
    loop reads it by slot instead of looking the edge up.  Both arrays
    are the graph's own: treat them as read-only. *)

val row_offsets : t -> int array
(** The [n + 1] row offsets into {!adjacency}. *)

val adjacency : t -> int array
(** The [2 * m] neighbour slots, row by row. *)

val slot : t -> int -> int -> int
(** [slot g u v] is the slot of [v] in [u]'s row, or [-1] when [u] and
    [v] are not adjacent (binary search). *)

val edges : t -> (int * int) array
(** All edges as pairs [(u, v)] with [u < v], sorted lexicographically. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per edge, with [u < v]. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** Folds over edges with [u < v]. *)

val bfs_dist : t -> int -> int array
(** [bfs_dist g s] is the array of BFS distances from [s]; unreachable
    nodes get [max_int]. *)

val is_connected : t -> bool
(** True when the graph has a single connected component (the empty graph
    is considered connected). *)

val diameter : t -> int
(** Exact diameter by all-pairs BFS; [max_int] when disconnected.
    Intended for small and medium graphs (O(n·m) time). *)

val cartesian_product : t -> t -> t
(** [cartesian_product a b] is the Cartesian (box) product [a □ b]:
    node [(x, y)] is encoded as [y * n a + x]; [(x,y)]–[(x',y)] is an edge
    when [x]–[x'] is in [a], and [(x,y)]–[(x,y')] when [y]–[y'] is in
    [b].  The [a] factor varies fastest (row index). *)

val relabel : t -> perm:int array -> t
(** [relabel g ~perm] renames node [u] to [perm.(u)]; [perm] must be a
    permutation of [0 .. n-1]. *)

val equal : t -> t -> bool
(** Structural equality of node count and edge sets (same labelling). *)

val pp : Format.formatter -> t -> unit
(** Prints a short summary: node count, edge count, degree range. *)
