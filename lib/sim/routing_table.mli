(** Deterministic minimal routing tables.

    A table towards [dest] gives every node the neighbour to forward
    to, chosen on a BFS-shortest path with a deterministic tie-break
    (prefer the lowest-cost outgoing link, then the lowest neighbour
    id), so the routing is oblivious and reproducible.

    {!create} calls [edge_cost] once per directed edge and keeps the
    answers in an int column aligned with {!Graph.adjacency}; building
    a table reads that column and never calls the closure.  Nothing is
    cached: each {!build} (and each {!path}) computes its table afresh,
    and a [t] is immutable, so one [t] may be shared by any number of
    domains. *)

open Mvl_topology

type t

val create : ?edge_cost:(int -> int -> int) -> Graph.t -> t
(** [edge_cost u v] breaks ties among hop-shortest paths (default:
    constant).  It is called here, once per directed edge, and never
    again. *)

val costs : t -> int array
(** The resolved costs: slot [s] of row [u] holds [edge_cost u
    (Graph.adjacency g).(s)].  The table's own array: treat it as
    read-only. *)

val build : t -> int -> int array
(** [build t dest] is a fresh per-node next-hop array towards [dest]
    ([-1] for [dest] itself and unreachable nodes). *)

val fill :
  t -> dist:int array -> queue:int array -> slots:int array -> int -> unit
(** [fill t ~dist ~queue ~slots dest] is {!build} without allocation:
    it writes into [slots.(u)] the slot (in {!Graph.adjacency}) of
    [u]'s next hop towards [dest], or [-1], using [dist] and [queue] as
    scratch.  Each array needs at least [Graph.n] entries.  A caller
    building many tables reuses the three arrays, and reads a per-edge
    column (such as {!costs}) at the chosen slot. *)

val path : t -> src:int -> dest:int -> int list
(** The full node sequence, [src] and [dest] included.  Raises
    [Invalid_argument] when [dest] is unreachable from [src]. *)

val hops : t -> src:int -> dest:int -> int
