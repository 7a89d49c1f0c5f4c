(** Deterministic minimal routing tables.

    A table towards [dest] gives every node the neighbour to forward
    to, chosen on a BFS-shortest path with a deterministic tie-break
    (prefer the lowest-cost outgoing link, then the lowest neighbour
    id), so the routing is oblivious and reproducible.

    {!create} calls [edge_cost] once per directed edge and keeps the
    answers in an int column aligned with {!Graph.adjacency}, along
    with each row's slots in (cost, neighbour id) order; building a
    table reads those columns and never calls the closure.  Every table
    is built by {!sweep}, up to {!width} destinations per call.
    Nothing is cached: each {!build} (and each {!path}) computes its
    table afresh, and a [t] is immutable, so one [t] may be shared by
    any number of domains. *)

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

val width : int
(** 62: the most destinations one {!sweep} builds, one bit each of a
    non-negative int. *)

type scratch
(** The work arrays of one {!sweep} at a time, sized for one graph. *)

val scratch : t -> scratch
(** Fresh work arrays for sweeps over [t]'s graph.  A scratch belongs
    to one caller at a time: a domain building tables needs its own,
    and reuses it for every sweep it makes. *)

val sweep :
  t ->
  scratch ->
  int array ->
  pos:int ->
  len:int ->
  emit:(int -> int -> int -> unit) ->
  unit
(** [sweep t sc dests ~pos ~len ~emit] builds the tables towards
    [dests.(pos)], ..., [dests.(pos + len - 1)] ([0 <= len <= width])
    in one bit-parallel BFS, bit [i] of a mask standing for
    [dests.(pos + i)].  It calls [emit u mask s] when slot [s] (in
    {!Graph.adjacency}) is [u]'s next hop towards every destination
    whose bit is set in [mask] (never 0).  Each pair of a bit [i] and a
    node [u <> dests.(pos + i)] that can reach that destination is in
    exactly one call, and no other pair is in any, so a caller's cells
    for a destination itself and for nodes that cannot reach it keep
    whatever they held.  The hops are those of a one-destination
    {!build}.  All the sweep's writes go to [sc] and through [emit],
    so domains sharing [t] may sweep at once, each with its own
    scratch.  Raises [Invalid_argument] on a bad range, a destination
    outside the graph, or a scratch sized for another graph. *)

val lowest_bit : int -> int
(** [lowest_bit mask] is the index of the lowest set bit of a non-zero
    [mask] from {!sweep}: a caller visits a mask's destinations by
    taking it and clearing it ([mask land (mask - 1)]) in turn. *)

val build : t -> int -> int array
(** [build t dest] is a fresh per-node next-hop array towards [dest]
    ([-1] for [dest] itself and unreachable nodes). *)

val path : t -> src:int -> dest:int -> int list
(** The full node sequence, [src] and [dest] included.  Raises
    [Invalid_argument] when [dest] is unreachable from [src]. *)

val hops : t -> src:int -> dest:int -> int
