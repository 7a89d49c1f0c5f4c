(** Realized multilayer layouts: node footprints on layer 1 plus one
    routed wire per network edge, with the cost metrics of §2.2.

    Geometry is held columnarly (see {!Geom}); [wires]/[nodes] build
    record views on each call for the small-layout API, while bulk
    consumers (checking, metrics, routing, serialization, rendering)
    read the columns directly.  A [t] caches nothing and is never
    mutated, so any number of domains may read one at once. *)

open Mvl_geometry
open Mvl_topology

type t

type metrics = {
  width : int;
  height : int;
  area : int;              (** smallest upright bounding rectangle *)
  layers : int;
  volume : int;            (** [layers * area] *)
  max_wire : int;          (** longest in-plane wire length *)
  total_wire : int;        (** sum of in-plane wire lengths *)
  vias : int;              (** total via length over all wires *)
}

val make :
  graph:Graph.t ->
  layers:int ->
  ?node_layers:int array ->
  nodes:Rect.t array ->
  wires:Wire.t array ->
  unit ->
  t
(** Columnarizes record geometry.  [node_layers] defaults to all nodes
    on layer 1 (the 2-D grid model).  Wires must be listed in the same
    order as [Graph.edges graph]. *)

val of_geom :
  graph:Graph.t -> layers:int -> ?node_layers:int array -> Geom.t -> t
(** Wraps columnar geometry directly — the zero-copy path used by the
    constructions ([Multilayer], [Cluster_expand]). *)

val graph : t -> Graph.t
val layers : t -> int

val node_layers : t -> int array
(** Active layer of each node; all 1 in the multilayer 2-D grid model,
    multiple values under the 3-D grid model.  The returned array is
    the layout's own — treat it as read-only. *)

val geom : t -> Geom.t

val wires : t -> Wire.t array
(** One wire per graph edge, same order as [Graph.edges graph].  Built
    from the columns on each call and not kept: bind it once rather
    than calling it in a loop, and read {!geom} on large layouts. *)

val nodes : t -> Rect.t array
(** Footprint of each node, built on each call like [wires]. *)

val edge_column : t -> missing:'a -> (int -> 'a) -> 'a array
(** [edge_column t ~missing f] lays a per-wire value out per directed
    edge: it holds [f i] in both slots of wire [i]'s edge in
    [Graph.adjacency (graph t)] (slot [s] of row [u] answers for the
    edge [u -> adj.(s)]), and [missing] for an edge no wire is routed
    for.  Reads the edge columns of {!geom}; builds no view. *)

val node_rect : t -> int -> Rect.t
(** Footprint of one node straight from the columns (no array
    materialization). *)

val active_layers : t -> int
(** Number of distinct active layers ([L_A] of §2.2). *)

val bounding_box : t -> Rect.t
(** Hull of all node footprints and wire vertices. *)

val translate : t -> dx:int -> dy:int -> t
(** Shifts the whole layout in the plane.  Validity and all metrics are
    invariant under translation. *)

val metrics : t -> metrics

val resident_bytes : t -> int
(** Approximate bytes a resident layout pins: the off-heap geometry
    columns ({!Geom.resident_bytes}) plus the node-layer array.  The
    size input for cost/size-aware cache admission. *)

val pp_metrics : Format.formatter -> metrics -> unit
