(** Wire length along routing paths — the paper's claim (4): the maximum
    total wire length along a shortest (hop-count) routing path between
    any source-destination pair drops by [~L/2] in a direct multilayer
    layout. *)

open Mvl_layout

type t
(** A layout's graph together with the in-plane length of each edge's
    wire, kept per directed edge in an int column aligned with
    [Graph.adjacency]. *)

val of_layout : Layout.t -> t
(** Reads the lengths straight from the layout's geometry columns
    ([Geom.edge_u], [Geom.edge_v], [Geom.wire_length_xy]); it builds
    no [Wire.t] view and keeps no reference to the layout. *)

val edge_length : t -> int -> int -> int
(** In-plane wire length of the edge [u]-[v]; raises [Not_found] when
    not adjacent (or when the layout routes no wire for the edge). *)

val best_path_wire : t -> src:int -> int array
(** [best_path_wire t ~src] gives, for every destination, the minimum
    total wire length over all hop-shortest paths from [src]
    (unreachable: [max_int]). *)

val max_path_wire : ?samples:int -> t -> int
(** Maximum over sampled sources (default 16, evenly spaced; all nodes
    when the network has at most that many) of the maximum over
    destinations of {!best_path_wire} — the layout's worst-case
    accumulated wire length along a shortest route. *)

val max_wire : t -> int
(** Longest single wire (same as [Layout.metrics.max_wire]). *)
