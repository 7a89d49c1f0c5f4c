(** The orthogonal multilayer layout scheme (§2.4): turn an orthogonal
    2-D layout into an [L]-layer layout by splitting each gap's tracks
    into layer groups.

    Horizontal tracks are split into [ceil(L/2)] groups carried by the
    odd layers [1, 3, ...]; vertical tracks into [floor(L/2)] groups on
    the even layers [2, 4, ...].  With [L = 2] this degenerates to the
    classic Thompson-style layout.  The resulting geometry is valid in
    the strict multilayer grid model ({!Check.Strict}): every wire is a
    node-disjoint path, which the realization achieves by giving every
    edge its own terminal on its node's boundary and pairing each track
    group's in-plane runs with a dedicated adjacent layer for the
    perpendicular access runs. *)

type groups = { horizontal : int; vertical : int }

val groups_for_layers : int -> groups
(** [{horizontal = ceil(L/2); vertical = floor(L/2)}].  Requires
    [L >= 2]. *)

val realize :
  ?node_side:int -> ?jobs:int -> Orthogonal.t -> layers:int -> Layout.t
(** Produce the full geometry.  [node_side] forces a minimum node
    footprint side (default: just large enough for the terminals, i.e.
    degree + 2) — used by the optimal-scalability experiment (§3.2).
    [jobs > 1] shards wire emission across a {!Mvl_pool.Domain_pool},
    each worker streaming its wires into their precomputed fixed ranges
    of the final geometry columns — output is byte-identical at every
    job count. *)

val metrics : ?node_side:int -> Orthogonal.t -> layers:int -> Layout.metrics
(** [metrics o ~layers] = [Layout.metrics (realize o ~layers)]. *)

type frame = {
  col_x0 : int array;  (** leftmost x of each column band *)
  col_w : int array;   (** column band widths *)
  row_y0 : int array;
  row_h : int array;
  col_slots : int array;  (** per-layer vertical track slots per gap *)
  row_slots : int array;
}
(** The coordinate frame of a realized layout, exposed for builders that
    add geometry on top (the 3-D grid model of {!Multilayer3d}). *)

val realize_slab :
  ?node_side:int ->
  Orthogonal.t ->
  z_offset:int ->
  band_layers:int ->
  total_layers:int ->
  col_gap_extra:int ->
  node_extra_rows:int ->
  Layout.t * frame
(** Realize one slab of a 3-D grid-model layout: every z coordinate is
    shifted by [z_offset] (nodes sit on layer [1 + z_offset]), the slab
    uses [band_layers] wiring layers of the [total_layers] stack, each
    column gap reserves [col_gap_extra] extra columns (for inter-slab
    via stacks) and each node band reserves [node_extra_rows] terminal
    rows at its top (for inter-slab terminals). *)

val realize_augmented :
  ?node_side:int ->
  ?jobs:int ->
  Orthogonal.t ->
  full_graph:Mvl_topology.Graph.t ->
  layers:int ->
  Layout.t
(** §5.3 construction: [full_graph] is a supergraph of the orthogonal
    layout's graph on the same nodes.  Edges not present in the
    orthogonal layout (e.g. the folded hypercube's diameter links) are
    each routed on a dedicated horizontal track in the source's row gap
    and a dedicated vertical track right of the destination's column;
    the extra tracks are spread over the [floor(L/2)] paired layer
    groups, so [E] extra links add only about [E / (rows * L/2)] tracks
    per gap in each direction. *)
