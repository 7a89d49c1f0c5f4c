(** Layout verification.

    [Strict] enforces the multilayer grid model of §2.2: the routed
    paths must be pairwise node-disjoint (no two wires share any 3-D grid
    point) and must avoid layer-1 node footprints.  [Thompson] relaxes
    exactly one rule, matching §2.1: two wires may cross at a grid point
    provided neither bends there (no overlap, no knock-knee). *)

type mode = Strict | Thompson

type violation = {
  rule : string;       (** short machine-readable rule name *)
  detail : string;     (** human-readable description *)
}

type result = {
  mode : mode;                  (** the model the layout was checked under *)
  violations : violation list;  (** empty = valid *)
  truncated : bool;
      (** the collector hit [max_violations]: the list may be
          incomplete.  A report with exactly [max_violations] entries is
          flagged — once the cap is reached later checks stop recording,
          so "exactly at the cap" cannot be distinguished from "more
          exist". *)
}

val run : ?mode:mode -> ?max_violations:int -> ?jobs:int -> Layout.t -> result
(** Full validation result.  Collection stops after [max_violations]
    violations (default 20); [result.truncated] says whether that cap
    was reached.

    [jobs] (default 1) shards the collinear-overlap and H/V crossing
    sweeps over a work-stealing domain pool, one task per (sweep kind,
    layer) zindex bucket.  Shards read the shared immutable segment
    indexes and collect violations locally; the merge replays task
    order, so the result (violations, their order, and [truncated]) is
    identical at any [jobs].

    The other passes stay sequential.  With [N] nodes, [S] segments and
    [F] footprint rows plus columns, their costs are below; a stabbing
    query costs O(log) plus the candidates it returns, which on a valid
    layout are the few entries at the query point.
    - layer range: O(S);
    - footprint disjointness: O(N log N) for the x0 ranks that fix the
      report order, then one stabbing query per node into the row index
      and a sort of the overlapping pairs found;
    - terminals: O(wires);
    - wire against node: one stabbing query per segment, O(S log F);
    - via checks: one stabbing query per (via, layer it spans) on its
      row and one on its column, O(log S) each.
    Building the segment and node indexes is a linear-time radix sort. *)

val validate : ?mode:mode -> ?max_violations:int -> Layout.t -> violation list
(** [(run ... layout).violations].  Empty list = valid.
    Checks performed:
    - every point lies on layers [1 .. L];
    - node footprints are pairwise disjoint;
    - wires correspond 1:1 to graph edges and terminate on the boundary
      of their endpoint nodes (on layer 1);
    - no wire touches a foreign node footprint on layer 1, and touches
      its own nodes only at its terminal points;
    - no two wires share a grid point ([Strict]) / overlap or share a
      bend ([Thompson]). *)

val is_valid : ?mode:mode -> Layout.t -> bool

val pp_violation : Format.formatter -> violation -> unit

val mode_name : mode -> string
(** ["strict"] / ["thompson"] — the spelling used in telemetry records. *)
