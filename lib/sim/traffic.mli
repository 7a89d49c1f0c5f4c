(** Synthetic traffic patterns, the standard suite for interconnection
    network evaluation.  A pattern maps a source to a destination; the
    permutation patterns assume node labels are bit strings of the
    network's label width. *)

type t =
  | Uniform          (** destination drawn uniformly (excluding self) *)
  | Transpose        (** swap the two halves of the label bits *)
  | Bit_reversal     (** reverse the label bits *)
  | Bit_complement   (** flip all label bits *)
  | Hotspot of int   (** all traffic to one node *)
  | Tornado
      (** half-way around the label ring:
          [dst = (src + ceil(n/2) - 1) mod n] — the adversarial pattern
          for minimal ring/torus routing; any [n], not just powers of
          two *)
  | Bursty of { pattern : t; burst : int; duty_pct : int }
      (** the spatial [pattern] driven by a per-node two-state
          ON/OFF Markov process: mean ON dwell of [burst] cycles, ON
          for [duty_pct]% of cycles in steady state, injecting at
          [offered_load / duty] while ON so the long-run offered rate
          matches the steady pattern.  [pattern] must not itself be
          [Bursty]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Canonical spec-string form, accepted by {!of_string}: ["uniform"],
    ["transpose"], ["bit-reversal"], ["bit-complement"], ["tornado"],
    ["hotspot:3"], ["bursty:uniform:16:25"]
    (= [Bursty {pattern = Uniform; burst = 16; duty_pct = 25}]). *)

val of_string : string -> (t, string) result
(** Parses {!to_string}'s forms, case-insensitively.  Structural only —
    range errors (hotspot node, burst length, duty cycle) surface from
    {!destination}/{!injector} at use, where the network size is
    known. *)

val permute : t -> n_nodes:int -> src:int -> int
(** The raw deterministic map of a fixed pattern, before the
    self-destination fixup — a bijection on [[0, n_nodes)] for the
    permutation patterns, the constant [h] for [Hotspot h].

    Raises [Invalid_argument] for [Uniform] (not a deterministic map),
    for [src] outside [[0, n_nodes)], for a hotspot node outside
    [[0, n_nodes)], and (permutation patterns only) when [n_nodes] is
    not a power of two. *)

val destination : t -> Rng.t -> n_nodes:int -> src:int -> int
(** Picks a destination for [src].  For the permutation patterns
    [n_nodes] must be a power of two; a self-destination (possible for
    the fixed patterns) is mapped to [src + 1 mod n].

    Raises [Invalid_argument] for [Hotspot h] with [h] outside
    [[0, n_nodes)] — an out-of-range hotspot used to be silently
    wrapped by [mod], which even produced negative destinations for
    negative [h]. *)

val destinations : t -> n_nodes:int -> int array
(** Every destination {!destination} can ever return for this pattern
    and size, sorted ascending and duplicate-free: all of
    [[0, n_nodes)] for [Uniform]; the fixup-adjusted permutation image
    for the fixed patterns ([{h; (h+1) mod n}] for [Hotspot h]).  The
    sharded simulators pre-build exactly this set of routing tables
    before spawning domains.  [Bursty] delegates to its inner pattern
    (burstiness is temporal, not spatial).  Raises like {!destination}
    does, plus [Invalid_argument] when [n_nodes < 2]. *)

(* --- injection process ------------------------------------------------- *)

type injector
(** Per-cycle injection decisions for one pattern at one offered load:
    a constant Bernoulli draw for every pattern except [Bursty], whose
    nodes each run the ON/OFF Markov chain described above.  Holds the
    per-node ON/OFF state, so one injector serves exactly one
    simulation run. *)

val injector : t -> offered_load:float -> n_nodes:int -> Rng.t -> injector
(** Builds the process, drawing each node's initial ON/OFF state from
    its stationary distribution (one [Rng.bool ~p:duty] per node, in
    node order; no draws for non-bursty patterns).  A duty cycle of
    100% degenerates to the steady process.  Raises [Invalid_argument]
    for a nested [Bursty], [burst < 1], or [duty_pct] outside
    [[1, 100]]. *)

val inject : injector -> Rng.t -> src:int -> bool
(** Should [src] inject a packet this cycle?  Draw order per call is
    fixed (decision from the pre-transition state, then the state
    advance) — every shard of both simulator engines calls this for
    {e every} source every cycle in source order, which is what keeps
    the replicated RNG streams byte-identical at every shard count. *)
