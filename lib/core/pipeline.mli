(** The cached construction pipeline: one instrumented path from a
    family spec to a measured (optionally validated and reported)
    layout, shared by the CLI, the bench harness, the examples and the
    tests.

    Stages: [build] (family construction) → [layout] → [validate]
    (optional) → [metrics] → [report] (optional).  Each run records
    per-stage timings from the OS monotonic clock (never negative, even
    under wall-clock adjustment).

    Layouts are memoized in a process-wide bounded {!Cache} keyed by
    ["spec@layers"] under the GreedyDual-Size-Frequency policy
    (priority grows with hit frequency and build seconds, shrinks with
    resident bytes), so a sweep over [L] — or a metrics pass followed
    by a simulation on the same spec — constructs each distinct layout
    exactly once while it stays resident, and a burst of cheap small
    specs cannot flush a layout that took seconds to build.
    Hit/miss/coalesced counters are exposed for verification.

    The cache is domain-safe: table accesses are serialized behind one
    mutex (held only for the lookup or insertion itself, never while a
    layout is being built) and the counters are atomics, so the
    sweeps' {!Mvl_pool.Domain_pool} workers and the serve daemon
    share one cache across all their workers and a resident layout is
    handed out by reference.  Concurrent misses on the {e same} key are
    single-flighted: the first misser builds, the rest block on a
    per-key condition and receive the finished layout (counted in
    [coalesced], with [from_cache = true]); misses on distinct keys
    never wait on each other.

    Every run serializes to one JSON record ({!to_json}) through
    {!Telemetry} — the machine-readable surface behind
    [mvl ... --json] and [bench emit]. *)

open Mvl_layout

type stage_time = { stage : string; seconds : float }

type t = {
  spec : Registry.spec;
  family : Families.t;
  layers : int;
  layout : Layout.t;
  metrics : Layout.metrics;
  validation : Check.result option;
      (** [None] when validation was not requested *)
  report : Report.t option;
  timings : stage_time list;  (** in stage order *)
  layout_phases : Layout_profile.phases option;
      (** per-phase breakdown of the layout stage ({!Layout_profile}),
          recorded only when the layout was actually constructed —
          [None] on a cache hit *)
  from_cache : bool;          (** the layout stage was a cache hit *)
}

val run :
  ?validate:Check.mode ->
  ?report:bool ->
  ?cache:bool ->
  layers:int ->
  Registry.spec ->
  (t, string) result
(** Run the pipeline.  [~cache:false] (default [true]) bypasses the
    layout cache entirely — neither reading nor populating it, nor
    touching the counters (used by timing benches). *)

val run_string :
  ?validate:Check.mode ->
  ?report:bool ->
  ?cache:bool ->
  layers:int ->
  string ->
  (t, string) result
(** [run] on [Registry.parse]'s result. *)

val run_exn :
  ?validate:Check.mode -> ?report:bool -> ?cache:bool -> layers:int ->
  string -> t
(** [run_string], raising [Invalid_argument] on any error. *)

val layout_exn : ?cache:bool -> layers:int -> string -> Layout.t
(** Just the (cached) layout of a spec string. *)

(* --- validity ---------------------------------------------------------- *)

type validity = Valid | Invalid | Not_validated

val validity : t -> validity
(** Three-state view of the run's validation outcome: [Not_validated]
    when the run skipped validation — distinct from [Invalid]. *)

val violations : t -> Check.violation list option
(** The recorded violations; [None] when validation was not requested. *)

val is_valid : ?mode:Check.mode -> t -> bool
(** [true] iff the layout has no violations.  When the run skipped
    validation this checks the layout on demand under [mode] (default
    [Strict]) instead of conflating "not validated" with "invalid";
    when the run did validate, the recorded result is answered and
    [mode] is ignored. *)

val total_seconds : t -> float

val pp_timings : Format.formatter -> t -> unit
(** One line per stage, e.g. ["build 0.001s  layout 0.045s ..."]. *)

val pp_phases : Format.formatter -> Layout_profile.phases -> unit
(** One line: ["place 0.01s  pack 0.02s  terminals ..."]. *)

val to_json : t -> Telemetry.json
(** The run as one stable-key-order record:
    [{schema, spec, family, n_nodes, n_edges, layers, from_cache,
    seconds {build,layout,validate,metrics,report,total},
    layout_phases {place_seconds,...} | null,
    cache {hits,misses,coalesced,size}, metrics {...},
    violations {checked,...}, report}].  ["cache"] reports the
    process-wide counters at call time; ["violations"] is
    {!Telemetry.not_validated} when validation was skipped; ["report"]
    is [null] unless requested. *)

(* --- cache ------------------------------------------------------------- *)

type cache_stats = { hits : int; misses : int; coalesced : int }
(** [misses] counts actual layout constructions through the cache;
    [coalesced] counts requests that joined another domain's
    in-progress build of the same key instead of duplicating it. *)

val cache_stats : unit -> cache_stats
val cache_size : unit -> int
(** Layouts currently resident (always [<= cache_capacity ()]). *)

val cache_capacity : unit -> int
val set_cache_capacity : int -> unit
(** Bound on resident entries (default 256), enforced by GDSF eviction
    at insertion; shrinking evicts immediately.  [0] disables caching.
    Counters are unaffected — a re-run of an evicted spec counts as a
    fresh miss. *)

val cache_resident_bytes : unit -> int
(** Total {!Layout.resident_bytes} over the resident layouts. *)

val cache_reset : unit -> unit
(** Drop all cached layouts and families and zero the counters (the
    capacity setting is kept). *)
