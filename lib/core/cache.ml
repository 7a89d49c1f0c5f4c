(* GreedyDual-Size-Frequency over a Hashtbl.

   Entries carry their priority explicitly; eviction scans for the
   minimum.  The scan is O(length) but length is bounded by [capacity]
   (hundreds for the pipeline caches), eviction only runs on inserts
   that exceed a bound, and the alternative — an intrusive heap keyed
   by a float that changes on every hit — costs more bookkeeping on
   the hit path, which is the one that must stay cheap. *)

type ('k, 'v) entry = {
  mutable value : 'v;
  mutable cost : float;
  mutable size : int;
  mutable freq : int;
  mutable prio : float;
  seq : int; (* insertion order, the deterministic tie-break *)
}

type stats = {
  hits : int;
  misses : int;
  admissions : int;
  rejections : int;
  evictions : int;
}

(* [t]'s counter fields deliberately shadow [stats]'s — all direct
   field accesses below resolve against [t] *)
type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable capacity : int;
  mutable max_bytes : int;
  mutable bytes : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable admissions : int;
  mutable rejections : int;
  mutable evictions : int;
}

(* a zero-cost or zero-size measurement must not collapse the priority
   to the clock (or blow it up to infinity) *)
let min_cost = 1e-9

let create ?(max_bytes = max_int) ~capacity () =
  {
    tbl = Hashtbl.create 64;
    capacity = max 0 capacity;
    max_bytes = max 0 max_bytes;
    bytes = 0;
    clock = 0.0;
    next_seq = 0;
    hits = 0;
    misses = 0;
    admissions = 0;
    rejections = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.tbl
let resident_bytes t = t.bytes
let clock t = t.clock
let mem t k = Hashtbl.mem t.tbl k

let rank e = e.prio

let find_opt t k =
  match Hashtbl.find_opt t.tbl k with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some e ->
      t.hits <- t.hits + 1;
      e.freq <- e.freq + 1;
      e.prio <- t.clock +. (float_of_int e.freq *. e.cost /. float_of_int e.size);
      Some e.value

(* minimum priority, ties oldest-first — [None] when empty *)
let find_victim t =
  let best = ref None in
  Hashtbl.iter
    (fun k e ->
      match !best with
      | None -> best := Some (k, e)
      | Some (_, b) ->
          if
            rank e < rank b
            || (Float.equal (rank e) (rank b) && e.seq < b.seq)
          then best := Some (k, e))
    t.tbl;
  !best

let victim t = Option.map fst (find_victim t)

let priority t k = Option.map rank (Hashtbl.find_opt t.tbl k)

let remove_entry t k e =
  Hashtbl.remove t.tbl k;
  t.bytes <- t.bytes - e.size

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some e -> remove_entry t k e

let over_bounds t =
  Hashtbl.length t.tbl > t.capacity || t.bytes > t.max_bytes

(* evict minimum-priority entries until the bounds hold, advancing the
   clock to each victim's priority (the GDSF aging step) *)
let enforce ?(candidate = None) t =
  let rejected = ref false in
  while over_bounds t do
    match find_victim t with
    | None ->
        (* bounds can only be exceeded by resident entries *)
        assert false
    | Some (k, e) ->
        t.clock <- Float.max t.clock (rank e);
        remove_entry t k e;
        if candidate = Some e.seq then rejected := true
        else t.evictions <- t.evictions + 1
  done;
  !rejected

let add t k v ~cost ~size =
  let cost = Float.max cost min_cost in
  let size = max size 1 in
  if t.capacity = 0 || size > t.max_bytes then begin
    (* cannot fit even an empty cache: reject without touching
       residents *)
    remove t k;
    t.rejections <- t.rejections + 1;
    false
  end
  else begin
    (match Hashtbl.find_opt t.tbl k with
    | Some e ->
        t.bytes <- t.bytes - e.size + size;
        e.value <- v;
        e.cost <- cost;
        e.size <- size;
        e.prio <-
          t.clock +. (float_of_int e.freq *. e.cost /. float_of_int e.size)
    | None ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        let e =
          {
            value = v;
            cost;
            size;
            freq = 1;
            prio = t.clock +. (cost /. float_of_int size);
            seq;
          }
        in
        Hashtbl.replace t.tbl k e;
        t.bytes <- t.bytes + size);
    let seq = (Hashtbl.find t.tbl k).seq in
    let rejected = enforce ~candidate:(Some seq) t in
    if rejected then t.rejections <- t.rejections + 1
    else t.admissions <- t.admissions + 1;
    not rejected
  end

let set_capacity t cap =
  t.capacity <- max 0 cap;
  ignore (enforce t)

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    admissions = t.admissions;
    rejections = t.rejections;
    evictions = t.evictions;
  }

let clear t =
  Hashtbl.reset t.tbl;
  t.bytes <- 0;
  t.clock <- 0.0;
  t.next_seq <- 0

let iter f t = Hashtbl.iter (fun k e -> f k e.value) t.tbl
