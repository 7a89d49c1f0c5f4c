(* Spans for the traced run.

   A span is one call into a layer's public function, recorded from the
   benchmark's side of the call: its name, start and end on the
   monotonic clock, the span that was open around it (its parent), and
   the id of the op it belongs to.  Spans are kept in
   memory while the run goes and written out once it ends; nothing
   inside the library is instrumented.

   A layer's self time is its span minus the part its child spans
   cover.  The benchmark runs in one thread, so the children of a span
   run one after the other and that part is the sum of their
   durations. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (* -1 for a root span *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable alloc_words : float;  (* GC words allocated inside, or nan *)
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0

(* ids of the open spans, innermost first *)
let open_spans : int list ref = ref []

(* Gc.counters rather than Gc.quick_stat: in OCaml 5 the latter only
   advances minor_words at minor collections *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record ?(alloc = false) ~op name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let stack = !open_spans in
    open_spans := id :: stack;
    let parent = match stack with p :: _ -> p | [] -> -1 in
    let w0 = if alloc then allocated_words () else nan in
    let s =
      { id; name; op; parent; start_ns = Monotonic_clock.now ();
        stop_ns = 0L; alloc_words = nan }
    in
    let finish () =
      s.stop_ns <- Monotonic_clock.now ();
      if alloc then s.alloc_words <- allocated_words () -. w0;
      open_spans := stack;
      recorded := s :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-9

(* every span recorded so far, in the order they ended *)
let all () = List.rev !recorded

(* the id the next span will get; [since (next ())] later gives the
   spans opened in between *)
let next () = !next_id
let since first = List.filter (fun s -> s.id >= first) (all ())

let self_seconds spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (seconds s
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  fun s ->
    seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)

(* one JSON object per line: id, name, op, parent, start/stop ns,
   self seconds and allocated words *)
let write_file path =
  let spans = all () in
  let self = self_seconds spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\
         \"stop_ns\":%Ld,\"self_s\":%.9f,\"alloc_words\":%s}\n"
        s.id s.name s.op s.parent s.start_ns s.stop_ns (self s)
        (if Float.is_nan s.alloc_words then "null"
         else Printf.sprintf "%.0f" s.alloc_words))
    spans;
  close_out oc
