(* Work-stealing domain pool over a fixed task set.

   One mutex-protected deque of task indices per worker: the owner pops
   the front (ascending index order over a static round-robin
   partition), thieves pop the back.  No task creates new tasks, so a
   worker that scans every deque and finds nothing can retire — there
   is no blocking hand-off to get wrong. *)

type deque = {
  ids : int array;        (* task indices dealt to this worker *)
  mutable head : int;     (* owner's end: next index to pop *)
  mutable tail : int;     (* thieves' end: one past the last live entry *)
  lock : Mutex.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let pop_front d =
  with_lock d.lock (fun () ->
      if d.head < d.tail then begin
        let i = d.ids.(d.head) in
        d.head <- d.head + 1;
        i
      end
      else -1)

let pop_back d =
  with_lock d.lock (fun () ->
      if d.head < d.tail then begin
        d.tail <- d.tail - 1;
        d.ids.(d.tail)
      end
      else -1)

(* worker [w] of [d]: drain own deque front-first, then sweep the other
   deques round-robin from w+1 stealing one task at a time; a full
   sweep finding nothing means the task set is exhausted *)
let worker_loop deques w run steals =
  let d = Array.length deques in
  let rec own () =
    let i = pop_front deques.(w) in
    if i >= 0 then begin
      run i;
      own ()
    end
    else steal 1
  and steal k =
    if k < d then begin
      let i = pop_back deques.((w + k) mod d) in
      if i >= 0 then begin
        Atomic.incr steals;
        run i;
        own ()
      end
      else steal (k + 1)
    end
  in
  own ()

type stats = { domains : int; steals : int }

(* set once any call spawns a domain — lets tests check that a
   one-worker call stays in the calling domain *)
let ever_spawned = Atomic.make false
let spawned_domains () = Atomic.get ever_spawned

let map ?domains ~f items =
  let n = Array.length items in
  let workers =
    let requested =
      match domains with
      | Some d -> max 1 d
      | None -> Domain.recommended_domain_count ()
    in
    min requested (max 1 n)
  in
  if workers <= 1 || n <= 1 then
    (Array.map f items, { domains = 1; steals = 0 })
  else begin
    (* deal indices round-robin: deque w holds w, w+W, w+2W, ... *)
    let deques =
      Array.init workers (fun w ->
          (* workers <= n, so every deque gets at least one index *)
          let len = ((n - 1 - w) / workers) + 1 in
          {
            ids = Array.init len (fun j -> w + (j * workers));
            head = 0;
            tail = len;
            lock = Mutex.create ();
          })
    in
    let results = Array.make n None in
    let failures = Array.make n None in
    let steals = Atomic.make 0 in
    let run i =
      match f items.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
          failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    Atomic.set ever_spawned true;
    let spawned =
      Array.init (workers - 1) (fun k ->
          Domain.spawn (fun () -> worker_loop deques (k + 1) run steals))
    in
    worker_loop deques 0 run steals;
    (* join publishes every worker's slot writes to this domain *)
    Array.iter Domain.join spawned;
    (* the lowest failing index re-raises first: sequential
       left-to-right semantics for deterministic [f] *)
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      failures;
    let out =
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* every slot ran or raised above *))
        results
    in
    (out, { domains = workers; steals = Atomic.get steals })
  end

(* Gang execution: [workers] long-lived tasks that must all run
   concurrently because they synchronize with each other (typically
   through a Barrier).  This is deliberately NOT expressible with [map]:
   a work-stealing pool may place two tasks on one domain, and two
   lockstep tasks sharing a domain deadlock on their first barrier. *)
let gang ~workers ?abort f =
  if workers < 1 then invalid_arg "Domain_pool.gang: workers < 1";
  if workers = 1 then f 0
  else begin
    let failures = Array.make workers None in
    let aborted = Atomic.make false in
    let run w =
      match f w with
      | () -> ()
      | exception e ->
          failures.(w) <- Some (e, Printexc.get_raw_backtrace ());
          (* wake gang-mates blocked on a rendezvous this worker will
             never reach; first failure wins, the rest are echoes *)
          if not (Atomic.exchange aborted true) then
            Option.iter (fun k -> k ()) abort
    in
    Atomic.set ever_spawned true;
    let spawned =
      Array.init (workers - 1) (fun k -> Domain.spawn (fun () -> run (k + 1)))
    in
    run 0;
    Array.iter Domain.join spawned;
    (* re-raise the root cause: the lowest-index failure that is not an
       abort echo (Barrier.Broken from a peer that was woken by [abort]),
       falling back to any failure at all *)
    let first_not_broken = ref None and first_any = ref None in
    Array.iter
      (function
        | Some ((e, _) as fail) ->
            if !first_any = None then first_any := Some fail;
            let echo =
              match e with Barrier.Broken -> true | _ -> false
            in
            if (not echo) && !first_not_broken = None then
              first_not_broken := Some fail
        | None -> ())
      failures;
    match (!first_not_broken, !first_any) with
    | Some (e, bt), _ | None, Some (e, bt) ->
        Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end

(* splitmix64 finalizer over (seed, index): the same mixing Rng uses
   internally, so per-task streams are unrelated for adjacent indices *)
let split_seed ~seed ~index =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let h =
    mix (Int64.add (Int64.of_int seed)
           (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L))
  in
  (* keep it a non-negative native int so it can feed Rng.create
     (shift_right_logical alone still leaves bit 62 set, which is the
     native int's sign bit after to_int) *)
  Int64.to_int h land max_int
