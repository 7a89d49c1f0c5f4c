open Mvl_topology
module Int_ring = Mvl_ring.Int_ring
module Barrier = Mvl_pool.Barrier
module Domain_pool = Mvl_pool.Domain_pool

type fabric = Hypercube of int | Torus of { k : int; n : int }

type routing = Deterministic | Adaptive

type config = {
  packet_len : int;
  vcs : int;
  buffer_depth : int;
  routing : routing;
  traffic : Traffic.t;
  offered_load : float;
  warmup : int;
  measure : int;
  drain : int;
  seed : int;
}

let default_config =
  {
    packet_len = 4;
    vcs = 2;
    buffer_depth = 4;
    routing = Deterministic;
    traffic = Traffic.Uniform;
    offered_load = 0.02;
    warmup = 500;
    measure = 2000;
    drain = 20000;
    seed = 1;
  }

type result = {
  injected : int;
  delivered : int;
  avg_latency : float;
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  throughput : float;
  undrained : int;
  cycles : int;
  latency_histogram : (int * int) array;
}

let pp_result ppf r =
  Format.fprintf ppf
    "@[delivered %d/%d, latency avg=%.1f p50=%d p95=%d p99=%d, \
     throughput=%.4f pkt/node/cyc%t@]"
    r.delivered r.injected r.avg_latency r.p50_latency r.p95_latency
    r.p99_latency r.throughput (fun ppf ->
      if r.undrained > 0 then Format.fprintf ppf ", UNDRAINED=%d" r.undrained)

let graph_of_fabric = function
  | Hypercube n -> Mvl_topology.Hypercube.create n
  | Torus { k; n } -> Kary_ncube.create ~k ~n

(* ------------------------------------------------------------------ *)

(* One flit engine for every [jobs] value: routers are partitioned into
   contiguous shards, one domain each, in the barrier-phased lockstep of
   {!Network_sim.run} (DESIGN.md §11); with one shard
   {!Domain_pool.gang} runs it in the calling domain and nothing is
   spawned.  Like {!Network_sim}, it keeps its hot state in flat
   preallocated structures so the steady state allocates nothing:

   - packets are ids into structure-of-arrays fields ([pq_dest] /
     [pq_born] / dateline state); a flit is the packed word
     [(id lsl 2) lor (head lsl 1) lor tail], so every VC buffer is a
     monomorphic {!Int_ring} instead of a [flit Queue.t];
   - link arrivals and credit returns travel through power-of-two
     timing wheels (slot = [cycle land mask]) instead of per-cycle
     [Hashtbl]s of prepend-built lists;
   - the adaptive candidate scan fills scratch arrays and runs a stable
     insertion sort, reproducing [List.sort]'s (stable) most-credits
     order over the prepend-built candidate list exactly;
   - the per-router [out_used] set is a scratch array versioned by a
     generation counter, and upstream input indexes ([back_idx]) are
     precomputed instead of searched per credit event.

   Two rules keep it from scanning an empty fabric (DESIGN.md §8):

   - the run ends after the first cycle at or past [warmup + measure -
     1] in which no tracked packet is pending — injection is over, so
     no statistic can change after it — and the horizon is only the
     cap.  Each shard writes its [pending] count into its slot between
     the two barriers (per-shard counts may go negative — a worm is
     booked where it is injected and where it is delivered — only the
     sum means anything) and every shard sums the slots after the
     second, so all shards stop after the same cycle;
   - [occupancy.(u)] counts the flits buffered at router [u] over all
     its inputs, and the switch loop skips a router holding none.
     Nothing else in its scan changes when a router is idle: the
     round-robin input start is [now mod n_inputs], and [stamp] only
     has to be fresh per scanned router.

   What keeps every shard count byte-identical:

   - {e Replicated global packet ids.}  Unlike Network_sim's pids,
     wormhole packet ids are semantically load-bearing: the escape VC
     scan starts at [(id + off) mod vcs].  Every shard therefore replays
     the full injection loop (same replicated [Rng] stream) {e and}
     advances a replica of the global id counter for every injection
     network-wide, so a packet's [gid] is identical on every shard.
     The store index ([lid]) stays shard-local and recycles through a
     free list; [gid] rides in the store next to dest/born/class/dim.
   - {e Own-shard traffic goes straight to the wheels.}  A granted flit
     whose downstream router is on the same shard is pushed into the
     arrival wheel with its local id, and a credit whose upstream
     router is on the same shard into the credit wheel.  The order
     inside a bucket cannot matter: one upstream router feeds each
     input-VC address, over a link of fixed latency, at most one flit
     per cycle, so a bucket holds at most one flit per address; credit
     increments commute.  A local id retires when its tail is ejected
     or leaves the shard.
   - {e Head-translated flit messages.}  A flit bound for another shard
     travels as the 8-int message [lat, addr, flags, gid, dest, born,
     class, dim] (class/dim as committed when the route was allocated
     at the sender — final by grant time).  The receiver keeps a
     per-(input, vc) [cur_lid] map: a head flit allocates a fresh local
     store entry and records it at [addr]; body/tail flits reuse it.
     This is sound because wormhole flits of one packet are contiguous
     per input VC — the output VC is owned by the packet from head to
     tail, so no other packet's flit can interleave at that address.
     Credits for another shard are 2-int [lat, addr] messages. *)
let run ?(config = default_config) ?(link_latency = fun _ _ -> 1) ?jobs fabric =
  if config.packet_len < 1 then invalid_arg "Wormhole: packet_len < 1";
  if config.vcs < 1 then invalid_arg "Wormhole: vcs < 1";
  (match (fabric, config.routing) with
  | Torus _, Deterministic when config.vcs < 2 ->
      invalid_arg "Wormhole: tori need >= 2 virtual channels"
  | Torus _, Adaptive when config.vcs < 3 ->
      invalid_arg "Wormhole: adaptive tori need >= 3 virtual channels"
  | Hypercube _, Adaptive when config.vcs < 2 ->
      invalid_arg "Wormhole: adaptive hypercubes need >= 2 virtual channels"
  | _ -> ());
  let graph = graph_of_fabric fabric in
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Wormhole.run: need at least 2 nodes";
  let shards = Sim_shard.shards ~jobs ~n in
  let vcs = config.vcs in
  let neighbors = Array.init n (fun u -> Graph.neighbors graph u) in
  let neighbor_idx u v =
    let arr = neighbors.(u) in
    let rec find i = if arr.(i) = v then i else find (i + 1) in
    find 0
  in
  (* back_idx.(u).(d): index of u among the neighbours of
     neighbors.(u).(d) — the upstream input a credit returns to *)
  let back_idx =
    Array.init n (fun u -> Array.map (fun v -> neighbor_idx v u) neighbors.(u))
  in
  let max_deg =
    Array.fold_left (fun m a -> max m (Array.length a)) 1 neighbors
  in
  let max_inputs = max_deg + 1 in
  (* lat.(u).(d): cycles over the link u -> neighbors.(u).(d), the one
     place [link_latency] is called (once per directed edge); a flit
     forward reads lat.(u).(d), a credit back to upstream [v] over the
     link it came in on reads lat.(v).(back_idx.(u).(in_idx)) *)
  let lat =
    Array.init n (fun u ->
        Array.map (fun v -> max 1 (link_latency u v)) neighbors.(u))
  in
  let max_lat = Array.fold_left (Array.fold_left max) 1 lat in
  let wheel_size =
    let c = ref 1 in
    while !c < max_lat + 1 do
      c := !c * 2
    done;
    !c
  in
  let wheel_mask = wheel_size - 1 in
  let horizon = config.warmup + config.measure + config.drain in
  let inject_end = config.warmup + config.measure in
  (* arrival buckets interleave (address, flit) pairs where address =
     (v * max_inputs + in_idx) * vcs + vc; credit buckets hold
     (u * max_deg + d) * vcs + vc *)
  let owner_of = Sim_shard.owner_table ~n ~shards in
  (* flit mailboxes carry 8-int messages, credit mailboxes 2-int ones;
     mail.(s).(t) is written by shard s in phase 1 and drained by shard
     t in phase 2, with the barriers ordering every access *)
  let flit_mail =
    Array.init shards (fun _ -> Array.init shards (fun _ -> Int_ring.create ()))
  in
  let cred_mail =
    Array.init shards (fun _ -> Array.init shards (fun _ -> Int_ring.create ()))
  in
  let barrier = Barrier.create ~parties:shards in
  (* stop votes: slot w written by shard w between the barriers, read
     by every shard after the second one *)
  let vote_pending = Array.make shards 0 in
  let sh_injected = Array.make shards 0 in
  let sh_delivered = Array.make shards 0 in
  let sh_undrained = Array.make shards 0 in
  let sh_cycles = Array.make shards 0 in
  let sh_hist = Array.init shards (fun _ -> Histogram.create ()) in
  let shard w =
    let lo, hi = Sim_shard.bounds ~n ~shards w in
    let own u = u >= lo && u < hi in
    let rng = Rng.create ~seed:config.seed in
    let flit_out = flit_mail.(w) and cred_out = cred_mail.(w) in
    (* local packet store: [lid] never leaves this shard, [gid] is the
       globally replicated packet id *)
    let pq_gid = ref (Array.make 1024 0) in
    let pq_dest = ref (Array.make 1024 0) in
    let pq_born = ref (Array.make 1024 0) in
    let pq_class = ref (Array.make 1024 0) in
    let pq_dim = ref (Array.make 1024 0) in
    let n_lids = ref 0 in
    let free = Int_ring.create () in
    let new_local ~gid ~dest ~born ~klass ~dim =
      let lid =
        if Int_ring.length free > 0 then Int_ring.pop free
        else begin
          let cap = Array.length !pq_dest in
          if !n_lids = cap then begin
            let g a =
              let a' = Array.make (cap * 2) 0 in
              Array.blit !a 0 a' 0 cap;
              a := a'
            in
            g pq_gid;
            g pq_dest;
            g pq_born;
            g pq_class;
            g pq_dim
          end;
          let l = !n_lids in
          incr n_lids;
          l
        end
      in
      !pq_gid.(lid) <- gid;
      !pq_dest.(lid) <- dest;
      !pq_born.(lid) <- born;
      !pq_class.(lid) <- klass;
      !pq_dim.(lid) <- dim;
      lid
    in
    (* the globally replicated packet id counter *)
    let next_gid = ref 0 in
    (* e-cube route for the packet at the head of an input VC; results
       land in scratch refs (next node, required vc or -1 for any) plus a
       pending dateline-class update applied only once the output VC is
       actually allocated, since allocation may be retried across
       cycles *)
    let rh_next = ref 0 and rh_want = ref (-1) in
    (* 0 = no state update (hypercube), 1 = torus escape, 2 = adaptive *)
    let rh_commit = ref 0 in
    let rh_dim = ref 0 and rh_class = ref 0 in
    let route_hop lid u =
      match fabric with
      | Hypercube _ ->
          let diff = u lxor !pq_dest.(lid) in
          let b =
            let rec lowest i =
              if diff land (1 lsl i) <> 0 then i else lowest (i + 1)
            in
            lowest 0
          in
          rh_next := u lxor (1 lsl b);
          rh_want := -1;
          rh_commit := 0
      | Torus { k; n = dims } ->
          let dest = !pq_dest.(lid) in
          let j = ref 0 and w = ref 1 in
          while !j < dims && u / !w mod k = dest / !w mod k do
            incr j;
            w := !w * k
          done;
          if !j >= dims then invalid_arg "Wormhole: routing at destination";
          let du_j = u / !w mod k and dd_j = dest / !w mod k in
          let klass = if !j <> !pq_dim.(lid) then 0 else !pq_class.(lid) in
          let fwd = (dd_j - du_j + k) mod k in
          let go_plus = fwd <= k - fwd in
          let next_digit =
            if go_plus then (du_j + 1) mod k else (du_j + k - 1) mod k
          in
          let crosses =
            (go_plus && du_j = k - 1) || ((not go_plus) && du_j = 0)
          in
          rh_next := u + ((next_digit - du_j) * !w);
          rh_want := klass;
          rh_commit := 1;
          rh_dim := !j;
          rh_class := if crosses then 1 else klass
    in
    (* per-router state for own routers only; foreign rows share dummies
       and are never touched.  Inputs are the in-neighbours (by index)
       plus one injection pseudo-input at index deg(u); a VC's buffered
       flits live in an int ring and its allocated route is
       [d * vcs + out_vc], -1 when unrouted *)
    let dummy_bufs = [||] and dummy_routes = [||] in
    let bufs =
      Array.init n (fun u ->
          if own u then
            Array.init
              (Array.length neighbors.(u) + 1)
              (fun _ -> Array.init vcs (fun _ -> Int_ring.create ()))
          else dummy_bufs)
    in
    let route_of =
      Array.init n (fun u ->
          if own u then
            Array.init
              (Array.length neighbors.(u) + 1)
              (fun _ -> Array.make vcs (-1))
          else dummy_routes)
    in
    let owner =
      Array.init n (fun u ->
          if own u then
            Array.init (Array.length neighbors.(u)) (fun _ ->
                Array.make vcs (-1))
          else dummy_routes)
    in
    let credits =
      Array.init n (fun u ->
          if own u then
            Array.init (Array.length neighbors.(u)) (fun _ ->
                Array.make vcs config.buffer_depth)
          else dummy_routes)
    in
    (* head-flit translation: cur_lid.(addr) = local id of the packet
       currently streaming through input address [addr] *)
    let cur_lid = Array.make (n * max_inputs * vcs) (-1) in
    let arrivals = Array.init wheel_size (fun _ -> Int_ring.create ()) in
    let credit_returns =
      Array.init wheel_size (fun _ -> Int_ring.create ())
    in
    let used_stamp = Array.make max_deg 0 in
    let stamp = ref 0 in
    let cand_cred = Array.make (max_deg * vcs) 0 in
    let cand_d = Array.make (max_deg * vcs) 0 in
    let cand_vc = Array.make (max_deg * vcs) 0 in
    let injected = ref 0 and delivered = ref 0 and pending = ref 0 in
    let hist = sh_hist.(w) in
    let occupancy = Array.make n 0 in
    (* a credit for the slot just vacated at (u, in_idx, vc): straight
       into the credit wheel when upstream is on this shard, else a
       message to its owner *)
    let return_credit ~now u in_idx vc =
      let upstream = neighbors.(u).(in_idx) in
      let d = back_idx.(u).(in_idx) in
      let lat = lat.(upstream).(d) in
      let addr = (((upstream * max_deg) + d) * vcs) + vc in
      if own upstream then
        Int_ring.push credit_returns.((now + lat) land wheel_mask) addr
      else begin
        let m = cred_out.(owner_of.(upstream)) in
        Int_ring.push m lat;
        Int_ring.push m addr
      end
    in
    let cycle = ref 0 in
    let running = ref (horizon > 0) in
    while !running do
      let now = !cycle in
      (* phase 1: arrivals and credits for own routers *)
      let ab = arrivals.(now land wheel_mask) in
      let n_arr = Int_ring.length ab / 2 in
      if n_arr > 0 then begin
        for i = 0 to n_arr - 1 do
          let addr = Int_ring.unsafe_get ab (2 * i) in
          let fw = Int_ring.unsafe_get ab ((2 * i) + 1) in
          let vc = addr mod vcs in
          let rest = addr / vcs in
          let v = rest / max_inputs in
          occupancy.(v) <- occupancy.(v) + 1;
          Int_ring.push bufs.(v).(rest mod max_inputs).(vc) fw
        done;
        Int_ring.drop_front ab (2 * n_arr)
      end;
      let cb = credit_returns.(now land wheel_mask) in
      let n_cred = Int_ring.length cb in
      if n_cred > 0 then begin
        for i = 0 to n_cred - 1 do
          let addr = Int_ring.unsafe_get cb i in
          let vc = addr mod vcs in
          let rest = addr / vcs in
          let c = credits.(rest / max_deg).(rest mod max_deg) in
          c.(vc) <- c.(vc) + 1
        done;
        Int_ring.drop_front cb n_cred
      end;
      (* replicated injection: every shard replays the full draw
         sequence and gid numbering, materializing only own sources;
         a whole packet is enqueued flit by flit into the pseudo-input *)
      if now < inject_end then
        for src = 0 to n - 1 do
          if Rng.bool rng ~p:config.offered_load then begin
            let dest =
              Traffic.destination config.traffic rng ~n_nodes:n ~src
            in
            let gid = !next_gid in
            incr next_gid;
            if own src then begin
              if now >= config.warmup then begin
                incr injected;
                incr pending
              end;
              let lid = new_local ~gid ~dest ~born:now ~klass:0 ~dim:(-1) in
              occupancy.(src) <- occupancy.(src) + config.packet_len;
              let inj = bufs.(src).(Array.length neighbors.(src)).(0) in
              for f = 0 to config.packet_len - 1 do
                Int_ring.push inj
                  ((lid lsl 2)
                  lor (if f = 0 then 2 else 0)
                  lor (if f = config.packet_len - 1 then 1 else 0))
              done
            end
          end
        done;
      (* switching own routers; one holding no flit has nothing to do *)
      for u = lo to hi - 1 do
        if occupancy.(u) > 0 then begin
          let nbrs = neighbors.(u) in
          let deg = Array.length nbrs in
          let n_inputs = deg + 1 in
          incr stamp;
          let st = !stamp in
          let start = now mod n_inputs in
          for step = 0 to n_inputs - 1 do
            let in_idx = (start + step) mod n_inputs in
            let routes_i = route_of.(u).(in_idx) in
            let bufs_i = bufs.(u).(in_idx) in
            (* one flit per input per cycle: scan this input's VCs *)
            let granted = ref false in
            for vc = 0 to vcs - 1 do
              let buf = bufs_i.(vc) in
              if (not !granted) && Int_ring.length buf > 0 then begin
                let fw = Int_ring.unsafe_get buf 0 in
                let lid = fw lsr 2 in
                if !pq_dest.(lid) = u then begin
                  (* ejection *)
                  Int_ring.drop_front buf 1;
                  occupancy.(u) <- occupancy.(u) - 1;
                  granted := true;
                  if in_idx < deg then return_credit ~now u in_idx vc;
                  if fw land 1 <> 0 then begin
                    routes_i.(vc) <- -1;
                    if !pq_born.(lid) >= config.warmup then begin
                      incr delivered;
                      decr pending;
                      Histogram.add hist (now - !pq_born.(lid))
                    end;
                    Int_ring.push free lid
                  end
                end
                else begin
                  (* route the head if not yet routed *)
                  (if routes_i.(vc) < 0 && fw land 2 <> 0 then begin
                     let try_alloc d vc' commit =
                       if owner.(u).(d).(vc') < 0 then begin
                         owner.(u).(d).(vc') <- lid;
                         routes_i.(vc) <- (d * vcs) + vc';
                         (match commit with
                         | 0 -> ()
                         | 1 ->
                             !pq_dim.(lid) <- !rh_dim;
                             !pq_class.(lid) <- !rh_class
                         | _ ->
                             !pq_dim.(lid) <- -1;
                             !pq_class.(lid) <- 0);
                         true
                       end
                       else false
                     in
                     let escape () =
                       route_hop lid u;
                       let d = neighbor_idx u !rh_next in
                       (* under adaptive routing the hypercube escape lane
                          is pinned to VC 0 *)
                       let want_vc =
                         if config.routing = Adaptive && !rh_want < 0 then 0
                         else !rh_want
                       in
                       if want_vc >= 0 then
                         ignore (try_alloc d want_vc !rh_commit)
                       else begin
                         (* the escape scan starts at the packet id — the
                            replicated gid, never the local store index *)
                         let gid = !pq_gid.(lid) in
                         let ok = ref false in
                         for off = 0 to vcs - 1 do
                           if not !ok then
                             ok := try_alloc d ((gid + off) mod vcs) !rh_commit
                         done
                       end
                     in
                     match config.routing with
                     | Deterministic -> escape ()
                     | Adaptive ->
                         (* adaptive candidates: any minimal hop on an
                            adaptive VC, most credits first; an adaptive
                            hop resets the escape (dateline) state so a
                            later escape re-enters its ring fresh.  The
                            scratch is filled in the reverse of the old
                            prepend order and insertion-sorted stably by
                            credits, which reproduces the original
                            list-and-stable-sort candidate order exactly. *)
                         let adaptive_lo =
                           match fabric with Hypercube _ -> 1 | Torus _ -> 2
                         in
                         let m = ref 0 in
                         let add next =
                           let d = neighbor_idx u next in
                           let ow = owner.(u).(d) and cr = credits.(u).(d) in
                           for vc' = vcs - 1 downto adaptive_lo do
                             if ow.(vc') < 0 then begin
                               cand_cred.(!m) <- cr.(vc');
                               cand_d.(!m) <- d;
                               cand_vc.(!m) <- vc';
                               incr m
                             end
                           done
                         in
                         (match fabric with
                         | Hypercube dims ->
                             let diff = u lxor !pq_dest.(lid) in
                             for b = dims - 1 downto 0 do
                               if diff land (1 lsl b) <> 0 then
                                 add (u lxor (1 lsl b))
                             done
                         | Torus { k; n = dims } ->
                             let dest = !pq_dest.(lid) in
                             let w = ref 1 in
                             for _j = 0 to dims - 1 do
                               let dj = u / !w mod k and tj = dest / !w mod k in
                               if dj <> tj then begin
                                 let fwd = (tj - dj + k) mod k in
                                 let go_plus = fwd <= k - fwd in
                                 let next_digit =
                                   if go_plus then (dj + 1) mod k
                                   else (dj + k - 1) mod k
                                 in
                                 add (u + ((next_digit - dj) * !w))
                               end;
                               w := !w * k
                             done);
                         (* stable insertion sort, credits descending *)
                         for i = 1 to !m - 1 do
                           let c = cand_cred.(i)
                           and d = cand_d.(i)
                           and v' = cand_vc.(i) in
                           let j = ref (i - 1) in
                           while !j >= 0 && cand_cred.(!j) < c do
                             cand_cred.(!j + 1) <- cand_cred.(!j);
                             cand_d.(!j + 1) <- cand_d.(!j);
                             cand_vc.(!j + 1) <- cand_vc.(!j);
                             decr j
                           done;
                           cand_cred.(!j + 1) <- c;
                           cand_d.(!j + 1) <- d;
                           cand_vc.(!j + 1) <- v'
                         done;
                         let done_ = ref false in
                         let i = ref 0 in
                         while (not !done_) && !i < !m do
                           done_ := try_alloc cand_d.(!i) cand_vc.(!i) 2;
                           incr i
                         done;
                         if not !done_ then escape ()
                   end);
                  let r = routes_i.(vc) in
                  if r >= 0 then begin
                    let d = r / vcs and out_vc = r mod vcs in
                    if used_stamp.(d) <> st && credits.(u).(d).(out_vc) > 0
                    then begin
                      Int_ring.drop_front buf 1;
                      occupancy.(u) <- occupancy.(u) - 1;
                      granted := true;
                      used_stamp.(d) <- st;
                      credits.(u).(d).(out_vc) <- credits.(u).(d).(out_vc) - 1;
                      let v = nbrs.(d) in
                      let lat = lat.(u).(d) in
                      let addr =
                        (((v * max_inputs) + back_idx.(u).(d)) * vcs) + out_vc
                      in
                      let stays = own v in
                      if stays then begin
                        (* downstream is on this shard: the flit keeps
                           its local id *)
                        let ab = arrivals.((now + lat) land wheel_mask) in
                        Int_ring.push ab addr;
                        Int_ring.push ab fw
                      end
                      else begin
                        (* the flit crosses shards as a full-metadata
                           message; for body/tail flits the receiver
                           uses only lat/addr/flags *)
                        let fm = flit_out.(owner_of.(v)) in
                        Int_ring.push fm lat;
                        Int_ring.push fm addr;
                        Int_ring.push fm (fw land 3);
                        Int_ring.push fm !pq_gid.(lid);
                        Int_ring.push fm !pq_dest.(lid);
                        Int_ring.push fm !pq_born.(lid);
                        Int_ring.push fm !pq_class.(lid);
                        Int_ring.push fm !pq_dim.(lid)
                      end;
                      if in_idx < deg then return_credit ~now u in_idx vc;
                      if fw land 1 <> 0 then begin
                        owner.(u).(d).(out_vc) <- -1;
                        routes_i.(vc) <- -1;
                        (* a tail leaving this shard retires the local
                           store entry (the metadata now lives in the
                           message and, for earlier flits, downstream) *)
                        if not stays then Int_ring.push free lid
                      end
                    end
                  end
                end
              end
            done
          done
        end
      done;
      Barrier.wait barrier;
      (* phase 2: drain inbound mailboxes; a bucket holds at most one
         flit per address and credit increments commute, so the drain
         order is free *)
      for s = 0 to shards - 1 do
        let fm = flit_mail.(s).(w) in
        let msgs = Int_ring.length fm / 8 in
        for i = 0 to msgs - 1 do
          let base = 8 * i in
          let lat = Int_ring.unsafe_get fm base in
          let addr = Int_ring.unsafe_get fm (base + 1) in
          let flags = Int_ring.unsafe_get fm (base + 2) in
          let lid =
            if flags land 2 <> 0 then begin
              (* head: allocate the local replica and bind the input
                 address to it until the tail passes *)
              let gid = Int_ring.unsafe_get fm (base + 3) in
              let dest = Int_ring.unsafe_get fm (base + 4) in
              let born = Int_ring.unsafe_get fm (base + 5) in
              let klass = Int_ring.unsafe_get fm (base + 6) in
              let dim = Int_ring.unsafe_get fm (base + 7) in
              let lid = new_local ~gid ~dest ~born ~klass ~dim in
              cur_lid.(addr) <- lid;
              lid
            end
            else cur_lid.(addr)
          in
          let ab = arrivals.((now + lat) land wheel_mask) in
          Int_ring.push ab addr;
          Int_ring.push ab ((lid lsl 2) lor flags)
        done;
        Int_ring.clear fm;
        let cm = cred_mail.(s).(w) in
        let creds = Int_ring.length cm / 2 in
        for i = 0 to creds - 1 do
          let lat = Int_ring.unsafe_get cm (2 * i) in
          let addr = Int_ring.unsafe_get cm ((2 * i) + 1) in
          Int_ring.push credit_returns.((now + lat) land wheel_mask) addr
        done;
        Int_ring.clear cm
      done;
      vote_pending.(w) <- !pending;
      Barrier.wait barrier;
      incr cycle;
      running :=
        !cycle < horizon
        && (!cycle < inject_end || Array.fold_left ( + ) 0 vote_pending > 0)
    done;
    sh_injected.(w) <- !injected;
    sh_delivered.(w) <- !delivered;
    sh_undrained.(w) <- !pending;
    sh_cycles.(w) <- !cycle
  in
  Domain_pool.gang ~workers:shards
    ~abort:(fun () -> Barrier.break barrier)
    shard;
  let injected = ref 0 and delivered = ref 0 and undrained = ref 0 in
  let hist = Histogram.create () in
  for s = 0 to shards - 1 do
    injected := !injected + sh_injected.(s);
    delivered := !delivered + sh_delivered.(s);
    undrained := !undrained + sh_undrained.(s);
    Histogram.merge_into ~into:hist sh_hist.(s)
  done;
  {
    injected = !injected;
    delivered = !delivered;
    avg_latency = Histogram.mean hist;
    p50_latency = Histogram.percentile hist 50;
    p95_latency = Histogram.percentile hist 95;
    p99_latency = Histogram.percentile hist 99;
    max_latency = Histogram.max_value hist;
    throughput =
      float_of_int !delivered /. float_of_int (n * max 1 config.measure);
    undrained = !undrained;
    cycles = sh_cycles.(0);
    latency_histogram = Histogram.to_pairs hist;
  }
