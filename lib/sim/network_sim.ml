open Mvl_topology
module Int_ring = Mvl_ring.Int_ring
module Barrier = Mvl_pool.Barrier
module Domain_pool = Mvl_pool.Domain_pool

type config = {
  traffic : Traffic.t;
  offered_load : float;
  warmup : int;
  measure : int;
  drain : int;
  seed : int;
  lookahead : int;
}

let default_config =
  {
    traffic = Traffic.Uniform;
    offered_load = 0.1;
    warmup = 500;
    measure = 2000;
    drain = 5000;
    seed = 1;
    lookahead = 8;
  }

type result = {
  injected : int;
  delivered : int;
  hop_total : int;
  avg_latency : float;
  p50_latency : int;
  p95_latency : int;
  p99_latency : int;
  max_latency : int;
  throughput : float;
  avg_hops : float;
  cycles : int;
  undrained : int;
  latency_histogram : (int * int) array;
}

let pp_result ppf r =
  Format.fprintf ppf
    "@[delivered %d/%d, latency avg=%.1f p50=%d p95=%d p99=%d max=%d, \
     throughput=%.4f, hops=%.2f%t@]"
    r.delivered r.injected r.avg_latency r.p50_latency r.p95_latency
    r.p99_latency r.max_latency r.throughput r.avg_hops (fun ppf ->
      if r.undrained > 0 then Format.fprintf ppf ", UNDRAINED=%d" r.undrained)

let link_latency_of_layout ?(units_per_cycle = 64) layout =
  let route = Mvl_routing.Route.of_layout layout in
  fun u v ->
    1 + (Mvl_routing.Route.edge_length route u v / max 1 units_per_cycle)

(* One engine for every [jobs] value: the routers are partitioned into
   [shards] contiguous ranges, one domain each, advancing in
   barrier-phased lockstep (two barriers per cycle).  With one shard
   {!Domain_pool.gang} runs it in the calling domain and nothing is
   spawned.  Per cycle it allocates nothing once the rings and the
   histogram have reached their high-water marks, and its fixed-seed
   statistics are bit-identical to the original list/Hashtbl engine at
   every shard count — the golden-determinism and parity tests pin that
   down; DESIGN.md §8 and §11 give the argument.

   Layout of the hot state:

   - Packets live in structure-of-arrays form: a packet is an id [pid]
     indexed into [pk_born] / [pk_hops]; freed ids are recycled through
     a free list so the arrays stay dense.  Whether a packet is tracked
     is derived ([born >= warmup]) rather than stored.  Everywhere a
     packet travels it is the packed word [(pid lsl dshift) lor dest],
     so router queues and wheel buckets are monomorphic {!Int_ring}s —
     sequential integer streams with no pointer chasing and no write
     barrier.
   - Arrivals sit in a timing wheel of power-of-two size (slot =
     [cycle land wheel_mask]) instead of a per-cycle [Hashtbl]; each
     bucket interleaves (node, packed packet) pairs and drains in push
     order, exactly the FIFO order the old reversed association list
     produced.
   - Router queues replace the [q_front]/[q_back] list pair, with a
     [visible] counter marking how much of the queue corresponds to the
     old [q_front] (new arrivals land behind it and only become
     scannable once it empties).
   - Routing is a transposed table: [next_out.(u).(dest)], so one
     router's scan stays inside a single row (per-destination arrays
     would scatter it across as many arrays as there are destinations
     in the queue).  Each cell packs the next hop with the latency of
     the link to it, so a grant reads one word: [link_latency] is
     resolved once per directed edge before cycle 0, and no closure or
     hash table is consulted after that.  {!Routing_table.sweep} builds
     the columns of up to 62 destinations at once and hands over
     (node, mask, slot) triples; the destination set ascends, so under
     uniform traffic the writes of one sweep stay inside a 62-cell
     window of each row.
   - The per-router grant set is a node-indexed scratch array versioned
     by a generation counter, replacing the per-router-per-cycle
     [Hashtbl.create 8].
   - Delivered latencies accumulate into a dense {!Histogram} instead
     of an ever-growing list.

   What keeps the shards byte-identical to one another:

   - {e Replicated injection stream.}  Each shard holds its own [Rng]
     seeded with [config.seed] and replays the entire per-cycle
     injection loop over all [n] sources — [Rng.bool] and the
     destination draw consume the same number of splitmix64 steps
     everywhere — but materializes packets only for sources it owns.
     Splitting one stream across shards is impossible (bounded draws use
     rejection sampling, so the positions a source consumes depend on
     every earlier draw), and per-shard [split_seed] streams would
     change the stats; replaying the one stream is what keeps them
     bit-identical.
   - {e Wheel order.}  A bucket's order sets the queue order at a node,
     and the order to keep is (send cycle, source router).  Phase 1:
     each shard drains its own wheel bucket, injects, and switches its
     own routers in ascending order, buffering grants as 5-int messages
     [lat, out, dest, born, hops] in the per-(src-shard, dst-shard)
     mailbox.  Phase 2 (after a barrier): each shard drains its inbound
     mailboxes in ascending source-shard order into its wheel.  Shard
     ranges ascend with the shard index, so (ascending shard, push
     order) is ascending-router order.  Shard 0 alone pushes its own
     grants straight into its wheel in phase 1, keeping the pid and
     bumping [hops] in place: no lower shard exists whose grants must
     precede them.  Any other shard's own grants would jump ahead of
     its lower neighbours' in phase 1, so they take the mailbox.  With
     one shard no grant becomes a message.
   - {e Local packet stores.}  Packet ids are shard-local (the packed
     word's pid field never crosses a shard boundary): the sender
     retires its pid when the grant becomes a message, the receiver
     acquires a fresh one on transfer.  Pid numbering depends on the
     shard count, but pids are pure store indices — no decision ever
     reads one.
   - {e Stop votes.}  Each shard publishes its pending/in-flight counts
     (per-shard [pending] may go negative: injector and deliverer
     shards book the same packet asymmetrically — only the sum is
     meaningful) between the barriers; after the second barrier every
     shard sums the same arrays and reaches the same stop decision, so
     all shards run the same number of cycles. *)
let run ?(config = default_config) ?(link_latency = fun _ _ -> 1) ?jobs graph =
  let n = Graph.n graph in
  if n < 2 then invalid_arg "Network_sim.run: need at least 2 nodes";
  let shards = Sim_shard.shards ~jobs ~n in
  (* packed-word geometry: low [dshift] bits carry the destination *)
  let dshift =
    let b = ref 1 in
    while 1 lsl !b < n do
      incr b
    done;
    !b
  in
  let dmask = (1 lsl dshift) - 1 in
  (* [link_latency] is called here, once per directed edge, and never
     again: [create] resolves it into a per-slot column, the tie-break
     reads the raw values and the links their clamp to 1 *)
  let routing = Routing_table.create ~edge_cost:link_latency graph in
  let adj = Graph.adjacency graph in
  let lat = Array.map (fun c -> max 1 c) (Routing_table.costs routing) in
  (* per directed edge, the routing cell of a hop over it: the next
     node and the latency of the link to it, packed as
     [(lat lsl dshift) lor next] *)
  let hop_cell = Array.mapi (fun s l -> (l lsl dshift) lor adj.(s)) lat in
  let dests = Traffic.destinations config.traffic ~n_nodes:n in
  let n_dests = Array.length dests in
  (* shared read-only routing matrix, transposed: next_out.(u).(dest)
     is a [hop_cell], -1 when there is none.  The full destination set
     is known up front from the traffic pattern, so shards pre-build
     disjoint column slices before cycle 0 (the first barrier publishes
     them) *)
  let next_out = Array.init n (fun _ -> Array.make n (-1)) in
  (* timing wheel sized from the slowest link, rounded up to a power of
     two so the slot computation is a mask *)
  let max_lat = Array.fold_left max 1 lat in
  let wheel_size =
    let c = ref 1 in
    while !c < max_lat + 1 do
      c := !c * 2
    done;
    !c
  in
  let wheel_mask = wheel_size - 1 in
  let horizon = config.warmup + config.measure + config.drain in
  let owner = Sim_shard.owner_table ~n ~shards in
  (* mail.(s).(t): written by shard s in phase 1, drained by shard t in
     phase 2; the barriers order every access *)
  let mail =
    Array.init shards (fun _ -> Array.init shards (fun _ -> Int_ring.create ()))
  in
  let barrier = Barrier.create ~parties:shards in
  (* stop votes: slot w written by shard w between the barriers, read
     by every shard after the second one *)
  let vote_pending = Array.make shards 0 in
  let vote_in_flight = Array.make shards 0 in
  (* per-shard results, merged after the join *)
  let sh_injected = Array.make shards 0 in
  let sh_delivered = Array.make shards 0 in
  let sh_hop_total = Array.make shards 0 in
  let sh_undrained = Array.make shards 0 in
  let sh_cycles = Array.make shards 0 in
  let sh_hist = Array.init shards (fun _ -> Histogram.create ()) in
  let shard w =
    let lo, hi = Sim_shard.bounds ~n ~shards w in
    (* grants to routers below [direct_hi] skip the mailbox: shard 0's
       own routers, and nobody else's (see the wheel-order note) *)
    let direct_hi = if w = 0 then hi else 0 in
    let rng = Rng.create ~seed:config.seed in
    (* every shard replicates the full injection process (init draws
       included) so the per-shard streams stay byte-identical *)
    let inj =
      Traffic.injector config.traffic ~offered_load:config.offered_load
        ~n_nodes:n rng
    in
    let mail_out = mail.(w) in
    (* local packet store — pids never leave this shard *)
    let pk_born = ref (Array.make 1024 0) in
    let pk_hops = ref (Array.make 1024 0) in
    let n_pids = ref 0 in
    let free = Int_ring.create () in
    let acquire ~dest ~born ~hops =
      let pid =
        if Int_ring.length free > 0 then Int_ring.pop free
        else begin
          let cap = Array.length !pk_born in
          if !n_pids = cap then begin
            let born' = Array.make (cap * 2) 0 in
            let hops' = Array.make (cap * 2) 0 in
            Array.blit !pk_born 0 born' 0 cap;
            Array.blit !pk_hops 0 hops' 0 cap;
            pk_born := born';
            pk_hops := hops'
          end;
          let p = !n_pids in
          incr n_pids;
          p
        end
      in
      !pk_born.(pid) <- born;
      !pk_hops.(pid) <- hops;
      (pid lsl dshift) lor dest
    in
    (* each bucket holds interleaved (node, packed packet) pairs *)
    let bucket = Array.init wheel_size (fun _ -> Int_ring.create ()) in
    let in_flight = ref 0 in
    (* router queues and their [visible] windows; only own rows are
       ever touched, foreign slots share one dummy *)
    let dummy = Int_ring.create () in
    let queue =
      Array.init n (fun u ->
          if u >= lo && u < hi then Int_ring.create () else dummy)
    in
    let visible = Array.make n 0 in
    (* grant scratch: output port [v] is taken in this scan iff
       [granted_gen.(v) = gen] *)
    let granted_gen = Array.make n 0 in
    let gen = ref 0 in
    (* scan decisions for the <= lookahead packets examined per router *)
    let keep = ref (Array.make 64 false) in
    let ensure_keep k =
      if k > Array.length !keep then begin
        let cap = ref (Array.length !keep) in
        while !cap < k do
          cap := !cap * 2
        done;
        keep := Array.make !cap false
      end
    in
    let injected = ref 0 and delivered = ref 0 in
    let hist = sh_hist.(w) in
    let hop_total = ref 0 in
    let pending_tracked = ref 0 in
    let cycle = ref 0 in
    let continue = ref (horizon > 0) in
    (* pre-build this shard's slice of the shared routing matrix:
       disjoint (u, dest) cells per shard, published by the barrier.
       One sweep builds up to [Routing_table.width] destinations, and
       one scratch serves them all *)
    let dlo = w * n_dests / shards and dhi = (w + 1) * n_dests / shards in
    let scratch = Routing_table.scratch routing in
    let pos = ref dlo in
    while !pos < dhi do
      let base = !pos in
      let len = min Routing_table.width (dhi - base) in
      Routing_table.sweep routing scratch dests ~pos:base ~len
        ~emit:(fun u mask s ->
          let row = next_out.(u) and cell = hop_cell.(s) in
          let m = ref mask in
          while !m <> 0 do
            row.(dests.(base + Routing_table.lowest_bit !m)) <- cell;
            m := !m land (!m - 1)
          done);
      pos := base + len
    done;
    Barrier.wait barrier;
    while !continue do
      let now = !cycle in
      (* phase 1: arrivals land in own router queues (or terminate) *)
      let b = bucket.(now land wheel_mask) in
      let landed = Int_ring.length b / 2 in
      if landed > 0 then begin
        in_flight := !in_flight - landed;
        let born_a = !pk_born and hops_a = !pk_hops in
        for i = 0 to landed - 1 do
          let node = Int_ring.unsafe_get b (2 * i) in
          let v = Int_ring.unsafe_get b ((2 * i) + 1) in
          if node = v land dmask then begin
            let pid = v lsr dshift in
            let born = Array.unsafe_get born_a pid in
            if born >= config.warmup then begin
              delivered := !delivered + 1;
              pending_tracked := !pending_tracked - 1;
              Histogram.add hist (now - born);
              hop_total := !hop_total + Array.unsafe_get hops_a pid
            end;
            Int_ring.push free pid
          end
          else Int_ring.push queue.(node) v
        done;
        Int_ring.drop_front b (2 * landed)
      end;
      (* replicated injection: every shard replays the full draw
         sequence, materializing only its own sources *)
      if now < config.warmup + config.measure then
        for src = 0 to n - 1 do
          if Traffic.inject inj rng ~src then begin
            let dest =
              Traffic.destination config.traffic rng ~n_nodes:n ~src
            in
            if src >= lo && src < hi then begin
              if now >= config.warmup then begin
                injected := !injected + 1;
                pending_tracked := !pending_tracked + 1
              end;
              Int_ring.push queue.(src) (acquire ~dest ~born:now ~hops:0)
            end
          end
        done;
      (* switching: scan each own router's visible window up to the
         lookahead depth, granting at most one packet per output port *)
      let hops_a = !pk_hops in
      for u = lo to hi - 1 do
        let q = queue.(u) in
        if visible.(u) = 0 && Int_ring.length q > 0 then
          visible.(u) <- Int_ring.length q;
        let vis = visible.(u) in
        if vis > 0 then begin
          incr gen;
          let g = !gen in
          let k = if config.lookahead < vis then config.lookahead else vis in
          ensure_keep k;
          let keep = !keep in
          let row = Array.unsafe_get next_out u in
          let granted = ref 0 in
          (* pass 1: decide (and schedule) in queue order *)
          for i = 0 to k - 1 do
            let v = Int_ring.unsafe_get q i in
            let cell = Array.unsafe_get row (v land dmask) in
            if cell < 0 then invalid_arg "Network_sim.run: unreachable node";
            let out = cell land dmask in
            if Array.unsafe_get granted_gen out = g then
              Array.unsafe_set keep i true
            else begin
              Array.unsafe_set granted_gen out g;
              Array.unsafe_set keep i false;
              let pid = v lsr dshift in
              let lat = cell lsr dshift in
              if out < direct_hi then begin
                Array.unsafe_set hops_a pid (Array.unsafe_get hops_a pid + 1);
                let b = Array.unsafe_get bucket ((now + lat) land wheel_mask) in
                Int_ring.push b out;
                Int_ring.push b v;
                incr in_flight
              end
              else begin
                (* the grant leaves as a message; the local pid retires
                   (data travels in the message, and the receiver
                   acquires a pid of its own) *)
                let m = Array.unsafe_get mail_out (Array.unsafe_get owner out) in
                Int_ring.push m lat;
                Int_ring.push m out;
                Int_ring.push m (v land dmask);
                Int_ring.push m (Array.unsafe_get !pk_born pid);
                Int_ring.push m (Array.unsafe_get hops_a pid + 1);
                Int_ring.push free pid
              end;
              granted := !granted + 1
            end
          done;
          if !granted > 0 then begin
            (* pass 2: right-align the kept packets inside the scanned
               prefix, then drop the vacated front slots *)
            let w' = ref (k - 1) in
            for i = k - 1 downto 0 do
              if Array.unsafe_get keep i then begin
                if !w' <> i then
                  Int_ring.unsafe_set q !w' (Int_ring.unsafe_get q i);
                decr w'
              end
            done;
            Int_ring.drop_front q !granted;
            visible.(u) <- vis - !granted
          end
        end
      done;
      Barrier.wait barrier;
      (* phase 2: drain inbound mailboxes in ascending source-shard
         order, so wheel buckets fill in ascending-router order *)
      for s = 0 to shards - 1 do
        let m = mail.(s).(w) in
        let msgs = Int_ring.length m / 5 in
        for i = 0 to msgs - 1 do
          let base = 5 * i in
          let lat = Int_ring.unsafe_get m base in
          let out = Int_ring.unsafe_get m (base + 1) in
          let dest = Int_ring.unsafe_get m (base + 2) in
          let born = Int_ring.unsafe_get m (base + 3) in
          let hops = Int_ring.unsafe_get m (base + 4) in
          let b = Array.unsafe_get bucket ((now + lat) land wheel_mask) in
          Int_ring.push b out;
          Int_ring.push b (acquire ~dest ~born ~hops);
          incr in_flight
        done;
        Int_ring.clear m
      done;
      vote_pending.(w) <- !pending_tracked;
      vote_in_flight.(w) <- !in_flight;
      Barrier.wait barrier;
      incr cycle;
      if !cycle >= horizon then continue := false
      else if !cycle >= config.warmup + config.measure then begin
        let p = ref 0 and f = ref 0 in
        for s = 0 to shards - 1 do
          p := !p + vote_pending.(s);
          f := !f + vote_in_flight.(s)
        done;
        if !p = 0 && !f = 0 then continue := false
      end
    done;
    sh_injected.(w) <- !injected;
    sh_delivered.(w) <- !delivered;
    sh_hop_total.(w) <- !hop_total;
    sh_undrained.(w) <- !pending_tracked;
    sh_cycles.(w) <- !cycle
  in
  Domain_pool.gang ~workers:shards
    ~abort:(fun () -> Barrier.break barrier)
    shard;
  let injected = ref 0
  and delivered = ref 0
  and hop_total = ref 0
  and undrained = ref 0 in
  let hist = Histogram.create () in
  for s = 0 to shards - 1 do
    injected := !injected + sh_injected.(s);
    delivered := !delivered + sh_delivered.(s);
    hop_total := !hop_total + sh_hop_total.(s);
    undrained := !undrained + sh_undrained.(s);
    Histogram.merge_into ~into:hist sh_hist.(s)
  done;
  {
    injected = !injected;
    delivered = !delivered;
    hop_total = !hop_total;
    avg_latency = Histogram.mean hist;
    p50_latency = Histogram.percentile hist 50;
    p95_latency = Histogram.percentile hist 95;
    p99_latency = Histogram.percentile hist 99;
    max_latency = Histogram.max_value hist;
    throughput =
      float_of_int !delivered /. float_of_int (n * max 1 config.measure);
    avg_hops =
      (if !delivered = 0 then 0.0
       else float_of_int !hop_total /. float_of_int !delivered);
    cycles = sh_cycles.(0);
    undrained = !undrained;
    latency_histogram = Histogram.to_pairs hist;
  }

let saturation_throughput ?(config = default_config) ?link_latency graph =
  let cfg = { config with offered_load = 0.95 } in
  (run ~config:cfg ?link_latency graph).throughput

let zero_load_latency ?(samples = 64) ?(link_latency = fun _ _ -> 1) graph =
  let n = Graph.n graph in
  let routing = Routing_table.create ~edge_cost:link_latency graph in
  let cost = Routing_table.costs routing and adj = Graph.adjacency graph in
  let rng = Rng.create ~seed:7 in
  (* the sampled pairs that travel, and their distinct destinations in
     order of first draw *)
  let samples = max 0 samples in
  let src_of = Array.make samples 0 and dest_of = Array.make samples 0 in
  let count = ref 0 in
  let dests = Array.make samples 0 and n_dests = ref 0 in
  let index = Array.make n (-1) in
  for _ = 1 to samples do
    let src = Rng.int rng ~bound:n in
    let dest = Rng.int rng ~bound:n in
    if src <> dest then begin
      if index.(dest) < 0 then begin
        index.(dest) <- !n_dests;
        dests.(!n_dests) <- dest;
        incr n_dests
      end;
      src_of.(!count) <- src;
      dest_of.(!count) <- dest;
      incr count
    end
  done;
  (* route the pairs one sweep of destinations at a time (a sum of ints
     does not depend on the order of the walks): slots.(i * n + u) is
     u's next-hop slot towards the sweep's i-th destination *)
  let scratch = Routing_table.scratch routing in
  let slots = Array.make (min Routing_table.width !n_dests * n) (-1) in
  let total = ref 0 in
  let base = ref 0 in
  while !base < !n_dests do
    let pos = !base in
    let len = min Routing_table.width (!n_dests - pos) in
    Array.fill slots 0 (len * n) (-1);
    Routing_table.sweep routing scratch dests ~pos ~len ~emit:(fun u mask s ->
        let m = ref mask in
        while !m <> 0 do
          slots.((Routing_table.lowest_bit !m * n) + u) <- s;
          m := !m land (!m - 1)
        done);
    for p = 0 to !count - 1 do
      let dest = dest_of.(p) in
      let i = index.(dest) - pos in
      if i >= 0 && i < len then begin
        (* walk the routed path slot by slot, paying each link's
           clamped latency *)
        let at = ref src_of.(p) in
        while !at <> dest do
          let s = slots.((i * n) + !at) in
          if s < 0 then
            invalid_arg "Network_sim.zero_load_latency: unreachable node";
          total := !total + max 1 cost.(s);
          at := adj.(s)
        done
      end
    done;
    base := pos + len
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count
