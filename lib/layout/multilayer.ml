open Mvl_topology

type groups = { horizontal : int; vertical : int }

let groups_for_layers layers =
  if layers < 2 then invalid_arg "Multilayer: layers < 2";
  { horizontal = (layers + 1) / 2; vertical = layers / 2 }

let ceil_div a b = if a = 0 then 0 else ((a - 1) / b) + 1

(* an extra (non-orthogonal) link of an augmented layout, §5.3 *)
type extra_link = {
  xedge : int;        (* edge id in the full graph *)
  src : int;          (* routed from src's top terminal ... *)
  dst : int;          (* ... to dst's right terminal *)
  mutable grp : int;  (* paired layer group *)
  mutable hslot : int;(* dedicated horizontal slot in src's row gap *)
  mutable vslot : int;(* dedicated vertical slot right of dst's column *)
  mutable term_x : int;
  mutable term_y : int;
}

type frame = {
  col_x0 : int array;
  col_w : int array;
  row_y0 : int array;
  row_h : int array;
  col_slots : int array;
  row_slots : int array;
}

(* incidence keys pack (position of the other endpoint, edge id) into
   one int so a range sort orders a node's terminals exactly like the
   historical (pos, edge_id) pair sort *)
let eid_bits = 31
let eid_mask = (1 lsl eid_bits) - 1

let subset_msg = "Multilayer: full graph must contain every orthogonal edge"

let realize_general ?(node_side = 0) ?(z_offset = 0) ?(col_gap_extra = 0)
    ?(node_extra_rows = 0) ?total_layers ?(jobs = 1) (o : Orthogonal.t)
    ~full_graph ~layers =
  let t_terms = Unix.gettimeofday () in
  let g = groups_for_layers layers in
  let n = Graph.n o.graph in
  if Graph.n full_graph <> n then
    invalid_arg "Multilayer: full graph must have the same nodes";
  (* --- split edges of the full graph into orthogonal + extra --------
     Both edge lists are lexicographically sorted with [u < v] and the
     orthogonal edges must be a subsequence of the full ones, so one
     merge walk replaces the historical tuple-keyed id Hashtbls: it
     yields the full-graph id of every orthogonal edge and the extras
     as the skipped full edges. *)
  let full_edges = Graph.edges full_graph in
  let ortho_edges = Graph.edges o.graph in
  let m_full = Array.length full_edges in
  let m_ortho = Array.length ortho_edges in
  let n_extra = m_full - m_ortho in
  if n_extra < 0 then invalid_arg subset_msg;
  let full_of_ortho = Array.make (max 1 m_ortho) 0 in
  let extra_ids = Array.make (max 1 n_extra) 0 in
  let oi = ref 0 and xi = ref 0 in
  for i = 0 to m_full - 1 do
    let u, v = full_edges.(i) in
    let matched =
      !oi < m_ortho
      &&
      let ou, ov = ortho_edges.(!oi) in
      ou = u && ov = v
    in
    if matched then begin
      full_of_ortho.(!oi) <- i;
      incr oi
    end
    else begin
      if !xi >= n_extra then invalid_arg subset_msg;
      extra_ids.(!xi) <- i;
      incr xi
    end
  done;
  if !oi < m_ortho then invalid_arg subset_msg;
  (* extras in descending full-edge order: slot packing and the
     terminal append order below were defined by the historical
     prepend-built list and are pinned by the golden layouts *)
  let extras =
    Array.init n_extra (fun k ->
        let i = extra_ids.(n_extra - 1 - k) in
        let u, v = full_edges.(i) in
        {
          xedge = i;
          src = u;
          dst = v;
          grp = 0;
          hslot = 0;
          vslot = 0;
          term_x = 0;
          term_y = 0;
        })
  in
  (* --- per-gap regular slots ----------------------------------------- *)
  let row_slots = Array.map (fun t -> ceil_div t g.horizontal) o.row_tracks in
  let col_slots = Array.map (fun t -> ceil_div t g.vertical) o.col_tracks in
  (* --- extra links: dedicated slots, paired groups -------------------- *)
  let extra_h = Array.make o.rows 0 and extra_v = Array.make o.cols 0 in
  let row_extra_top = Array.make n 0 and col_extra_right = Array.make n 0 in
  (* a slot may be shared by links of *different* groups (same in-plane
     position, different layers), so slot allocation is per (gap, group)
     — flat counters indexed [gap * vertical + grp] *)
  let h_grp_count = Array.make (max 1 (o.rows * g.vertical)) 0 in
  let v_grp_count = Array.make (max 1 (o.cols * g.vertical)) 0 in
  let h_total = Array.make o.rows 0 in
  Array.iter
    (fun l ->
      let r_src, _ = o.place.(l.src) and _, c_dst = o.place.(l.dst) in
      l.grp <- h_total.(r_src) mod g.vertical;
      h_total.(r_src) <- h_total.(r_src) + 1;
      let hk = (r_src * g.vertical) + l.grp in
      l.hslot <- row_slots.(r_src) + h_grp_count.(hk);
      h_grp_count.(hk) <- h_grp_count.(hk) + 1;
      let vk = (c_dst * g.vertical) + l.grp in
      l.vslot <- col_slots.(c_dst) + v_grp_count.(vk);
      v_grp_count.(vk) <- v_grp_count.(vk) + 1;
      extra_h.(r_src) <- max extra_h.(r_src) (l.hslot - row_slots.(r_src) + 1);
      extra_v.(c_dst) <- max extra_v.(c_dst) (l.vslot - col_slots.(c_dst) + 1);
      row_extra_top.(l.src) <- row_extra_top.(l.src) + 1;
      col_extra_right.(l.dst) <- col_extra_right.(l.dst) + 1)
    extras;
  (* --- node degrees and band sizes ----------------------------------- *)
  let row_deg = Array.make n 0 and col_deg = Array.make n 0 in
  for r = 0 to o.rows - 1 do
    for k = o.row_off.(r) to o.row_off.(r + 1) - 1 do
      let u = o.node_at.(r).(o.row_a.(k))
      and v = o.node_at.(r).(o.row_b.(k)) in
      row_deg.(u) <- row_deg.(u) + 1;
      row_deg.(v) <- row_deg.(v) + 1
    done
  done;
  for c = 0 to o.cols - 1 do
    for k = o.col_off.(c) to o.col_off.(c + 1) - 1 do
      let u = o.node_at.(o.col_a.(k)).(c)
      and v = o.node_at.(o.col_b.(k)).(c) in
      col_deg.(u) <- col_deg.(u) + 1;
      col_deg.(v) <- col_deg.(v) + 1
    done
  done;
  let col_w = Array.make o.cols 1 and row_h = Array.make o.rows 1 in
  for r = 0 to o.rows - 1 do
    for c = 0 to o.cols - 1 do
      let u = o.node_at.(r).(c) in
      col_w.(c) <-
        max col_w.(c) (max node_side (row_deg.(u) + row_extra_top.(u) + 2));
      row_h.(r) <-
        max row_h.(r)
          (max node_side (col_deg.(u) + col_extra_right.(u) + node_extra_rows + 2))
    done
  done;
  (* --- coordinates ----------------------------------------------------- *)
  let col_x0 = Array.make o.cols 0 and row_y0 = Array.make o.rows 0 in
  for c = 1 to o.cols - 1 do
    col_x0.(c) <-
      col_x0.(c - 1) + col_w.(c - 1) + col_slots.(c - 1) + extra_v.(c - 1)
      + col_gap_extra + 1
  done;
  for r = 1 to o.rows - 1 do
    row_y0.(r) <-
      row_y0.(r - 1) + row_h.(r - 1) + row_slots.(r - 1) + extra_h.(r - 1) + 1
  done;
  let vtrack_x c slot = col_x0.(c) + col_w.(c) + slot in
  let htrack_y r slot = row_y0.(r) + row_h.(r) + slot in
  (* --- terminals --------------------------------------------------------
     Per-node incidence in CSR form: one packed (other position, edge
     id) key per edge endpoint, offsets from the degree counts above.
     Sorting each node's range in place orders its terminals by the
     other endpoint's position — the same order the historical per-node
     pair lists got from [List.sort] — and the x (or y) offsets assign
     into flat edge-indexed [term_a]/[term_b] columns: a row edge's
     smaller-column endpoint always gets the smaller x (columns bands
     ascend with the column index), so a-side/b-side replaces the
     min/max over the historical double-binding Hashtbl protocol. *)
  let row_ioff = Array.make (n + 1) 0 and col_ioff = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_ioff.(u + 1) <- row_ioff.(u) + row_deg.(u);
    col_ioff.(u + 1) <- col_ioff.(u) + col_deg.(u)
  done;
  let row_ikey = Array.make (max 1 row_ioff.(n)) 0 in
  let col_ikey = Array.make (max 1 col_ioff.(n)) 0 in
  let row_icur = Array.copy row_ioff and col_icur = Array.copy col_ioff in
  for r = 0 to o.rows - 1 do
    for k = o.row_off.(r) to o.row_off.(r + 1) - 1 do
      let eid = o.row_eid.(k) in
      let a = o.row_a.(k) and b = o.row_b.(k) in
      let u = o.node_at.(r).(a) and v = o.node_at.(r).(b) in
      row_ikey.(row_icur.(u)) <- (b lsl eid_bits) lor eid;
      row_icur.(u) <- row_icur.(u) + 1;
      row_ikey.(row_icur.(v)) <- (a lsl eid_bits) lor eid;
      row_icur.(v) <- row_icur.(v) + 1
    done
  done;
  for c = 0 to o.cols - 1 do
    for k = o.col_off.(c) to o.col_off.(c + 1) - 1 do
      let eid = o.col_eid.(k) in
      let a = o.col_a.(k) and b = o.col_b.(k) in
      let u = o.node_at.(a).(c) and v = o.node_at.(b).(c) in
      col_ikey.(col_icur.(u)) <- (b lsl eid_bits) lor eid;
      col_icur.(u) <- col_icur.(u) + 1;
      col_ikey.(col_icur.(v)) <- (a lsl eid_bits) lor eid;
      col_icur.(v) <- col_icur.(v) + 1
    done
  done;
  let term_a = Array.make (max 1 m_ortho) 0 in
  let term_b = Array.make (max 1 m_ortho) 0 in
  let row_used = Array.make n 0 and col_used = Array.make n 0 in
  for u = 0 to n - 1 do
    let r, c = o.place.(u) in
    let rlo = row_ioff.(u) in
    let rlen = row_ioff.(u + 1) - rlo in
    Track_assign.sort_ints row_ikey ~off:rlo ~len:rlen;
    for i = 0 to rlen - 1 do
      let key = row_ikey.(rlo + i) in
      let eid = key land eid_mask in
      let x = col_x0.(c) + 1 + i in
      if c < key lsr eid_bits then term_a.(eid) <- x else term_b.(eid) <- x
    done;
    row_used.(u) <- rlen;
    let clo = col_ioff.(u) in
    let clen = col_ioff.(u + 1) - clo in
    Track_assign.sort_ints col_ikey ~off:clo ~len:clen;
    for i = 0 to clen - 1 do
      let key = col_ikey.(clo + i) in
      let eid = key land eid_mask in
      let y = row_y0.(r) + 1 + i in
      if r < key lsr eid_bits then term_a.(eid) <- y else term_b.(eid) <- y
    done;
    col_used.(u) <- clen
  done;
  (* extra terminals, appended after the regular ones *)
  Array.iter
    (fun l ->
      let _, c_src = o.place.(l.src) and r_dst, _ = o.place.(l.dst) in
      l.term_x <- col_x0.(c_src) + 1 + row_used.(l.src);
      row_used.(l.src) <- row_used.(l.src) + 1;
      l.term_y <- row_y0.(r_dst) + 1 + col_used.(l.dst);
      col_used.(l.dst) <- col_used.(l.dst) + 1)
    extras;
  (* --- node footprints and exact wire sizes -------------------------------
     Every wire's deduped point count is known before emission: a row
     wire keeps all 8 of its points (its terminal x's sit in distinct
     column bands and [zy] is always even, so no consecutive pair
     collides); a column wire of group 0 has [zx = z1], collapsing the
     first and last vertical hops to 6 points; an extra link of group 0
     likewise drops its final duplicate, 9 points instead of 10.  Fixed
     counts let emission stream straight into the final CSR columns —
     no append buffers, no merge pass — and any miscount raises. *)
  let wire_counts = Array.make m_full 0 in
  for r = 0 to o.rows - 1 do
    for k = o.row_off.(r) to o.row_off.(r + 1) - 1 do
      wire_counts.(full_of_ortho.(o.row_eid.(k))) <- 8
    done
  done;
  for c = 0 to o.cols - 1 do
    let slots = max 1 col_slots.(c) in
    for k = o.col_off.(c) to o.col_off.(c + 1) - 1 do
      let count = if o.col_track.(k) / slots = 0 then 6 else 8 in
      wire_counts.(full_of_ortho.(o.col_eid.(k))) <- count
    done
  done;
  Array.iter
    (fun l -> wire_counts.(l.xedge) <- (if l.grp = 0 then 9 else 10))
    extras;
  let fx = Geom.Builder.create_fixed ~n_nodes:n ~wire_counts in
  for u = 0 to n - 1 do
    let r, c = o.place.(u) in
    Geom.Builder.set_node_fixed fx u ~x0:(col_x0.(c)) ~y0:(row_y0.(r))
      ~x1:(col_x0.(c) + col_w.(c) - 1)
      ~y1:(row_y0.(r) + row_h.(r) - 1)
  done;
  Layout_profile.record Terminals (Unix.gettimeofday () -. t_terms);
  (* --- routing ------------------------------------------------------------
     Wires emit straight from the flat columns into their fixed ranges;
     rows and columns chunk across domains when [jobs > 1].  Every
     emission order produces the same layout: a wire's slots depend
     only on its id, and its points only on precomputed columns. *)
  let t_emit = Unix.gettimeofday () in
  let emit_rows w r_lo r_hi =
    for r = r_lo to r_hi - 1 do
      let slots = max 1 row_slots.(r) in
      let ytop = row_y0.(r) + row_h.(r) - 1 in
      for k = o.row_off.(r) to o.row_off.(r + 1) - 1 do
        let eid = o.row_eid.(k) in
        let track = o.row_track.(k) in
        let grp = track / slots and slot = track mod slots in
        let zx = (2 * grp) + 1 + z_offset in
        let zy =
          ((if (2 * grp) + 2 <= layers then (2 * grp) + 2 else 2 * grp)
          + z_offset)
        in
        let z1 = 1 + z_offset in
        let ytrack = htrack_y r slot in
        let txa = term_a.(eid) and txb = term_b.(eid) in
        let id = full_of_ortho.(eid) in
        let u, v = full_edges.(id) in
        Geom.Builder.fixed_wire w ~id ~u ~v;
        Geom.Builder.fixed_point w ~x:txa ~y:ytop ~z:z1;
        Geom.Builder.fixed_point w ~x:txa ~y:ytop ~z:zy;
        Geom.Builder.fixed_point w ~x:txa ~y:ytrack ~z:zy;
        Geom.Builder.fixed_point w ~x:txa ~y:ytrack ~z:zx;
        Geom.Builder.fixed_point w ~x:txb ~y:ytrack ~z:zx;
        Geom.Builder.fixed_point w ~x:txb ~y:ytrack ~z:zy;
        Geom.Builder.fixed_point w ~x:txb ~y:ytop ~z:zy;
        Geom.Builder.fixed_point w ~x:txb ~y:ytop ~z:z1
      done
    done
  in
  let emit_cols w c_lo c_hi =
    for c = c_lo to c_hi - 1 do
      let slots = max 1 col_slots.(c) in
      let xright = col_x0.(c) + col_w.(c) - 1 in
      for k = o.col_off.(c) to o.col_off.(c + 1) - 1 do
        let eid = o.col_eid.(k) in
        let track = o.col_track.(k) in
        let grp = track / slots and slot = track mod slots in
        let zv = (2 * grp) + 2 + z_offset in
        let zx = (2 * grp) + 1 + z_offset in
        let z1 = 1 + z_offset in
        let xtrack = vtrack_x c slot in
        let tya = term_a.(eid) and tyb = term_b.(eid) in
        let id = full_of_ortho.(eid) in
        let u, v = full_edges.(id) in
        Geom.Builder.fixed_wire w ~id ~u ~v;
        Geom.Builder.fixed_point w ~x:xright ~y:tya ~z:z1;
        Geom.Builder.fixed_point w ~x:xright ~y:tya ~z:zx;
        Geom.Builder.fixed_point w ~x:xtrack ~y:tya ~z:zx;
        Geom.Builder.fixed_point w ~x:xtrack ~y:tya ~z:zv;
        Geom.Builder.fixed_point w ~x:xtrack ~y:tyb ~z:zv;
        Geom.Builder.fixed_point w ~x:xtrack ~y:tyb ~z:zx;
        Geom.Builder.fixed_point w ~x:xright ~y:tyb ~z:zx;
        Geom.Builder.fixed_point w ~x:xright ~y:tyb ~z:z1
      done
    done
  in
  (* extra links: src top terminal -> dedicated h-track -> dedicated
     v-track -> dst right terminal, everything in the paired group *)
  let emit_extras w =
    Array.iter
      (fun l ->
        let r_src, _ = o.place.(l.src) and _, c_dst = o.place.(l.dst) in
        let zx = (2 * l.grp) + 1 + z_offset
        and zy = (2 * l.grp) + 2 + z_offset in
        let z1 = 1 + z_offset in
        let hy = htrack_y r_src l.hslot in
        let vx = vtrack_x c_dst l.vslot in
        let ytop = row_y0.(r_src) + row_h.(r_src) - 1 in
        let xright = col_x0.(c_dst) + col_w.(c_dst) - 1 in
        let u = l.src and v = l.dst in
        Geom.Builder.fixed_wire w ~id:l.xedge ~u ~v;
        Geom.Builder.fixed_point w ~x:l.term_x ~y:ytop ~z:z1;
        Geom.Builder.fixed_point w ~x:l.term_x ~y:ytop ~z:zy;
        Geom.Builder.fixed_point w ~x:l.term_x ~y:hy ~z:zy;
        Geom.Builder.fixed_point w ~x:l.term_x ~y:hy ~z:zx;
        Geom.Builder.fixed_point w ~x:vx ~y:hy ~z:zx;
        Geom.Builder.fixed_point w ~x:vx ~y:hy ~z:zy;
        Geom.Builder.fixed_point w ~x:vx ~y:l.term_y ~z:zy;
        Geom.Builder.fixed_point w ~x:vx ~y:l.term_y ~z:zx;
        Geom.Builder.fixed_point w ~x:xright ~y:l.term_y ~z:zx;
        Geom.Builder.fixed_point w ~x:xright ~y:l.term_y ~z:z1)
      extras
  in
  (if jobs <= 1 then begin
     let w = Geom.Builder.writer fx in
     emit_rows w 0 o.rows;
     emit_cols w 0 o.cols;
     emit_extras w;
     Geom.Builder.writer_done w
   end
   else begin
     let _, _stats =
       Mvl_pool.Domain_pool.map ~domains:jobs
         ~f:(fun t ->
           let w = Geom.Builder.writer fx in
           (if t < jobs then
              emit_rows w (t * o.rows / jobs) ((t + 1) * o.rows / jobs)
            else begin
              let wk = t - jobs in
              emit_cols w (wk * o.cols / jobs) ((wk + 1) * o.cols / jobs)
            end);
           Geom.Builder.writer_done w)
         (Array.init (2 * jobs) (fun t -> t))
     in
     let w = Geom.Builder.writer fx in
     emit_extras w;
     Geom.Builder.writer_done w
   end);
  Layout_profile.record Emit (Unix.gettimeofday () -. t_emit);
  (* build_fixed raises on any edge left unrouted *)
  let geom =
    Layout_profile.timed Build (fun () -> Geom.Builder.build_fixed fx)
  in
  let declared_layers = Option.value total_layers ~default:(layers + z_offset) in
  let node_layers =
    if z_offset = 0 then None else Some (Array.make n (1 + z_offset))
  in
  let layout =
    Layout.of_geom ~graph:full_graph ~layers:declared_layers ?node_layers geom
  in
  let frame = { col_x0; col_w; row_y0; row_h; col_slots; row_slots } in
  (layout, frame)

let realize ?node_side ?jobs o ~layers =
  fst (realize_general ?node_side ?jobs o ~full_graph:o.Orthogonal.graph ~layers)

let realize_augmented ?node_side ?jobs o ~full_graph ~layers =
  fst (realize_general ?node_side ?jobs o ~full_graph ~layers)

let realize_slab ?node_side o ~z_offset ~band_layers ~total_layers
    ~col_gap_extra ~node_extra_rows =
  realize_general ?node_side ~z_offset ~col_gap_extra ~node_extra_rows
    ~total_layers o ~full_graph:o.Orthogonal.graph ~layers:band_layers

let metrics ?node_side o ~layers = Layout.metrics (realize ?node_side o ~layers)
