open Mvl_geometry
open Mvl_topology

type mode = Strict | Thompson

type violation = { rule : string; detail : string }

type result = { mode : mode; violations : violation list; truncated : bool }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.rule v.detail

let mode_name = function Strict -> "strict" | Thompson -> "thompson"

type collector = {
  mutable violations : violation list;
  mutable count : int;
  limit : int;
}

let report c rule fmt =
  Format.kasprintf
    (fun detail ->
      if c.count < c.limit then begin
        c.violations <- { rule; detail } :: c.violations;
        c.count <- c.count + 1
      end)
    fmt

let overfull c = c.count >= c.limit

(* --- indexes ------------------------------------------------------- *)

(* Struct-of-arrays segment indexes read straight out of the layout's
   Geom columns: one parallel-array entry per segment, sorted by
   (k1, k2, lo, hi, wire), so a (k1, k2) group is a contiguous slice
   found by binary search and entries within a group are already in
   ascending-lo sweep order.  No Segment or Point record is ever
   allocated — classification happens on the raw coordinate columns and
   every scan below walks flat int arrays linearly. *)
type runs = {
  n : int;
  k1 : int array;
  k2 : int array;
  lo : int array;
  hi : int array;
  wire : int array;
  reach : int array; (* running max of [hi] within the (k1, k2) group *)
}
(* every segment extremity is a polyline vertex where the wire bends or
   terminates, so for Thompson-mode crossings only strict interior
   points are free *)

(* first index in [l0, r0) with a.(i) >= v (resp. > v): direct int-array
   binary searches — monomorphic loads, no closure per probe *)
let lb_ge (a : int array) l0 r0 v =
  let l = ref l0 and r = ref r0 in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if a.(m) < v then l := m + 1 else r := m
  done;
  !l

let lb_gt (a : int array) l0 r0 v =
  let l = ref l0 and r = ref r0 in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if a.(m) <= v then l := m + 1 else r := m
  done;
  !l

(* Stabbing query on a slice [s, e) sorted by span start [lo], with
   [reach] the running max of the span ends: the index range
   [first, stop) holding every entry whose span meets [qlo, qhi].  The
   entries starting at or before qhi are the prefix [s, stop), and the
   ones before [first] end short of qlo; entries inside the range with
   [hi < qlo] do not meet the query and callers skip them.  Two binary
   searches, so a query costs O(log) plus the entries it returns
   instead of a walk over the whole slice. *)
let stab ~(lo : int array) ~(reach : int array) s e qlo qhi =
  let stop = lb_gt lo s e qhi in
  (lb_ge reach s stop qlo, stop)

(* Distinct k1 values of a sorted [runs] with their slice boundaries,
   and under each bucket its distinct (k1, k2) lines with theirs.  A k1
   bucket narrows a crossing band to one layer; a group lookup
   binary-searches the bucket's line keys, a compact array that stays in
   cache where a search over the runs' own k2 column misses on most
   probes. *)
type zindex = {
  zs : int array;
  bstart : int array; (* entry index of each bucket, length zs+1 *)
  lfirst : int array; (* first line of each bucket, length zs+1 *)
  lkey : int array; (* k2 of each line *)
  lstart : int array; (* entry index of each line, length lines+1 *)
}

let zindex_of (r : runs) =
  let new_z i = i = 0 || r.k1.(i) <> r.k1.(i - 1) in
  let new_line i = new_z i || r.k2.(i) <> r.k2.(i - 1) in
  let nz = ref 0 and nl = ref 0 in
  for i = 0 to r.n - 1 do
    if new_z i then incr nz;
    if new_line i then incr nl
  done;
  let zs = Array.make (max 1 !nz) 0 in
  let bstart = Array.make (!nz + 1) r.n in
  let lfirst = Array.make (!nz + 1) !nl in
  let lkey = Array.make (max 1 !nl) 0 in
  let lstart = Array.make (!nl + 1) r.n in
  let z = ref 0 and l = ref 0 in
  for i = 0 to r.n - 1 do
    if new_z i then begin
      zs.(!z) <- r.k1.(i);
      bstart.(!z) <- i;
      lfirst.(!z) <- !l;
      incr z
    end;
    if new_line i then begin
      lkey.(!l) <- r.k2.(i);
      lstart.(!l) <- i;
      incr l
    end
  done;
  { zs; bstart; lfirst; lkey; lstart }

(* the bucket number of k1, or -1 when k1 is absent *)
let zfind zi k1 =
  let nz = Array.length zi.bstart - 1 in
  let p = lb_ge zi.zs 0 nz k1 in
  if p < nz && zi.zs.(p) = k1 then p else -1

(* the k1 bucket as (start, stop), or (0, 0) when k1 is absent *)
let zbucket zi k1 =
  let p = zfind zi k1 in
  if p >= 0 then (zi.bstart.(p), zi.bstart.(p + 1)) else (0, 0)

(* the contiguous slice [start, stop) holding group (k1, k2), empty when
   no run lies on that line *)
let group_range zi k1 k2 =
  let p = zfind zi k1 in
  if p >= 0 then begin
    let e = zi.lfirst.(p + 1) in
    let l = lb_ge zi.lkey zi.lfirst.(p) e k2 in
    if l < e && zi.lkey.(l) = k2 then (zi.lstart.(l), zi.lstart.(l + 1))
    else (0, 0)
  end
  else (0, 0)

type indexes = {
  h_runs : runs; (* k1 = z, k2 = y, lo/hi = x span *)
  v_runs : runs; (* k1 = z, k2 = x, lo/hi = y span *)
  vias : runs; (* k1 = x, k2 = y, lo/hi = z span *)
  h_z : zindex;
  v_z : zindex;
}

let make_runs n =
  {
    n;
    k1 = Array.make (max 1 n) 0;
    k2 = Array.make (max 1 n) 0;
    lo = Array.make (max 1 n) 0;
    hi = Array.make (max 1 n) 0;
    wire = Array.make (max 1 n) 0;
    reach = [||] (* filled by [sort_runs] *);
  }

let bits_for range =
  let b = ref 0 in
  while range lsr !b > 0 do
    incr b
  done;
  !b

(* Sort non-negative packed keys on their bits [from, nbits), returning
   the sorted array (the input or a scratch buffer).  The caller packs
   the entry index (or another key already ascending in input order)
   below bit [from]; LSD radix is stable, so those bits need no pass.
   The rest goes in the fewest digits of at most 16 bits, split evenly:
   linear passes beat a comparison sort well before 10^5 entries,
   packed keys make the digit extraction one shift+mask, and narrower
   digits scatter into fewer buckets, which keeps large sorts in cache. *)
let radix_sort keys ~from nbits =
  let n = Array.length keys in
  if n < 2048 then begin
    Array.sort Int.compare keys;
    keys
  end
  else begin
    let passes = (nbits - from + 15) / 16 in
    let width = if passes = 0 then 0 else (nbits - from + passes - 1) / passes in
    let buckets = 1 lsl width in
    let mask = buckets - 1 in
    let count = Array.make buckets 0 in
    let src = ref keys and dst = ref (Array.make n 0) in
    for pass = 0 to passes - 1 do
      let shift = from + (pass * width) in
      let s = !src and d = !dst in
      Array.fill count 0 buckets 0;
      for i = 0 to n - 1 do
        let c = (s.(i) lsr shift) land mask in
        count.(c) <- count.(c) + 1
      done;
      let sum = ref 0 in
      for c = 0 to mask do
        let k = count.(c) in
        count.(c) <- !sum;
        sum := !sum + k
      done;
      for i = 0 to n - 1 do
        let c = (s.(i) lsr shift) land mask in
        d.(count.(c)) <- s.(i);
        count.(c) <- count.(c) + 1
      done;
      src := d;
      dst := s
    done;
    !src
  end

(* Sort entries by (k1, k2, lo) and fill [reach].  Fast path: when the
   key ranges fit in 62 bits alongside the entry index, pack them into
   one int per entry and sort immediates — several times faster than a
   comparator reading five arrays.  Entries generated by the same wire
   stay in generation order either way; cross-wire ties in (k1, k2, lo)
   only occur on already-overlapping (invalid) geometry, where report
   order is not specified. *)
let sort_runs r =
  (* [s.reach] is the buffer that held the sort order, dead once the
     columns are gathered: the running max costs no memory *)
  let with_reach s =
    for i = 0 to s.n - 1 do
      s.reach.(i) <-
        (if i > 0 && s.k1.(i) = s.k1.(i - 1) && s.k2.(i) = s.k2.(i - 1) then
           Int.max s.reach.(i - 1) s.hi.(i)
         else s.hi.(i))
    done;
    s
  in
  if r.n = 0 then r
  else begin
    let mn a =
      let m = ref a.(0) in
      for i = 1 to r.n - 1 do
        if a.(i) < !m then m := a.(i)
      done;
      !m
    in
    let mx a =
      let m = ref a.(0) in
      for i = 1 to r.n - 1 do
        if a.(i) > !m then m := a.(i)
      done;
      !m
    in
    let k1_0 = mn r.k1 and k2_0 = mn r.k2 and lo_0 = mn r.lo in
    let bk1 = bits_for (mx r.k1 - k1_0) in
    let bk2 = bits_for (mx r.k2 - k2_0) in
    let blo = bits_for (mx r.lo - lo_0) in
    let bix = bits_for (r.n - 1) in
    if bk1 + bk2 + blo + bix <= 62 then begin
      let keys =
        Array.init r.n (fun i ->
            ((((((r.k1.(i) - k1_0) lsl bk2) lor (r.k2.(i) - k2_0)) lsl blo)
             lor (r.lo.(i) - lo_0))
             lsl bix)
            lor i)
      in
      let keys = radix_sort keys ~from:bix (bk1 + bk2 + blo + bix) in
      (* k1, k2 and lo decode from the sorted keys; only hi and wire are
         gathered, through the entry index in the low bits — random
         reads are what a large sort pays for *)
      let field k shift bits = (k lsr shift) land ((1 lsl bits) - 1) in
      let ix = (1 lsl bix) - 1 in
      with_reach
        {
          r with
          k1 = Array.map (fun k -> (k lsr (bk2 + blo + bix)) + k1_0) keys;
          k2 = Array.map (fun k -> field k (blo + bix) bk2 + k2_0) keys;
          lo = Array.map (fun k -> field k bix blo + lo_0) keys;
          hi = Array.map (fun k -> r.hi.(k land ix)) keys;
          wire = Array.map (fun k -> r.wire.(k land ix)) keys;
          reach = keys;
        }
    end
    else begin
      let idx = Array.init r.n (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = Int.compare r.k1.(a) r.k1.(b) in
          if c <> 0 then c
          else
            let c = Int.compare r.k2.(a) r.k2.(b) in
            if c <> 0 then c
            else
              let c = Int.compare r.lo.(a) r.lo.(b) in
              if c <> 0 then c
              else
                let c = Int.compare r.hi.(a) r.hi.(b) in
                if c <> 0 then c else Int.compare r.wire.(a) r.wire.(b))
        idx;
      let permute a = Array.map (fun i -> a.(i)) idx in
      with_reach
        {
          r with
          k1 = permute r.k1;
          k2 = permute r.k2;
          lo = permute r.lo;
          hi = permute r.hi;
          wire = permute r.wire;
          reach = idx;
        }
    end
  end

let build_indexes (g : Geom.t) =
  let px = g.Geom.px and py = g.Geom.py and pz = g.Geom.pz in
  let nh = ref 0 and nv = ref 0 and nz = ref 0 in
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 2 do
      if px.{k + 1} <> px.{k} then incr nh
      else if py.{k + 1} <> py.{k} then incr nv
      else incr nz
    done
  done;
  let h = make_runs !nh and v = make_runs !nv and z = make_runs !nz in
  let ih = ref 0 and iv = ref 0 and iz = ref 0 in
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 2 do
      let xa = px.{k} and ya = py.{k} and za = pz.{k} in
      let xb = px.{k + 1} and yb = py.{k + 1} and zb = pz.{k + 1} in
      if xb <> xa then begin
        let j = !ih in
        h.k1.(j) <- za;
        h.k2.(j) <- ya;
        h.lo.(j) <- min xa xb;
        h.hi.(j) <- max xa xb;
        h.wire.(j) <- i;
        incr ih
      end
      else if yb <> ya then begin
        let j = !iv in
        v.k1.(j) <- za;
        v.k2.(j) <- xa;
        v.lo.(j) <- min ya yb;
        v.hi.(j) <- max ya yb;
        v.wire.(j) <- i;
        incr iv
      end
      else begin
        let j = !iz in
        z.k1.(j) <- xa;
        z.k2.(j) <- ya;
        z.lo.(j) <- min za zb;
        z.hi.(j) <- max za zb;
        z.wire.(j) <- i;
        incr iz
      end
    done
  done;
  let sh = sort_runs h and sv = sort_runs v and sz = sort_runs z in
  {
    h_runs = sh;
    v_runs = sv;
    vias = sz;
    h_z = zindex_of sh;
    v_z = zindex_of sv;
  }

(* call [f start stop] for every maximal same-(k1, k2) slice inside
   [from, upto) — [from]/[upto] must sit on group boundaries, which
   every zindex bucket boundary does *)
let iter_groups_in (r : runs) ~from ~upto f =
  let i = ref from in
  while !i < upto do
    let s = !i in
    let k1 = r.k1.(s) and k2 = r.k2.(s) in
    let j = ref (s + 1) in
    while !j < upto && r.k1.(!j) = k1 && r.k2.(!j) = k2 do
      incr j
    done;
    f s !j;
    i := !j
  done

let iter_groups (r : runs) f = iter_groups_in r ~from:0 ~upto:r.n f

(* --- collinear (same line) overlap checks -------------------------- *)

let check_collinear c ~what (r : runs) start stop =
  (* the group is already sorted by lo; sweep keeping the
     farthest-reaching span seen so far, plus the farthest-reaching one
     owned by a different wire, so containment chains are caught too *)
  let hi1 = ref min_int and wire1 = ref (-1) in
  let hi2 = ref min_int and wire2 = ref (-1) in
  for i = start to stop - 1 do
    let b_lo = r.lo.(i) and b_hi = r.hi.(i) and b_wire = r.wire.(i) in
    let clash prev_hi prev_wire =
      if prev_wire >= 0 && prev_wire <> b_wire && prev_hi >= b_lo then
        report c "overlap" "%s runs of wires %d and %d share x/y=%d.." what
          prev_wire b_wire b_lo
    in
    clash !hi1 !wire1;
    if !wire2 <> !wire1 then clash !hi2 !wire2;
    (* update the two leaders *)
    if b_hi >= !hi1 then begin
      if b_wire <> !wire1 then begin
        hi2 := !hi1;
        wire2 := !wire1
      end;
      hi1 := b_hi;
      wire1 := b_wire
    end
    else if b_wire <> !wire1 && b_hi > !hi2 then begin
      hi2 := b_hi;
      wire2 := b_wire
    end
  done

(* --- crossing checks (H vs V on one layer) ------------------------- *)

(* For each vertical run, binary search the band of horizontal lines
   with y inside its span (same layer) and test x containment.  In the
   multilayer grid model any shared point is illegal; under Thompson a
   crossing is legal iff it is interior to both runs. *)
let check_crossings_in c ~mode (idx : indexes) ~from ~upto =
  let h = idx.h_runs and v = idx.v_runs in
  for vi = from to upto - 1 do
    if not (overfull c) then begin
      let z = v.k1.(vi) and x = v.k2.(vi) in
      let v_lo = v.lo.(vi) and v_hi = v.hi.(vi) and v_wire = v.wire.(vi) in
      let bs, be = zbucket idx.h_z z in
      let start = lb_ge h.k2 bs be v_lo in
      let i = ref start in
      while !i < be && h.k2.(!i) <= v_hi do
        let j = !i in
        if h.wire.(j) <> v_wire && h.lo.(j) <= x && x <= h.hi.(j) then begin
          let y = h.k2.(j) in
          let interior_h = h.lo.(j) < x && x < h.hi.(j) in
          let interior_v = v_lo < y && y < v_hi in
          let ok =
            match mode with
            | Strict -> false
            | Thompson -> interior_h && interior_v
          in
          if not ok then
            report c "crossing" "wires %d and %d meet at (%d,%d,z=%d)"
              h.wire.(j) v_wire x y z
        end;
        incr i
      done
    end
  done

let check_crossings c ~mode (idx : indexes) =
  check_crossings_in c ~mode idx ~from:0 ~upto:idx.v_runs.n

(* --- via checks ----------------------------------------------------- *)

(* report every run of [r] on line ([z], [line]) through coordinate [at]
   along it, except the runs of the via's own wire *)
let check_pierced c (r : runs) zi ~via_wire ~line ~at x y z =
  let gs, ge = group_range zi z line in
  let first, stop = stab ~lo:r.lo ~reach:r.reach gs ge at at in
  for j = first to stop - 1 do
    if r.wire.(j) <> via_wire && r.hi.(j) >= at then
      report c "via-run" "via of wire %d pierces run of wire %d at (%d,%d,%d)"
        via_wire r.wire.(j) x y z
  done

let check_vias c (idx : indexes) =
  let vias = idx.vias and h = idx.h_runs and v = idx.v_runs in
  iter_groups vias (fun s e ->
      let x = vias.k1.(s) and y = vias.k2.(s) in
      (* via-via at the same (x, y): the group is sorted by z-lo *)
      for i = s to e - 2 do
        if vias.wire.(i) <> vias.wire.(i + 1) && vias.hi.(i) >= vias.lo.(i + 1)
        then
          report c "via-overlap" "vias of wires %d and %d collide at (%d,%d)"
            vias.wire.(i)
            vias.wire.(i + 1)
            x y
      done;
      (* via against in-plane runs on every layer it traverses: a via is
         a bend, so this is illegal in both modes.  The runs through the
         via's point on its H line (and then its V line) come out of one
         stabbing query each, in ascending group order *)
      for i = s to e - 1 do
        let via_wire = vias.wire.(i) in
        for z = vias.lo.(i) to vias.hi.(i) do
          check_pierced c h idx.h_z ~via_wire ~line:y ~at:x x y z;
          check_pierced c v idx.v_z ~via_wire ~line:x ~at:y x y z
        done
      done)

(* --- node footprint checks ------------------------------------------ *)

(* Nodes indexed by their y rows (for H segments) and x columns (for V
   ones): one flat entry per (row-or-column, node) pair, bucketed by the
   key and sorted inside each bucket by the node's span start on the
   other axis, with a running max of the span ends, so a [stab] query
   returns only candidates that reach the query span instead of every
   node sharing the row/column — correct even when footprints overlap,
   which [check_nodes] reports. *)
type node_index = {
  keys : int array; (* distinct key values, ascending *)
  bstart : int array; (* bucket boundaries, length keys+1 *)
  lo : int array; (* span start on the other axis, ascending per bucket *)
  hi : int array; (* span end *)
  reach : int array; (* running max of [hi] within the bucket *)
  node : int array;
}

let build_node_index key_lo key_hi span_lo span_hi (g : Geom.t) =
  let key_lo : Geom.col = key_lo and key_hi : Geom.col = key_hi in
  let span_lo : Geom.col = span_lo and span_hi : Geom.col = span_hi in
  let total = ref 0 in
  for i = 0 to g.Geom.n_nodes - 1 do
    total := !total + (key_hi.{i} - key_lo.{i} + 1)
  done;
  let total = !total in
  let ekey = Array.make (max 1 total) 0 in
  let enode = Array.make (max 1 total) (-1) in
  let j = ref 0 in
  for i = 0 to g.Geom.n_nodes - 1 do
    for key = key_lo.{i} to key_hi.{i} do
      ekey.(!j) <- key;
      enode.(!j) <- i;
      incr j
    done
  done;
  (* sort entries by (key, span start, node): packed radix fast path,
     comparator fallback for out-of-range coordinates *)
  let sorted_key, node =
    if total = 0 then ([||], [||])
    else begin
      let kmin = ref ekey.(0) and kmax = ref ekey.(0) in
      for i = 1 to total - 1 do
        if ekey.(i) < !kmin then kmin := ekey.(i);
        if ekey.(i) > !kmax then kmax := ekey.(i)
      done;
      let lmin = ref span_lo.{0} and lmax = ref span_lo.{0} in
      for i = 1 to g.Geom.n_nodes - 1 do
        let v = span_lo.{i} in
        if v < !lmin then lmin := v;
        if v > !lmax then lmax := v
      done;
      let bkey = bits_for (!kmax - !kmin) in
      let blo = bits_for (!lmax - !lmin) in
      let bnd = bits_for (g.Geom.n_nodes - 1) in
      if bkey + blo + bnd <= 62 then begin
        let kmin = !kmin and lmin = !lmin in
        let packed =
          Array.init total (fun i ->
              let nd = enode.(i) in
              ((((ekey.(i) - kmin) lsl blo) lor (span_lo.{nd} - lmin)) lsl bnd)
              lor nd)
        in
        let packed = radix_sort packed ~from:bnd (bkey + blo + bnd) in
        let maskn = (1 lsl bnd) - 1 in
        ( Array.map (fun k -> (k lsr (blo + bnd)) + kmin) packed,
          Array.map (fun k -> k land maskn) packed )
      end
      else begin
        let idx = Array.init total (fun i -> i) in
        Array.sort
          (fun a b ->
            let c = Int.compare ekey.(a) ekey.(b) in
            if c <> 0 then c
            else
              let c = Int.compare span_lo.{enode.(a)} span_lo.{enode.(b)} in
              if c <> 0 then c else Int.compare enode.(a) enode.(b))
          idx;
        ( Array.map (fun i -> ekey.(i)) idx,
          Array.map (fun i -> enode.(i)) idx )
      end
    end
  in
  let lo = Array.map (fun i -> span_lo.{i}) node in
  let hi = Array.map (fun i -> span_hi.{i}) node in
  let nkeys = ref 0 in
  for i = 0 to total - 1 do
    if i = 0 || sorted_key.(i) <> sorted_key.(i - 1) then incr nkeys
  done;
  let keys = Array.make (max 1 !nkeys) 0 in
  let bstart = Array.make (!nkeys + 1) total in
  let b = ref 0 in
  for i = 0 to total - 1 do
    if i = 0 || sorted_key.(i) <> sorted_key.(i - 1) then begin
      keys.(!b) <- sorted_key.(i);
      bstart.(!b) <- i;
      incr b
    end
  done;
  let reach = Array.make (max 1 total) min_int in
  for b = 0 to !nkeys - 1 do
    let m = ref min_int in
    for i = bstart.(b) to bstart.(b + 1) - 1 do
      if hi.(i) > !m then m := hi.(i);
      reach.(i) <- !m
    done
  done;
  { keys; bstart; lo; hi; reach; node }

(* Both node indexes, built once per [run]: [by_y] (rows) answers H runs,
   vias and footprint pairs, [by_x] (columns) answers V runs. *)
type node_indexes = { by_y : node_index; by_x : node_index }

let build_node_indexes (g : Geom.t) =
  {
    by_y = build_node_index g.Geom.ny0 g.Geom.ny1 g.Geom.nx0 g.Geom.nx1 g;
    by_x = build_node_index g.Geom.nx0 g.Geom.nx1 g.Geom.ny0 g.Geom.ny1 g;
  }

(* the index range [first, stop) of the nodes on row/column [key] whose
   span may meet [qlo, qhi] (see [stab]: entries with [hi < qlo] are
   skipped by the caller); empty when no node sits on [key] *)
let node_stab (ni : node_index) key qlo qhi =
  let nk = Array.length ni.bstart - 1 in
  let b = lb_ge ni.keys 0 nk key in
  if b < nk && ni.keys.(b) = key then
    stab ~lo:ni.lo ~reach:ni.reach ni.bstart.(b) ni.bstart.(b + 1) qlo qhi
  else (0, 0)

(* Pairwise footprint disjointness.  Two footprints overlap iff the
   higher of their bottom rows lies in both, so one stab of [by_y] at
   each node's bottom row, over its x span, finds every overlapping pair:
   from the node with the higher bottom row, or from the larger id when
   the bottom rows tie.  Pairs are reported in the order of a sweep over
   the nodes sorted by x0 — by the x0 rank of the pair's first node, then
   of its second — which is the order the checker has always used. *)
let check_nodes c (layout : Layout.t) (by_y : node_index) =
  let g = Layout.geom layout in
  let node_layers = Layout.node_layers layout in
  let n = g.Geom.n_nodes in
  let nx0 = g.Geom.nx0 and ny0 = g.Geom.ny0 in
  let nx1 = g.Geom.nx1 and ny1 = g.Geom.ny1 in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare nx0.{a} nx0.{b}) order;
  let rank = Array.make n 0 in
  Array.iteri (fun r a -> rank.(a) <- r) order;
  (* each pair packed as (first rank * n + second rank) *)
  let pairs = ref [] in
  for b = 0 to n - 1 do
    let first, stop = node_stab by_y ny0.{b} nx0.{b} nx1.{b} in
    for p = first to stop - 1 do
      let a = by_y.node.(p) in
      (* footprints may coincide across different active layers *)
      if
        a <> b
        && (ny0.{a} < ny0.{b} || a < b)
        && node_layers.(a) = node_layers.(b)
        && Int.max nx0.{a} nx0.{b} <= Int.min nx1.{a} nx1.{b}
        && Int.max ny0.{a} ny0.{b} <= Int.min ny1.{a} ny1.{b}
      then
        pairs :=
          ((Int.min rank.(a) rank.(b) * n) + Int.max rank.(a) rank.(b))
          :: !pairs
    done
  done;
  List.iter
    (fun key ->
      let a = order.(key / n) and b = order.(key mod n) in
      report c "node-overlap" "nodes %d and %d overlap: %a vs %a" a b Rect.pp
        (Geom.node_rect g a) Rect.pp (Geom.node_rect g b))
    (List.sort Int.compare !pairs)

let check_wires_vs_nodes c (layout : Layout.t) (ni : node_indexes) =
  let g = Layout.geom layout in
  let node_layers = Layout.node_layers layout in
  let by_y = ni.by_y and by_x = ni.by_x in
  let px = g.Geom.px and py = g.Geom.py and pz = g.Geom.pz in
  for wire_id = 0 to g.Geom.n_wires - 1 do
    let u = g.Geom.edge_u.{wire_id} and v = g.Geom.edge_v.{wire_id} in
    let first = g.Geom.wire_off.{wire_id}
    and last = g.Geom.wire_off.{wire_id + 1} - 1 in
    let endpoint_of_wire x y z =
      (px.{first} = x && py.{first} = y && pz.{first} = z)
      || (px.{last} = x && py.{last} = y && pz.{last} = z)
    in
    let check_hit node_id ~single x y z =
      let foreign = node_id <> u && node_id <> v in
      if foreign then
        report c "node-hit" "wire %d (%d-%d) crosses foreign node %d (%a)"
          wire_id u v node_id Rect.pp (Geom.node_rect g node_id)
      else if not (single && endpoint_of_wire x y z) then
        report c "node-hit"
          "wire %d (%d-%d) overlaps its node %d beyond its terminal" wire_id u
          v node_id
    in
    (* each stab's range is walked top down, the order hits have always
       been reported in *)
    for k = first to last - 1 do
      let xa = px.{k} and ya = py.{k} and za = pz.{k} in
      let xb = px.{k + 1} and yb = py.{k + 1} and zb = pz.{k + 1} in
      if xb <> xa then begin
        (* in-plane run along x at (y, z) *)
        let qlo = Int.min xa xb and qhi = Int.max xa xb in
        let s, stop = node_stab by_y ya qlo qhi in
        for p = stop - 1 downto s do
          let id = by_y.node.(p) in
          if by_y.hi.(p) >= qlo && node_layers.(id) = za then begin
            let lo = Int.max by_y.lo.(p) qlo in
            check_hit id ~single:(lo = Int.min by_y.hi.(p) qhi) lo ya za
          end
        done
      end
      else if yb <> ya then begin
        let qlo = Int.min ya yb and qhi = Int.max ya yb in
        let s, stop = node_stab by_x xa qlo qhi in
        for p = stop - 1 downto s do
          let id = by_x.node.(p) in
          if by_x.hi.(p) >= qlo && node_layers.(id) = za then begin
            let lo = Int.max by_x.lo.(p) qlo in
            check_hit id ~single:(lo = Int.min by_x.hi.(p) qhi) xa lo za
          end
        done
      end
      else begin
        (* a via hits a node when its z range crosses the node's active
           layer inside the footprint *)
        let zlo = Int.min za zb and zhi = Int.max za zb in
        let s, stop = node_stab by_y ya xa xa in
        for p = stop - 1 downto s do
          let id = by_y.node.(p) in
          let zl = node_layers.(id) in
          if by_y.hi.(p) >= xa && zlo <= zl && zl <= zhi then
            check_hit id ~single:true xa ya zl
        done
      end
    done
  done

let check_terminals c (layout : Layout.t) =
  let g = Layout.geom layout in
  let node_layers = Layout.node_layers layout in
  let graph_edges = Graph.edges (Layout.graph layout) in
  let px = g.Geom.px and py = g.Geom.py and pz = g.Geom.pz in
  for i = 0 to g.Geom.n_wires - 1 do
    let u = g.Geom.edge_u.{i} and v = g.Geom.edge_v.{i} in
    let gu, gv = graph_edges.(i) in
    if u <> gu || v <> gv then
      report c "edge-mismatch" "wire %d realizes %d-%d but edge %d is %d-%d" i
        u v i gu gv;
    let first = g.Geom.wire_off.{i} and last = g.Geom.wire_off.{i + 1} - 1 in
    let on_boundary k node =
      let x = px.{k} and y = py.{k} in
      pz.{k} = node_layers.(node)
      && g.Geom.nx0.{node} <= x
      && x <= g.Geom.nx1.{node}
      && g.Geom.ny0.{node} <= y
      && y <= g.Geom.ny1.{node}
      && not
           (g.Geom.nx0.{node} < x
           && x < g.Geom.nx1.{node}
           && g.Geom.ny0.{node} < y
           && y < g.Geom.ny1.{node})
    in
    let ok =
      (on_boundary first u && on_boundary last v)
      || (on_boundary first v && on_boundary last u)
    in
    if not ok then
      report c "terminal" "wire %d (%d-%d) does not terminate on its nodes" i
        u v
  done

let check_layers c (layout : Layout.t) =
  let g = Layout.geom layout in
  let layers = Layout.layers layout in
  for i = 0 to g.Geom.n_wires - 1 do
    for k = g.Geom.wire_off.{i} to g.Geom.wire_off.{i + 1} - 1 do
      let z = g.Geom.pz.{k} in
      if z < 1 || z > layers then
        report c "layer-range" "wire %d leaves the layer range at (%d,%d,%d)" i
          g.Geom.px.{k} g.Geom.py.{k} z
    done
  done

(* --- sharded sweeps -------------------------------------------------- *)

(* One shard = one zindex bucket (all runs on one layer) of one sweep
   kind.  A bucket boundary is always a group boundary, so the
   collinear sweep sees whole groups, and the crossing sweep only reads
   the (shared, immutable) indexes — shards never touch common mutable
   state.  Each shard collects into its own local collector with the
   full violation budget; merging the shard lists in task order then
   reproduces exactly the sequential report order, so truncating the
   merged list to the budget yields a byte-identical result at any
   [jobs]. *)
type shard = Sweep_h of int * int | Sweep_v of int * int | Sweep_x of int * int

let shards_of (idx : indexes) =
  let buckets kind (zi : zindex) =
    let nb = Array.length zi.bstart - 1 in
    List.init nb (fun b -> kind zi.bstart.(b) zi.bstart.(b + 1))
  in
  (* task order mirrors the sequential check order: collinear-H,
     collinear-V, crossings — each ascending in z *)
  Array.of_list
    (buckets (fun s e -> Sweep_h (s, e)) idx.h_z
    @ buckets (fun s e -> Sweep_v (s, e)) idx.v_z
    @ buckets (fun s e -> Sweep_x (s, e)) idx.v_z)

let run_shard ~mode ~max_violations (idx : indexes) shard =
  let lc = { violations = []; count = 0; limit = max_violations } in
  (match shard with
  | Sweep_h (s, e) ->
      iter_groups_in idx.h_runs ~from:s ~upto:e (fun gs ge ->
          check_collinear lc ~what:"horizontal" idx.h_runs gs ge)
  | Sweep_v (s, e) ->
      iter_groups_in idx.v_runs ~from:s ~upto:e (fun gs ge ->
          check_collinear lc ~what:"vertical" idx.v_runs gs ge)
  | Sweep_x (s, e) -> check_crossings_in lc ~mode idx ~from:s ~upto:e);
  List.rev lc.violations

let merge_into c found =
  List.iter
    (fun v ->
      if c.count < c.limit then begin
        c.violations <- v :: c.violations;
        c.count <- c.count + 1
      end)
    found

let run ?(mode = Strict) ?(max_violations = 20) ?(jobs = 1) layout =
  (* wall-clock phase ticks: consecutive, so the phases add up to the
     call's wall time at any [jobs] *)
  let debug = Sys.getenv_opt "MVL_CHECK_TIMINGS" <> None in
  let t0 = ref (Monotonic_clock.now ()) in
  let tick label =
    if debug then begin
      let t = Monotonic_clock.now () in
      Printf.eprintf "check: %-16s %.4fs\n%!" label
        (Int64.to_float (Int64.sub t !t0) *. 1e-9);
      t0 := t
    end
  in
  let c = { violations = []; count = 0; limit = max_violations } in
  check_layers c layout;
  tick "layers";
  let node_idx = build_node_indexes (Layout.geom layout) in
  tick "node_indexes";
  check_nodes c layout node_idx.by_y;
  tick "nodes";
  check_terminals c layout;
  tick "terminals";
  check_wires_vs_nodes c layout node_idx;
  tick "wires_vs_nodes";
  let idx = build_indexes (Layout.geom layout) in
  tick "build_indexes";
  if jobs <= 1 then begin
    iter_groups idx.h_runs (fun s e ->
        check_collinear c ~what:"horizontal" idx.h_runs s e);
    iter_groups idx.v_runs (fun s e ->
        check_collinear c ~what:"vertical" idx.v_runs s e);
    tick "collinear";
    check_crossings c ~mode idx;
    tick "crossings"
  end
  else begin
    let results, _ =
      Mvl_pool.Domain_pool.map ~domains:jobs
        ~f:(run_shard ~mode ~max_violations idx)
        (shards_of idx)
    in
    Array.iter (merge_into c) results;
    tick "sharded sweeps"
  end;
  check_vias c idx;
  tick "vias";
  (* once the collector is full, later checks stop recording (and the
     crossing sweep stops looking), so a full collector means the list
     may be incomplete — exactly [limit] entries is NOT "all of them" *)
  { mode; violations = List.rev c.violations; truncated = overfull c }

let validate ?mode ?max_violations layout =
  (run ?mode ?max_violations layout).violations

let is_valid ?mode layout = validate ?mode ~max_violations:1 layout = []
