(* splitmix64 over an unboxed Int64 state.  The 64-bit state lives in
   an 8-byte [Bytes.t], read and written with [Bytes.get/set_int64_ne];
   [next] is inlined at each of its call sites, so ocamlopt keeps every
   Int64 intermediate in a register and no draw allocates (a mutable
   [int64] record field would box on every write).  The output stream
   is bit-identical to the published algorithm — the
   reference-equivalence test in the suite pins every draw, and the
   golden-determinism tests pin the consumers. *)

type t = {
  state : Bytes.t; (* 8 bytes: the splitmix64 state, native-endian *)
  (* memoized rejection count for [int]: (2^63) mod [memo_bound]
     (bound 0 = empty) *)
  mutable memo_bound : int;
  mutable memo_excess : int;
}

let create ~seed =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 (Int64.of_int ((seed * 2) + 1));
  { state; memo_bound = 0; memo_excess = 0 }

(* One splitmix64 step: advances the state and returns the 64-bit
   draw. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t.state 0 s;
  let z =
    Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Rejection sampling over the draw's low 63 bits: values above the
   largest multiple of [bound] are redrawn, so every residue is hit by
   exactly [2^63 / bound] raw values — the naive [rem] alone
   over-weights the low residues by one part in [2^63 / bound].  For
   powers of two the threshold is never exceeded and the stream matches
   plain masking draw for draw. *)
let int t ~bound =
  if bound < 1 then invalid_arg "Rng.int: bound < 1";
  if bound <> t.memo_bound then begin
    (* number of raw values rejected: (2^63) mod b, computed without
       overflowing as ((2^63 - 1) mod b + 1) mod b *)
    let b = Int64.of_int bound in
    t.memo_excess <-
      Int64.to_int (Int64.rem (Int64.add (Int64.rem Int64.max_int b) 1L) b);
    t.memo_bound <- bound
  end;
  let threshold = Int64.sub Int64.max_int (Int64.of_int t.memo_excess) in
  let v = ref (Int64.logand (next t) Int64.max_int) in
  while !v > threshold do
    v := Int64.logand (next t) Int64.max_int
  done;
  if bound land (bound - 1) = 0 then
    (* power of two: the low bits are the residue *)
    Int64.to_int !v land (bound - 1)
  else Int64.to_int (Int64.rem !v (Int64.of_int bound))

(* top 53 bits of the draw, scaled into [0, 1) *)
let float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  /. 9007199254740992.0 (* 2^53 *)

(* [float t < p] with both sides scaled by 2^53: a power of two, so
   both products are exact (a subnormal [p] scales to a normal number,
   a huge one to infinity, NaN stays NaN) and the comparison is the
   same, without the division *)
let bool t ~p =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  < p *. 9007199254740992.0
