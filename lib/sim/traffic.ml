type t =
  | Uniform
  | Transpose
  | Bit_reversal
  | Bit_complement
  | Hotspot of int
  | Tornado
  | Bursty of { pattern : t; burst : int; duty_pct : int }

let rec pp ppf = function
  | Uniform -> Format.fprintf ppf "uniform"
  | Transpose -> Format.fprintf ppf "transpose"
  | Bit_reversal -> Format.fprintf ppf "bit-reversal"
  | Bit_complement -> Format.fprintf ppf "bit-complement"
  | Hotspot h -> Format.fprintf ppf "hotspot(%d)" h
  | Tornado -> Format.fprintf ppf "tornado"
  | Bursty { pattern; burst; duty_pct } ->
      Format.fprintf ppf "bursty(%a,burst=%d,duty=%d%%)" pp pattern burst
        duty_pct

let rec to_string = function
  | Uniform -> "uniform"
  | Transpose -> "transpose"
  | Bit_reversal -> "bit-reversal"
  | Bit_complement -> "bit-complement"
  | Hotspot h -> "hotspot:" ^ string_of_int h
  | Tornado -> "tornado"
  | Bursty { pattern; burst; duty_pct } ->
      Printf.sprintf "bursty:%s:%d:%d" (to_string pattern) burst duty_pct

let of_string s =
  let err () =
    Error
      (Printf.sprintf
         "unknown traffic pattern %S (expected \
          uniform|transpose|bit-reversal|bit-complement|tornado|hotspot:N|\
          bursty:PATTERN:BURST:DUTY%%)"
         s)
  in
  let rec parse = function
    | [ "uniform" ] -> Ok Uniform
    | [ "transpose" ] -> Ok Transpose
    | [ "bit-reversal" ] -> Ok Bit_reversal
    | [ "bit-complement" ] -> Ok Bit_complement
    | [ "tornado" ] -> Ok Tornado
    | [ "hotspot"; h ] -> (
        match int_of_string_opt h with
        | Some h -> Ok (Hotspot h)
        | None -> err ())
    | "bursty" :: (_ :: _ :: _ :: _ as rest) -> (
        (* the inner pattern may itself contain ':' (hotspot:N), so the
           burst length and duty cycle are the LAST two components *)
        let rec split_last2 acc = function
          | [ b; d ] -> (List.rev acc, b, d)
          | x :: tl -> split_last2 (x :: acc) tl
          | _ -> assert false
        in
        let inner, b, d = split_last2 [] rest in
        match (parse inner, int_of_string_opt b, int_of_string_opt d) with
        | Ok (Bursty _), _, _ -> err ()
        | Ok pattern, Some burst, Some duty_pct ->
            Ok (Bursty { pattern; burst; duty_pct })
        | _ -> err ())
    | _ -> err ()
  in
  parse (String.split_on_char ':' (String.lowercase_ascii s))

let log2_exact n =
  let rec go acc x = if x = 1 then acc else go (acc + 1) (x lsr 1) in
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg "Traffic: permutation patterns need a power-of-two size";
  go 0 n

(* the raw deterministic map, before the self-destination fixup: each
   permutation pattern is a bijection on [0, n_nodes), which the
   property tests check directly *)
let rec permute pattern ~n_nodes ~src =
  if src < 0 || src >= n_nodes then
    invalid_arg "Traffic.permute: src out of range";
  match pattern with
  | Uniform -> invalid_arg "Traffic.permute: Uniform has no deterministic map"
  | Bursty { pattern; _ } -> permute pattern ~n_nodes ~src
  | Tornado ->
      (* half-way around the ring of labels — the adversarial pattern
         for minimal ring/torus routing.  Adding a constant modulo n is
         a bijection at every n, so no power-of-two requirement. *)
      let offset = ((n_nodes + 1) / 2) - 1 in
      (src + offset) mod n_nodes
  | Hotspot h ->
      (* [h mod n_nodes] used to be applied here, which silently
         rewrote an out-of-range hotspot — and produced a negative
         destination for a negative [h] *)
      if h < 0 || h >= n_nodes then
        invalid_arg "Traffic: hotspot node out of range";
      h
  | Transpose ->
      let bits = log2_exact n_nodes in
      let half = bits / 2 in
      let low = src land ((1 lsl half) - 1) in
      let high = src lsr half in
      (* rotate by half: the classic matrix-transpose pattern *)
      (low lsl (bits - half)) lor high
  | Bit_reversal ->
      let bits = log2_exact n_nodes in
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if src land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      !r
  | Bit_complement ->
      let bits = log2_exact n_nodes in
      src lxor ((1 lsl bits) - 1)

(* the fixed patterns after the self-destination fixup: exactly what
   [destination] returns for them, with no rng involved *)
let fixed_destination pattern ~n_nodes ~src =
  let d = permute pattern ~n_nodes ~src in
  if d = src then (src + 1) mod n_nodes else d

let rec destination pattern rng ~n_nodes ~src =
  match pattern with
  | Uniform ->
      let d = Rng.int rng ~bound:(n_nodes - 1) in
      if d >= src then d + 1 else d
  | Bursty { pattern; _ } -> destination pattern rng ~n_nodes ~src
  | Hotspot _ | Transpose | Bit_reversal | Bit_complement | Tornado ->
      fixed_destination pattern ~n_nodes ~src

let rec destinations pattern ~n_nodes =
  if n_nodes < 2 then invalid_arg "Traffic.destinations: n_nodes < 2";
  match pattern with
  | Uniform -> Array.init n_nodes (fun d -> d)
  | Bursty { pattern; _ } -> destinations pattern ~n_nodes
  | Hotspot _ | Transpose | Bit_reversal | Bit_complement | Tornado ->
      let seen = Array.make n_nodes false in
      for src = 0 to n_nodes - 1 do
        seen.(fixed_destination pattern ~n_nodes ~src) <- true
      done;
      let count = ref 0 in
      Array.iter (fun b -> if b then incr count) seen;
      let out = Array.make !count 0 in
      let i = ref 0 in
      for d = 0 to n_nodes - 1 do
        if seen.(d) then begin
          out.(!i) <- d;
          incr i
        end
      done;
      out

(* --- injection process ------------------------------------------------- *)

type injector =
  | Steady of float
  | On_off of {
      r_on : float;
      p_on_off : float;
      p_off_on : float;
      on : bool array;
    }

let injector pattern ~offered_load ~n_nodes rng =
  match pattern with
  | Bursty { pattern = inner; burst; duty_pct } ->
      (match inner with
      | Bursty _ -> invalid_arg "Traffic: nested bursty patterns"
      | _ -> ());
      if burst < 1 then invalid_arg "Traffic: bursty burst length < 1";
      if duty_pct < 1 || duty_pct > 100 then
        invalid_arg "Traffic: bursty duty cycle outside [1, 100]%";
      if duty_pct = 100 then Steady offered_load
      else begin
        (* two-state Markov chain per node.  Mean ON dwell = [burst]
           cycles gives p(on->off) = 1/burst; the stationary ON share
           equals the duty cycle d when p(off->on) = d/(burst*(1-d))
           (clamped — a duty near 1 with a short burst saturates).  In
           ON the node injects at r_on = load/d, so the long-run
           offered rate is d * load/d = load, matching Steady. *)
        let duty = float_of_int duty_pct /. 100.0 in
        let p_on_off = 1.0 /. float_of_int burst in
        let p_off_on =
          Float.min 1.0 (duty /. (float_of_int burst *. (1.0 -. duty)))
        in
        let r_on = Float.min 1.0 (offered_load /. duty) in
        let on = Array.init n_nodes (fun _ -> Rng.bool rng ~p:duty) in
        On_off { r_on; p_on_off; p_off_on; on }
      end
  | _ -> Steady offered_load

let inject inj rng ~src =
  match inj with
  | Steady p -> Rng.bool rng ~p
  | On_off o ->
      (* decide from the pre-transition state, then advance it; the
         draw order is part of the replicated-stream contract between
         the shards of the simulator engines *)
      let was_on = o.on.(src) in
      let fire = was_on && Rng.bool rng ~p:o.r_on in
      o.on.(src) <-
        (if was_on then not (Rng.bool rng ~p:o.p_on_off)
         else Rng.bool rng ~p:o.p_off_on);
      fire
