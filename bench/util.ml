(* Small table-printing helpers shared by the experiment harness. *)

let heading id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let row fmt = Printf.printf fmt

let ratio measured formula =
  if formula = 0.0 then nan else float_of_int measured /. formula

let pp_ratio r = Printf.sprintf "%6.3f" r

(* validate layouts up to a size budget; beyond it the (already
   unit-tested) construction is trusted and we report "-" *)
let validity_label ?(max_edges = 20000) lay =
  if Mvl_core.Mvl.Graph.m (Mvl_core.Mvl.Layout.graph lay) > max_edges then
    "   -"
  else if Mvl_core.Mvl.Check.is_valid ~mode:Mvl_core.Mvl.Check.Strict lay then
    "  ok"
  else "FAIL"
