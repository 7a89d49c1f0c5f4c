open Mvl_geometry
open Mvl_topology

type t = {
  graph : Graph.t;
  layers : int;
  node_layers : int array;
  geom : Geom.t;
}

type metrics = {
  width : int;
  height : int;
  area : int;
  layers : int;
  volume : int;
  max_wire : int;
  total_wire : int;
  vias : int;
}

let graph t = t.graph
let layers (t : t) = t.layers

let resident_bytes t =
  Geom.resident_bytes t.geom
  + (Array.length t.node_layers * (Sys.word_size / 8))
let node_layers t = t.node_layers
let geom t = t.geom
let wires t = Geom.wires_view t.geom
let nodes t = Geom.nodes_view t.geom
let node_rect t i = Geom.node_rect t.geom i

let check_node_layers ~layers ~n node_layers =
  match node_layers with
  | None -> Array.make n 1
  | Some nl ->
      if Array.length nl <> n then
        invalid_arg "Layout.make: one active layer per node required";
      Array.iter
        (fun z ->
          if z < 1 || z > layers then
            invalid_arg "Layout.make: node layer out of range")
        nl;
      nl

let make ~graph ~layers ?node_layers ~nodes ~wires () =
  if layers < 1 then invalid_arg "Layout.make: layers < 1";
  if Array.length nodes <> Graph.n graph then
    invalid_arg "Layout.make: one footprint per node required";
  if Array.length wires <> Graph.m graph then
    invalid_arg "Layout.make: one wire per edge required";
  let node_layers = check_node_layers ~layers ~n:(Graph.n graph) node_layers in
  { graph; layers; node_layers; geom = Geom.of_wires ~nodes ~wires }

let of_geom ~graph ~layers ?node_layers geom =
  if layers < 1 then invalid_arg "Layout.make: layers < 1";
  if geom.Geom.n_nodes <> Graph.n graph then
    invalid_arg "Layout.make: one footprint per node required";
  if geom.Geom.n_wires <> Graph.m graph then
    invalid_arg "Layout.make: one wire per edge required";
  let node_layers = check_node_layers ~layers ~n:(Graph.n graph) node_layers in
  { graph; layers; node_layers; geom }

let active_layers (t : t) =
  (* node layers are validated into [1, layers], so one pass over a
     presence table replaces sorting a boxed copy of the column *)
  let seen = Array.make (t.layers + 1) false in
  let count = ref 0 in
  Array.iter
    (fun z ->
      if not seen.(z) then begin
        seen.(z) <- true;
        incr count
      end)
    t.node_layers;
  !count

let edge_column t ~missing f =
  let g = t.geom in
  let col = Array.make (Array.length (Graph.adjacency t.graph)) missing in
  for i = 0 to g.Geom.n_wires - 1 do
    let u = g.Geom.edge_u.{i} and v = g.Geom.edge_v.{i} in
    let s = Graph.slot t.graph u v in
    if s >= 0 then begin
      let x = f i in
      col.(s) <- x;
      col.(Graph.slot t.graph v u) <- x
    end
  done;
  col

let bounding_box t = Geom.bounding_box t.geom

let translate t ~dx ~dy = { t with geom = Geom.translate t.geom ~dx ~dy }

let metrics t =
  let bbox = bounding_box t in
  let width = Rect.width bbox and height = Rect.height bbox in
  let area = width * height in
  let g = t.geom in
  let max_wire = ref 0 and total_wire = ref 0 and vias = ref 0 in
  for i = 0 to g.Geom.n_wires - 1 do
    let lo = g.Geom.wire_off.{i} and hi = g.Geom.wire_off.{i + 1} in
    let xy = ref 0 and zlen = ref 0 in
    for k = lo to hi - 2 do
      xy :=
        !xy
        + abs (g.Geom.px.{k + 1} - g.Geom.px.{k})
        + abs (g.Geom.py.{k + 1} - g.Geom.py.{k});
      zlen := !zlen + abs (g.Geom.pz.{k + 1} - g.Geom.pz.{k})
    done;
    if !xy > !max_wire then max_wire := !xy;
    total_wire := !total_wire + !xy;
    vias := !vias + !zlen
  done;
  {
    width;
    height;
    area;
    layers = t.layers;
    volume = t.layers * area;
    max_wire = !max_wire;
    total_wire = !total_wire;
    vias = !vias;
  }

let pp_metrics ppf m =
  Format.fprintf ppf
    "@[%dx%d area=%d layers=%d volume=%d max_wire=%d total_wire=%d vias=%d@]"
    m.width m.height m.area m.layers m.volume m.max_wire m.total_wire m.vias
