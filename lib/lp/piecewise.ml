type segment = { width : float; unit_cost : float }

let total_width segs = List.fold_left (fun a s -> a +. s.width) 0.0 segs

let cost_at segs q =
  let rec go acc q = function
    | [] -> acc
    | s :: rest ->
        if q <= 0.0 then acc
        else
          let take = Float.min q s.width in
          go (acc +. (take *. s.unit_cost)) (q -. take) rest
  in
  go 0.0 q segs

let check_segments name segs =
  if segs = [] then invalid_arg (name ^ ": empty segment list");
  List.iter
    (fun s ->
      if s.width <= 0.0 then invalid_arg (name ^ ": non-positive segment width"))
    segs

(* One fill variable per segment of [segs], linked to [quantity];
   returns the fills and the cost expression [sum_k unit_cost_k *
   fill_k]. *)
let fills m ~name ~quantity segs =
  let fills =
    Array.mapi
      (fun k s ->
        Model.add_var m ~lo:0.0 ~hi:s.width (name ^ "_fill" ^ string_of_int k))
      segs
  in
  let col = Array.map Option.some fills in
  let ones = Array.make (Array.length segs) 1.0 in
  Model.add_eq m (name ^ "_link")
    (Model.Linexpr.sub (Model.Linexpr.dot ones col) quantity)
    0.0;
  (fills, Model.Linexpr.dot (Array.map (fun s -> s.unit_cost) segs) col)

let convex_cost m ~name ~quantity segs =
  check_segments name segs;
  snd (fills m ~name ~quantity (Array.of_list segs))

let concave_cost m ~name ~quantity segs =
  check_segments name segs;
  let segs = Array.of_list segs in
  let fs, cost = fills m ~name ~quantity segs in
  (* Ordering binaries: z_k = 1 forces segment k-1 full and is required
     before segment k may hold anything.  Without them the LP would fill the
     cheapest (deepest) discount tier first. *)
  for k = 1 to Array.length fs - 1 do
    let suffix = string_of_int k in
    let z = Model.add_var m ~binary:true (name ^ "_z" ^ suffix) in
    Model.add_le m (name ^ "_open" ^ suffix)
      (Model.Linexpr.sub (Model.Linexpr.var fs.(k))
         (Model.Linexpr.term segs.(k).width z))
      0.0;
    Model.add_ge m (name ^ "_full" ^ suffix)
      (Model.Linexpr.sub (Model.Linexpr.var fs.(k - 1))
         (Model.Linexpr.term segs.(k - 1).width z))
      0.0
  done;
  cost

let fixed_charge m ~name ~quantity ~capacity ~fixed_cost =
  if capacity <= 0.0 then invalid_arg (name ^ ": non-positive capacity");
  let y = Model.add_var m ~binary:true (name ^ "_open") in
  Model.add_le m (name ^ "_cap")
    (Model.Linexpr.sub quantity (Model.Linexpr.term capacity y))
    0.0;
  (Model.Linexpr.term fixed_cost y, y)
