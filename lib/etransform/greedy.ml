let order_by_size asis =
  let m = Asis.num_groups asis in
  let idx = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      compare asis.Asis.groups.(b).App_group.servers
        asis.Asis.groups.(a).App_group.servers)
    idx;
  idx

(* Marginal cost of adding [group] to [j] when [load] servers already
   landed there; [t] is the estate's pair table. *)
let marginal_cost asis (t : Cost_model.pairs) ~group ~j ~load =
  let dc = asis.Asis.targets.(j) in
  let s = float_of_int asis.Asis.groups.(group).App_group.servers in
  let space =
    Data_center.space_cost dc (load +. s) -. Data_center.space_cost dc load
  in
  space
  +. (s *. Cost_model.power_labor_per_server asis dc)
  +. t.Cost_model.wan.(group).(j)
  +. t.Cost_model.penalty.(group).(j)
  +. (if load = 0.0 then dc.Data_center.rates.Data_center.fixed_monthly else 0.0)

let place_primaries asis =
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let load = Array.make n 0.0 in
  let primary = Array.make m (-1) in
  let t = Cost_model.pairs asis in
  Array.iter
    (fun i ->
      let g = asis.Asis.groups.(i) in
      let s = float_of_int g.App_group.servers in
      let best = ref (-1) and best_c = ref infinity in
      for j = 0 to n - 1 do
        let dc = asis.Asis.targets.(j) in
        if
          App_group.allowed g j
          && load.(j) +. s <= float_of_int dc.Data_center.capacity
        then begin
          let c = marginal_cost asis t ~group:i ~j ~load:load.(j) in
          if c < !best_c then begin
            best_c := c;
            best := j
          end
        end
      done;
      if !best < 0 then
        failwith
          (Printf.sprintf "Greedy.plan: no feasible DC for group %s"
             g.App_group.name);
      primary.(i) <- !best;
      load.(!best) <- load.(!best) +. s)
    (order_by_size asis);
  (primary, load)

let plan asis =
  let primary, _ = place_primaries asis in
  Placement.non_dr primary

let plan_dr asis =
  let n = Asis.num_targets asis in
  let primary, load = place_primaries asis in
  (* pair.(a).(b): backup servers already promised at b for primaries of a;
     pools.(b) = max_a pair.(a).(b). *)
  let pair = Array.make_matrix n n 0.0 in
  let pools = Array.make n 0.0 in
  let secondary = Array.make (Array.length primary) (-1) in
  Array.iter
    (fun i ->
      let g = asis.Asis.groups.(i) in
      let s = float_of_int g.App_group.servers in
      let a = primary.(i) in
      let best = ref (-1) and best_c = ref infinity in
      for b = 0 to n - 1 do
        if b <> a && App_group.allowed g b then begin
          let dc = asis.Asis.targets.(b) in
          let new_pool = Float.max pools.(b) (pair.(a).(b) +. s) in
          let delta = new_pool -. pools.(b) in
          if
            load.(b) +. new_pool <= float_of_int dc.Data_center.capacity
          then begin
            let c = delta *. Cost_model.backup_price asis dc in
            if c < !best_c then begin
              best_c := c;
              best := b
            end
          end
        end
      done;
      if !best < 0 then
        failwith
          (Printf.sprintf "Greedy.plan_dr: no feasible backup DC for group %s"
             g.App_group.name);
      let b = !best in
      pair.(a).(b) <- pair.(a).(b) +. s;
      if pair.(a).(b) > pools.(b) then pools.(b) <- pair.(a).(b);
      secondary.(i) <- b)
    (order_by_size asis);
  Placement.with_dr ~primary ~secondary ()
