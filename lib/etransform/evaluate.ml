type breakdown = {
  space : float;
  wan : float;
  power : float;
  labor : float;
  fixed : float;
  latency_penalty : float;
  backup_capex : float;
  backup_ops : float;
}

let total b =
  b.space +. b.wan +. b.power +. b.labor +. b.fixed +. b.latency_penalty
  +. b.backup_capex +. b.backup_ops

let operational b = total b -. b.latency_penalty

type summary = {
  cost : breakdown;
  violations : int;
  dcs_used : int;
  servers : int array;
  backups : float array;
}

(* Shared engine: cost the [assign]ment of groups over an arbitrary [estate]
   plus per-DC backup pools. *)
let cost_over asis ~estate ~assign ~backups =
  let n = Array.length estate in
  let p = asis.Asis.params in
  let servers = Array.make n 0 in
  Array.iteri
    (fun i j ->
      servers.(j) <- servers.(j) + asis.Asis.groups.(i).App_group.servers)
    assign;
  let space = ref 0.0 and power = ref 0.0 and labor = ref 0.0 in
  let fixed = ref 0.0 and backup_ops = ref 0.0 in
  for j = 0 to n - 1 do
    let dc = estate.(j) in
    let prim = float_of_int servers.(j) in
    let bk = backups.(j) in
    let all = prim +. bk in
    if all > 0.0 then begin
      let space_all = Data_center.space_cost dc all in
      let space_prim = Data_center.space_cost dc prim in
      let per_server = Cost_model.power_labor_per_server asis dc in
      space := !space +. space_prim;
      power :=
        !power
        +. (prim *. p.Asis.server_power_kw *. p.Asis.hours_per_month
           *. dc.Data_center.rates.Data_center.power_per_kwh);
      labor :=
        !labor
        +. (prim *. dc.Data_center.rates.Data_center.admin_monthly
           /. p.Asis.servers_per_admin);
      (* Backup servers ride the same discount curve; attribute the
         difference between hosting all servers and the primaries alone. *)
      backup_ops := !backup_ops +. (space_all -. space_prim) +. (bk *. per_server);
      fixed := !fixed +. dc.Data_center.rates.Data_center.fixed_monthly
    end
  done;
  let wan = ref 0.0 and penalty = ref 0.0 and violations = ref 0 in
  Array.iteri
    (fun i j ->
      let dc = estate.(j) in
      wan := !wan +. Cost_model.wan_cost asis ~group:i dc;
      let g = asis.Asis.groups.(i) in
      let lat = Cost_model.avg_latency_ms asis ~group:i dc in
      penalty :=
        !penalty
        +. Latency_penalty.total g.App_group.latency ~avg_latency_ms:lat
             ~users:(App_group.total_users g);
      if Latency_penalty.violated g.App_group.latency ~avg_latency_ms:lat then
        incr violations)
    assign;
  let total_backups = Array.fold_left ( +. ) 0.0 backups in
  let cost =
    {
      space = !space;
      wan = !wan;
      power = !power;
      labor = !labor;
      fixed = !fixed;
      latency_penalty = !penalty;
      backup_capex = p.Asis.dr_server_cost *. total_backups;
      backup_ops = !backup_ops;
    }
  in
  let used = Array.make n false in
  Array.iter (fun j -> used.(j) <- true) assign;
  Array.iteri (fun j b -> if b > 0.0 then used.(j) <- true) backups;
  {
    cost;
    violations = !violations;
    dcs_used = Array.fold_left (fun a u -> if u then a + 1 else a) 0 used;
    servers;
    backups;
  }

let plan asis (p : Placement.t) =
  cost_over asis ~estate:asis.Asis.targets ~assign:p.Placement.primary
    ~backups:(Placement.backup_servers asis p)

let asis_state asis =
  cost_over asis ~estate:asis.Asis.current ~assign:asis.Asis.current_placement
    ~backups:(Array.make (Array.length asis.Asis.current) 0.0)

let asis_with_basic_dr asis =
  (* One dedicated backup site sized for the worst single-site failure,
     priced like the cheapest current DC. *)
  let n = Array.length asis.Asis.current in
  let per_dc = Array.make n 0 in
  Array.iteri
    (fun i j ->
      per_dc.(j) <- per_dc.(j) + asis.Asis.groups.(i).App_group.servers)
    asis.Asis.current_placement;
  let worst = Array.fold_left max 0 per_dc in
  let cheapest =
    Array.to_list asis.Asis.current
    |> List.sort (fun a b ->
           compare (Data_center.first_tier_space a) (Data_center.first_tier_space b))
    |> List.hd
  in
  let backup_site =
    (* Extend the discount curve so the site can absorb the whole pool. *)
    let segs = cheapest.Data_center.rates.Data_center.space_segments in
    let last_cost =
      List.fold_left (fun _ s -> s.Lp.Piecewise.unit_cost) 0.0 segs
    in
    let extra =
      { Lp.Piecewise.width = float_of_int (max worst 1); unit_cost = last_cost }
    in
    Data_center.v ~name:"backup-site"
      ~capacity:(max worst cheapest.Data_center.capacity)
      ~space_segments:(segs @ [ extra ])
      ~wan_per_mb:cheapest.Data_center.rates.Data_center.wan_per_mb
      ~power_per_kwh:cheapest.Data_center.rates.Data_center.power_per_kwh
      ~admin_monthly:cheapest.Data_center.rates.Data_center.admin_monthly
      ~user_latency_ms:cheapest.Data_center.user_latency_ms
      ~vpn_monthly:cheapest.Data_center.vpn_monthly ()
  in
  let estate = Array.append asis.Asis.current [| backup_site |] in
  let backups = Array.make (n + 1) 0.0 in
  backups.(n) <- float_of_int worst;
  cost_over asis ~estate ~assign:asis.Asis.current_placement ~backups

let pp_breakdown ppf b =
  Fmt.pf ppf
    "space %.3e, wan %.3e, power %.3e, labor %.3e, fixed %.3e, penalty %.3e, \
     backup capex %.3e, backup ops %.3e, total %.3e"
    b.space b.wan b.power b.labor b.fixed b.latency_penalty b.backup_capex
    b.backup_ops (total b)

let pp_summary ppf s =
  Fmt.pf ppf "total $%.3e (penalty $%.3e), %d violations, %d DCs used"
    (total s.cost) s.cost.latency_penalty s.violations s.dcs_used
