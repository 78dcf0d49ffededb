let avg_latency_ms asis ~group dc =
  let g = asis.Asis.groups.(group) in
  Geo.Latency_model.average ~weights:g.App_group.users
    dc.Data_center.user_latency_ms

(* The WAN cost and latency penalty of group [g], whose users total
   [users], at [dc]. *)
let wan_at (p : Asis.params) (g : App_group.t) ~users dc =
  if p.Asis.use_vpn then begin
    if users <= 0.0 then 0.0
    else begin
      (* Dedicated links sized by each location's share of the traffic. *)
      let acc = ref 0.0 in
      Array.iteri
        (fun r c_ir ->
          let links =
            c_ir *. g.App_group.data_mb_month
            /. (p.Asis.vpn_link_capacity_mb *. users)
          in
          acc := !acc +. (links *. dc.Data_center.vpn_monthly.(r)))
        g.App_group.users;
      !acc
    end
  end
  else g.App_group.data_mb_month *. dc.Data_center.rates.Data_center.wan_per_mb

let penalty_at (g : App_group.t) ~users dc =
  let avg_latency_ms =
    Geo.Latency_model.mean ~total:users ~weights:g.App_group.users
      dc.Data_center.user_latency_ms
  in
  Latency_penalty.total g.App_group.latency ~avg_latency_ms ~users

let wan_cost asis ~group dc =
  let g = asis.Asis.groups.(group) in
  wan_at asis.Asis.params g ~users:(App_group.total_users g) dc

let power_labor_per_server asis dc =
  let p = asis.Asis.params in
  (p.Asis.server_power_kw *. p.Asis.hours_per_month
  *. dc.Data_center.rates.Data_center.power_per_kwh)
  +. (dc.Data_center.rates.Data_center.admin_monthly /. p.Asis.servers_per_admin)

let backup_price asis dc =
  asis.Asis.params.Asis.dr_server_cost
  +. power_labor_per_server asis dc
  +. Data_center.first_tier_space dc

let latency_penalty asis ~group dc =
  let g = asis.Asis.groups.(group) in
  penalty_at g ~users:(App_group.total_users g) dc

type pairs = {
  estate : Asis.t;
  wan : float array array;
  penalty : float array array;
}

(* One entry per domain, keyed on the estate's physical identity and
   replaced whole.  An estate is never changed in place — a variant is a
   new record ({ asis with ... }) and so a new key — so an entry cannot go
   stale, and a plan's consumers on one domain share one table. *)
let memo : pairs option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let pairs asis =
  match Domain.DLS.get memo with
  | Some e when e.estate == asis -> e
  | _ ->
      (* Each group's users are summed once, for all of its targets. *)
      let m = Asis.num_groups asis in
      let wan = Array.make m [||] and penalty = Array.make m [||] in
      Array.iteri
        (fun i g ->
          let users = App_group.total_users g in
          let at f = Array.map (f ~users) asis.Asis.targets in
          wan.(i) <- at (wan_at asis.Asis.params g);
          penalty.(i) <- at (penalty_at g))
        asis.Asis.groups;
      let e = { estate = asis; wan; penalty } in
      Domain.DLS.set memo (Some e);
      e

let assign_cost ?(include_first_tier_space = true) asis ~group j =
  let dc = asis.Asis.targets.(j) in
  let g = asis.Asis.groups.(group) in
  let servers = float_of_int g.App_group.servers in
  let space =
    if include_first_tier_space then Data_center.first_tier_space dc else 0.0
  in
  let t = pairs asis in
  (servers *. (space +. power_labor_per_server asis dc))
  +. t.wan.(group).(j)
  +. t.penalty.(group).(j)
