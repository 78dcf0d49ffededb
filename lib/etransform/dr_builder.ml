type options = { omega : float option; dedicated_backups : bool }

let default_options = { omega = None; dedicated_backups = false }

type built = {
  model : Lp.Model.t;
  x : Lp.Model.var option array array;
  y : Lp.Model.var option array array;
  g : Lp.Model.var array;
  asis : Asis.t;
}

let build ?(options = default_options) asis =
  let open Lp in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let model = Model.create ~name:(asis.Asis.name ^ "_dr") () in
  let col_suffix = Array.init n string_of_int in
  let mk prefix =
    Lp_builder.init_blocks m [||] (fun i ->
        let row_prefix = prefix ^ "_" ^ string_of_int i ^ "_" in
        Array.init n (fun j ->
            if App_group.allowed asis.Asis.groups.(i) j then
              Some (Model.add_var model ~binary:true (row_prefix ^ col_suffix.(j)))
            else None))
  in
  let x = mk "X" and y = mk "Y" in
  let g = Array.init n (fun b -> Model.add_var model ("G_" ^ col_suffix.(b))) in
  (* Columns of [x] and [y], and the weights {!Lp.Model.Linexpr.dot} puts
     on rows and columns: one, or each group's servers. *)
  let col vars j = Lp_builder.init_blocks m None (fun i -> vars.(i).(j)) in
  let ones_m = Array.make m 1.0 and ones_n = Array.make n 1.0 in
  let servers =
    Array.map (fun g -> float_of_int g.App_group.servers) asis.Asis.groups
  in
  for i = 0 to m - 1 do
    let suffix = string_of_int i in
    Model.add_eq model ("assign_" ^ suffix) (Model.Linexpr.dot ones_n x.(i)) 1.0;
    Model.add_eq model ("backup_" ^ suffix) (Model.Linexpr.dot ones_n y.(i)) 1.0;
    for j = 0 to n - 1 do
      match (x.(i).(j), y.(i).(j)) with
      | Some xv, Some yv ->
          (* Paper: X_ij + Y_ij < 2, i.e. primary and secondary differ. *)
          Model.add_le model
            ("distinct_" ^ suffix ^ "_" ^ col_suffix.(j))
            Model.Linexpr.(add (var xv) (var yv))
            1.0
      | _ -> ()
    done
  done;
  (* Backup pools.  Under sharing, G_b >= sum_c J_abc S_c per primary a;
     under dedicated backups the pool is simply the sum of backed-up
     servers, no J needed. *)
  if options.dedicated_backups then
    for b = 0 to n - 1 do
      let demand = Model.Linexpr.dot servers (col y b) in
      Model.add_ge model ("pool_" ^ col_suffix.(b))
        (Model.Linexpr.sub (Model.Linexpr.var g.(b)) demand)
        0.0
    done
  else begin
    (* j_var.(a).(b).(c) is J_abc, when group c may have its primary at
       a and its secondary at b. *)
    let j_var = Array.init n (fun _ -> Array.make_matrix n m None) in
    for c = 0 to m - 1 do
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then
            match (x.(c).(a), y.(c).(b)) with
            | Some xv, Some yv ->
                let name =
                  col_suffix.(a) ^ "_" ^ col_suffix.(b) ^ "_" ^ string_of_int c
                in
                let jv = Model.add_var model ~hi:1.0 ("J_" ^ name) in
                j_var.(a).(b).(c) <- Some jv;
                (* J_abc >= X_ca + Y_cb - 1 *)
                Model.add_ge model ("link_" ^ name)
                  Model.Linexpr.(
                    sub (var jv) (add (var xv) (var yv)))
                  (-1.0)
            | _ -> ()
        done
      done
    done;
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b then begin
          let demand = Model.Linexpr.dot servers j_var.(a).(b) in
          Model.add_ge model
            ("pool_" ^ col_suffix.(a) ^ "_" ^ col_suffix.(b))
            (Model.Linexpr.sub (Model.Linexpr.var g.(b)) demand)
            0.0
        end
      done
    done
  end;
  (* Capacity shared between primaries and the backup pool; business-impact
     spread on primaries. *)
  for j = 0 to n - 1 do
    let dc = asis.Asis.targets.(j) in
    let xj = col x j in
    Model.add_le model ("cap_" ^ col_suffix.(j))
      (Model.Linexpr.add (Model.Linexpr.dot servers xj) (Model.Linexpr.var g.(j)))
      (float_of_int dc.Data_center.capacity);
    match options.omega with
    | None -> ()
    | Some w ->
        Model.add_le model ("impact_" ^ col_suffix.(j))
          (Model.Linexpr.dot ones_m xj)
          (w *. float_of_int m)
  done;
  (* Objective: assignment costs + backup purchase and hosting, in
     variable order. *)
  let assign_costs =
    List.init m (fun i ->
        let c = Array.make n 0.0 in
        for j = 0 to n - 1 do
          match x.(i).(j) with
          | None -> ()
          | Some _ -> c.(j) <- Cost_model.assign_cost asis ~group:i j
        done;
        Model.Linexpr.dot c x.(i))
  in
  let per_backup = Array.map (Cost_model.backup_price asis) asis.Asis.targets in
  Model.set_objective model
    (Model.Linexpr.sum
       (assign_costs @ [ Model.Linexpr.dot per_backup (Array.map Option.some g) ]));
  { model; x; y; g; asis }

let decode_secondaries y solution primary ~n =
  Array.mapi
    (fun i a ->
      let b = Lp_builder.argmax ~except:a y.(i) solution in
      if b >= 0 then b else (a + 1) mod n)
    primary

let decode built solution =
  let primary =
    Array.map (fun row -> Lp_builder.argmax row solution) built.x
  in
  let secondary =
    decode_secondaries built.y solution primary ~n:(Array.length built.g)
  in
  Placement.with_dr ~primary ~secondary ()
