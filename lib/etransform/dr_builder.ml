type built = {
  base : Lp_builder.built;
  y : Lp.Model.var option array array;
  g : Lp.Model.var array;
}

let build ?(options = Lp_builder.default_options) asis =
  let open Lp in
  let base = Lp_builder.build ~options asis in
  let model = base.Lp_builder.model and x = base.Lp_builder.x in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let col_suffix = Array.init n string_of_int in
  let y =
    Lp_builder.init_blocks m [||] (fun i ->
        let row_prefix = "Y_" ^ string_of_int i ^ "_" in
        Array.init n (fun j ->
            if App_group.allowed asis.Asis.groups.(i) j then
              Some (Model.add_var model ~binary:true (row_prefix ^ col_suffix.(j)))
            else None))
  in
  let g = Array.init n (fun b -> Model.add_var model ("G_" ^ col_suffix.(b))) in
  let ones_n = Array.make n 1.0 in
  let servers =
    Array.map (fun g -> float_of_int g.App_group.servers) asis.Asis.groups
  in
  for i = 0 to m - 1 do
    let suffix = string_of_int i in
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
  (* Shared pools: G_b >= sum_c J_abc S_c per primary site a.
     j_var.(a).(b).(c) is J_abc, when group c may have its primary at a
     and its secondary at b. *)
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
                Model.Linexpr.(sub (var jv) (add (var xv) (var yv)))
                (-1.0)
          | _ -> ()
      done
    done
  done;
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then
        Model.add_ge model
          ("pool_" ^ col_suffix.(a) ^ "_" ^ col_suffix.(b))
          (Model.Linexpr.sub (Model.Linexpr.var g.(b))
             (Model.Linexpr.dot servers j_var.(a).(b)))
          0.0
    done
  done;
  (* Capacity shared between primaries and the backup pool. *)
  for j = 0 to n - 1 do
    Model.add_le model ("poolcap_" ^ col_suffix.(j))
      (Model.Linexpr.add
         (Model.Linexpr.dot servers
            (Lp_builder.init_blocks m None (fun i -> x.(i).(j))))
         (Model.Linexpr.var g.(j)))
      (float_of_int asis.Asis.targets.(j).Data_center.capacity)
  done;
  (* Stage 1's objective, then backup purchase and hosting, in variable
     order. *)
  let ids, coefs, const = Model.objective_terms model in
  let vars = Model.vars model in
  let per_backup = Array.map (Cost_model.backup_price asis) asis.Asis.targets in
  Model.set_objective model
    (Model.Linexpr.sum
       [
         Model.Linexpr.constant const;
         Model.Linexpr.dot coefs
           (Lp_builder.init_blocks (Array.length ids) None (fun k ->
                Some vars.(ids.(k))));
         Model.Linexpr.dot per_backup (Array.map Option.some g);
       ]);
  { base; y; g }

let decode_secondaries y solution primary ~n =
  Array.mapi
    (fun i a ->
      let b = Lp_builder.argmax ~except:a y.(i) solution in
      if b >= 0 then b else (a + 1) mod n)
    primary

let decode built solution =
  let primary = (Lp_builder.decode built.base solution).Placement.primary in
  let secondary =
    decode_secondaries built.y solution primary ~n:(Array.length built.g)
  in
  Placement.with_dr ~primary ~secondary ()
