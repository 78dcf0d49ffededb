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
  let mk prefix =
    Array.init m (fun i ->
        Array.init n (fun j ->
            if App_group.allowed asis.Asis.groups.(i) j then
              Some
                (Model.add_var model ~binary:true
                   (Printf.sprintf "%s_%d_%d" prefix i j))
            else None))
  in
  let x = mk "X" and y = mk "Y" in
  let g =
    Array.init n (fun b -> Model.add_var model (Printf.sprintf "G_%d" b))
  in
  let row_sum vars i =
    Model.Linexpr.sum
      (List.filter_map
         (fun j -> Option.map Model.Linexpr.var vars.(i).(j))
         (List.init n Fun.id))
  in
  for i = 0 to m - 1 do
    Model.add_eq model (Printf.sprintf "assign_%d" i) (row_sum x i) 1.0;
    Model.add_eq model (Printf.sprintf "backup_%d" i) (row_sum y i) 1.0;
    for j = 0 to n - 1 do
      match (x.(i).(j), y.(i).(j)) with
      | Some xv, Some yv ->
          (* Paper: X_ij + Y_ij < 2, i.e. primary and secondary differ. *)
          Model.add_le model
            (Printf.sprintf "distinct_%d_%d" i j)
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
      let demand =
        Model.Linexpr.sum
          (List.filter_map
             (fun i ->
               Option.map
                 (Model.Linexpr.term
                    (float_of_int asis.Asis.groups.(i).App_group.servers))
                 y.(i).(b))
             (List.init m Fun.id))
      in
      Model.add_ge model
        (Printf.sprintf "pool_%d" b)
        (Model.Linexpr.sub (Model.Linexpr.var g.(b)) demand)
        0.0
    done
  else begin
    let j_var = Array.init m (fun _ -> Hashtbl.create 4) in
    for c = 0 to m - 1 do
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then
            match (x.(c).(a), y.(c).(b)) with
            | Some xv, Some yv ->
                let jv =
                  Model.add_var model ~hi:1.0 (Printf.sprintf "J_%d_%d_%d" a b c)
                in
                Hashtbl.replace j_var.(c) (a, b) jv;
                (* J_abc >= X_ca + Y_cb - 1 *)
                Model.add_ge model
                  (Printf.sprintf "link_%d_%d_%d" a b c)
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
          let demand =
            Model.Linexpr.sum
              (List.filter_map
                 (fun c ->
                   Option.map
                     (Model.Linexpr.term
                        (float_of_int asis.Asis.groups.(c).App_group.servers))
                     (Hashtbl.find_opt j_var.(c) (a, b)))
                 (List.init m Fun.id))
          in
          Model.add_ge model
            (Printf.sprintf "pool_%d_%d" a b)
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
    let load =
      Model.Linexpr.sum
        (List.filter_map
           (fun i ->
             Option.map
               (Model.Linexpr.term
                  (float_of_int asis.Asis.groups.(i).App_group.servers))
               x.(i).(j))
           (List.init m Fun.id))
    in
    Model.add_le model
      (Printf.sprintf "cap_%d" j)
      (Model.Linexpr.add load (Model.Linexpr.var g.(j)))
      (float_of_int dc.Data_center.capacity);
    match options.omega with
    | None -> ()
    | Some w ->
        let count =
          Model.Linexpr.sum
            (List.filter_map
               (fun i -> Option.map Model.Linexpr.var x.(i).(j))
               (List.init m Fun.id))
        in
        Model.add_le model
          (Printf.sprintf "impact_%d" j)
          count
          (w *. float_of_int m)
  done;
  (* Objective: assignment costs + backup purchase and hosting. *)
  let terms = ref [] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      match x.(i).(j) with
      | None -> ()
      | Some v ->
          terms :=
            Lp.Model.Linexpr.term
              (Cost_model.assign_cost asis ~group:i j)
              v
            :: !terms
    done
  done;
  for b = 0 to n - 1 do
    let dc = asis.Asis.targets.(b) in
    let per_backup =
      asis.Asis.params.Asis.dr_server_cost
      +. Cost_model.power_labor_per_server asis dc
      +. Data_center.first_tier_space dc
    in
    terms := Lp.Model.Linexpr.term per_backup g.(b) :: !terms
  done;
  Lp.Model.set_objective model (Lp.Model.Linexpr.sum !terms);
  { model; x; y; g; asis }

let argmax_row vars solution i =
  let best = ref (-1) and best_v = ref neg_infinity in
  Array.iteri
    (fun j v ->
      match v with
      | None -> ()
      | Some var ->
          let value = solution.(var.Lp.Model.id) in
          if value > !best_v then begin
            best_v := value;
            best := j
          end)
    vars.(i);
  !best

let decode built solution =
  let m = Array.length built.x in
  let primary = Array.init m (argmax_row built.x solution) in
  let secondary =
    Array.init m (fun i ->
        let b = argmax_row built.y solution i in
        (* Guard against ties decoding onto the primary. *)
        if b = primary.(i) then begin
          let alt = ref (-1) and alt_v = ref neg_infinity in
          Array.iteri
            (fun j v ->
              match v with
              | Some var when j <> primary.(i) ->
                  let value = solution.(var.Lp.Model.id) in
                  if value > !alt_v then begin
                    alt_v := value;
                    alt := j
                  end
              | _ -> ())
            built.y.(i);
          if !alt >= 0 then !alt else (primary.(i) + 1) mod Array.length built.g
        end
        else b)
  in
  Placement.with_dr ~primary ~secondary ()
