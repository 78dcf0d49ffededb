type options = {
  economies_of_scale : bool;
  fixed_charges : bool;
  omega : float option;
  pins : (int * int) list;
  forbids : (int * int) list;
  max_latency_ms : float option;
}

let default_options =
  {
    economies_of_scale = false;
    fixed_charges = false;
    omega = None;
    pins = [];
    forbids = [];
    max_latency_ms = None;
  }

type built = {
  model : Lp.Model.t;
  x : Lp.Model.var option array array;
  asis : Asis.t;
  options : options;
}

let init_blocks n empty f =
  let a = Array.make n empty in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

(* Membership in a list of (group, target) pairs; no table and no
   lookup when the list is empty, as it is for most plans. *)
let pair_set = function
  | [] -> fun _ _ -> false
  | pairs ->
      let t = Hashtbl.create 16 in
      List.iter (fun p -> Hashtbl.replace t p ()) pairs;
      fun i j -> Hashtbl.mem t (i, j)

(* [columns options asis] holds [true] at [(i, j)] when group [i] gets an
   X column at target [j]: an allowed site, not forbidden, and inside the
   latency budget.  A group whose every candidate violates the budget
   keeps its fastest one — sweeps over tight budgets degrade gracefully
   instead of going infeasible — and pinned pairs always survive the
   budget (the re-planner pins prior assignments it already vetted). *)
let columns options asis =
  let forbidden = pair_set options.forbids and pinned = pair_set options.pins in
  let cols =
    init_blocks (Asis.num_groups asis) [||] (fun i ->
        let g = asis.Asis.groups.(i) in
        Array.init (Asis.num_targets asis) (fun j ->
            App_group.allowed g j && not (forbidden i j)))
  in
  Option.iter
    (fun budget ->
      Array.iteri
        (fun i row ->
          let lat =
            Array.mapi
              (fun j ok ->
                if ok then
                  Cost_model.avg_latency_ms asis ~group:i asis.Asis.targets.(j)
                else infinity)
              row
          in
          let best = ref (-1) and best_lat = ref infinity in
          Array.iteri
            (fun j l ->
              if l < !best_lat then begin
                best_lat := l;
                best := j
              end)
            lat;
          Array.iteri
            (fun j l ->
              if not (l <= budget || j = !best || pinned i j) then
                row.(j) <- false)
            lat)
        cols)
    options.max_latency_ms;
  cols

let may_place options asis =
  let cols = columns options asis in
  List.iter
    (fun (i, j) ->
      let row = cols.(i) in
      Array.iteri (fun k _ -> if k <> j then row.(k) <- false) row)
    options.pins;
  fun i j -> cols.(i).(j)

let constrained options =
  options.pins <> [] || options.forbids <> [] || options.omega <> None
  || options.max_latency_ms <> None

let build ?(options = default_options) asis =
  let open Lp in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let model = Model.create ~name:(asis.Asis.name ^ "_consolidation") () in
  let cols = columns options asis in
  let col_suffix = Array.init n string_of_int in
  let x =
    init_blocks m [||] (fun i ->
        let row_prefix = "X_" ^ string_of_int i ^ "_" in
        Array.init n (fun j ->
            if cols.(i).(j) then
              Some (Model.add_var model ~binary:true (row_prefix ^ col_suffix.(j)))
            else None))
  in
  List.iter
    (fun (i, j) ->
      match x.(i).(j) with
      | Some v -> Model.set_bounds model v ~lo:1.0 ~hi:1.0
      | None -> invalid_arg "Lp_builder.build: pin targets a forbidden pair")
    options.pins;
  (* Rows and columns of [x] as {!Lp.Model.Linexpr.dot} weighs them: by
     one or by each group's servers. *)
  let x_col = Array.init n (fun j -> init_blocks m None (fun i -> x.(i).(j))) in
  let ones_m = Array.make m 1.0 and ones_n = Array.make n 1.0 in
  let servers =
    Array.map (fun g -> float_of_int g.App_group.servers) asis.Asis.groups
  in
  (* Assignment rows: a home for every group. *)
  for i = 0 to m - 1 do
    Model.add_eq model ("assign_" ^ string_of_int i)
      (Model.Linexpr.dot ones_n x.(i))
      1.0
  done;
  (* Capacity rows and per-DC load expressions.  The cost terms are
     collected in variable order, so the objective needs no sort. *)
  let site_costs = ref [] in
  for j = 0 to n - 1 do
    let dc = asis.Asis.targets.(j) in
    let lj = Model.Linexpr.dot servers x_col.(j) in
    Model.add_le model ("cap_" ^ col_suffix.(j)) lj
      (float_of_int dc.Data_center.capacity);
    if options.economies_of_scale then begin
      let space =
        Piecewise.concave_cost model
          ~name:("space_" ^ col_suffix.(j))
          ~quantity:lj dc.Data_center.rates.Data_center.space_segments
      in
      site_costs := space :: !site_costs
    end;
    if options.fixed_charges
       && dc.Data_center.rates.Data_center.fixed_monthly > 0.0
    then begin
      let fixed, _open_var =
        Piecewise.fixed_charge model
          ~name:("site_" ^ col_suffix.(j))
          ~quantity:lj
          ~capacity:(float_of_int dc.Data_center.capacity)
          ~fixed_cost:dc.Data_center.rates.Data_center.fixed_monthly
      in
      site_costs := fixed :: !site_costs
    end;
    match options.omega with
    | None -> ()
    | Some w ->
        Model.add_le model ("impact_" ^ col_suffix.(j))
          (Model.Linexpr.dot ones_m x_col.(j))
          (w *. float_of_int m)
  done;
  (* Shared-risk separation. *)
  Array.iteri
    (fun i (g : App_group.t) ->
      List.iter
        (fun k ->
          if k > i && k < m then
            for j = 0 to n - 1 do
              match (x.(i).(j), x.(k).(j)) with
              | Some a, Some b ->
                  Model.add_le model
                    (Printf.sprintf "risk_%d_%d_%d" i k j)
                    Model.Linexpr.(add (var a) (var b))
                    1.0
              | _ -> ()
            done)
        g.App_group.colocate_avoid)
    asis.Asis.groups;
  (* Linear assignment costs, then the sites' discount and opening
     costs. *)
  let assign_costs =
    List.init m (fun i ->
        let c = Array.make n 0.0 in
        for j = 0 to n - 1 do
          match x.(i).(j) with
          | None -> ()
          | Some _ ->
              c.(j) <-
                Cost_model.assign_cost
                  ~include_first_tier_space:(not options.economies_of_scale)
                  asis ~group:i j
        done;
        Model.Linexpr.dot c x.(i))
  in
  Model.set_objective model
    (Model.Linexpr.sum (assign_costs @ List.rev !site_costs));
  { model; x; asis; options }

let argmax ?(except = -1) row solution =
  let best = ref (-1) and best_v = ref neg_infinity in
  Array.iteri
    (fun j v ->
      match v with
      | Some var when j <> except ->
          let value = solution.(var.Lp.Model.id) in
          if value > !best_v then begin
            best_v := value;
            best := j
          end
      | _ -> ())
    row;
  !best

let decode built solution =
  Placement.non_dr
    (Array.mapi
       (fun i row ->
         let j = argmax row solution in
         if j < 0 then
           invalid_arg
             (Printf.sprintf "Lp_builder.decode: group %d has no candidate" i);
         j)
       built.x)
