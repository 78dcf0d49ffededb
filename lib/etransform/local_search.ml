let plan_cost asis p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost

let feasible asis p = Placement.validate asis p = []

(* A move is accepted only when it saves more than this. *)
let min_gain = 1e-6

(* The screen's slack: an upper bound on how far the incremental delta can
   sit from the difference of two [Evaluate.plan] totals through float
   rounding alone.  Recursive summation of [k] terms errs by at most
   [k * eps/2 * sum |terms|]; the two exact totals and the incremental sum
   each run fewer than [terms] such steps, and [scale] bounds the absolute
   sum of every cost term of any plan — each group at its dearest site,
   each site carrying every server as primary and again as backup.  The
   factor 4 covers the three sums with room to spare.  A non-finite
   bound switches the cost screen off. *)
let slack asis ~dr =
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let p = asis.Asis.params in
  let t = Cost_model.pairs asis in
  let groups = ref 0.0 in
  for i = 0 to m - 1 do
    let dearest = ref 0.0 in
    for j = 0 to n - 1 do
      dearest :=
        Float.max !dearest
          (Float.abs t.Cost_model.wan.(i).(j)
          +. Float.abs t.Cost_model.penalty.(i).(j))
    done;
    groups := !groups +. !dearest
  done;
  let segs = ref 0 and lin = ref 0.0 and fixed = ref 0.0 in
  Array.iter
    (fun (dc : Data_center.t) ->
      let r = dc.Data_center.rates in
      let segments = r.Data_center.space_segments in
      segs := max !segs (List.length segments);
      let umax =
        List.fold_left
          (fun a s -> Float.max a (Float.abs s.Lp.Piecewise.unit_cost))
          0.0 segments
      in
      (* Evaluate prices space at both the primary and the full load. *)
      let per_server =
        (3.0 *. umax)
        +. Float.abs
             (p.Asis.server_power_kw *. p.Asis.hours_per_month
            *. r.Data_center.power_per_kwh)
        +. Float.abs (r.Data_center.admin_monthly /. p.Asis.servers_per_admin)
        +. if dr then Float.abs p.Asis.dr_server_cost else 0.0
      in
      lin := Float.max !lin per_server;
      fixed := !fixed +. Float.abs r.Data_center.fixed_monthly)
    asis.Asis.targets;
  let load = float_of_int (Asis.total_servers asis * if dr then 2 else 1) in
  let scale = !groups +. (load *. !lin) +. !fixed in
  let terms = m + n + Asis.num_user_locations asis + !segs + 32 in
  let s = 4.0 *. epsilon_float *. float_of_int terms *. (scale +. 1.0) in
  if Float.is_finite s then s else Float.nan

let improve ?(max_rounds = 6) ?(swaps = true) ?(may_place = fun _ _ -> true)
    ?omega asis (plan : Placement.t) =
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let omega_ok (p : Placement.t) =
    match omega with
    | None -> true
    | Some w ->
        let counts = Array.make n 0 in
        Array.iter (fun j -> counts.(j) <- counts.(j) + 1) p.Placement.primary;
        Array.for_all
          (fun c -> float_of_int c <= (w *. float_of_int m) +. 1e-9)
          counts
  in
  let current = ref plan in
  let cost = ref (plan_cost asis plan) in
  let moves = ref 0 in
  (* Screen state.  [gc.(i).(j)] is group i's WAN plus latency penalty at
     site j, by the expressions Evaluate uses; a site's cost depends only
     on its primary and backup server counts.  A candidate's delta thus
     needs only the sites it touches, and the screen skips a candidate
     only when [try_plan] is bound to reject it. *)
  let targets = asis.Asis.targets in
  let w = Array.map (fun g -> g.App_group.servers) asis.Asis.groups in
  let gc =
    let t = Cost_model.pairs asis in
    Lp_builder.init_blocks (Array.length w) [||] (fun i ->
        Array.map2 ( +. ) t.Cost_model.wan.(i) t.Cost_model.penalty.(i))
  in
  let dr = plan.Placement.secondary <> None in
  let threshold = -.min_gain +. slack asis ~dr in
  let cap = Array.map (fun dc -> dc.Data_center.capacity) targets in
  let per_server =
    Array.map (fun dc -> Cost_model.power_labor_per_server asis dc) targets
  in
  let dr_cost = asis.Asis.params.Asis.dr_server_cost in
  let site_cost j prim bk =
    let all = prim + bk in
    if all > 0 then
      let a = float_of_int all in
      Data_center.space_cost targets.(j) a
      +. (a *. per_server.(j))
      +. targets.(j).Data_center.rates.Data_center.fixed_monthly
      +. (dr_cost *. float_of_int bk)
    else 0.0
  in
  (* Loads of [!current]: primaries per site, and for DR plans the
     servers by (primary, secondary) site, whose column max is the pool. *)
  let prim = Array.make n 0 in
  let pair = Array.make_matrix (if dr then n else 0) n 0 in
  let site = Array.make n 0.0 in
  let pool b =
    let worst = ref 0 in
    if dr then
      for a = 0 to n - 1 do
        if pair.(a).(b) > !worst then worst := pair.(a).(b)
      done;
    !worst
  in
  let rebuild () =
    let p = !current in
    Array.fill prim 0 n 0;
    Array.iter (fun row -> Array.fill row 0 n 0) pair;
    Array.iteri (fun i a -> prim.(a) <- prim.(a) + w.(i)) p.Placement.primary;
    Option.iter
      (Array.iteri (fun i b ->
           let a = p.Placement.primary.(i) in
           pair.(a).(b) <- pair.(a).(b) + w.(i)))
      p.Placement.secondary;
    for j = 0 to n - 1 do site.(j) <- site_cost j prim.(j) (pool j) done
  in
  rebuild ();
  (* The exact check, the only judge of a move. *)
  let try_plan p' =
    if feasible asis p' && omega_ok p' then begin
      let c' = plan_cost asis p' in
      if c' < !cost -. min_gain then begin
        current := p';
        cost := c';
        incr moves;
        rebuild ();
        true
      end
      else false
    end
    else false
  in
  (* A candidate is screened by moving its groups' servers in place,
     reading the sites it touched, and moving them back. *)
  let touched = Array.make 8 0 and n_touched = ref 0 in
  let mark = Array.make n false in
  let touch j =
    if not mark.(j) then begin
      mark.(j) <- true;
      touched.(!n_touched) <- j;
      incr n_touched
    end
  in
  (* Add (sign 1) or remove (sign -1) group i's servers at primary a and,
     for DR plans, secondary b. *)
  let shift i a b sign =
    let d = sign * w.(i) in
    prim.(a) <- prim.(a) + d;
    touch a;
    if b >= 0 then begin
      pair.(a).(b) <- pair.(a).(b) + d;
      touch b
    end
  in
  let move i (a, b) (a', b') sign =
    shift i a b (-sign);
    shift i a' b' sign
  in
  (* [apply 1] makes the candidate's moves and [apply (-1)] undoes them;
     [gdelta] is its change in group costs.  False when the candidate
     provably fails the exact check: a touched site over capacity, or a
     delta of at least [threshold]. *)
  let passes ~gdelta apply =
    apply 1;
    let over = ref false and d = ref gdelta in
    for t = 0 to !n_touched - 1 do
      let j = touched.(t) in
      let bk = pool j in
      if prim.(j) + bk > cap.(j) then over := true
      else d := !d +. (site_cost j prim.(j) bk -. site.(j))
    done;
    apply (-1);
    for t = 0 to !n_touched - 1 do mark.(touched.(t)) <- false done;
    n_touched := 0;
    not (!over || !d >= threshold)
  in
  let round () =
    let improved = ref false in
    (* Single-group reassignment of the primary site. *)
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let p = !current in
        let a = p.Placement.primary.(i) in
        if a <> j
           && App_group.allowed asis.Asis.groups.(i) j
           && may_place i j
        then begin
          (* Keep the secondary distinct from the new primary. *)
          let s =
            match p.Placement.secondary with None -> -1 | Some sec -> sec.(i)
          in
          let s' = if s = j then a else s in
          if
            passes
              ~gdelta:(gc.(i).(j) -. gc.(i).(a))
              (move i (a, s) (j, s'))
          then begin
            let primary = Array.copy p.Placement.primary in
            primary.(i) <- j;
            let secondary =
              Option.map
                (fun sec ->
                  let sec = Array.copy sec in
                  sec.(i) <- s';
                  sec)
                p.Placement.secondary
            in
            let p' = { Placement.primary; secondary } in
            if try_plan p' then improved := true
          end
        end
      done
    done;
    (* Secondary-site reassignment for DR plans. *)
    (match !current.Placement.secondary with
    | None -> ()
    | Some _ ->
        for i = 0 to m - 1 do
          for j = 0 to n - 1 do
            let p = !current in
            match p.Placement.secondary with
            | Some sec
              when sec.(i) <> j
                   && p.Placement.primary.(i) <> j
                   && App_group.allowed asis.Asis.groups.(i) j ->
                let a = p.Placement.primary.(i) and s = sec.(i) in
                if passes ~gdelta:0.0 (move i (a, s) (a, j)) then begin
                  let sec' = Array.copy sec in
                  sec'.(i) <- j;
                  let p' = { p with Placement.secondary = Some sec' } in
                  if try_plan p' then improved := true
                end
            | _ -> ()
          done
        done);
    (* Pairwise swaps unstick capacity-tight instances. *)
    if swaps then
      for i = 0 to m - 1 do
        for k = i + 1 to m - 1 do
          let p = !current in
          let ji = p.Placement.primary.(i) and jk = p.Placement.primary.(k) in
          if ji <> jk
             && App_group.allowed asis.Asis.groups.(i) jk
             && App_group.allowed asis.Asis.groups.(k) ji
             && may_place i jk && may_place k ji
          then begin
            let si, sk =
              match p.Placement.secondary with
              | None -> (-1, -1)
              | Some sec -> (sec.(i), sec.(k))
            in
            if
              passes
                ~gdelta:
                  (gc.(i).(jk) -. gc.(i).(ji) +. (gc.(k).(ji) -. gc.(k).(jk)))
                (fun sign ->
                  move i (ji, si) (jk, si) sign;
                  move k (jk, sk) (ji, sk) sign)
            then begin
              let primary = Array.copy p.Placement.primary in
              primary.(i) <- jk;
              primary.(k) <- ji;
              let p' = { p with Placement.primary } in
              if try_plan p' then improved := true
            end
          end
        done
      done;
    !improved
  in
  let rec loop r = if r > 0 && round () then loop (r - 1) in
  loop max_rounds;
  (!current, !moves)
