(** Presolve for linear programs.

    Two layers live here.  The original, light passes over a {!Model.t}
    ({!tighten}, {!diagnose}) mutate bounds in place and never remove
    rows, so variable ids remain stable for callers holding {!Model.var}
    handles.

    The input-level pipeline ({!reduce} / {!postsolve} / {!solve})
    operates on {!Simplex.input} values instead: fixed-variable
    elimination, empty/singleton/redundant row removal with bound
    tightening, implied-free column-singleton substitution, and
    power-of-two equilibration scaling.  Every stage records an undo
    closure, so {!postsolve} reconstructs the full primal solution {e
    and} a valid dual certificate (duals and reduced costs) for the
    original input — {!Simplex.check_certificate} accepts the
    reconstruction. *)

(** [tighten m] derives tighter variable bounds from singleton rows
    (rows mentioning exactly one variable) and returns how many bounds
    changed.  Binary/integer variables additionally get their bounds
    rounded inward. *)
let tighten m =
  let changed = ref 0 in
  let vs = Model.vars m in
  Array.iter
    (fun (c : Model.constr) ->
      match Model.Linexpr.terms c.Model.expr with
      | [| (id, coeff) |] when coeff <> 0.0 ->
          let v = vs.(id) in
          let bound = c.Model.rhs /. coeff in
          let apply_le () =
            if bound < v.Model.hi -. 1e-12 then begin
              Model.set_bounds m v ~lo:v.Model.lo ~hi:bound;
              incr changed
            end
          and apply_ge () =
            if bound > v.Model.lo +. 1e-12 then begin
              Model.set_bounds m v ~lo:bound ~hi:v.Model.hi;
              incr changed
            end
          in
          (match (c.Model.sense, coeff > 0.0) with
          | Model.Le, true | Model.Ge, false -> apply_le ()
          | Model.Ge, true | Model.Le, false -> apply_ge ()
          | Model.Eq, _ ->
              if
                bound < v.Model.hi -. 1e-12 || bound > v.Model.lo +. 1e-12
              then begin
                Model.set_bounds m v ~lo:bound ~hi:bound;
                incr changed
              end)
      | _ -> ())
    (Model.constrs m);
  Array.iter
    (fun (v : Model.var) ->
      if v.Model.integer then begin
        let lo' = Float.ceil (v.Model.lo -. 1e-9)
        and hi' = Float.floor (v.Model.hi +. 1e-9) in
        if lo' > v.Model.lo +. 1e-12 || hi' < v.Model.hi -. 1e-12 then begin
          Model.set_bounds m v ~lo:lo' ~hi:hi';
          incr changed
        end
      end)
    vs;
  !changed

(** [diagnose m] combines {!Model.validate} with simple infeasibility
    screens (crossed bounds after integral rounding). *)
let diagnose m =
  let base = Model.validate m in
  let extra = ref [] in
  Array.iter
    (fun (v : Model.var) ->
      if v.Model.integer && Float.ceil (v.Model.lo -. 1e-9) > Float.floor (v.Model.hi +. 1e-9)
      then
        extra :=
          Fmt.str "integer variable %s has empty integral domain [%g, %g]"
            v.Model.name v.Model.lo v.Model.hi
          :: !extra)
    (Model.vars m);
  base @ List.rev !extra

(* ------------------------------------------------------------------ *)
(* Input-level presolve pipeline with postsolve.                       *)
(* ------------------------------------------------------------------ *)

exception Infeasible_input

(* Each pass maps an input to a smaller input plus an undo closure that
   lifts an [Optimal] result of the smaller problem back to one of the
   pass input (x, duals and reduced costs; [basis] is dropped at the
   end).  [None] means the pass found nothing to do.  Passes raise
   [Infeasible_input] on a proven contradiction. *)

let cmin_of (inp : Simplex.input) j =
  if inp.Simplex.minimize then inp.Simplex.obj.(j) else -.inp.Simplex.obj.(j)

(* Rows pass: drop empty rows (checking their feasibility), turn
   singleton rows into variable bounds, and drop rows that the current
   bounds already force to hold.  Dual reconstruction: a dropped
   singleton row whose implied bound is active at the optimum absorbs
   the variable's reduced cost (y = z_j / a, sign-checked against the
   row sense); every other dropped row gets a zero dual. *)
let rows_pass (inp : Simplex.input) =
  let m = Array.length inp.Simplex.rows in
  if m = 0 then None
  else begin
    let lo = Array.copy inp.Simplex.lo and hi = Array.copy inp.Simplex.hi in
    let drop = Array.make m false in
    (* dropped singleton rows: (row, var, coeff, implied bound, sense) *)
    let singles = ref [] in
    let changed = ref false in
    Array.iteri
      (fun i (terms, sense, rhs) ->
        let rtol = 1e-9 *. (1.0 +. Float.abs rhs) in
        if Array.length terms = 0 then begin
          let ok =
            match sense with
            | Model.Le -> 0.0 <= rhs +. rtol
            | Model.Ge -> 0.0 >= rhs -. rtol
            | Model.Eq -> Float.abs rhs <= rtol
          in
          if not ok then raise Infeasible_input;
          drop.(i) <- true;
          changed := true
        end
        else if Array.length terms = 1 then begin
          let j, a = terms.(0) in
          if Float.abs a > 1e-12 then begin
            let b = rhs /. a in
            let upper () = if b < hi.(j) then hi.(j) <- b
            and lower () = if b > lo.(j) then lo.(j) <- b in
            (match (sense, a > 0.0) with
            | Model.Le, true | Model.Ge, false -> upper ()
            | Model.Ge, true | Model.Le, false -> lower ()
            | Model.Eq, _ ->
                upper ();
                lower ());
            (match sense with
            | Model.Eq -> singles := (i, j, a, b, sense) :: !singles
            | _ -> singles := (i, j, a, b, sense) :: !singles);
            drop.(i) <- true;
            changed := true
          end
        end)
      inp.Simplex.rows;
    (* Crossed bounds from tightening: contradiction, or float fuzz to
       collapse. *)
    for j = 0 to inp.Simplex.nvars - 1 do
      if lo.(j) > hi.(j) then begin
        if lo.(j) -. hi.(j) > 1e-9 *. (1.0 +. Float.abs hi.(j)) then
          raise Infeasible_input;
        let mid = 0.5 *. (lo.(j) +. hi.(j)) in
        lo.(j) <- mid;
        hi.(j) <- mid
      end
    done;
    (* Redundancy screen with the tightened bounds: a row whose activity
       range cannot violate it drops with a zero dual; one that cannot
       satisfy it is a contradiction. *)
    Array.iteri
      (fun i (terms, sense, rhs) ->
        if (not drop.(i)) && Array.length terms > 1 then begin
          let amin = ref 0.0 and amax = ref 0.0 in
          Array.iter
            (fun (j, a) ->
              if a > 0.0 then begin
                amin := !amin +. (a *. lo.(j));
                amax := !amax +. (a *. hi.(j))
              end
              else if a < 0.0 then begin
                amin := !amin +. (a *. hi.(j));
                amax := !amax +. (a *. lo.(j))
              end)
            terms;
          let rtol = 1e-9 *. (1.0 +. Float.abs rhs) in
          (match sense with
          | Model.Le ->
              if !amin > rhs +. rtol then raise Infeasible_input;
              if !amax <= rhs -. rtol then begin
                drop.(i) <- true;
                changed := true
              end
          | Model.Ge ->
              if !amax < rhs -. rtol then raise Infeasible_input;
              if !amin >= rhs +. rtol then begin
                drop.(i) <- true;
                changed := true
              end
          | Model.Eq ->
              if !amin > rhs +. rtol || !amax < rhs -. rtol then
                raise Infeasible_input)
        end)
      inp.Simplex.rows;
    if not !changed then None
    else begin
      let keep = ref [] in
      for i = m - 1 downto 0 do
        if not drop.(i) then keep := i :: !keep
      done;
      let keep = Array.of_list !keep in
      let rows = Array.map (fun i -> inp.Simplex.rows.(i)) keep in
      let reduced = { inp with Simplex.lo = lo; hi; rows } in
      let singles = List.rev !singles in
      let undo (r : Simplex.result) =
        let duals = Array.make m 0.0 in
        Array.iteri (fun k i -> duals.(i) <- r.Simplex.duals.(k)) keep;
        let rc = Array.copy r.Simplex.reduced_costs in
        List.iter
          (fun (i, j, a, b, sense) ->
            let at_b =
              Float.abs (r.Simplex.x.(j) -. b) <= 1e-7 *. (1.0 +. Float.abs b)
            in
            if at_b && rc.(j) <> 0.0 then begin
              let y = rc.(j) /. a in
              let sign_ok =
                match sense with
                | Model.Eq -> true
                | Model.Le -> y <= 1e-9
                | Model.Ge -> y >= -1e-9
              in
              if sign_ok then begin
                duals.(i) <- y;
                rc.(j) <- 0.0
              end
            end)
          singles;
        { r with Simplex.duals; reduced_costs = rc }
      in
      Some (reduced, undo)
    end
  end

(* Fixed-variable elimination ([lo = hi]): substitute into every row and
   the objective.  Rows are kept (possibly emptied — the next rows pass
   feasibility-checks and drops them), so duals carry over unchanged;
   reduced costs of fixed columns are rebuilt as c_j - y A_j. *)
let fixed_pass (inp : Simplex.input) =
  let n = inp.Simplex.nvars in
  let fixed = Array.make n false in
  let nfix = ref 0 in
  for j = 0 to n - 1 do
    if inp.Simplex.lo.(j) > inp.Simplex.hi.(j) +. 1e-11 then
      raise Infeasible_input;
    if inp.Simplex.hi.(j) -. inp.Simplex.lo.(j) <= 1e-11 then begin
      fixed.(j) <- true;
      incr nfix
    end
  done;
  if !nfix = 0 then None
  else begin
    let active = n - !nfix in
    let remap = Array.make n (-1) in
    let back = Array.make (max 1 active) 0 in
    let k = ref 0 in
    for j = 0 to n - 1 do
      if not fixed.(j) then begin
        remap.(j) <- !k;
        back.(!k) <- j;
        incr k
      end
    done;
    let back = Array.sub back 0 active in
    let obj_const = ref inp.Simplex.obj_const in
    for j = 0 to n - 1 do
      if fixed.(j) then
        obj_const := !obj_const +. (inp.Simplex.obj.(j) *. inp.Simplex.lo.(j))
    done;
    let rows =
      Array.map
        (fun (terms, sense, rhs) ->
          let rhs = ref rhs in
          let kept =
            Array.to_list terms
            |> List.filter_map (fun (j, c) ->
                   if fixed.(j) then begin
                     rhs := !rhs -. (c *. inp.Simplex.lo.(j));
                     None
                   end
                   else Some (remap.(j), c))
          in
          (Array.of_list kept, sense, !rhs))
        inp.Simplex.rows
    in
    let reduced =
      {
        inp with
        Simplex.nvars = active;
        lo = Array.map (fun j -> inp.Simplex.lo.(j)) back;
        hi = Array.map (fun j -> inp.Simplex.hi.(j)) back;
        obj = Array.map (fun j -> inp.Simplex.obj.(j)) back;
        obj_const = !obj_const;
        rows;
      }
    in
    let undo (r : Simplex.result) =
      let x = Array.make n 0.0 in
      for j = 0 to n - 1 do
        if fixed.(j) then x.(j) <- inp.Simplex.lo.(j)
      done;
      Array.iteri (fun k j -> x.(j) <- r.Simplex.x.(k)) back;
      let rc = Array.make n 0.0 in
      for j = 0 to n - 1 do
        if fixed.(j) then rc.(j) <- cmin_of inp j
      done;
      Array.iteri
        (fun i (terms, _, _) ->
          let y = r.Simplex.duals.(i) in
          if y <> 0.0 then
            Array.iter
              (fun (j, c) -> if fixed.(j) then rc.(j) <- rc.(j) -. (y *. c))
              terms)
        inp.Simplex.rows;
      Array.iteri (fun k j -> rc.(j) <- r.Simplex.reduced_costs.(k)) back;
      { r with Simplex.x; reduced_costs = rc }
    in
    Some (reduced, undo)
  end

(* Implied-free column singletons: a variable appearing in exactly one
   row, an equality whose other terms can never push it outside its own
   bounds, is solved out of that row.  The row's dual is pinned by the
   eliminated column (y = c_j / a), which leaves every other reduced
   cost unchanged. *)
let colsingle_pass (inp : Simplex.input) =
  let n = inp.Simplex.nvars in
  let m = Array.length inp.Simplex.rows in
  if n = 0 || m = 0 then None
  else begin
    let count = Array.make n 0 in
    Array.iter
      (fun (terms, _, _) ->
        Array.iter (fun (j, _) -> count.(j) <- count.(j) + 1) terms)
      inp.Simplex.rows;
    (* (row, var, coeff) eliminations, at most one per row and variable *)
    let picks = ref [] in
    let used_var = Array.make n false in
    Array.iteri
      (fun i (terms, sense, rhs) ->
        if sense = Model.Eq && Array.length terms > 1 then begin
          let pick = ref (-1) and pick_a = ref 0.0 in
          Array.iter
            (fun (j, a) ->
              if
                !pick < 0 && count.(j) = 1 && (not used_var.(j))
                && Float.abs a > 1e-9
                && inp.Simplex.hi.(j) -. inp.Simplex.lo.(j) > 1e-11
              then begin
                (* activity range of the other terms *)
                let omin = ref 0.0 and omax = ref 0.0 in
                Array.iter
                  (fun (k, c) ->
                    if k <> j then
                      if c > 0.0 then begin
                        omin := !omin +. (c *. inp.Simplex.lo.(k));
                        omax := !omax +. (c *. inp.Simplex.hi.(k))
                      end
                      else if c < 0.0 then begin
                        omin := !omin +. (c *. inp.Simplex.hi.(k));
                        omax := !omax +. (c *. inp.Simplex.lo.(k))
                      end)
                  terms;
                let v1 = (rhs -. !omin) /. a and v2 = (rhs -. !omax) /. a in
                let vmin = Float.min v1 v2 and vmax = Float.max v1 v2 in
                let tol = 1e-9 *. (1.0 +. Float.abs rhs) in
                if
                  vmin >= inp.Simplex.lo.(j) -. tol
                  && vmax <= inp.Simplex.hi.(j) +. tol
                then begin
                  pick := j;
                  pick_a := a
                end
              end)
            terms;
          if !pick >= 0 then begin
            used_var.(!pick) <- true;
            picks := (i, !pick, !pick_a) :: !picks
          end
        end)
      inp.Simplex.rows;
    if !picks = [] then None
    else begin
      let picks = List.rev !picks in
      let drop_row = Array.make m false in
      let drop_var = Array.make n false in
      List.iter
        (fun (i, j, _) ->
          drop_row.(i) <- true;
          drop_var.(j) <- true)
        picks;
      let remap = Array.make n (-1) in
      let back = ref [] in
      let k = ref 0 in
      for j = 0 to n - 1 do
        if not drop_var.(j) then begin
          remap.(j) <- !k;
          back := j :: !back;
          incr k
        end
      done;
      let back = Array.of_list (List.rev !back) in
      let active = !k in
      (* objective substitution: x_j = (rhs - sum_k a_k x_k) / a *)
      let obj = Array.copy inp.Simplex.obj in
      let obj_const = ref inp.Simplex.obj_const in
      List.iter
        (fun (i, j, a) ->
          let terms, _, rhs = inp.Simplex.rows.(i) in
          let cj = obj.(j) in
          if cj <> 0.0 then begin
            obj_const := !obj_const +. (cj *. rhs /. a);
            Array.iter
              (fun (k2, c) ->
                if k2 <> j then obj.(k2) <- obj.(k2) -. (cj *. c /. a))
              terms;
            obj.(j) <- 0.0
          end)
        picks;
      let keep = ref [] in
      for i = m - 1 downto 0 do
        if not drop_row.(i) then keep := i :: !keep
      done;
      let keep = Array.of_list !keep in
      let rows =
        Array.map
          (fun i ->
            let terms, sense, rhs = inp.Simplex.rows.(i) in
            ( Array.map (fun (j, c) -> (remap.(j), c)) terms,
              sense, rhs ))
          keep
      in
      let reduced =
        {
          inp with
          Simplex.nvars = active;
          lo = Array.map (fun j -> inp.Simplex.lo.(j)) back;
          hi = Array.map (fun j -> inp.Simplex.hi.(j)) back;
          obj = Array.map (fun j -> obj.(j)) back;
          obj_const = !obj_const;
          rows;
        }
      in
      let undo (r : Simplex.result) =
        let x = Array.make n 0.0 in
        Array.iteri (fun k j -> x.(j) <- r.Simplex.x.(k)) back;
        let duals = Array.make m 0.0 in
        Array.iteri (fun k i -> duals.(i) <- r.Simplex.duals.(k)) keep;
        let rc = Array.make n 0.0 in
        Array.iteri (fun k j -> rc.(j) <- r.Simplex.reduced_costs.(k)) back;
        List.iter
          (fun (i, j, a) ->
            let terms, _, rhs = inp.Simplex.rows.(i) in
            let acc = ref rhs in
            Array.iter
              (fun (k2, c) -> if k2 <> j then acc := !acc -. (c *. x.(k2)))
              terms;
            let v = !acc /. a in
            x.(j) <-
              Float.max inp.Simplex.lo.(j) (Float.min inp.Simplex.hi.(j) v);
            duals.(i) <- cmin_of inp j /. a;
            rc.(j) <- 0.0)
          picks;
        { r with Simplex.x; duals; reduced_costs = rc }
      in
      Some (reduced, undo)
    end
  end

(* Power-of-two equilibration: rows then columns are scaled so the
   largest magnitude lands in [1, 2).  Powers of two keep every product
   exact, so postsolve recovers bit-identical feasibility behaviour. *)
let scale_pass (inp : Simplex.input) =
  let n = inp.Simplex.nvars in
  let m = Array.length inp.Simplex.rows in
  if m = 0 then None
  else begin
    (* Equilibration only pays on badly-scaled matrices; a model whose
       coefficients already sit within a few powers of two of 1.0 gains
       nothing numerically, and rebuilding the matrix is the single most
       expensive step of the pipeline.  One cheap scan decides. *)
    let gmin = ref infinity and gmax = ref 0.0 in
    Array.iter
      (fun (terms, _, _) ->
        Array.iter
          (fun (_, a) ->
            let v = Float.abs a in
            if v > 0.0 then begin
              if v < !gmin then gmin := v;
              if v > !gmax then gmax := v
            end)
          terms)
      inp.Simplex.rows;
    if !gmax <= 16.0 && !gmin >= 0.0625 then None
    else begin
    let pow2 x =
      if x <= 0.0 || not (Float.is_finite x) then 1.0
      else begin
        let _, e = Float.frexp x in
        Float.ldexp 1.0 (1 - e)
      end
    in
    let rscale = Array.make m 1.0 in
    Array.iteri
      (fun i (terms, _, _) ->
        let mx = ref 0.0 in
        Array.iter (fun (_, a) -> if Float.abs a > !mx then mx := Float.abs a) terms;
        rscale.(i) <- pow2 !mx)
      inp.Simplex.rows;
    let cmax = Array.make n 0.0 in
    Array.iteri
      (fun i (terms, _, _) ->
        Array.iter
          (fun (j, a) ->
            let v = Float.abs (a *. rscale.(i)) in
            if v > cmax.(j) then cmax.(j) <- v)
          terms)
      inp.Simplex.rows;
    let cscale = Array.map pow2 cmax in
    let nontrivial =
      Array.exists (fun s -> s <> 1.0) rscale
      || Array.exists (fun s -> s <> 1.0) cscale
    in
    if not nontrivial then None
    else begin
      let rows =
        Array.mapi
          (fun i (terms, sense, rhs) ->
            let r = rscale.(i) in
            ( Array.map (fun (j, a) -> (j, a *. r *. cscale.(j))) terms,
              sense, rhs *. r ))
          inp.Simplex.rows
      in
      let reduced =
        {
          inp with
          Simplex.lo = Array.mapi (fun j v -> v /. cscale.(j)) inp.Simplex.lo;
          hi = Array.mapi (fun j v -> v /. cscale.(j)) inp.Simplex.hi;
          obj = Array.mapi (fun j v -> v *. cscale.(j)) inp.Simplex.obj;
          rows;
        }
      in
      let undo (r : Simplex.result) =
        let x = Array.mapi (fun j v -> v *. cscale.(j)) r.Simplex.x in
        let duals = Array.mapi (fun i v -> v *. rscale.(i)) r.Simplex.duals in
        let rc =
          Array.mapi (fun j v -> v /. cscale.(j)) r.Simplex.reduced_costs
        in
        { r with Simplex.x; duals; reduced_costs = rc }
      in
      Some (reduced, undo)
    end
    end
  end

(* A reduction: the shrunken input plus the undo stack (innermost
   first), ready for {!postsolve}. *)
type reduction = {
  reduced : Simplex.input;
  undos : (Simplex.result -> Simplex.result) list;
}

let reduced_input red = red.reduced

(** [reduce input] runs the passes to a fixpoint (each changing round
    removes at least one row or variable, so the loop terminates) and
    finishes with equilibration scaling.  [`Infeasible] reports a
    contradiction found during reduction. *)
let reduce ?(scale = true) (input : Simplex.input) =
  try
    let undos = ref [] in
    let cur = ref input in
    let changed = ref true in
    let apply pass =
      match pass !cur with
      | Some (inp', u) ->
          cur := inp';
          undos := u :: !undos;
          changed := true
      | None -> ()
    in
    let rounds = ref 0 in
    while !changed && !rounds < 50 do
      incr rounds;
      changed := false;
      apply rows_pass;
      apply fixed_pass;
      apply colsingle_pass
    done;
    if scale then begin
      changed := false;
      apply scale_pass
    end;
    `Reduced { reduced = !cur; undos = !undos }
  with Infeasible_input -> `Infeasible

(** [postsolve red r] lifts a result of [reduced_input red] back to the
    original input.  Non-optimal statuses pass through untouched (the
    reductions preserve feasibility and boundedness both ways); the
    basis never survives postsolve since the row structure changed. *)
let postsolve red (r : Simplex.result) =
  if r.Simplex.status <> Status.Optimal then { r with Simplex.basis = None }
  else
    let r = List.fold_left (fun acc u -> u acc) r red.undos in
    { r with Simplex.basis = None }

(** [solve input] = reduce, solve the rest with {!Simplex.solve}, then
    postsolve.  The result carries no basis (row structure differs). *)
let solve ?max_iters ?(scale = true) (input : Simplex.input) =
  match reduce ~scale input with
  | `Infeasible ->
      {
        Simplex.status = Status.Infeasible;
        x = [||];
        obj_value = nan;
        duals = [||];
        reduced_costs = [||];
        iterations = 0;
        basis = None;
        warm_started = false;
      }
  | `Reduced red ->
      let r = Simplex.solve ?max_iters red.reduced in
      postsolve red r
