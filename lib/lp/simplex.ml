type input = {
  nvars : int;
  lo : float array;
  hi : float array;
  obj : float array;
  obj_const : float;
  minimize : bool;
  rows : Model.row array;
}

(* Column status.  A nonbasic variable rests at one of its bounds (or at 0
   when free); a basic variable's value lives in [xb] of its row. *)
type cstat = Basic | At_lower | At_upper | Free_nb

(* A restart point: which column is basic in each row, and where every
   column (structural, slack and artificial alike) rests.  The layout is
   determined by the row structure of the input, so a basis saved from one
   solve can seed any later solve whose rows are identical — only the
   bounds may differ, which is exactly the branch-and-bound situation. *)
type basis = { vbasis : int array; vstat : cstat array }

type result = {
  status : Status.t;
  x : float array;
  obj_value : float;
  duals : float array;
  reduced_costs : float array;
  iterations : int;
  basis : basis option;
  warm_started : bool;
}

let of_model m =
  let nvars = Model.num_vars m in
  let obj = Array.make nvars 0.0 in
  let ids, coefs, obj_const = Model.objective_terms m in
  for k = 0 to Array.length ids - 1 do
    obj.(ids.(k)) <- obj.(ids.(k)) +. coefs.(k)
  done;
  { nvars; lo = Model.lower_bounds m; hi = Model.upper_bounds m; obj;
    obj_const; minimize = Model.minimize m; rows = Model.constrs m }

let tol_piv = 1e-9
let tol_cost = 1e-7
let tol_feas = 1e-7

(* [sum_k coefs.(k) * x.(ids.(k))], summed in [k] order from +0.0. *)
let row_dot (ids : int array) (coefs : float array) (x : float array) =
  let v = ref 0.0 in
  for k = 0 to Array.length ids - 1 do
    v := !v +. (coefs.(k) *. x.(ids.(k)))
  done;
  !v

let feasible ?(tol = 1e-6) input x =
  let ok = ref true in
  for j = 0 to input.nvars - 1 do
    if x.(j) < input.lo.(j) -. tol || x.(j) > input.hi.(j) +. tol then ok := false
  done;
  Array.iter
    (fun { Model.ids; coefs; sense; rhs } ->
      let v = row_dot ids coefs x in
      let scale = 1.0 +. Float.abs rhs in
      (match sense with
      | Model.Le -> if v > rhs +. (tol *. scale) then ok := false
      | Model.Ge -> if v < rhs -. (tol *. scale) then ok := false
      | Model.Eq -> if Float.abs (v -. rhs) > tol *. scale then ok := false))
    input.rows;
  !ok

(* Dantzig pricing; after a degeneracy streak fall back to Bland's rule,
   which guarantees termination. *)
let price_gen ~bland ~ntot ~(slo : float array) ~(shi : float array)
    ~(stat : cstat array) ~(z : float array) =
  let best = ref (-1) and best_score = ref tol_cost and best_dir = ref 1.0 in
  (try
     for j = 0 to ntot - 1 do
       if slo.(j) < shi.(j) then begin
         let zj = z.(j) in
         let dir =
           match stat.(j) with
           | Basic -> 0.0
           | At_lower -> if zj < -.tol_cost then 1.0 else 0.0
           | At_upper -> if zj > tol_cost then -1.0 else 0.0
           | Free_nb ->
               if zj < -.tol_cost then 1.0
               else if zj > tol_cost then -1.0
               else 0.0
         in
         if dir <> 0.0 then
           if bland then begin
             best := j;
             best_dir := dir;
             raise Exit
           end
           else begin
             let score = Float.abs zj in
             if score > !best_score then begin
               best := j;
               best_score := score;
               best_dir := dir
             end
           end
       end
     done
   with Exit -> ());
  if !best < 0 then None else Some (!best, !best_dir)

let empty_result status =
  { status; x = [||]; obj_value = nan; duals = [||]; reduced_costs = [||];
    iterations = 0; basis = None; warm_started = false }

let default_iters max_iters m n =
  match max_iters with Some k -> k | None -> max 2000 (60 * (m + n))

(* Objective coefficient of column [j] in the internal minimization
   convention. *)
let[@inline] cmin input j =
  if input.minimize then input.obj.(j) else -.input.obj.(j)

(* Phase-2 costs in the internal minimization convention. *)
let phase2_cost input ntot =
  let cost = Array.make ntot 0.0 in
  for j = 0 to input.nvars - 1 do
    cost.(j) <- cmin input j
  done;
  cost

(* Revised simplex.  The matrix is stored once in compressed column form
   and the basis inverse is a {!Factor.t}.  No row is ever sign-flipped:
   artificial columns are always +e_i, and rows whose residual starts
   negative get an artificial bounded in (-inf, 0] with phase-1 cost -1
   instead — so BTRAN of the basic costs yields the duals in the
   original row orientation directly. *)

type layout = { slack : int array; art0 : int }

let layout input =
  let slack = Array.make (Array.length input.rows) (-1) in
  let next = ref input.nvars in
  Array.iteri
    (fun i (r : Model.row) ->
      match r.sense with
      | Model.Eq -> ()
      | Model.Le | Model.Ge ->
          slack.(i) <- !next;
          incr next)
    input.rows;
  { slack; art0 = !next }

(* Compressed-row copy of the same matrix, for the dual simplex's row
   pricing.  Entries within a row are stored in increasing column
   order. *)
type rmat = { rstart : int array; rcol : int array; rval : float array }

(* Compressed-column copy of [A | slacks | artificials] over {!layout}.
   Entries within a column are stored in increasing row order.  The row
   copy is built the first time a dual simplex prices over the matrix;
   systhreads sharing it may both build it, and both build the same. *)
type smat = {
  sm_m : int;
  sm_n : int;
  sm_art0 : int;
  sm_ntot : int;
  cstart : int array;        (* ntot + 1 *)
  crow : int array;
  cval : float array;
  sm_slack : int array;      (* slack column of each row, or -1 *)
  mutable sm_rows : rmat option;
}

let build_smat input =
  let m = Array.length input.rows in
  let n = input.nvars in
  let { slack; art0 } = layout input in
  let ntot = art0 + m in
  let cstart = Array.make (ntot + 1) 0 in
  Array.iter
    (fun (r : Model.row) ->
      Array.iter (fun j -> cstart.(j + 1) <- cstart.(j + 1) + 1) r.ids)
    input.rows;
  for j = n to ntot - 1 do
    cstart.(j + 1) <- 1
  done;
  for j = 0 to ntot - 1 do
    cstart.(j + 1) <- cstart.(j + 1) + cstart.(j)
  done;
  let nnz = cstart.(ntot) in
  let crow = Array.make (max 1 nnz) 0 and cval = Array.make (max 1 nnz) 0.0 in
  let fill = Array.make (max 1 ntot) 0 in
  let put j i v =
    let k = cstart.(j) + fill.(j) in
    fill.(j) <- fill.(j) + 1;
    crow.(k) <- i;
    cval.(k) <- v
  in
  Array.iteri
    (fun i { Model.ids; coefs; sense; _ } ->
      for k = 0 to Array.length ids - 1 do
        put ids.(k) i coefs.(k)
      done;
      (match sense with
      | Model.Le -> put slack.(i) i 1.0
      | Model.Ge -> put slack.(i) i (-1.0)
      | Model.Eq -> ());
      put (art0 + i) i 1.0)
    input.rows;
  { sm_m = m; sm_n = n; sm_art0 = art0; sm_ntot = ntot; cstart; crow; cval;
    sm_slack = slack; sm_rows = None }

let row_matrix mat =
  match mat.sm_rows with
  | Some r -> r
  | None ->
      let m = mat.sm_m and nnz = mat.cstart.(mat.sm_ntot) in
      let rstart = Array.make (m + 1) 0 in
      for k = 0 to nnz - 1 do
        rstart.(mat.crow.(k) + 1) <- rstart.(mat.crow.(k) + 1) + 1
      done;
      for i = 0 to m - 1 do
        rstart.(i + 1) <- rstart.(i + 1) + rstart.(i)
      done;
      let rcol = Array.make (max 1 nnz) 0 and rval = Array.make (max 1 nnz) 0.0 in
      let fill = Array.sub rstart 0 m in
      for j = 0 to mat.sm_ntot - 1 do
        for k = mat.cstart.(j) to mat.cstart.(j + 1) - 1 do
          let i = mat.crow.(k) in
          rcol.(fill.(i)) <- j;
          rval.(fill.(i)) <- mat.cval.(k);
          fill.(i) <- fill.(i) + 1
        done
      done;
      let r = { rstart; rcol; rval } in
      mat.sm_rows <- Some r;
      r

type state = {
  ss_m : int;
  ss_ntot : int;
  ss_art0 : int;
  mat : smat;
  qlo : float array;         (* bounds over all columns *)
  qhi : float array;
  srhs : float array;        (* original right-hand sides *)
  sbasis : int array;
  sstat : cstat array;
  svnb : float array;        (* resting value of nonbasic columns *)
  sxb : float array;         (* value of the basic variable of each row *)
  mutable fact : Factor.t;
  sz : float array;          (* reduced costs, refreshed per iteration *)
  sy : float array;          (* BTRAN scratch; duals at an optimum *)
  sd : float array;          (* FTRAN scratch: transformed column *)
  mutable siters : int;
  mutable sdegen : int;
}

(* The one constructor of a state, cold or warm, over the matrix [mat]
   of [input]. *)
let new_state input mat ~qlo ~qhi ~basis ~stat ~vnb ~xb fact =
  let m = mat.sm_m and ntot = mat.sm_ntot in
  { ss_m = m; ss_ntot = ntot; ss_art0 = mat.sm_art0; mat; qlo; qhi;
    srhs = Array.map (fun (r : Model.row) -> r.rhs) input.rows; sbasis = basis;
    sstat = stat; svnb = vnb; sxb = xb; fact; sz = Array.make ntot 0.0;
    sy = Array.make (max 1 m) 0.0; sd = Array.make (max 1 m) 0.0;
    siters = 0; sdegen = 0 }

(* [y · A_j] over the compressed column [j].  Inlined, like [cmin], so
   the float it returns is not boxed: the crash scan and the dual ratio
   test call it once per candidate column. *)
let[@inline] col_dot mat j (y : float array) =
  let acc = ref 0.0 in
  for k = mat.cstart.(j) to mat.cstart.(j + 1) - 1 do
    acc :=
      !acc
      +. (Array.unsafe_get mat.cval k
          *. Array.unsafe_get y (Array.unsafe_get mat.crow k))
  done;
  !acc

(* sd := B^-1 A_j *)
let ftran_col st j =
  let d = st.sd in
  Array.fill d 0 st.ss_m 0.0;
  let mat = st.mat in
  for k = mat.cstart.(j) to mat.cstart.(j + 1) - 1 do
    d.(mat.crow.(k)) <- d.(mat.crow.(k)) +. mat.cval.(k)
  done;
  Factor.ftran st.fact d

(* xb := B^-1 (b - N vnb), exact w.r.t. the current factorization; run
   after every refactorization to kill accumulated drift. *)
let recompute_xb st =
  let w = st.sd in
  Array.blit st.srhs 0 w 0 st.ss_m;
  let mat = st.mat in
  for j = 0 to st.ss_ntot - 1 do
    if st.sstat.(j) <> Basic then begin
      let v = st.svnb.(j) in
      if v <> 0.0 then
        for k = mat.cstart.(j) to mat.cstart.(j + 1) - 1 do
          w.(mat.crow.(k)) <- w.(mat.crow.(k)) -. (mat.cval.(k) *. v)
        done
    end
  done;
  Factor.ftran st.fact w;
  Array.blit w 0 st.sxb 0 st.ss_m

let factor mat cols =
  Factor.build ~cstart:mat.cstart ~crow:mat.crow ~cval:mat.cval cols

(* Refactorize the current basis, which {!Factor.build} may permute over
   the rows.  False when the basis is singular. *)
let refactorize st =
  match factor st.mat (Array.sub st.sbasis 0 st.ss_m) with
  | None -> false
  | Some (snap, b) ->
      st.fact <- Factor.start snap;
      Array.blit b 0 st.sbasis 0 st.ss_m;
      recompute_xb st;
      true

(* The column transformed into [d] has entered the basis in row [p]. *)
let pivot_update st ~p d =
  Factor.update st.fact ~p d;
  if Factor.due st.fact then refactorize st else true

(* Duals y = c_B^T B^-1 into [sy]. *)
let reset_duals st (c : float array) =
  let y = st.sy in
  for i = 0 to st.ss_m - 1 do
    y.(i) <- c.(st.sbasis.(i))
  done;
  Factor.btran st.fact y

(* Duals and reduced costs z_j = c_j - y A_j, recomputed from the
   factorization at every pricing round, so the engine never accumulates
   incremental reduced-cost drift. *)
let reset_reduced_costs st (c : float array) =
  reset_duals st c;
  let y = st.sy in
  (* Flat CSC sweep: this runs every pricing round over all unpinned
     columns, so the per-column [col_dot] call is inlined by hand. *)
  let mat = st.mat in
  let cstart = mat.cstart and crow = mat.crow and cval = mat.cval in
  let stat = st.sstat and qlo = st.qlo and qhi = st.qhi and z = st.sz in
  for j = 0 to st.ss_ntot - 1 do
    if stat.(j) = Basic then z.(j) <- 0.0
    else if qlo.(j) < qhi.(j) then begin
      let acc = ref 0.0 in
      for k = cstart.(j) to cstart.(j + 1) - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get cval k
              *. Array.unsafe_get y (Array.unsafe_get crow k))
      done;
      z.(j) <- c.(j) -. !acc
    end
  done

(* Ratio test over the FTRAN'd entering column in [d]: how far can column
   [q] move in direction [dsign] before a basic variable hits a bound or
   [q] reaches its opposite bound?  Returns (step, blocking row or -1,
   whether the blocker stops at its upper bound). *)
let ratio_test st q dsign (d : float array) =
  let t_best = ref (st.qhi.(q) -. st.qlo.(q)) in
  if Float.is_nan !t_best then t_best := infinity;
  let row = ref (-1) and to_upper = ref false and piv_best = ref 0.0 in
  for i = 0 to st.ss_m - 1 do
    let w = Array.unsafe_get d i in
    let rate = -.dsign *. w in
    if Float.abs w > tol_piv then begin
      let bi = st.sbasis.(i) in
      (* how far until row [i]'s basic variable meets the bound it moves
         towards; nan (never taken) when that bound is infinite *)
      let ti =
        if rate < -.tol_piv && st.qlo.(bi) > neg_infinity then
          (st.sxb.(i) -. st.qlo.(bi)) /. -.rate
        else if rate > tol_piv && st.qhi.(bi) < infinity then
          (st.qhi.(bi) -. st.sxb.(i)) /. rate
        else nan
      in
      let ti = if ti < 0.0 then 0.0 else ti in
      if
        ti < !t_best -. 1e-10
        || (ti < !t_best +. 1e-10 && Float.abs w > !piv_best)
      then begin
        t_best := ti;
        row := i;
        to_upper := rate > 0.0;
        piv_best := Float.abs w
      end
    end
  done;
  (!t_best, !row, !to_upper)

(* One primal step for entering column [q] moving in direction [dsign];
   the FTRAN'd column must already be in [st.sd]. *)
let step st q dsign =
  let d = st.sd in
  let tstep, lrow, to_upper = ratio_test st q dsign d in
  if tstep = infinity then `Unbounded
  else begin
    st.siters <- st.siters + 1;
    if tstep < 1e-9 then st.sdegen <- st.sdegen + 1 else st.sdegen <- 0;
    for i = 0 to st.ss_m - 1 do
      let w = Array.unsafe_get d i in
      if w <> 0.0 then st.sxb.(i) <- st.sxb.(i) -. (dsign *. w *. tstep)
    done;
    if lrow < 0 then begin
      (* Bound flip: q travels to its opposite bound, basis unchanged. *)
      st.svnb.(q) <- st.svnb.(q) +. (dsign *. tstep);
      st.sstat.(q) <- (if dsign > 0.0 then At_upper else At_lower);
      `Ok
    end
    else begin
      let xq = st.svnb.(q) +. (dsign *. tstep) in
      let leaving = st.sbasis.(lrow) in
      st.svnb.(leaving) <-
        (if to_upper then st.qhi.(leaving) else st.qlo.(leaving));
      st.sstat.(leaving) <- (if to_upper then At_upper else At_lower);
      st.sbasis.(lrow) <- q;
      st.sstat.(q) <- Basic;
      st.sxb.(lrow) <- xq;
      if pivot_update st ~p:lrow d then `Ok else `Fail
    end
  end

(* The deadline is an absolute {!Clock} time; an infinite one is never
   read, so a solve without a deadline reads no clock. *)
let past deadline = deadline < infinity && Clock.now () > deadline

let run_phase st ~deadline max_iters (c : float array) =
  let rec loop () =
    if st.siters >= max_iters then `Iters
    else if past deadline then `Time
    else begin
      reset_reduced_costs st c;
      match
        price_gen ~bland:(st.sdegen > 60) ~ntot:st.ss_ntot ~slo:st.qlo
          ~shi:st.qhi ~stat:st.sstat ~z:st.sz
      with
      | None -> `Done
      | Some (q, dsign) -> (
          ftran_col st q;
          match step st q dsign with
          | `Ok -> loop ()
          | `Unbounded -> `Unbounded
          | `Fail -> `Iters)
    end
  in
  loop ()

(* Extract the user-facing result from a finished state.  At an optimum
   [sy] still holds BTRAN of the phase-2 basic costs from the final
   pricing round; since the engine never flips rows those
   are the duals in the original orientation. *)
let finish ~emit_basis ~warm_started input st status =
  let n = input.nvars in
  let x = Array.make n 0.0 in
  for j = 0 to n - 1 do
    if st.sstat.(j) <> Basic then x.(j) <- st.svnb.(j)
  done;
  for i = 0 to st.ss_m - 1 do
    if st.sbasis.(i) < n then x.(st.sbasis.(i)) <- st.sxb.(i)
  done;
  let obj_value =
    let a = ref input.obj_const in
    for j = 0 to n - 1 do
      a := !a +. (input.obj.(j) *. x.(j))
    done;
    !a
  in
  let optimal = status = Status.Optimal in
  let duals =
    if optimal then Array.sub st.sy 0 st.ss_m else Array.make st.ss_m 0.0
  in
  let reduced = Array.make n 0.0 in
  if optimal then begin
    for j = 0 to n - 1 do
      reduced.(j) <-
        (if st.sstat.(j) = Basic then 0.0
         else cmin input j -. col_dot st.mat j st.sy)
    done
  end;
  let basis =
    if emit_basis && optimal then
      Some { vbasis = Array.copy st.sbasis; vstat = Array.copy st.sstat }
    else None
  in
  { status; x; obj_value; duals; reduced_costs = reduced;
    iterations = st.siters; basis; warm_started }

(* One-entry memo per domain (see simplex.mli): the matrix of the last
   [(rows, nvars)] seen, keyed on the physical identity of [rows], and
   the {!Factor.snapshot} of the last warm [vbasis] factored over it,
   keyed on structural equality.  Branch and bound re-solves one row
   array, and its children and probes start from their parent's basis,
   so most warm solves find both.  Entries are immutable and replaced
   whole: systhreads sharing a domain may swap the entry between any two
   reads, and each still sees a consistent one.  States share the
   snapshot and copy the permuted basis. *)
type fact = { fkey : int array; fsnap : Factor.snapshot; fbasis : int array }

type memo = {
  mrows : Model.row array;
  mnvars : int;
  mmat : smat;
  mfact : fact option;
}

let memo : memo option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let memo_for input =
  match Domain.DLS.get memo with
  | Some e when e.mrows == input.rows && e.mnvars = input.nvars -> e
  | _ ->
      let e =
        { mrows = input.rows; mnvars = input.nvars; mmat = build_smat input;
          mfact = None }
      in
      Domain.DLS.set memo (Some e);
      e

(* The fresh factorization of [w.vbasis] over the matrix of the memo
   entry [e], and its permuted basis (shared: copy it before a pivot
   writes to it); [None] when the basis is singular. *)
let factor_memo e (w : basis) =
  match e.mfact with
  | Some f when f.fkey = w.vbasis -> Some (f.fsnap, f.fbasis)
  | _ -> (
      match factor e.mmat w.vbasis with
      | None -> None
      | Some (fsnap, fbasis) as r ->
          let f = { fkey = Array.copy w.vbasis; fsnap; fbasis } in
          Domain.DLS.set memo (Some { e with mfact = Some f });
          r)

(* Bounds over all columns (artificials in [0, art_hi]) and resting
   points of the nonbasic columns of [stat], which is updated: an
   artificial rests at 0, another column at its lower bound when [stat]
   puts it there (as a cold solve puts all), its upper is infinite or
   its box is a point, else at its upper when finite, else free at 0. *)
let bounds input mat ~art_hi stat =
  let n = mat.sm_n and art0 = mat.sm_art0 and ntot = mat.sm_ntot in
  let qlo = Array.make ntot 0.0 and qhi = Array.make ntot art_hi in
  Array.blit input.lo 0 qlo 0 n;
  Array.blit input.hi 0 qhi 0 n;
  Array.fill qhi n (art0 - n) infinity;
  let vnb = Array.make ntot 0.0 in
  for j = art0 to ntot - 1 do
    if stat.(j) <> Basic then stat.(j) <- At_lower
  done;
  for j = 0 to art0 - 1 do
    if stat.(j) <> Basic then
      if
        qlo.(j) > neg_infinity
        && (stat.(j) = At_lower
           || not (qhi.(j) < infinity)
           || qlo.(j) >= qhi.(j))
      then begin
        stat.(j) <- At_lower;
        vnb.(j) <- qlo.(j)
      end
      else if qhi.(j) < infinity then begin
        stat.(j) <- At_upper;
        vnb.(j) <- qhi.(j)
      end
      else stat.(j) <- Free_nb
  done;
  (qlo, qhi, vnb)

(* The three cheapest admissible replacements for the artificial of row
   [i], whose row of B^-1 is in [rho], into [cs], ranked by increasing
   score [ss] (a tie ranks after), to be tried in order against the
   exact safety check; [-1] marks an empty place, and all three are
   empty when no column reaches the row.  Candidates come from the row's
   own nonzeros: with the basis still near-triangular at crash time,
   columns absent from row [i] price to (almost) zero against rho anyway,
   so scanning the whole column set would only rediscover these.  The
   scan allocates nothing. *)
let crash_candidates input st rho i cs ss =
  let ids = input.rows.(i).Model.ids in
  let stat = st.sstat and qlo = st.qlo and qhi = st.qhi in
  Array.fill cs 0 3 (-1);
  Array.fill ss 0 3 infinity;
  let maxabs = ref 0.0 in
  for t = 0 to Array.length ids - 1 do
    let j = ids.(t) in
    if stat.(j) <> Basic && qlo.(j) < qhi.(j) then begin
      let a = Float.abs (col_dot st.mat j rho) in
      if a > !maxabs then maxabs := a
    end
  done;
  if !maxabs > 1e-7 then
    for t = 0 to Array.length ids - 1 do
      let j = ids.(t) in
      if stat.(j) <> Basic && qlo.(j) < qhi.(j) then begin
        let w = col_dot st.mat j rho in
        if Float.abs w >= 0.25 *. !maxabs then begin
          let delta = st.sxb.(i) /. w in
          let v = st.svnb.(j) +. delta in
          let score = cmin input j *. delta in
          if v >= qlo.(j) -. 1e-9 && v <= qhi.(j) +. 1e-9 && score < ss.(2)
          then begin
            let k =
              if score < ss.(0) then 0 else if score < ss.(1) then 1 else 2
            in
            for r = 2 downto k + 1 do
              cs.(r) <- cs.(r - 1);
              ss.(r) <- ss.(r - 1)
            done;
            cs.(k) <- j;
            ss.(k) <- score
          end
        end
      end
    done

(* Column [q] replaces the artificial of row [i] when it can zero the
   row's residual within its own bounds, knocking no settled row out of
   its bounds and growing no pending artificial's residual (checked
   against its FTRAN'd column). *)
let crash_place st i q =
  ftran_col st q;
  let d = st.sd and xb = st.sxb and qlo = st.qlo and qhi = st.qhi in
  let w = d.(i) in
  Float.abs w > 1e-7
  &&
  let delta = xb.(i) /. w in
  let v = st.svnb.(q) +. delta in
  let safe = ref (v >= qlo.(q) -. 1e-9 && v <= qhi.(q) +. 1e-9) in
  for r = 0 to st.ss_m - 1 do
    if !safe && r <> i && d.(r) <> 0.0 then begin
      let nv = xb.(r) -. (d.(r) *. delta) and b = st.sbasis.(r) in
      if b = st.ss_art0 + r then begin
        if Float.abs nv > Float.abs xb.(r) +. 1e-9 then safe := false
      end
      else if nv < qlo.(b) -. 1e-9 || nv > qhi.(b) +. 1e-9 then safe := false
    end
  done;
  !safe
  && begin
       let a = st.ss_art0 + i in
       for r = 0 to st.ss_m - 1 do
         if r <> i then xb.(r) <- xb.(r) -. (d.(r) *. delta)
       done;
       st.sstat.(a) <- At_lower;
       st.svnb.(a) <- 0.0;
       qlo.(a) <- 0.0;
       qhi.(a) <- 0.0;
       st.sbasis.(i) <- q;
       st.sstat.(q) <- Basic;
       xb.(i) <- Float.max qlo.(q) (Float.min qhi.(q) v);
       Factor.update st.fact ~p:i d;
       true
     end

(* The cold starting state.  Slack crash: an inequality row whose slack
   value is feasible at the resting point starts with that slack basic
   (a Ge slack column is -e_i, a -1 on the diagonal of the starting
   basis); every other row starts with its artificial basic, carrying the
   raw residual (negative residuals keep their sign; bounds follow).
   Greedy structural crash: BTRAN exposes each artificial row exactly; a
   bounded structural column that can zero the residual without knocking
   any settled row out of bounds (checked against its FTRAN'd column)
   replaces the artificial.  Candidates are filtered on pivot quality and
   ranked by objective movement, so phase 2 starts near the optimum; on
   assignment-shaped models this usually empties phase 1 entirely. *)
let crash input =
  let mat = (memo_for input).mmat in
  let m = mat.sm_m and art0 = mat.sm_art0 in
  let stat = Array.make mat.sm_ntot At_lower in
  let qlo, qhi, vnb = bounds input mat ~art_hi:infinity stat in
  (* Residual of each row at the nonbasic resting point. *)
  let resid = Array.make (max 1 m) 0.0 in
  for i = 0 to m - 1 do
    let { Model.ids; coefs; rhs; _ } = input.rows.(i) in
    let acc = ref rhs in
    for k = 0 to Array.length ids - 1 do
      let v = vnb.(ids.(k)) in
      if v <> 0.0 then acc := !acc -. (coefs.(k) *. v)
    done;
    resid.(i) <- !acc
  done;
  let basis = Array.make (max 1 m) (-1) and xb = Array.make (max 1 m) 0.0 in
  let dg = Array.make m 1.0 in
  Array.iteri
    (fun i s ->
      let sg = if input.rows.(i).Model.sense = Model.Le then 1.0 else -1.0 in
      if s >= 0 && sg *. resid.(i) >= 0.0 then begin
        basis.(i) <- s;
        stat.(s) <- Basic;
        xb.(i) <- sg *. resid.(i);
        dg.(i) <- sg
      end)
    mat.sm_slack;
  let any_art = ref false in
  for i = 0 to m - 1 do
    if basis.(i) < 0 then begin
      basis.(i) <- art0 + i;
      stat.(art0 + i) <- Basic;
      xb.(i) <- resid.(i);
      any_art := true
    end
    else begin
      qlo.(art0 + i) <- 0.0;
      qhi.(art0 + i) <- 0.0
    end
  done;
  let st =
    new_state input mat ~qlo ~qhi ~basis ~stat ~vnb ~xb
      (Factor.start (Factor.diagonal dg))
  in
  if !any_art && mat.sm_n > 0 then begin
    let cs = Array.make 3 (-1) and ss = Array.make 3 infinity in
    for i = 0 to m - 1 do
      if basis.(i) = art0 + i then begin
        let rho = st.sy in
        Array.fill rho 0 m 0.0;
        rho.(i) <- 1.0;
        Factor.btran st.fact rho;
        crash_candidates input st rho i cs ss;
        let placed = ref false and k = ref 0 in
        while (not !placed) && !k < 3 do
          let q = cs.(!k) in
          if q >= 0 then placed := crash_place st i q;
          incr k
        done
      end
    done
  end;
  st

(* Phase-1 costs: artificials still basic take sign-dependent bounds so
   minimizing (sign-matched) unit costs drives |residual| to zero.  Also
   says whether any residual is large enough to need phase 1. *)
let phase1_setup st =
  let art0 = st.ss_art0 in
  let cost = Array.make st.ss_ntot 0.0 in
  let need = ref false in
  for i = 0 to st.ss_m - 1 do
    if st.sbasis.(i) = art0 + i then begin
      if st.sxb.(i) >= 0.0 then begin
        st.qlo.(art0 + i) <- 0.0;
        st.qhi.(art0 + i) <- infinity;
        cost.(art0 + i) <- 1.0
      end
      else begin
        st.qlo.(art0 + i) <- neg_infinity;
        st.qhi.(art0 + i) <- 0.0;
        cost.(art0 + i) <- -1.0
      end;
      if Float.abs st.sxb.(i) > tol_feas then need := true
    end
  done;
  (cost, !need)

(* The status a phase ends a solve with. *)
let status_of = function
  | `Done -> Status.Optimal
  | `Unbounded -> Status.Unbounded
  | `Iters -> Status.Iteration_limit
  | `Time -> Status.Time_limit

(* Cold start: crash basis, then the two-phase primal. *)
let cold_solve ?max_iters ~deadline ~emit_basis input =
  let st = crash input in
  let m = st.ss_m in
  let max_iters = default_iters max_iters m input.nvars in
  let phase1_cost, need_p1 = phase1_setup st in
  let fin = finish ~emit_basis ~warm_started:false input st in
  let phase1_outcome =
    if need_p1 then run_phase st ~deadline max_iters phase1_cost else `Done
  in
  match phase1_outcome with
  | `Iters -> fin Status.Iteration_limit
  | `Time -> fin Status.Time_limit
  | `Unbounded ->
      (* Phase-1 cost is bounded below by zero; reaching here means a
         numerical breakdown, surfaced as an iteration failure. *)
      fin Status.Iteration_limit
  | `Done ->
      (* what the artificials still carry, basic or not *)
      let p1 = ref 0.0 in
      for i = 0 to m - 1 do
        if st.sbasis.(i) >= st.ss_art0 then p1 := !p1 +. Float.abs st.sxb.(i)
      done;
      for j = st.ss_art0 to st.ss_ntot - 1 do
        if st.sstat.(j) <> Basic then p1 := !p1 +. Float.abs st.svnb.(j)
      done;
      if !p1 > tol_feas *. float_of_int (1 + m) then fin Status.Infeasible
      else begin
        (* Artificials may no longer move in phase 2; one still basic at
           (near) zero marks a redundant row and rides along pinned. *)
        for j = st.ss_art0 to st.ss_ntot - 1 do
          st.qlo.(j) <- 0.0;
          st.qhi.(j) <- 0.0
        done;
        st.sdegen <- 0;
        let cost = phase2_cost input st.ss_ntot in
        fin (status_of (run_phase st ~deadline max_iters cost))
      end

(* [w] fits the matrix [mat]: a status for every column and a basic
   column, in range, for every row. *)
let fits mat (w : basis) =
  Array.length w.vstat = mat.sm_ntot
  && Array.length w.vbasis = mat.sm_m
  && not (Array.exists (fun b -> b < 0 || b >= mat.sm_ntot) w.vbasis)

(* Factor the saved basis [w] and start a state on it; [None] when the
   basis does not fit these rows or is singular. *)
let warm_state input (w : basis) =
  let e = memo_for input in
  let mat = e.mmat in
  if not (fits mat w) then None
  else
    match factor_memo e w with
    | None -> None
    | Some (snap, b) ->
        (* Artificials are pinned at zero in any warm solve; one that is
           basic in [w] marks a redundant row and keeps its zero value.
           Nonbasic resting points are resolved against the (possibly
           changed) bounds. *)
        let stat = Array.copy w.vstat in
        let qlo, qhi, vnb = bounds input mat ~art_hi:0.0 stat in
        Array.iter (fun b -> stat.(b) <- Basic) w.vbasis;
        let st =
          new_state input mat ~qlo ~qhi ~basis:(Array.copy b) ~stat ~vnb
            ~xb:(Array.make (max 1 mat.sm_m) 0.0) (Factor.start snap)
        in
        recompute_xb st;
        Some st

(* The dual simplex's leaving row: the most violated basic variable, and
   whether it lies below its lower bound; row -1 when none is. *)
let leaving_row st =
  let row = ref (-1) and viol = ref tol_feas and below = ref false in
  for i = 0 to st.ss_m - 1 do
    let b = st.sbasis.(i) in
    let lo = st.qlo.(b) and hi = st.qhi.(b) in
    let v_lo = (lo -. st.sxb.(i)) /. (1.0 +. Float.abs lo) in
    let v_hi = (st.sxb.(i) -. hi) /. (1.0 +. Float.abs hi) in
    if v_lo > !viol then begin
      viol := v_lo;
      row := i;
      below := true
    end;
    if v_hi > !viol then begin
      viol := v_hi;
      row := i;
      below := false
    end
  done;
  (!row, !below)

(* The transformed row rho = B^-T e_r into [rho], and alpha_j = rho A_j
   for every column into [alpha], accumulated row by row over the
   nonzeros of rho.  Each alpha_j sums its terms in increasing row order
   from +0.0, as [col_dot] does; the terms it skips are the signed zeros
   of rows where rho is zero, which leave such a sum unchanged. *)
let pivot_row st r rho alpha =
  let m = st.ss_m in
  Array.fill rho 0 m 0.0;
  rho.(r) <- 1.0;
  Factor.btran st.fact rho;
  Array.fill alpha 0 st.ss_ntot 0.0;
  let { rstart; rcol; rval } = row_matrix st.mat in
  for i = 0 to m - 1 do
    let ri = rho.(i) in
    if ri <> 0.0 then
      for k = rstart.(i) to rstart.(i + 1) - 1 do
        let j = Array.unsafe_get rcol k in
        Array.unsafe_set alpha j
          (Array.unsafe_get alpha j +. (Array.unsafe_get rval k *. ri))
      done
  done

(* The dual ratio test over the pivot row [alpha]: the entering column,
   or -1 when none is eligible.  Only columns that pass the eligibility
   test need their reduced cost c_j - y A_j, computed from the duals in
   [sy] in the same order as [reset_reduced_costs] computes it; [sz] is
   not touched, and [run_phase] refreshes it before it prices. *)
let entering_col st (c : float array) alpha below =
  let q = ref (-1) and best_ratio = ref infinity and best_w = ref 0.0 in
  for j = 0 to st.ss_ntot - 1 do
    if st.sstat.(j) <> Basic && st.qlo.(j) < st.qhi.(j) then begin
      let w = alpha.(j) in
      let eligible =
        if Float.abs w <= tol_piv then false
        else
          match st.sstat.(j) with
          | Free_nb -> true
          | At_lower -> if below then w < 0.0 else w > 0.0
          | At_upper -> if below then w > 0.0 else w < 0.0
          | Basic -> false
      in
      if eligible then begin
        let zj = c.(j) -. col_dot st.mat j st.sy in
        let ratio =
          match st.sstat.(j) with
          | Free_nb -> Float.abs (zj /. w)
          | _ -> Float.max 0.0 (if below then -.(zj /. w) else zj /. w)
        in
        if
          ratio < !best_ratio -. 1e-10
          || (ratio < !best_ratio +. 1e-10 && Float.abs w > Float.abs !best_w)
        then begin
          q := j;
          best_ratio := ratio;
          best_w := w
        end
      end
    end
  done;
  !q

(* Bounded-variable dual simplex.  The basis is assumed (near) dual
   feasible; primal feasibility is restored one bound violation at a time,
   with the transformed leaving row obtained by BTRAN of a unit vector and
   one pass over the row-wise nonzeros of its support.  Returns [`Feasible] when all basic
   values are within bounds, [`Infeasible] when some violated row admits
   no entering column (a primal-infeasibility certificate independent of
   the reduced costs), [`Iters] when the iteration budget runs out or a
   pivot collapses, or [`Time] when the deadline passes. *)
let dual_simplex st ~deadline max_iters (c : float array) =
  let m = st.ss_m and ntot = st.ss_ntot in
  let rho = Array.make (max 1 m) 0.0 and alpha = Array.make ntot 0.0 in
  let rec loop () =
    if st.siters >= max_iters then `Iters
    else if past deadline then `Time
    else
      match leaving_row st with
      | -1, _ -> `Feasible
      | r, below -> (
          let b = st.sbasis.(r) in
          let target = if below then st.qlo.(b) else st.qhi.(b) in
          reset_duals st c;
          pivot_row st r rho alpha;
          match entering_col st c alpha below with
          | -1 -> `Infeasible
          | q ->
              ftran_col st q;
              let d = st.sd in
              let w = d.(r) in
              if Float.abs w <= tol_piv *. 0.01 then `Iters
              else begin
                let delta = (st.sxb.(r) -. target) /. w in
                st.siters <- st.siters + 1;
                for i = 0 to m - 1 do
                  if i <> r then st.sxb.(i) <- st.sxb.(i) -. (d.(i) *. delta)
                done;
                st.svnb.(b) <- target;
                st.sstat.(b) <- (if below then At_lower else At_upper);
                st.sbasis.(r) <- q;
                st.sstat.(q) <- Basic;
                st.sxb.(r) <- st.svnb.(q) +. delta;
                if pivot_update st ~p:r d then loop () else `Iters
              end)
  in
  loop ()

(* A warm solve stopped by the deadline reports it: a cold solve would
   only start over on a clock that has already run out. *)
let warm_solve ?max_iters ~deadline input w =
  match warm_state input w with
  | None -> None
  | Some st ->
      let max_iters = default_iters max_iters st.ss_m input.nvars in
      let cost = phase2_cost input st.ss_ntot in
      let fin = finish ~emit_basis:true ~warm_started:true input st in
      (match dual_simplex st ~deadline max_iters cost with
      | `Iters -> None (* numerical trouble: let the cold path decide *)
      | `Time -> Some (fin Status.Time_limit)
      | `Infeasible -> Some (fin Status.Infeasible)
      | `Feasible -> (
          st.sdegen <- 0;
          (* At an optimum [sy]/[sz] are current from the final pricing
             round. *)
          match run_phase st ~deadline max_iters cost with
          | `Iters -> None
          | o -> Some (fin (status_of o))))

let solve ?max_iters ?(deadline = infinity) ?warm ?(want_basis = false) input =
  let n = input.nvars in
  (* Branching can cross bounds; such boxes are empty, not "solved". *)
  let crossed = ref false in
  for j = 0 to n - 1 do
    if input.lo.(j) > input.hi.(j) +. 1e-11 then crossed := true
  done;
  if !crossed then empty_result Status.Infeasible
  else
    match warm with
    | Some w -> (
        match warm_solve ?max_iters ~deadline input w with
        | Some r -> r
        | None -> cold_solve ?max_iters ~deadline ~emit_basis:true input)
    | None -> cold_solve ?max_iters ~deadline ~emit_basis:want_basis input

(* Rows of B^-1 by BTRAN of unit vectors on a fresh factorization of [b].
   Refactorization may permute which row a basic column occupies, but the
   row of B^-1 that belongs to a given basic column does not depend on
   that order.  One step of iterative refinement against the basis
   columns themselves takes the factorization's rounding out of the row,
   so what callers build from it does not depend on how the basis
   happened to be factored. *)
let basis_rows input (b : basis) =
  let e = memo_for input in
  let mat = e.mmat in
  if not (fits mat b) then None
  else
    match factor_memo e b with
    | None -> None
    | Some (snap, pb) ->
        let m = mat.sm_m and basis = Array.copy pb and fact = Factor.start snap in
        let row_of = Array.make mat.sm_ntot (-1) in
        Array.iteri (fun i c -> row_of.(c) <- i) basis;
        Some
          (fun c ->
            if row_of.(c) < 0 then invalid_arg "Simplex.basis_rows: not basic";
            let rho = Array.make m 0.0 in
            rho.(row_of.(c)) <- 1.0;
            Factor.btran fact rho;
            let resid =
              Array.init m (fun i ->
                  let c' = basis.(i) in
                  (if c' = c then 1.0 else 0.0) -. col_dot mat c' rho)
            in
            Factor.btran fact resid;
            Array.iteri (fun i r -> rho.(i) <- rho.(i) +. r) resid;
            rho)

let check_certificate ?(tol = 1e-5) input result =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let n = input.nvars and m = Array.length input.rows in
  let x = result.x in
  if not (feasible ~tol input x) then err "primal point infeasible";
  (* Reduced costs recomputed from scratch in the minimization convention. *)
  let zhat = Array.init n (cmin input) in
  Array.iteri
    (fun i { Model.ids; coefs; _ } ->
      let y = result.duals.(i) in
      if y <> 0.0 then
        for k = 0 to Array.length ids - 1 do
          let j = ids.(k) in
          zhat.(j) <- zhat.(j) -. (y *. coefs.(k))
        done)
    input.rows;
  let scale =
    1.0 +. Array.fold_left (fun a c -> Float.max a (Float.abs c)) 0.0 input.obj
  in
  let tolz = tol *. scale in
  for j = 0 to n - 1 do
    let at_lo = x.(j) <= input.lo.(j) +. tol in
    let at_hi = x.(j) >= input.hi.(j) -. tol in
    if (not at_lo) && not at_hi then begin
      if Float.abs zhat.(j) > tolz then
        err "interior variable %d has reduced cost %g" j zhat.(j)
    end
    else begin
      if at_lo && (not at_hi) && zhat.(j) < -.tolz then
        err "variable %d at lower bound has negative reduced cost %g" j zhat.(j);
      if at_hi && (not at_lo) && zhat.(j) > tolz then
        err "variable %d at upper bound has positive reduced cost %g" j zhat.(j)
    end
  done;
  (* Complementary slackness and dual sign conditions per row. *)
  for i = 0 to m - 1 do
    let { Model.ids; coefs; sense; rhs } = input.rows.(i) in
    let slack = rhs -. row_dot ids coefs x in
    let y = result.duals.(i) in
    let rtol = tol *. (1.0 +. Float.abs rhs) in
    (match sense with
    | Model.Le ->
        if y > tolz then err "Le row %d has dual %g > 0" i y;
        if slack > rtol && Float.abs y > tolz then
          err "slack Le row %d has nonzero dual %g" i y
    | Model.Ge ->
        if y < -.tolz then err "Ge row %d has dual %g < 0" i y;
        if slack < -.rtol && Float.abs y > tolz then
          err "slack Ge row %d has nonzero dual %g" i y
    | Model.Eq -> ())
  done;
  List.rev !errs
