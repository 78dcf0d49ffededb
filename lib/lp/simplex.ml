type input = {
  nvars : int;
  lo : float array;
  hi : float array;
  obj : float array;
  obj_const : float;
  minimize : bool;
  rows : ((int * float) array * Model.sense * float) array;
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
  let vs = Model.vars m in
  let nvars = Array.length vs in
  let lo = Array.map (fun (v : Model.var) -> v.Model.lo) vs in
  let hi = Array.map (fun (v : Model.var) -> v.Model.hi) vs in
  let obj = Array.make nvars 0.0 in
  let obj_terms, obj_const = Model.objective_terms m in
  Array.iter (fun (id, c) -> obj.(id) <- obj.(id) +. c) obj_terms;
  let rows =
    Array.map
      (fun (c : Model.constr) ->
        (Model.row_terms c, c.Model.sense, c.Model.rhs))
      (Model.constrs m)
  in
  { nvars; lo; hi; obj; obj_const; minimize = Model.minimize m; rows }

let tol_piv = 1e-9
let tol_cost = 1e-7
let tol_feas = 1e-7

let feasible ?(tol = 1e-6) input x =
  let ok = ref true in
  for j = 0 to input.nvars - 1 do
    if x.(j) < input.lo.(j) -. tol || x.(j) > input.hi.(j) +. tol then ok := false
  done;
  Array.iter
    (fun (terms, sense, rhs) ->
      let v = Array.fold_left (fun a (j, c) -> a +. (c *. x.(j))) 0.0 terms in
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

(* Phase-2 costs in the internal minimization convention. *)
let phase2_cost input ntot =
  let cost = Array.make ntot 0.0 in
  for j = 0 to input.nvars - 1 do
    cost.(j) <- (if input.minimize then input.obj.(j) else -.input.obj.(j))
  done;
  cost

(* ------------------------------------------------------------------ *)
(* Revised simplex.                                                    *)
(*                                                                     *)
(* The matrix is stored once in compressed column form and the basis   *)
(* inverse is kept as a product of eta factors that is periodically    *)
(* refactorized.  No row is ever sign-flipped: artificial columns are  *)
(* always +e_i, and rows whose residual starts negative get an         *)
(* artificial bounded in (-inf, 0] with phase-1 cost -1 instead — so   *)
(* BTRAN of the basic costs yields the duals in the original row       *)
(* orientation directly.                                               *)
(* ------------------------------------------------------------------ *)

(* Compressed-row copy of the same matrix, for the dual simplex's row
   pricing.  Entries within a row are stored in increasing column
   order. *)
type rmat = { rstart : int array; rcol : int array; rval : float array }

(* Compressed-column copy of [A | slacks | artificials].  Entries within
   a column are stored in increasing row order.  The row copy is built
   the first time a dual simplex prices over the matrix; systhreads
   sharing it may both build it, and both build the same. *)
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
  let nslack =
    Array.fold_left
      (fun a (_, s, _) -> match s with Model.Eq -> a | _ -> a + 1)
      0 input.rows
  in
  let art0 = n + nslack in
  let ntot = art0 + m in
  let cstart = Array.make (ntot + 1) 0 in
  Array.iter
    (fun (terms, _, _) ->
      Array.iter (fun (j, _) -> cstart.(j + 1) <- cstart.(j + 1) + 1) terms)
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
  let slack = Array.make (max 1 m) (-1) in
  let next_slack = ref n in
  Array.iteri
    (fun i (terms, sense, _) ->
      Array.iter (fun (j, c) -> put j i c) terms;
      (match sense with
      | Model.Le ->
          put !next_slack i 1.0;
          slack.(i) <- !next_slack;
          incr next_slack
      | Model.Ge ->
          put !next_slack i (-1.0);
          slack.(i) <- !next_slack;
          incr next_slack
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

(* One eta factor of the product-form inverse: pivoting column [d] into
   row [ep] multiplies B by the identity with column [ep] replaced by
   [d]; we store the pivot value and the off-pivot nonzeros. *)
type eta = { ep : int; erow : int array; evals : float array; epiv : float }

let dummy_eta = { ep = 0; erow = [||]; evals = [||]; epiv = 1.0 }

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
  mutable etas : eta array;
  mutable neta : int;
  sz : float array;          (* reduced costs, refreshed per iteration *)
  sy : float array;          (* BTRAN scratch; duals at an optimum *)
  sd : float array;          (* FTRAN scratch: transformed column *)
  mutable siters : int;
  mutable sdegen : int;
  refactor_every : int;
}

let refactor_cadence m = max 64 (min 128 m)

let ensure_eta_capacity st =
  if st.neta = Array.length st.etas then begin
    let grown = Array.make (max 32 (2 * st.neta)) dummy_eta in
    Array.blit st.etas 0 grown 0 st.neta;
    st.etas <- grown
  end

let add_eta st e =
  ensure_eta_capacity st;
  st.etas.(st.neta) <- e;
  st.neta <- st.neta + 1

let push_eta st ~p (d : float array) =
  let m = st.ss_m in
  let nz = ref 0 in
  for i = 0 to m - 1 do
    if i <> p && Float.abs (Array.unsafe_get d i) > 1e-13 then incr nz
  done;
  let e =
    if !nz = 0 then { ep = p; erow = [||]; evals = [||]; epiv = d.(p) }
    else begin
      let erow = Array.make !nz 0 and evals = Array.make !nz 0.0 in
      let k = ref 0 in
      for i = 0 to m - 1 do
        if i <> p && Float.abs (Array.unsafe_get d i) > 1e-13 then begin
          erow.(!k) <- i;
          evals.(!k) <- d.(i);
          incr k
        end
      done;
      { ep = p; erow; evals; epiv = d.(p) }
    end
  in
  add_eta st e

let push_unit_eta st ~p piv =
  add_eta st { ep = p; erow = [||]; evals = [||]; epiv = piv }

(* x := B^-1 x: apply eta inverses oldest to newest. *)
let ftran st (x : float array) =
  for k = 0 to st.neta - 1 do
    let e = st.etas.(k) in
    let xp = x.(e.ep) in
    if xp <> 0.0 then begin
      let s = xp /. e.epiv in
      x.(e.ep) <- s;
      let nr = Array.length e.erow in
      for t = 0 to nr - 1 do
        let i = Array.unsafe_get e.erow t in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get e.evals t *. s))
      done
    end
  done

(* y := B^-T y: apply eta inverses newest to oldest. *)
let btran st (y : float array) =
  for k = st.neta - 1 downto 0 do
    let e = st.etas.(k) in
    let acc = ref y.(e.ep) in
    let nr = Array.length e.erow in
    for t = 0 to nr - 1 do
      acc :=
        !acc
        -. (Array.unsafe_get e.evals t
            *. Array.unsafe_get y (Array.unsafe_get e.erow t))
    done;
    y.(e.ep) <- !acc /. e.epiv
  done

let col_dot st j (y : float array) =
  let mat = st.mat in
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
  ftran st d

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
  ftran st w;
  Array.blit w 0 st.sxb 0 st.ss_m

(* [sort_by_key key a] sorts [a] by increasing [key.(a.(i))]: Stdlib's
   ternary heapsort ([Array.sort]) with its comparison inlined.  It makes
   the same comparisons in the same order, so ties end up in exactly the
   places [Array.sort (fun x y -> Int.compare key.(x) key.(y)) a] puts
   them. *)
exception Bottom of int

let sort_by_key (key : int array) (a : int array) =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if key.(a.(i31)) < key.(a.(i31 + 1)) then i31 + 1 else i31 in
      if key.(a.(x)) < key.(a.(i31 + 2)) then i31 + 2 else x
    end
    else if i31 + 1 < l && key.(a.(i31)) < key.(a.(i31 + 1)) then i31 + 1
    else if i31 < l then i31
    else raise_notrace (Bottom i)
  in
  let rec trickledown l i e =
    let j = maxson l i in
    if key.(a.(j)) > key.(e) then begin
      a.(i) <- a.(j);
      trickledown l j e
    end
    else a.(i) <- e
  in
  let trickle l i e = try trickledown l i e with Bottom i -> a.(i) <- e in
  let rec bubbledown l i =
    let j = maxson l i in
    a.(i) <- a.(j);
    bubbledown l j
  in
  let bubble l i = try bubbledown l i with Bottom i -> i in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key.(a.(father)) < key.(e) then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Rebuild the eta file from scratch for the current basis: columns are
   factored sparsest-first, each claiming the unclaimed row where its
   transformed value is largest (the basis-to-row assignment is permuted
   accordingly).  Returns false when the basis is singular.

   Each column is transformed as [ftran_col] would, with the same
   arithmetic, but only the rows it touches are visited: its pattern
   grows as the column is scattered and as etas reach new rows, and only
   the pattern is scanned and zeroed again afterwards. *)
let refactorize st =
  let m = st.ss_m in
  st.neta <- 0;
  if m = 0 then true
  else begin
    let mat = st.mat in
    let cstart = mat.cstart and crow = mat.crow and cval = mat.cval in
    let cols = Array.sub st.sbasis 0 m in
    let order = Array.init m (fun i -> i) in
    sort_by_key (Array.map (fun j -> cstart.(j + 1) - cstart.(j)) cols) order;
    let claimed = Array.make m false in
    let newbasis = Array.make m (-1) in
    let d = st.sd in
    Array.fill d 0 m 0.0;
    (* [pat.(0 .. np-1)]: the rows the column at position [t] of [order]
       has touched, exactly those with [mark.(i) = t]. *)
    let pat = Array.make m 0 and mark = Array.make m (-1) in
    (* Rows of the transformed column above the eta threshold, in
       increasing order, recorded during the pivot scan so the eta is
       built from them without another pass over [d]. *)
    let nzrow = Array.make m 0 in
    let ok = ref true and t = ref 0 in
    while !ok && !t < m do
      let t0 = !t in
      let j = cols.(order.(t0)) in
      let np = ref 0 in
      for k = cstart.(j) to cstart.(j + 1) - 1 do
        let i = crow.(k) in
        if mark.(i) <> t0 then begin
          mark.(i) <- t0;
          pat.(!np) <- i;
          incr np
        end;
        d.(i) <- d.(i) +. cval.(k)
      done;
      for k = 0 to st.neta - 1 do
        let e = st.etas.(k) in
        let xp = d.(e.ep) in
        if xp <> 0.0 then begin
          let s = xp /. e.epiv in
          d.(e.ep) <- s;
          let erow = e.erow and evals = e.evals in
          for q = 0 to Array.length erow - 1 do
            let i = Array.unsafe_get erow q in
            if Array.unsafe_get mark i <> t0 then begin
              Array.unsafe_set mark i t0;
              Array.unsafe_set pat !np i;
              incr np
            end;
            Array.unsafe_set d i
              (Array.unsafe_get d i -. (Array.unsafe_get evals q *. s))
          done
        end
      done;
      let np = !np in
      (* The pattern in increasing row order, as a dense scan meets it:
         a small one sorted by insertion, a large one read off the
         marks. *)
      if np * np <= 4 * m then
        for q = 1 to np - 1 do
          let i = pat.(q) and r = ref (q - 1) in
          while !r >= 0 && pat.(!r) > i do
            pat.(!r + 1) <- pat.(!r);
            decr r
          done;
          pat.(!r + 1) <- i
        done
      else begin
        let q = ref 0 in
        for i = 0 to m - 1 do
          if Array.unsafe_get mark i = t0 then begin
            pat.(!q) <- i;
            incr q
          end
        done
      end;
      let p = ref (-1) and best = ref 1e-10 and nz = ref 0 in
      for q = 0 to np - 1 do
        let i = Array.unsafe_get pat q in
        let a = Float.abs (Array.unsafe_get d i) in
        if a > 1e-13 then begin
          Array.unsafe_set nzrow !nz i;
          incr nz;
          if a > !best && not claimed.(i) then begin
            best := a;
            p := i
          end
        end
      done;
      if !p < 0 then ok := false
      else begin
        let p = !p in
        claimed.(p) <- true;
        newbasis.(p) <- j;
        (* a still-unit column pivoting its own row needs no eta; [p]
           is always among the [nz] recorded rows *)
        let nz = !nz in
        if not (nz = 1 && d.(p) = 1.0) then begin
          let erow = Array.make (nz - 1) 0
          and evals = Array.make (nz - 1) 0.0 in
          let k = ref 0 in
          for q = 0 to nz - 1 do
            let i = Array.unsafe_get nzrow q in
            if i <> p then begin
              erow.(!k) <- i;
              evals.(!k) <- Array.unsafe_get d i;
              incr k
            end
          done;
          add_eta st { ep = p; erow; evals; epiv = d.(p) }
        end
      end;
      for q = 0 to np - 1 do
        Array.unsafe_set d (Array.unsafe_get pat q) 0.0
      done;
      incr t
    done;
    if !ok then begin
      Array.blit newbasis 0 st.sbasis 0 m;
      recompute_xb st
    end;
    !ok
  end

let maybe_refactor st =
  if st.neta >= st.refactor_every then refactorize st else true

(* Duals y = c_B^T B^-1 into [sy]. *)
let reset_duals st (c : float array) =
  let y = st.sy in
  for i = 0 to st.ss_m - 1 do
    y.(i) <- c.(st.sbasis.(i))
  done;
  btran st y

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
      if rate < -.tol_piv && st.qlo.(bi) > neg_infinity then begin
        let ti = (st.sxb.(i) -. st.qlo.(bi)) /. -.rate in
        let ti = if ti < 0.0 then 0.0 else ti in
        if
          ti < !t_best -. 1e-10
          || (ti < !t_best +. 1e-10 && Float.abs w > !piv_best)
        then begin
          t_best := ti;
          row := i;
          to_upper := false;
          piv_best := Float.abs w
        end
      end
      else if rate > tol_piv && st.qhi.(bi) < infinity then begin
        let ti = (st.qhi.(bi) -. st.sxb.(i)) /. rate in
        let ti = if ti < 0.0 then 0.0 else ti in
        if
          ti < !t_best -. 1e-10
          || (ti < !t_best +. 1e-10 && Float.abs w > !piv_best)
        then begin
          t_best := ti;
          row := i;
          to_upper := true;
          piv_best := Float.abs w
        end
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
      if to_upper then begin
        st.svnb.(leaving) <- st.qhi.(leaving);
        st.sstat.(leaving) <- At_upper
      end
      else begin
        st.svnb.(leaving) <- st.qlo.(leaving);
        st.sstat.(leaving) <- At_lower
      end;
      st.sbasis.(lrow) <- q;
      st.sstat.(q) <- Basic;
      st.sxb.(lrow) <- xq;
      push_eta st ~p:lrow d;
      if maybe_refactor st then `Ok else `Fail
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
  let duals = Array.make st.ss_m 0.0 in
  let reduced = Array.make n 0.0 in
  if status = Status.Optimal then begin
    for i = 0 to st.ss_m - 1 do
      duals.(i) <- st.sy.(i)
    done;
    let cmin j = if input.minimize then input.obj.(j) else -.input.obj.(j) in
    for j = 0 to n - 1 do
      reduced.(j) <-
        (if st.sstat.(j) = Basic then 0.0 else cmin j -. col_dot st j st.sy)
    done
  end;
  let basis =
    if emit_basis && status = Status.Optimal then
      Some { vbasis = Array.copy st.sbasis; vstat = Array.copy st.sstat }
    else None
  in
  { status; x; obj_value; duals; reduced_costs = reduced;
    iterations = st.siters; basis; warm_started }

(* One-entry memo per domain: the compressed-column matrix of the last
   [(rows, nvars)] seen, keyed on the physical identity of [rows], and
   the fresh factorization of the last warm [vbasis] factored over it,
   keyed on structural equality.  Branch and bound re-solves one row
   array over and over, and both children and every strong-branching
   probe start from their parent's basis, so most warm solves find both.
   Only a fresh [refactorize] result is stored, never an eta file with
   pivot etas on it, so a hit replays exactly the factorization a miss
   would compute.  Snapshots are immutable and replaced whole: systhreads
   sharing a domain may swap the entry between any two reads, and each
   still sees a consistent one.  Eta records are immutable and shared;
   the eta array and the permuted basis are copied into each state. *)
type fact = { fkey : int array; fetas : eta array; fbasis : int array }

type memo = {
  mrows : ((int * float) array * Model.sense * float) array;
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

(* [refactorize] for a state fresh from [warm_state] (no etas yet),
   through the memo entry [e] its matrix came from. *)
let refactorize_memo e w st =
  match e.mfact with
  | Some f when f.fkey = w.vbasis ->
      let k = Array.length f.fetas in
      st.etas <- Array.make (max 16 (2 * k)) dummy_eta;
      Array.blit f.fetas 0 st.etas 0 k;
      st.neta <- k;
      Array.blit f.fbasis 0 st.sbasis 0 st.ss_m;
      recompute_xb st;
      true
  | _ ->
      let ok = refactorize st in
      if ok then begin
        let f =
          { fkey = Array.copy w.vbasis; fetas = Array.sub st.etas 0 st.neta;
            fbasis = Array.copy st.sbasis }
        in
        Domain.DLS.set memo (Some { e with mfact = Some f })
      end;
      ok

(* Cold start: slack crash, BTRAN-guided structural crash, two-phase
   primal. *)
let cold_solve ?max_iters ~deadline ~emit_basis input =
  let mat = (memo_for input).mmat in
  let m = mat.sm_m and n = mat.sm_n in
  let art0 = mat.sm_art0 and ntot = mat.sm_ntot in
  let qlo = Array.make ntot 0.0 and qhi = Array.make ntot infinity in
  Array.blit input.lo 0 qlo 0 n;
  Array.blit input.hi 0 qhi 0 n;
  let stat = Array.make ntot At_lower in
  let vnb = Array.make ntot 0.0 in
  for j = 0 to art0 - 1 do
    if qlo.(j) > neg_infinity then begin
      stat.(j) <- At_lower;
      vnb.(j) <- qlo.(j)
    end
    else if qhi.(j) < infinity then begin
      stat.(j) <- At_upper;
      vnb.(j) <- qhi.(j)
    end
    else begin
      stat.(j) <- Free_nb;
      vnb.(j) <- 0.0
    end
  done;
  let max_iters = default_iters max_iters m n in
  let srhs = Array.map (fun (_, _, r) -> r) input.rows in
  (* Residual of each row at the nonbasic resting point. *)
  let resid = Array.make (max 1 m) 0.0 in
  Array.iteri
    (fun i (terms, _, rhs) ->
      let acc = ref rhs in
      Array.iter
        (fun (j, c) ->
          let v = vnb.(j) in
          if v <> 0.0 then acc := !acc -. (c *. v))
        terms;
      resid.(i) <- !acc)
    input.rows;
  let basis = Array.make (max 1 m) (-1) in
  let xb = Array.make (max 1 m) 0.0 in
  let st =
    { ss_m = m; ss_ntot = ntot; ss_art0 = art0; mat; qlo; qhi; srhs;
      sbasis = basis; sstat = stat; svnb = vnb; sxb = xb;
      etas = Array.make 16 dummy_eta; neta = 0;
      sz = Array.make ntot 0.0; sy = Array.make (max 1 m) 0.0;
      sd = Array.make (max 1 m) 0.0; siters = 0; sdegen = 0;
      refactor_every = refactor_cadence m }
  in
  (* Slack crash: an inequality row whose slack value is feasible at the
     resting point starts with that slack basic.  A Ge slack column is
     -e_i, which enters the factorization as a singleton eta. *)
  Array.iteri
    (fun i (_, sense, _) ->
      match (sense, mat.sm_slack.(i)) with
      | Model.Le, s when s >= 0 && resid.(i) >= 0.0 ->
          basis.(i) <- s;
          stat.(s) <- Basic;
          xb.(i) <- resid.(i)
      | Model.Ge, s when s >= 0 && resid.(i) <= 0.0 ->
          basis.(i) <- s;
          stat.(s) <- Basic;
          xb.(i) <- -.resid.(i);
          push_unit_eta st ~p:i (-1.0)
      | _ -> ())
    input.rows;
  (* Every other row starts with its artificial basic, carrying the raw
     residual (negative residuals keep their sign; bounds follow). *)
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
  (* Greedy structural crash: BTRAN exposes each artificial row exactly;
     a bounded structural column that can zero the residual without
     knocking any settled row out of bounds (checked against its FTRAN'd
     column) replaces the artificial.  Candidates are filtered on pivot
     quality and ranked by objective movement, so phase 2 starts near
     the optimum; on assignment-shaped models this usually empties
     phase 1 entirely. *)
  if !any_art && n > 0 then begin
    let cmin j = if input.minimize then input.obj.(j) else -.input.obj.(j) in
    for i = 0 to m - 1 do
      if basis.(i) = art0 + i then begin
        let rho = st.sy in
        Array.fill rho 0 m 0.0;
        rho.(i) <- 1.0;
        btran st rho;
        (* Candidates come from the row's own nonzeros: with the basis
           still near-triangular at crash time, columns absent from row
           [i] price to (almost) zero against rho anyway, so scanning
           the whole column set would only rediscover these. *)
        let row_terms, _, _ = input.rows.(i) in
        let maxabs = ref 0.0 in
        Array.iter
          (fun (j, _) ->
            if stat.(j) <> Basic && qlo.(j) < qhi.(j) then begin
              let a = Float.abs (col_dot st j rho) in
              if a > !maxabs then maxabs := a
            end)
          row_terms;
        if !maxabs > 1e-7 then begin
          (* The three cheapest admissible candidates, tried in order
             against the exact safety check. *)
          let c1 = ref (-1) and s1 = ref infinity in
          let c2 = ref (-1) and s2 = ref infinity in
          let c3 = ref (-1) and s3 = ref infinity in
          Array.iter
            (fun (j, _) ->
              if stat.(j) <> Basic && qlo.(j) < qhi.(j) then begin
                let w = col_dot st j rho in
                if Float.abs w >= 0.25 *. !maxabs then begin
                  let delta = xb.(i) /. w in
                  let v = vnb.(j) +. delta in
                  if v >= qlo.(j) -. 1e-9 && v <= qhi.(j) +. 1e-9 then begin
                    let score = cmin j *. delta in
                    if score < !s1 then begin
                      c3 := !c2;
                      s3 := !s2;
                      c2 := !c1;
                      s2 := !s1;
                      c1 := j;
                      s1 := score
                    end
                    else if score < !s2 then begin
                      c3 := !c2;
                      s3 := !s2;
                      c2 := j;
                      s2 := score
                    end
                    else if score < !s3 then begin
                      c3 := j;
                      s3 := score
                    end
                  end
                end
              end)
            row_terms;
          let placed = ref false in
          List.iter
            (fun q ->
              if (not !placed) && q >= 0 then begin
                ftran_col st q;
                let d = st.sd in
                let w = d.(i) in
                if Float.abs w > 1e-7 then begin
                  let delta = xb.(i) /. w in
                  let v = vnb.(q) +. delta in
                  if v >= qlo.(q) -. 1e-9 && v <= qhi.(q) +. 1e-9 then begin
                    let safe = ref true in
                    for r = 0 to m - 1 do
                      if !safe && r <> i then begin
                        let wr = d.(r) in
                        if wr <> 0.0 then begin
                          let nv = xb.(r) -. (wr *. delta) in
                          if basis.(r) = art0 + r then begin
                            (* pending artificial: its residual must not
                               grow *)
                            if Float.abs nv > Float.abs xb.(r) +. 1e-9 then
                              safe := false
                          end
                          else begin
                            let b = basis.(r) in
                            if nv < qlo.(b) -. 1e-9 || nv > qhi.(b) +. 1e-9
                            then safe := false
                          end
                        end
                      end
                    done;
                    if !safe then begin
                      for r = 0 to m - 1 do
                        if r <> i then xb.(r) <- xb.(r) -. (d.(r) *. delta)
                      done;
                      stat.(art0 + i) <- At_lower;
                      vnb.(art0 + i) <- 0.0;
                      qlo.(art0 + i) <- 0.0;
                      qhi.(art0 + i) <- 0.0;
                      basis.(i) <- q;
                      stat.(q) <- Basic;
                      xb.(i) <- Float.max qlo.(q) (Float.min qhi.(q) v);
                      push_eta st ~p:i d;
                      placed := true
                    end
                  end
                end
              end)
            [ !c1; !c2; !c3 ]
        end
      end
    done
  end;
  (* Phase-1 setup: artificials still basic take sign-dependent bounds so
     minimizing (sign-matched) unit costs drives |residual| to zero. *)
  let phase1_cost = Array.make ntot 0.0 in
  let need_p1 = ref false in
  for i = 0 to m - 1 do
    if basis.(i) = art0 + i then begin
      if xb.(i) >= 0.0 then begin
        qlo.(art0 + i) <- 0.0;
        qhi.(art0 + i) <- infinity;
        phase1_cost.(art0 + i) <- 1.0
      end
      else begin
        qlo.(art0 + i) <- neg_infinity;
        qhi.(art0 + i) <- 0.0;
        phase1_cost.(art0 + i) <- -1.0
      end;
      if Float.abs xb.(i) > tol_feas then need_p1 := true
    end
  done;
  let cost = phase2_cost input ntot in
  let fin = finish ~emit_basis ~warm_started:false input st in
  let phase1_outcome =
    if !need_p1 then run_phase st ~deadline max_iters phase1_cost else `Done
  in
  match phase1_outcome with
  | `Iters -> fin Status.Iteration_limit
  | `Time -> fin Status.Time_limit
  | `Unbounded ->
      (* Phase-1 cost is bounded below by zero; reaching here means a
         numerical breakdown, surfaced as an iteration failure. *)
      fin Status.Iteration_limit
  | `Done ->
      let p1 = ref 0.0 in
      for i = 0 to m - 1 do
        if basis.(i) >= art0 then p1 := !p1 +. Float.abs xb.(i)
      done;
      for j = art0 to ntot - 1 do
        if stat.(j) <> Basic then p1 := !p1 +. Float.abs vnb.(j)
      done;
      if !p1 > tol_feas *. float_of_int (1 + m) then fin Status.Infeasible
      else begin
        (* Artificials may no longer move in phase 2; one still basic at
           (near) zero marks a redundant row and rides along pinned. *)
        for j = art0 to ntot - 1 do
          qlo.(j) <- 0.0;
          qhi.(j) <- 0.0
        done;
        st.sdegen <- 0;
        match run_phase st ~deadline max_iters cost with
        | `Done -> fin Status.Optimal
        | `Unbounded -> fin Status.Unbounded
        | `Iters -> fin Status.Iteration_limit
        | `Time -> fin Status.Time_limit
      end

(* Rebuild a sparse factorization around the saved basis [w]; [None]
   when the basis does not fit these rows or is singular. *)
let warm_state input (w : basis) =
  let e = memo_for input in
  let mat = e.mmat in
  let m = mat.sm_m and n = mat.sm_n in
  let art0 = mat.sm_art0 and ntot = mat.sm_ntot in
  if Array.length w.vstat <> ntot || Array.length w.vbasis <> m then None
  else begin
    let ok = ref true in
    Array.iter (fun b -> if b < 0 || b >= ntot then ok := false) w.vbasis;
    if not !ok then None
    else begin
      let qlo = Array.make ntot 0.0 and qhi = Array.make ntot 0.0 in
      Array.blit input.lo 0 qlo 0 n;
      Array.blit input.hi 0 qhi 0 n;
      for j = n to art0 - 1 do
        qhi.(j) <- infinity
      done;
      (* Artificials are pinned at zero in any warm solve; one that is
         basic in [w] marks a redundant row and keeps its zero value. *)
      let stat = Array.copy w.vstat in
      let vnb = Array.make ntot 0.0 in
      let basis = Array.copy w.vbasis in
      for j = art0 to ntot - 1 do
        if stat.(j) <> Basic then begin
          stat.(j) <- At_lower;
          vnb.(j) <- 0.0
        end
      done;
      (* Resolve nonbasic resting points against the (possibly changed)
         bounds. *)
      for j = 0 to art0 - 1 do
        if stat.(j) <> Basic then
          if
            qlo.(j) > neg_infinity
            && (stat.(j) = At_lower || qhi.(j) = infinity || qlo.(j) >= qhi.(j))
          then begin
            stat.(j) <- At_lower;
            vnb.(j) <- qlo.(j)
          end
          else if qhi.(j) < infinity then begin
            stat.(j) <- At_upper;
            vnb.(j) <- qhi.(j)
          end
          else if qlo.(j) > neg_infinity then begin
            stat.(j) <- At_lower;
            vnb.(j) <- qlo.(j)
          end
          else begin
            stat.(j) <- Free_nb;
            vnb.(j) <- 0.0
          end
      done;
      Array.iter (fun b -> stat.(b) <- Basic) basis;
      let srhs = Array.map (fun (_, _, r) -> r) input.rows in
      let st =
        { ss_m = m; ss_ntot = ntot; ss_art0 = art0; mat; qlo; qhi; srhs;
          sbasis = basis; sstat = stat; svnb = vnb;
          sxb = Array.make (max 1 m) 0.0; etas = Array.make 16 dummy_eta;
          neta = 0; sz = Array.make ntot 0.0; sy = Array.make (max 1 m) 0.0;
          sd = Array.make (max 1 m) 0.0; siters = 0; sdegen = 0;
          refactor_every = refactor_cadence m }
      in
      if refactorize_memo e w st then Some st else None
    end
  end

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
    else begin
      (* Most violated basic variable. *)
      let row = ref (-1) and viol = ref tol_feas and below = ref false in
      for i = 0 to m - 1 do
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
      if !row < 0 then `Feasible
      else begin
        let r = !row in
        let b = st.sbasis.(r) in
        let target = if !below then st.qlo.(b) else st.qhi.(b) in
        (* Fresh duals y in [sy] and the transformed row rho = B^-T e_r.
           Only columns that pass the eligibility test on rho need their
           reduced cost c_j - y A_j, computed in the same order as
           [reset_reduced_costs] computes it; [sz] is not touched, and
           [run_phase] refreshes it before it prices. *)
        reset_duals st c;
        Array.fill rho 0 m 0.0;
        rho.(r) <- 1.0;
        btran st rho;
        (* alpha_j = rho A_j for every column, accumulated row by row
           over the nonzeros of rho.  Each alpha_j sums its terms in
           increasing row order from +0.0, as [col_dot] does; the terms
           it skips are the signed zeros of rows where rho is zero, which
           leave such a sum unchanged. *)
        Array.fill alpha 0 ntot 0.0;
        let { rstart; rcol; rval } = row_matrix st.mat in
        for i = 0 to m - 1 do
          let ri = rho.(i) in
          if ri <> 0.0 then
            for k = rstart.(i) to rstart.(i + 1) - 1 do
              let j = Array.unsafe_get rcol k in
              Array.unsafe_set alpha j
                (Array.unsafe_get alpha j +. (Array.unsafe_get rval k *. ri))
            done
        done;
        let q = ref (-1) and best_ratio = ref infinity and best_w = ref 0.0 in
        for j = 0 to ntot - 1 do
          if st.sstat.(j) <> Basic && st.qlo.(j) < st.qhi.(j) then begin
            let w = alpha.(j) in
            let eligible =
              if Float.abs w <= tol_piv then false
              else
                match st.sstat.(j) with
                | Free_nb -> true
                | At_lower -> if !below then w < 0.0 else w > 0.0
                | At_upper -> if !below then w > 0.0 else w < 0.0
                | Basic -> false
            in
            if eligible then begin
              let zj = c.(j) -. col_dot st j st.sy in
              let ratio =
                match st.sstat.(j) with
                | Free_nb -> Float.abs (zj /. w)
                | _ ->
                    Float.max 0.0 (if !below then -.(zj /. w) else zj /. w)
              in
              if
                ratio < !best_ratio -. 1e-10
                || (ratio < !best_ratio +. 1e-10
                    && Float.abs w > Float.abs !best_w)
              then begin
                q := j;
                best_ratio := ratio;
                best_w := w
              end
            end
          end
        done;
        if !q < 0 then `Infeasible
        else begin
          let q = !q in
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
            st.sstat.(b) <- (if !below then At_lower else At_upper);
            st.sbasis.(r) <- q;
            st.sstat.(q) <- Basic;
            st.sxb.(r) <- st.svnb.(q) +. delta;
            push_eta st ~p:r d;
            if maybe_refactor st then loop () else `Iters
          end
        end
      end
    end
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
          match run_phase st ~deadline max_iters cost with
          | `Done ->
              (* [sy]/[sz] are current from the final pricing round. *)
              Some (fin Status.Optimal)
          | `Unbounded -> Some (fin Status.Unbounded)
          | `Time -> Some (fin Status.Time_limit)
          | `Iters -> None))

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
   columns themselves takes the eta file's rounding out of the row, so
   what callers build from it does not depend on how the basis happened
   to be factored. *)
let basis_rows input (b : basis) =
  match warm_state input b with
  | None -> None
  | Some st ->
      let m = st.ss_m in
      let row_of = Array.make st.ss_ntot (-1) in
      for i = 0 to m - 1 do
        row_of.(st.sbasis.(i)) <- i
      done;
      Some
        (fun c ->
          if row_of.(c) < 0 then invalid_arg "Simplex.basis_rows: not basic";
          let rho = Array.make m 0.0 in
          rho.(row_of.(c)) <- 1.0;
          btran st rho;
          let resid =
            Array.init m (fun i ->
                let c' = st.sbasis.(i) in
                (if c' = c then 1.0 else 0.0) -. col_dot st c' rho)
          in
          btran st resid;
          Array.iteri (fun i r -> rho.(i) <- rho.(i) +. r) resid;
          rho)

let check_certificate ?(tol = 1e-5) input result =
  let errs = ref [] in
  let err fmt = Fmt.kstr (fun s -> errs := s :: !errs) fmt in
  let n = input.nvars and m = Array.length input.rows in
  let x = result.x in
  if not (feasible ~tol input x) then err "primal point infeasible";
  (* Reduced costs recomputed from scratch in the minimization convention. *)
  let cmin j = if input.minimize then input.obj.(j) else -.input.obj.(j) in
  let zhat = Array.init n cmin in
  Array.iteri
    (fun i (terms, _, _) ->
      let y = result.duals.(i) in
      if y <> 0.0 then
        Array.iter (fun (j, c) -> zhat.(j) <- zhat.(j) -. (y *. c)) terms)
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
    let terms, sense, rhs = input.rows.(i) in
    let v = Array.fold_left (fun a (j, c) -> a +. (c *. x.(j))) 0.0 terms in
    let slack = rhs -. v in
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
