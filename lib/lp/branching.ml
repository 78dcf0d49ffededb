(* Per-direction statistics are (sum, count) pairs rather than running
   means: the search order, and so the plans, depend on the exact float
   values readers get by dividing one by the other. *)
type t = {
  down : float array;  (* per-unit degradation sums, down branch *)
  up : float array;
  ndown : int array;
  nup : int array;
  mutable nobs : int;
}

let infeasible_degradation = 1e10

(* A candidate with fewer observations than this in either direction is
   unreliable and gets probed (SCIP's eta-rel), up to [sb_nvars] probes
   per node and never more than the caller's [budget]. *)
let reliability_threshold = 4
let sb_nvars = 8

let create ~nvars =
  {
    down = Array.make nvars 0.0;
    up = Array.make nvars 0.0;
    ndown = Array.make nvars 0;
    nup = Array.make nvars 0;
    nobs = 0;
  }

let observe t ~var ~up ~frac ~degradation =
  let dist = if up then 1.0 -. frac else frac in
  if dist > 1e-9 && Float.is_finite degradation then begin
    let per_unit =
      Float.min infeasible_degradation (Float.max 0.0 degradation /. dist)
    in
    let a, n = if up then (t.up, t.nup) else (t.down, t.ndown) in
    a.(var) <- a.(var) +. per_unit;
    n.(var) <- n.(var) + 1;
    t.nobs <- t.nobs + 1
  end

let mean sums counts var = sums.(var) /. float_of_int counts.(var)

let most_fractional int_ids tol x =
  let best = ref (-1) and score = ref tol in
  List.iter
    (fun j ->
      let f = x.(j) -. Float.floor x.(j) in
      let dist = Float.min f (1.0 -. f) in
      if dist > !score then begin
        score := dist;
        best := j
      end)
    int_ids;
  !best

(* Fractional candidates as (id, frac, distance-to-integer), most
   fractional first so probe budgets go to the most promising ones. *)
let candidates int_ids tol x =
  List.filter_map
    (fun j ->
      let f = x.(j) -. Float.floor x.(j) in
      let dist = Float.min f (1.0 -. f) in
      if dist > tol then Some (j, f, dist) else None)
    int_ids
  |> List.sort (fun (i, _, da) (j, _, db) ->
         match compare db da with 0 -> compare i j | c -> c)

let select t ~budget ~int_ids ~tol ~x ~probe =
  match candidates int_ids tol x with
  | [] -> -1
  | cands ->
      (* Strong branching: probe the most fractional unreliable candidates
         and fold the observed degradations in. *)
      let budget = ref (min sb_nvars budget) in
      List.iter
        (fun (j, f, _) ->
          if
            !budget > 0
            && min t.ndown.(j) t.nup.(j) < reliability_threshold
          then begin
            decr budget;
            let dn, up = probe j x.(j) in
            (match dn with
            | Some d -> observe t ~var:j ~up:false ~frac:f ~degradation:d
            | None -> ());
            match up with
            | Some d -> observe t ~var:j ~up:true ~frac:f ~degradation:d
            | None -> ()
          end)
        cands;
      if t.nobs = 0 then
        let j, _, _ = List.hd cands in
        j
      else begin
        (* Global mean per-unit degradations stand in for variables
           without their own history yet. *)
        let gsum = ref 0.0 and gn = ref 0 in
        let fold sums counts =
          Array.iteri
            (fun j n ->
              if n > 0 then begin
                gsum := !gsum +. mean sums counts j;
                incr gn
              end)
            counts
        in
        fold t.down t.ndown;
        fold t.up t.nup;
        let gmean = if !gn > 0 then !gsum /. float_of_int !gn else 1.0 in
        let eps = 1e-6 in
        let best = ref (-1) and best_score = ref neg_infinity
        and best_dist = ref 0.0 in
        List.iter
          (fun (j, f, dist) ->
            let dn = if t.ndown.(j) > 0 then mean t.down t.ndown j else gmean in
            let up = if t.nup.(j) > 0 then mean t.up t.nup j else gmean in
            let score =
              Float.max eps (dn *. f) *. Float.max eps (up *. (1.0 -. f))
            in
            if
              score > !best_score +. 1e-12
              || (score > !best_score -. 1e-12 && dist > !best_dist +. 1e-12)
            then begin
              best := j;
              best_score := score;
              best_dist := dist
            end)
          cands;
        !best
      end
