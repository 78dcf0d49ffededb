(* Random bounded LP/MILP instances for the differential solver oracles.

   Instances are generated as a first-class [spec] (not a [Model.t]
   directly) so counterexamples can be shrunk structurally — dropping
   rows and variables, zeroing coefficients, pulling right-hand sides
   toward 0 — and pretty-printed as the CPLEX LP text the repo already
   reads and writes.

   All numeric data is dyadic (integers and quarters), so instance
   construction itself introduces no rounding: any disagreement an
   oracle reports comes from the solver stack, not the generator. *)

open Check

type spec = {
  minimize : bool;
  vars : (float * float * bool) array;  (* lo, hi, integer *)
  obj : float array;                    (* one coefficient per var *)
  rows : ((int * float) array * Lp.Model.sense * float) array;
}

let to_model ?(name = "fuzz") spec =
  let m = Lp.Model.create ~name () in
  let vs =
    Array.mapi
      (fun j (lo, hi, integer) ->
        Lp.Model.add_var m ~lo ~hi ~integer (Printf.sprintf "v%d" j))
      spec.vars
  in
  Array.iteri
    (fun i (terms, sense, rhs) ->
      let expr =
        Lp.Model.Linexpr.sum
          (Array.to_list
             (Array.map
                (fun (j, c) -> Lp.Model.Linexpr.term c vs.(j))
                terms))
      in
      Lp.Model.add_constr m (Printf.sprintf "r%d" i) expr sense rhs)
    spec.rows;
  Lp.Model.set_objective m ~minimize:spec.minimize
    (Lp.Model.Linexpr.sum
       (Array.to_list
          (Array.mapi (fun j c -> Lp.Model.Linexpr.term c vs.(j)) spec.obj)));
  m

let pp ppf spec =
  Format.fprintf ppf "%s" (Lp.Lp_format.model_to_string (to_model spec))

(* ----------------------------------------------------------- generators *)

let sense : Lp.Model.sense Gen.t =
  Gen.choose [ Lp.Model.Le; Lp.Model.Ge; Lp.Model.Eq ]

let int_coeff rng = float_of_int (Gen.int_range (-5) 5 rng)

let quarter lo hi rng =
  (* Dyadic values in [lo, hi] with step 1/4: exact in binary floats. *)
  float_of_int (Gen.int_range (lo * 4) (hi * 4) rng) /. 4.0

let row ~nvars ~coeff rng =
  let terms = ref [] in
  Array.iter
    (fun j ->
      if Datasets.Prng.float rng < 0.7 then
        let c = coeff rng in
        if c <> 0.0 then terms := (j, c) :: !terms)
    (Array.init nvars Fun.id);
  (match !terms with
  | [] ->
      (* Keep at least one term so most rows actually constrain. *)
      let j = Gen.int_range 0 (nvars - 1) rng in
      let c = coeff rng in
      terms := [ (j, if c = 0.0 then 1.0 else c) ]
  | _ -> ());
  Array.of_list (List.rev !terms)

(* All-integer instances with small finite boxes: the whole feasible
   lattice can be enumerated (at most 5^5 points), so branch-and-bound
   answers are checked against ground truth. *)
let milp_small : spec Gen.t =
 fun rng ->
  let nvars = Gen.int_range 1 5 rng in
  let vars =
    Array.init nvars (fun _ ->
        let lo = float_of_int (Gen.int_range (-3) 1 rng) in
        let hi = lo +. float_of_int (Gen.int_range 0 4 rng) in
        (lo, hi, true))
  in
  let obj = Array.init nvars (fun _ -> float_of_int (Gen.int_range (-9) 9 rng)) in
  let nrows = Gen.int_range 0 5 rng in
  let rows =
    Array.init nrows (fun _ ->
        let terms = row ~nvars ~coeff:int_coeff rng in
        let s = sense rng in
        let rhs = float_of_int (Gen.int_range (-12) 12 rng) in
        (terms, s, rhs))
  in
  { minimize = Gen.bool rng; vars; obj; rows }

(* Continuous LPs with finite dyadic boxes: bounded by construction, so
   every solve terminates Optimal or Infeasible and the dual certificate
   is checkable. *)
let lp_bounded : spec Gen.t =
 fun rng ->
  let nvars = Gen.int_range 1 7 rng in
  let vars =
    Array.init nvars (fun _ ->
        let lo = quarter (-5) 1 rng in
        let hi = lo +. quarter 0 8 rng in
        (lo, hi, false))
  in
  let obj = Array.init nvars (fun _ -> quarter (-8) 8 rng) in
  let nrows = Gen.int_range 0 6 rng in
  let rows =
    Array.init nrows (fun _ ->
        let terms = row ~nvars ~coeff:(quarter (-4) 4) rng in
        let s = sense rng in
        let rhs = quarter (-10) 10 rng in
        (terms, s, rhs))
  in
  { minimize = Gen.bool rng; vars; obj; rows }

(* Mixed instances: some continuous columns, some integer, still
   bounded and small.  The integer lattice has at most 4^6 points, so it
   can be enumerated with one LP over the continuous columns per point. *)
let milp_mixed : spec Gen.t =
 fun rng ->
  let nvars = Gen.int_range 1 6 rng in
  let vars =
    Array.init nvars (fun _ ->
        let integer = Datasets.Prng.float rng < 0.6 in
        if integer then
          let lo = float_of_int (Gen.int_range (-2) 1 rng) in
          (lo, lo +. float_of_int (Gen.int_range 0 3 rng), true)
        else
          let lo = quarter (-4) 1 rng in
          (lo, lo +. quarter 0 6 rng, false))
  in
  let obj = Array.init nvars (fun _ -> quarter (-6) 6 rng) in
  let nrows = Gen.int_range 0 5 rng in
  let rows =
    Array.init nrows (fun _ ->
        let terms = row ~nvars ~coeff:int_coeff rng in
        let s = sense rng in
        let rhs = float_of_int (Gen.int_range (-10) 10 rng) in
        (terms, s, rhs))
  in
  { minimize = Gen.bool rng; vars; obj; rows }

(* ------------------------------------------------------------- shrinking *)

let remove_row spec i =
  {
    spec with
    rows = Array.of_list (List.filteri (fun k _ -> k <> i) (Array.to_list spec.rows));
  }

let remove_var spec j =
  let remap (terms, s, rhs) =
    let terms =
      Array.to_list terms
      |> List.filter_map (fun (k, c) ->
             if k = j then None else Some ((if k > j then k - 1 else k), c))
      |> Array.of_list
    in
    (terms, s, rhs)
  in
  {
    spec with
    vars = Array.of_list (List.filteri (fun k _ -> k <> j) (Array.to_list spec.vars));
    obj = Array.of_list (List.filteri (fun k _ -> k <> j) (Array.to_list spec.obj));
    rows = Array.map remap spec.rows;
  }

let shrink spec =
  let nrows = Array.length spec.rows and nvars = Array.length spec.vars in
  let candidates = ref [] in
  let push c = candidates := c :: !candidates in
  (* Pointwise numeric simplifications (emitted first into the list, so
     after the final reversal structural deletions lead). *)
  Array.iteri
    (fun j c -> if c <> 0.0 then push { spec with obj = (let o = Array.copy spec.obj in o.(j) <- 0.0; o) })
    spec.obj;
  Array.iteri
    (fun i (terms, s, rhs) ->
      if rhs <> 0.0 then
        push { spec with rows = (let r = Array.copy spec.rows in r.(i) <- (terms, s, 0.0); r) };
      Array.iteri
        (fun k _ ->
          let terms' =
            Array.of_list (List.filteri (fun k' _ -> k' <> k) (Array.to_list terms))
          in
          push { spec with rows = (let r = Array.copy spec.rows in r.(i) <- (terms', s, rhs); r) })
        terms)
    spec.rows;
  (* Structural deletions: rows first, then variables. *)
  if nvars > 1 then
    for j = nvars - 1 downto 0 do
      push (remove_var spec j)
    done;
  for i = nrows - 1 downto 0 do
    push (remove_row spec i)
  done;
  List.to_seq !candidates

let arb_of gen = Check.arb ~shrink ~pp gen
let arb_milp_small = arb_of milp_small
let arb_lp_bounded = arb_of lp_bounded
let arb_milp_mixed = arb_of milp_mixed
