(* Differential oracles over the solver stack.

   Ground truth comes from three independent sources: exhaustive
   enumeration of small integer lattices (with one LP over the
   continuous columns per lattice point on mixed instances), the
   self-checking dual certificate ([Simplex.check_certificate], strong
   duality + complementary slackness re-verified from scratch, also on
   the elastic LP that certifies an [Infeasible] verdict), and pairwise
   agreement between paths that must be semantically equivalent (memo
   hits, worker counts). *)

open Check

let tol = 1e-6

let close a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs b)

let failf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Evaluate a spec row-by-row at an assignment (exact for the dyadic
   data the generators produce). *)
let row_value terms (x : float array) =
  Array.fold_left (fun acc (j, c) -> acc +. (c *. x.(j))) 0.0 terms

let point_feasible (spec : Gen_lp.spec) x =
  let ok = ref true in
  Array.iteri
    (fun j (lo, hi, _) -> if x.(j) < lo -. tol || x.(j) > hi +. tol then ok := false)
    spec.Gen_lp.vars;
  Array.iter
    (fun (terms, sense, rhs) ->
      let v = row_value terms x in
      match sense with
      | Lp.Model.Le -> if v > rhs +. tol then ok := false
      | Lp.Model.Ge -> if v < rhs -. tol then ok := false
      | Lp.Model.Eq -> if Float.abs (v -. rhs) > tol then ok := false)
    spec.Gen_lp.rows;
  !ok

let objective (spec : Gen_lp.spec) x =
  let acc = ref 0.0 in
  Array.iteri (fun j c -> acc := !acc +. (c *. x.(j))) spec.Gen_lp.obj;
  !acc

(* ---------------------------------------------------- enumeration oracle *)

(* Walk the whole integer lattice of a small all-integer box.  The
   generator caps the box at 5^5 points, so this is exact ground truth. *)
let enumerate (spec : Gen_lp.spec) =
  let n = Array.length spec.Gen_lp.vars in
  let x = Array.make n 0.0 in
  let best = ref None in
  let better obj =
    match !best with
    | None -> true
    | Some (b, _) -> if spec.Gen_lp.minimize then obj < b else obj > b
  in
  let rec go j =
    if j = n then begin
      if point_feasible spec x then begin
        let obj = objective spec x in
        if better obj then best := Some (obj, Array.copy x)
      end
    end
    else begin
      let lo, hi, _ = spec.Gen_lp.vars.(j) in
      let v = ref lo in
      while !v <= hi do
        x.(j) <- !v;
        go (j + 1);
        v := !v +. 1.0
      done
    end
  in
  go 0;
  !best

let exhaustive_options =
  { Lp.Milp.default_options with Lp.Milp.node_limit = 200_000 }

let milp_vs_enumeration spec =
  let res = Lp.Milp.solve ~options:exhaustive_options (Gen_lp.to_model spec) in
  match enumerate spec with
  | None ->
      if res.Lp.Milp.status = Lp.Status.Infeasible then Ok ()
      else
        failf "enumeration says infeasible, solver returned %s"
          (Lp.Status.to_string res.Lp.Milp.status)
  | Some (best, witness) -> (
      match res.Lp.Milp.status with
      | Lp.Status.Optimal ->
          if not (point_feasible spec res.Lp.Milp.x) then
            failf "solver point violates its own constraints (obj %g)"
              res.Lp.Milp.obj
          else if not (close (objective spec res.Lp.Milp.x) res.Lp.Milp.obj)
          then
            failf "reported objective %g but the point evaluates to %g"
              res.Lp.Milp.obj
              (objective spec res.Lp.Milp.x)
          else if not (close res.Lp.Milp.obj best) then
            failf "solver objective %g, enumeration ground truth %g (at %s)"
              res.Lp.Milp.obj best
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%g") witness)))
          else Ok ()
      | st ->
          failf "enumeration found optimum %g, solver returned %s" best
            (Lp.Status.to_string st))

(* --------------------------------------- mixed enumeration oracle *)

(* Mixed instances: walk the integer lattice (the generator caps it at
   4^6 points) and, with the integers fixed at each point, solve the LP
   over the continuous columns.  The best of those LPs is ground truth
   that neither cuts nor heuristics touch: a cut that cuts off an
   integer point makes the solver's optimum worse than it, and a
   heuristic point accepted without being feasible makes it better or
   fails [point_feasible]. *)
let enumerate_mixed (spec : Gen_lp.spec) model =
  let input = Lp.Simplex.of_model model in
  let lo = Array.copy input.Lp.Simplex.lo
  and hi = Array.copy input.Lp.Simplex.hi in
  let best = ref (Ok None) in
  let better obj =
    match !best with
    | Ok None -> true
    | Ok (Some (b, _)) -> if spec.Gen_lp.minimize then obj < b else obj > b
    | Error _ -> false
  in
  let rec go j =
    if j = Array.length spec.Gen_lp.vars then begin
      let r =
        Lp.Simplex.solve
          { input with Lp.Simplex.lo = Array.copy lo; hi = Array.copy hi }
      in
      match r.Lp.Simplex.status with
      | Lp.Status.Optimal ->
          if better r.Lp.Simplex.obj_value then
            best := Ok (Some (r.Lp.Simplex.obj_value, r.Lp.Simplex.x))
      | Lp.Status.Infeasible -> ()
      | st ->
          best :=
            failf "the LP at integer point %s returned %s"
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%g") lo)))
              (Lp.Status.to_string st)
    end
    else begin
      match spec.Gen_lp.vars.(j) with
      | vlo, vhi, true ->
          let v = ref vlo in
          while !v <= vhi do
            lo.(j) <- !v;
            hi.(j) <- !v;
            go (j + 1);
            v := !v +. 1.0
          done;
          lo.(j) <- vlo;
          hi.(j) <- vhi
      | _ -> go (j + 1)
    end
  in
  go 0;
  !best

let milp_mixed_vs_enumeration spec =
  let model = Gen_lp.to_model spec in
  let res = Lp.Milp.solve ~options:exhaustive_options model in
  match enumerate_mixed spec model with
  | Error _ as e -> e
  | Ok None ->
      if res.Lp.Milp.status = Lp.Status.Infeasible then Ok ()
      else
        failf "enumeration says infeasible, solver returned %s"
          (Lp.Status.to_string res.Lp.Milp.status)
  | Ok (Some (best, witness)) -> (
      let x = res.Lp.Milp.x in
      match res.Lp.Milp.status with
      | Lp.Status.Optimal ->
          if not (point_feasible spec x && Lp.Milp.integral model x) then
            failf "solver point is not a feasible mixed-integer point (obj %g)"
              res.Lp.Milp.obj
          else if not (close (objective spec x) res.Lp.Milp.obj) then
            failf "reported objective %g but the point evaluates to %g"
              res.Lp.Milp.obj (objective spec x)
          else if not (close res.Lp.Milp.obj best) then
            failf "solver objective %g, enumeration ground truth %g (at %s)"
              res.Lp.Milp.obj best
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%g") witness)))
          else Ok ()
      | st ->
          failf "enumeration found optimum %g, solver returned %s" best
            (Lp.Status.to_string st))

(* ------------------------------------------- node-limited soundness *)

(* A solve cut short by [node_limit] still owes a sound answer: its
   bound may not pass the enumerated optimum and its point must be a
   feasible, integral point worth the reported objective.  A budget stop
   shows as either no incumbent ([Node_limit]) or an open node below it
   (a positive gap), and only with [nodes = l]; a solve that does not
   stop closed its tree and must report the enumerated optimum, or
   [Infeasible] exactly when there is none.  Strong branching probes no
   more candidates than the budget has nodes left, so the solve at
   budget [l] need not explore the first [l] nodes of the unlimited tree
   and may close sooner.  Its root is the unlimited tree's root all the
   same, so when that tree has more than one node the solve at budget 1
   must stop; a tree that loses the last node's children ends there as
   exhausted instead, with gap 0 or a wrong [Infeasible].  About 55 of 56
   mixed specs close at the root, so the generator draws until the
   default solve explores more than one node. *)
let milp_branching : Gen_lp.spec Gen.t =
 fun rng ->
  let rec draw k =
    let spec = Gen_lp.milp_mixed rng in
    if k = 0 || (Lp.Milp.solve (Gen_lp.to_model spec)).Lp.Milp.nodes > 1 then
      spec
    else draw (k - 1)
  in
  draw 2000

let arb_milp_branching =
  Check.arb ~shrink:Gen_lp.shrink ~pp:Gen_lp.pp milp_branching

let milp_node_limited_vs_enumeration spec =
  let model = Gen_lp.to_model spec in
  let full = Lp.Milp.solve ~options:exhaustive_options model in
  (* Objective values in the minimising sense. *)
  let min_sense v = if spec.Gen_lp.minimize then v else -.v in
  let le a b = min_sense a <= min_sense b +. (tol *. (1.0 +. Float.abs b)) in
  match enumerate_mixed spec model with
  | Error _ as e -> e
  | Ok truth ->
      let rec check = function
        | [] -> Ok ()
        | limit :: limits -> (
          let res =
            Lp.Milp.solve
              ~options:{ Lp.Milp.default_options with Lp.Milp.node_limit = limit }
              model
          in
          let x = res.Lp.Milp.x and obj = res.Lp.Milp.obj in
          let has_point = Array.length x > 0 in
          let stopped =
            res.Lp.Milp.status = Lp.Status.Node_limit || res.Lp.Milp.gap > 0.0
          in
          let fail fmt =
            Printf.ksprintf
              (fun s ->
                Error
                  (Printf.sprintf "node_limit %d (%s, %d nodes): %s" limit
                     (Lp.Status.to_string res.Lp.Milp.status)
                     res.Lp.Milp.nodes s))
              fmt
          in
          let verdict =
            if res.Lp.Milp.nodes > limit then fail "explored past the budget"
            else if stopped && res.Lp.Milp.nodes < limit then
              fail "stopped short of the budget (gap %g)" res.Lp.Milp.gap
            else if limit = 1 && full.Lp.Milp.nodes > 1 && not stopped then
              fail "the unlimited tree has %d nodes, but the root-only solve \
                    did not stop on the budget (gap %g)"
                full.Lp.Milp.nodes res.Lp.Milp.gap
            else if
              has_point && not (point_feasible spec x && Lp.Milp.integral model x)
            then fail "point is not a feasible mixed-integer point (obj %g)" obj
            else if has_point && not (close (objective spec x) obj) then
              fail "reported objective %g but the point evaluates to %g" obj
                (objective spec x)
            else
              match truth with
              | None ->
                  if has_point then fail "point reported on an infeasible spec"
                  else Ok ()
              | Some (best, _) ->
                  if res.Lp.Milp.status = Lp.Status.Infeasible then
                    fail "enumeration found optimum %g" best
                  else if has_point && not (le best obj) then
                    fail "objective %g beats the enumerated optimum %g" obj best
                  else if
                    Float.is_finite res.Lp.Milp.bound
                    && not (le res.Lp.Milp.bound best)
                  then
                    fail "bound %g passes the enumerated optimum %g"
                      res.Lp.Milp.bound best
                  else if
                    res.Lp.Milp.status = Lp.Status.Optimal && not (close obj best)
                  then fail "optimal %g, enumerated optimum %g" obj best
                  else Ok ()
          in
          match verdict with
          | Error _ as e -> e
          | Ok () -> check limits)
      in
      (* Budget 9 reaches the 8-probe strong-branching cap at the root,
         and the probes then taper with the nodes left. *)
      check [ 1; 2; 3; 4; 9 ]

(* ------------------------------------------------------ duality oracle *)

(* The elastic LP of [input]: every row gets non-negative violation
   columns (one for an inequality, two for an equality) and the objective
   minimises their sum.  It is feasible and bounded whenever the box is
   non-empty, so it solves to a certified optimum, and [input] is
   infeasible exactly when that optimum is positive. *)
let elastic (input : Lp.Simplex.input) =
  let n = input.Lp.Simplex.nvars in
  let next = ref n in
  let viol () =
    let j = !next in
    incr next;
    j
  in
  let rows =
    Array.map
      (fun (r : Lp.Model.row) ->
        let ids, coefs =
          match r.sense with
          | Lp.Model.Le -> ([| viol () |], [| -1.0 |])
          | Lp.Model.Ge -> ([| viol () |], [| 1.0 |])
          | Lp.Model.Eq ->
              let p = viol () in
              ([| p; viol () |], [| 1.0; -1.0 |])
        in
        { r with
          ids = Array.append r.ids ids;
          coefs = Array.append r.coefs coefs })
      input.Lp.Simplex.rows
  in
  let k = !next - n in
  {
    Lp.Simplex.nvars = !next;
    lo = Array.append input.Lp.Simplex.lo (Array.make k 0.0);
    hi = Array.append input.Lp.Simplex.hi (Array.make k infinity);
    obj = Array.append (Array.make n 0.0) (Array.make k 1.0);
    obj_const = 0.0;
    minimize = true;
    rows;
  }

let lp_certificate spec =
  let input = Lp.Simplex.of_model (Gen_lp.to_model spec) in
  let r = Lp.Simplex.solve input in
  match r.Lp.Simplex.status with
  | Lp.Status.Optimal -> (
      if not (Lp.Simplex.feasible input r.Lp.Simplex.x) then
        failf "optimal point infeasible (obj %g)" r.Lp.Simplex.obj_value
      else
        match Lp.Simplex.check_certificate input r with
        | [] -> Ok ()
        | errs ->
            failf "certificate rejected: %s" (String.concat "; " errs))
  | Lp.Status.Infeasible -> (
      (* Certify the verdict: the least total row violation is positive. *)
      let el = elastic input in
      let e = Lp.Simplex.solve el in
      if e.Lp.Simplex.status <> Lp.Status.Optimal then
        failf "elastic LP returned %s" (Lp.Status.to_string e.Lp.Simplex.status)
      else
        match Lp.Simplex.check_certificate el e with
        | _ :: _ as errs ->
            failf "elastic certificate rejected: %s" (String.concat "; " errs)
        | [] ->
            if e.Lp.Simplex.obj_value > 1e-7 then Ok ()
            else
              failf "infeasible verdict, but elastic optimum is %g"
                e.Lp.Simplex.obj_value)
  | st -> failf "unexpected status %s on a bounded LP" (Lp.Status.to_string st)

(* --------------------------------------------- warm-start memo oracle *)

(* [Simplex] keeps the last matrix and starting factorization per domain;
   a solve that finds them must give exactly what a solve that rebuilds
   them gives.  A random bounded LP and its root basis, then [steps]
   cumulative bound tightenings, each warm-solved from the root basis or
   from the previous step's basis: once right after a solve from the
   other of the two, once more at once, and once after an unrelated
   solve has evicted the memo.  All three must agree bit for bit. *)

type memo_step = { var : int; raise_lo : bool; frac : float; from_root : bool }
type memo_case = { lp : Gen_lp.spec; steps : memo_step array }

let pp_memo_case ppf c =
  Format.fprintf ppf "steps=[%s]@ %a"
    (String.concat ";"
       (List.map
          (fun s ->
            Printf.sprintf "v%d%s%g%s" s.var
              (if s.raise_lo then ">=" else "<=")
              s.frac
              (if s.from_root then "" else "*"))
          (Array.to_list c.steps)))
    Gen_lp.pp c.lp

let gen_memo_case rng =
  let lp = Gen_lp.lp_bounded rng in
  let step rng =
    {
      var = Gen.int_range 0 99 rng;
      raise_lo = Gen.bool rng;
      frac = float_of_int (Gen.int_range 0 4 rng) /. 4.0;
      from_root = Gen.bool rng;
    }
  in
  { lp; steps = Gen.array ~max:8 step rng }

let arb_memo_case =
  Check.arb ~pp:pp_memo_case
    ~shrink:(fun c -> Seq.map (fun lp -> { c with lp }) (Gen_lp.shrink c.lp))
    gen_memo_case

let evicting_lp =
  {
    Lp.Simplex.nvars = 2;
    lo = [| 0.0; 0.0 |];
    hi = [| 3.0; 3.0 |];
    obj = [| -1.0; -2.0 |];
    obj_const = 0.0;
    minimize = true;
    rows =
      [| { Lp.Model.ids = [| 0; 1 |]; coefs = [| 1.0; 1.0 |]; sense = Lp.Model.Le;
           rhs = 4.0 } |];
  }

(* Bit-level equality: [=] would call two NaN objectives different and
   0.0 equal to -0.0. *)
let same_result (a : Lp.Simplex.result) (b : Lp.Simplex.result) =
  let bits x = Int64.bits_of_float x in
  let floats u v =
    Array.length u = Array.length v
    && Array.for_all2 (fun x y -> bits x = bits y) u v
  in
  a.Lp.Simplex.status = b.Lp.Simplex.status
  && bits a.Lp.Simplex.obj_value = bits b.Lp.Simplex.obj_value
  && floats a.Lp.Simplex.x b.Lp.Simplex.x
  && floats a.Lp.Simplex.duals b.Lp.Simplex.duals
  && floats a.Lp.Simplex.reduced_costs b.Lp.Simplex.reduced_costs
  && a.Lp.Simplex.iterations = b.Lp.Simplex.iterations
  && a.Lp.Simplex.basis = b.Lp.Simplex.basis
  && a.Lp.Simplex.warm_started = b.Lp.Simplex.warm_started

let warm_memo_equivalence c =
  let input = Lp.Simplex.of_model (Gen_lp.to_model c.lp) in
  let root = Lp.Simplex.solve ~want_basis:true input in
  match root.Lp.Simplex.basis with
  | None -> Ok ()
  | Some root_basis ->
      let n = input.Lp.Simplex.nvars in
      let lo = Array.copy input.Lp.Simplex.lo
      and hi = Array.copy input.Lp.Simplex.hi in
      let last = ref root_basis in
      let rec go k =
        if k = Array.length c.steps then Ok ()
        else begin
          let s = c.steps.(k) in
          let j = s.var mod n in
          let v = lo.(j) +. (s.frac *. (hi.(j) -. lo.(j))) in
          if s.raise_lo then lo.(j) <- v else hi.(j) <- v;
          let inp =
            { input with Lp.Simplex.lo = Array.copy lo; hi = Array.copy hi }
          in
          let warm, other =
            if s.from_root then (root_basis, !last) else (!last, root_basis)
          in
          (* The other basis's factorization is in the memo when [warm]'s
             first solve looks; its second solve finds its own. *)
          ignore (Lp.Simplex.solve ~warm:other inp);
          let first = Lp.Simplex.solve ~warm inp in
          let kept = Lp.Simplex.solve ~warm inp in
          ignore (Lp.Simplex.solve ~want_basis:true evicting_lp);
          let rebuilt = Lp.Simplex.solve ~warm inp in
          let differs what (r : Lp.Simplex.result) =
            failf "step %d: %s gave obj %h in %d iterations, rebuilt %h in %d"
              k what r.Lp.Simplex.obj_value r.Lp.Simplex.iterations
              rebuilt.Lp.Simplex.obj_value rebuilt.Lp.Simplex.iterations
          in
          if not (same_result first rebuilt) then differs "after another basis" first
          else if not (same_result kept rebuilt) then differs "memo hit" kept
          else begin
            Option.iter (fun b -> last := b) kept.Lp.Simplex.basis;
            go (k + 1)
          end
        end
      in
      go 0

(* ------------------------------------------------ cut dedup oracle *)

(* [Cuts.keep_fresh] drops repeated root cuts without printing them.  The
   reference is the filter it replaced: each cut rendered to a key (sense,
   rhs and every term at [%.9g]) and kept when its key is new.  A case is
   a few rounds of cuts drawn to hit every edge of "prints the same":
   exact repeats, values moved below and above nine significant digits or
   by one ulp, 0.0 against -0.0, the same support under another sense,
   and supports shifted or reordered.  Both filters, each keeping its
   seen set across rounds, must keep the same cuts in the same order. *)

type cut = Lp.Model.row

let reference_cut_key ({ ids; coefs; sense; rhs } : cut) =
  let b = Buffer.create 64 in
  (match sense with
  | Lp.Model.Le -> Buffer.add_char b 'L'
  | Lp.Model.Ge -> Buffer.add_char b 'G'
  | Lp.Model.Eq -> Buffer.add_char b 'E');
  Buffer.add_string b (Printf.sprintf "%.9g" rhs);
  Array.iteri
    (fun k j -> Buffer.add_string b (Printf.sprintf ";%d:%.9g" j coefs.(k)))
    ids;
  Buffer.contents b

let reference_dedup rounds =
  let seen = Hashtbl.create 64 in
  List.map
    (List.filter (fun cut ->
         let k = reference_cut_key cut in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.replace seen k ();
           true
         end))
    rounds

let pp_cut ppf ({ ids; coefs; sense; rhs } : cut) =
  Format.fprintf ppf "%s%h[%s]"
    (match sense with Lp.Model.Le -> "<=" | Lp.Model.Ge -> ">=" | Lp.Model.Eq -> "=")
    rhs
    (String.concat " "
       (Array.to_list (Array.mapi (fun k j -> Printf.sprintf "%d:%h" j coefs.(k)) ids)))

let pp_rounds ppf rounds =
  List.iteri
    (fun k round ->
      Format.fprintf ppf "@[<hov 2>round %d:@ %a@]@ " k
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_cut)
        round)
    rounds

(* Values on zero or small integers, on or near a nine-digit rounding
   tie or a power of ten, at magnitudes from subnormal to 1e30, besides
   plain random ones. *)
let gen_value : float Gen.t =
  Gen.frequency
    [
      (3, Gen.float_range (-10.0) 10.0);
      (2, Gen.map float_of_int (Gen.int_range (-3) 3));
      (1, Gen.choose [ 0.0; -0.0 ]);
      ( 1,
        Gen.choose
          [ 0.1234567885; -2.0000000005; 1e-9; 123456789.5; 1000000005.0;
            -12345678950.0; 9.999999995; -99999999.95; 1.000000005; 1e-15;
            2.5e25; 5e-324; 1e300; infinity ] );
      ( 1,
        Gen.map2
          (fun m e -> m *. (10.0 ** float_of_int e))
          (Gen.float_range (-10.0) 10.0)
          (Gen.int_range (-20) 32) );
    ]

let gen_fresh_cut : cut Gen.t =
 fun rng ->
  let support =
    List.filter (fun _ -> Gen.int_range 0 2 rng = 0) (List.init 12 Fun.id)
  in
  let support = if support = [] then [ Gen.int_range 0 11 rng ] else support in
  let coefs = Array.of_list (List.map (fun _ -> gen_value rng) support) in
  let rhs = gen_value rng in
  let sense = Gen.choose [ Lp.Model.Ge; Lp.Model.Ge; Lp.Model.Le; Lp.Model.Eq ] rng in
  { Lp.Model.ids = Array.of_list support; coefs; sense; rhs }

(* One value moved: by a relative step below or above nine significant
   digits, by one ulp, across the sign of zero, or to its negation. *)
let gen_nudge : (float -> float) Gen.t =
  Gen.oneof
    [
      Gen.map
        (fun e v -> v *. (1.0 +. e))
        (Gen.choose [ 1e-13; 1e-11; 4e-10; 1e-9; 6e-9; 1.2e-8; 3e-8; 1e-7 ]);
      Gen.choose [ Float.succ; Float.pred ];
      Gen.return (fun v -> if v = 0.0 then -.v else v);
      Gen.return (fun v -> if v = 0.0 then -.v else 0.0);
      Gen.return Float.neg;
    ]

let gen_variant (cut : cut) : cut Gen.t =
 fun rng ->
  match Gen.int_range 0 5 rng with
  | 0 -> { cut with ids = cut.ids }
  | 1 -> { cut with rhs = gen_nudge rng cut.rhs }
  | 2 ->
      let k = Gen.int_range 0 (Array.length cut.ids - 1) rng in
      let f = gen_nudge rng in
      { cut with coefs = Array.mapi (fun i c -> if i = k then f c else c) cut.coefs }
  | 3 ->
      { cut with sense = Gen.choose [ Lp.Model.Le; Lp.Model.Ge; Lp.Model.Eq ] rng }
  | 4 ->
      let k = Gen.int_range 0 (Array.length cut.ids - 1) rng in
      { cut with ids = Array.mapi (fun i j -> if i = k then j + 12 else j) cut.ids }
  | _ ->
      let n = Array.length cut.ids in
      { cut with
        ids = Array.init n (fun i -> cut.ids.(n - 1 - i));
        coefs = Array.init n (fun i -> cut.coefs.(n - 1 - i)) }

let gen_rounds : cut list list Gen.t =
 fun rng ->
  let drawn = ref [||] in
  let gen_cut rng =
    let cut =
      if Array.length !drawn = 0 || Gen.int_range 0 2 rng = 0 then
        gen_fresh_cut rng
      else
        gen_variant
          !drawn.(Gen.int_range 0 (Array.length !drawn - 1) rng) rng
    in
    drawn := Array.append !drawn [| cut |];
    cut
  in
  List.init (Gen.int_range 1 4 rng) (fun _ -> Gen.list ~max:12 gen_cut rng)

let arb_rounds =
  Check.arb ~pp:pp_rounds ~shrink:(Shrink.list ~elt:Shrink.list) gen_rounds

(* Positions in [round] of the cuts a filter kept, which are a
   subsequence of it. *)
let kept_positions round kept =
  let rec go i round kept =
    match (round, kept) with
    | c :: round', k :: kept' when c == k -> i :: go (i + 1) round' kept'
    | _ :: round', _ -> go (i + 1) round' kept
    | [], _ -> []
  in
  go 0 round kept

let cut_dedup_equivalence rounds =
  let seen = Lp.Cuts.seen () in
  let got = List.map (fun r -> kept_positions r (Lp.Cuts.keep_fresh seen r)) rounds in
  let want = List.map2 kept_positions rounds (reference_dedup rounds) in
  let show ps = String.concat "," (List.map string_of_int ps) in
  let rec check k = function
    | [] -> Ok ()
    | (g, w) :: rest ->
        if g = w then check (k + 1) rest
        else failf "round %d: keep_fresh kept [%s], the reference [%s]" k (show g) (show w)
  in
  check 0 (List.combine got want)

(* ------------------------------------------- pool worker-count oracle *)

(* Random batches of line-estate scenarios through the service pool at
   workers 0 (inline, fully deterministic) vs 2 and 4: result lines must
   be identical once delivery-only fields (timings, cache disposition)
   are stripped. *)

type pool_case = { penalties : float list; frac : float; workers : int }

let pp_pool_case ppf c =
  Format.fprintf ppf "penalties=[%s] frac_at_0=%g workers=%d"
    (String.concat ";" (List.map (Printf.sprintf "%g") c.penalties))
    c.frac c.workers

let gen_pool_case : pool_case Gen.t =
 fun rng ->
  let penalties =
    Gen.list ~max:2 (Gen.choose [ 0.0; 40.0; 80.0; 120.0 ]) rng
  in
  let penalties = if penalties = [] then [ 0.0 ] else penalties in
  {
    penalties;
    frac = Gen.choose [ 0.25; 0.5; 0.75 ] rng;
    workers = Gen.choose [ 2; 4 ] rng;
  }

let arb_pool_case =
  Check.arb ~pp:pp_pool_case
    ~shrink:(fun c ->
      match c.penalties with
      | _ :: (_ :: _ as rest) -> Seq.return { c with penalties = rest }
      | _ -> Seq.empty)
    gen_pool_case

(* A result line without the fields that depend on delivery (timings,
   cache hit) rather than on the job. *)
let strip_delivery line =
  match Service.Json.parse line with
  | Ok (Service.Json.Obj fields) ->
      Service.Json.to_string
        (Service.Json.Obj
           (List.filter
              (fun (k, _) -> k <> "queue_s" && k <> "solve_s" && k <> "cache")
              fields))
  | _ -> line

let pool_lines ~workers jobs =
  Service.Pool.with_pool ~workers ~cache_capacity:16 (fun pool ->
      List.map
        (fun r -> strip_delivery (Service.Batch.result_to_line r))
        (Service.Pool.run_batch pool jobs))

let pool_workers_equivalence c =
  let jobs =
    List.map
      (fun p ->
        Service.Job.v
          ~milp:
            {
              Service.Job.no_overrides with
              Service.Job.node_limit = Some 2;
              time_limit = Some 20.0;
            }
          (Harness.Line_jobs.estate ~penalty:p
             {
               Harness.Line_estate.default with
               Harness.Line_estate.n_groups = 10;
               frac_at_0 = c.frac;
             }))
      c.penalties
  in
  let seq = pool_lines ~workers:0 jobs in
  let par = pool_lines ~workers:c.workers jobs in
  if List.length seq <> List.length par then
    failf "line counts differ: %d sequential vs %d at workers=%d"
      (List.length seq) (List.length par) c.workers
  else
    let rec cmp i = function
      | [], [] -> Ok ()
      | a :: ra, b :: rb ->
          if a <> b then
            failf "line %d differs at workers=%d:\n  seq: %s\n  par: %s" i
              c.workers a b
          else cmp (i + 1) (ra, rb)
      | _ -> assert false
    in
    cmp 0 (seq, par)

(* ---------------------------------------- local search equivalence *)

(* [Local_search.improve] screens each candidate move against incremental
   loads and sends only the survivors to the exact check.  The reference
   below is the plain hill-climb it replaced: every candidate copied,
   validated and priced by [Evaluate.plan].  Both must accept the same
   moves in the same order, so the plans and move counts must be equal on
   any estate: line estates (identical groups, so zero-delta swaps abound)
   and synthetic ones (volume discounts), non-DR and DR plans, pins and
   forbids, omega, allowed-DC lists and one-sided shared-risk lists, swaps
   on and off. *)

let reference_improve ?(max_rounds = 6) ?(swaps = true)
    ?(may_place = fun _ _ -> true) ?omega asis (plan : Etransform.Placement.t) =
  let open Etransform in
  let m = Asis.num_groups asis and n = Asis.num_targets asis in
  let plan_cost p = Evaluate.total (Evaluate.plan asis p).Evaluate.cost in
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
  let current = ref plan and cost = ref (plan_cost plan) and moves = ref 0 in
  let try_plan p' =
    Placement.validate asis p' = []
    && omega_ok p'
    &&
    let c' = plan_cost p' in
    c' < !cost -. 1e-6
    && begin
         current := p';
         cost := c';
         incr moves;
         true
       end
  in
  let round () =
    let improved = ref false in
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        let p = !current in
        if p.Placement.primary.(i) <> j
           && App_group.allowed asis.Asis.groups.(i) j
           && may_place i j
        then begin
          let primary = Array.copy p.Placement.primary in
          primary.(i) <- j;
          let secondary =
            Option.map
              (fun sec ->
                let sec = Array.copy sec in
                if sec.(i) = j then sec.(i) <- p.Placement.primary.(i);
                sec)
              p.Placement.secondary
          in
          if try_plan { Placement.primary; secondary } then
            improved := true
        end
      done
    done;
    if !current.Placement.secondary <> None then
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let p = !current in
          match p.Placement.secondary with
          | Some sec
            when sec.(i) <> j
                 && p.Placement.primary.(i) <> j
                 && App_group.allowed asis.Asis.groups.(i) j ->
              let sec' = Array.copy sec in
              sec'.(i) <- j;
              if try_plan { p with Placement.secondary = Some sec' } then
                improved := true
          | _ -> ()
        done
      done;
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
            let primary = Array.copy p.Placement.primary in
            primary.(i) <- jk;
            primary.(k) <- ji;
            if try_plan { p with Placement.primary } then improved := true
          end
        done
      done;
    !improved
  in
  let rec loop r = if r > 0 && round () then loop (r - 1) in
  loop max_rounds;
  (!current, !moves)

type ls_case = {
  ls_seed : int;
  ls_line : bool;         (* line estate, else synthetic *)
  ls_groups : int;
  ls_sites : int;
  ls_tight : bool;        (* capacity close to the load *)
  ls_dr : bool;           (* DR plans, with shared pools *)
  ls_greedy : bool;       (* start from the greedy plan, else random *)
  ls_pins : int;          (* pins plus forbids behind may_place *)
  ls_omega : float option;
  ls_allowed : bool;
  ls_avoid : bool;
  ls_swaps : bool;
}

let pp_ls_case ppf c =
  Format.fprintf ppf
    "seed=%d %s m=%d n=%d tight=%b dr=%b greedy=%b pins=%d omega=%s \
     allowed=%b avoid=%b swaps=%b"
    c.ls_seed
    (if c.ls_line then "line" else "synth")
    c.ls_groups c.ls_sites c.ls_tight c.ls_dr c.ls_greedy c.ls_pins
    (match c.ls_omega with None -> "-" | Some w -> Printf.sprintf "%g" w)
    c.ls_allowed c.ls_avoid c.ls_swaps

let gen_ls_case : ls_case Gen.t =
 fun rng ->
  let ls_sites = Gen.int_range 2 7 rng in
  {
    ls_seed = Gen.int_range 0 1_000_000 rng;
    ls_line = Gen.bool rng;
    ls_groups = Gen.int_range 2 18 rng;
    ls_sites;
    ls_tight = Gen.bool rng;
    ls_dr = Gen.bool rng;
    ls_greedy = Gen.bool rng;
    ls_pins = Gen.choose [ 0; 0; 2; 5 ] rng;
    ls_omega =
      Gen.choose
        [ None; None; Some (1.5 /. float_of_int ls_sites); Some 0.5 ]
        rng;
    ls_allowed = Gen.bool rng;
    ls_avoid = Gen.bool rng;
    ls_swaps = Gen.choose [ true; true; false ] rng;
  }

let arb_ls_case =
  Check.arb ~pp:pp_ls_case
    ~shrink:(fun c ->
      List.to_seq
        (List.filter
           (fun c' -> c' <> c)
           [
             { c with ls_groups = max 2 (c.ls_groups / 2) };
             { c with ls_groups = max 2 (c.ls_groups - 1) };
             { c with ls_pins = 0 };
             { c with ls_omega = None };
             { c with ls_allowed = false };
             { c with ls_avoid = false };
             { c with ls_swaps = false };
           ]))
    gen_ls_case

(* The estate, start plan and may_place of a case, all drawn from its
   seed. *)
let ls_instance c =
  let open Etransform in
  let rng = Datasets.Prng.create c.ls_seed in
  let n = c.ls_sites in
  (* Synthetic estates may split a group, so m is read back below. *)
  let servers = Array.init c.ls_groups (fun _ -> 1 + Datasets.Prng.int rng 6) in
  let total = Array.fold_left ( + ) 0 servers in
  let need = if c.ls_dr then 2 * total else total in
  let cap = max 6 ((if c.ls_tight then 13 else 30) * need / (10 * n)) in
  let base =
    if c.ls_line then
      Harness.Line_estate.make
        {
          Harness.Line_estate.default with
          Harness.Line_estate.n_dcs = n;
          n_groups = c.ls_groups;
          capacity = cap;
          frac_at_0 = Datasets.Prng.float rng;
          latency_penalty =
            Harness.Line_estate.banded_penalty
              (Datasets.Prng.pick rng [| 0.0; 40.0; 120.0 |]);
        }
    else
      Datasets.Synth.generate
        {
          Datasets.Synth.default with
          Datasets.Synth.seed = c.ls_seed;
          n_groups = c.ls_groups;
          n_current = 3;
          n_targets = n;
          total_servers = total;
          capacity_range = (cap, cap + (cap / 2));
        }
  in
  let m = Asis.num_groups base in
  let groups =
    Array.mapi
      (fun i (g : App_group.t) ->
        (* Line groups are identical; keep about half of them that way. *)
        let servers =
          if c.ls_line && Datasets.Prng.float rng < 0.5 then servers.(i)
          else g.App_group.servers
        in
        let allowed_dcs =
          if c.ls_allowed && Datasets.Prng.float rng < 0.3 then
            Some
              (Array.of_list
                 (List.filter
                    (fun j -> j = i mod n || Datasets.Prng.float rng < 0.5)
                    (List.init n Fun.id)))
          else g.App_group.allowed_dcs
        in
        let colocate_avoid =
          if c.ls_avoid && m > 1 && Datasets.Prng.float rng < 0.3 then
            [ (i + 1 + Datasets.Prng.int rng (m - 1)) mod m ]
          else []
        in
        { g with App_group.servers; allowed_dcs; colocate_avoid })
      base.Asis.groups
  in
  let asis = { base with Asis.groups } in
  let admissible i =
    List.filter (App_group.allowed groups.(i)) (List.init n Fun.id)
  in
  let random_plan () =
    (* First fit from a random offset, so most starts fit. *)
    let load = Array.make n 0 in
    let primary =
      Array.init m (fun i ->
          let choices = Array.of_list (admissible i) in
          let k = Array.length choices in
          let off = Datasets.Prng.int rng k in
          let pick = ref choices.(off) in
          (try
             for t = 0 to k - 1 do
               let j = choices.((off + t) mod k) in
               if load.(j) + groups.(i).App_group.servers <= cap then begin
                 pick := j;
                 raise Exit
               end
             done
           with Exit -> ());
          load.(!pick) <- load.(!pick) + groups.(i).App_group.servers;
          !pick)
    in
    Placement.non_dr primary
  in
  let start =
    let p =
      if c.ls_greedy then
        try if c.ls_dr then Greedy.plan_dr asis else Greedy.plan asis
        with Failure _ -> random_plan ()
      else random_plan ()
    in
    match (c.ls_dr, p.Placement.secondary) with
    | false, _ -> Placement.non_dr p.Placement.primary
    | true, Some _ -> p
    | true, None ->
        let secondary =
          Array.map
            (fun a -> (a + 1 + Datasets.Prng.int rng (n - 1)) mod n)
            p.Placement.primary
        in
        Placement.with_dr ~primary:p.Placement.primary ~secondary ()
  in
  let pinned = Hashtbl.create 8 and banned = Hashtbl.create 8 in
  for _ = 1 to c.ls_pins do
    let i = Datasets.Prng.int rng m and j = Datasets.Prng.int rng n in
    if Datasets.Prng.float rng < 0.5 then Hashtbl.replace pinned i j
    else Hashtbl.replace banned (i, j) ()
  done;
  let may_place i j =
    (not (Hashtbl.mem banned (i, j)))
    && match Hashtbl.find_opt pinned i with None -> true | Some j' -> j = j'
  in
  (asis, start, may_place)

let local_search_equivalence c =
  let asis, start, may_place = ls_instance c in
  let swaps = c.ls_swaps and omega = c.ls_omega in
  let (fast : Etransform.Placement.t), fast_moves =
    Etransform.Local_search.improve ~swaps ~may_place ?omega asis start
  in
  let slow, slow_moves =
    reference_improve ~swaps ~may_place ?omega asis start
  in
  let show a =
    String.concat "," (List.map string_of_int (Array.to_list a))
  in
  if fast_moves <> slow_moves then
    failf "improve made %d moves, reference %d" fast_moves slow_moves
  else if fast.Etransform.Placement.primary <> slow.Etransform.Placement.primary
  then
    failf "primaries differ: improve [%s], reference [%s]"
      (show fast.Etransform.Placement.primary)
      (show slow.Etransform.Placement.primary)
  else if
    fast.Etransform.Placement.secondary <> slow.Etransform.Placement.secondary
  then failf "secondaries differ after %d moves" fast_moves
  else Ok ()

(* ---------------------------------------------------------- the suite *)

let props =
  [
    prop ~count:60 ~smoke_count:12 "milp_vs_enumeration" Gen_lp.arb_milp_small
      milp_vs_enumeration;
    prop ~count:1000 ~smoke_count:200 "milp_mixed_vs_enumeration"
      Gen_lp.arb_milp_mixed milp_mixed_vs_enumeration;
    prop ~count:200 ~smoke_count:40 "milp_node_limited_vs_enumeration"
      arb_milp_branching milp_node_limited_vs_enumeration;
    prop ~count:90 ~smoke_count:18 "lp_certificate" Gen_lp.arb_lp_bounded
      lp_certificate;
    prop ~count:200 ~smoke_count:48 "warm_memo_equivalence" arb_memo_case
      warm_memo_equivalence;
    prop ~count:2000 ~smoke_count:400 "cut_dedup_equivalence" arb_rounds
      cut_dedup_equivalence;
    prop ~count:4 ~smoke_count:1 "pool_workers_equivalence" arb_pool_case
      pool_workers_equivalence;
    prop ~count:300 ~smoke_count:60 "local_search_equivalence" arb_ls_case
      local_search_equivalence;
  ]
