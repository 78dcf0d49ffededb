(* Branch-and-bound MILP tests, including brute-force cross-checks. *)

open Lp

let le = Model.Linexpr.sum

let test_knapsack_small () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binaries: best is b+c = 20
     (weight 6); a+c only reaches 17. *)
  let m = Model.create ~name:"knapsack" () in
  let a = Model.add_var m ~binary:true "a"
  and b = Model.add_var m ~binary:true "b"
  and c = Model.add_var m ~binary:true "c" in
  Model.add_le m "w"
    (le Model.Linexpr.[ term 3.0 a; term 4.0 b; term 2.0 c ])
    6.0;
  Model.set_objective m ~minimize:false
    (le Model.Linexpr.[ term 10.0 a; term 13.0 b; term 7.0 c ]);
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" 20.0 r.Milp.obj;
  Alcotest.(check (float 1e-9)) "gap" 0.0 r.Milp.gap

let test_integer_general () =
  (* max x + y, 2x + y <= 7, x + 3y <= 9, x,y integer >= 0 -> (2.4,2.2) LP,
     integer optimum 5 at e.g. (3,1) or (2,2)... check: 2x+y<=7, x+3y<=9.
     (3,1): 7<=7, 6<=9 ok sum 4. (2,2): 6<=7, 8<=9 sum 4. (1,2): sum 3.
     LP opt: x=2.4,y=2.2 sum 4.6 -> integer best is 4. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~hi:10.0 "x"
  and y = Model.add_var m ~integer:true ~hi:10.0 "y" in
  Model.add_le m "c1" Model.Linexpr.(add (term 2.0 x) (var y)) 7.0;
  Model.add_le m "c2" Model.Linexpr.(add (var x) (term 3.0 y)) 9.0;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" 4.0 r.Milp.obj

let test_infeasible_integrality () =
  (* 0.4 <= x <= 0.6 with x integer has no integral point. *)
  let m = Model.create () in
  let x = Model.add_var m ~integer:true ~lo:0.4 ~hi:0.6 "x" in
  Model.set_objective m (Model.Linexpr.var x);
  let r = Milp.solve m in
  Alcotest.(check string) "status" "infeasible" (Status.to_string r.Milp.status)

let test_mixed () =
  (* min 3y + x s.t. x >= 1.3, x <= 2.7, y binary, y >= x - 2 (so x > 2
     forces y). Optimum: x = 1.3, y = 0 -> 1.3. *)
  let m = Model.create () in
  let x = Model.add_var m ~lo:1.3 ~hi:2.7 "x" in
  let y = Model.add_var m ~binary:true "y" in
  Model.add_ge m "link" Model.Linexpr.(sub (term 1.0 y) (term 0.5 x)) (-1.0);
  Model.set_objective m Model.Linexpr.(add (term 3.0 y) (var x));
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" 1.3 r.Milp.obj

let test_node_limit_returns_feasible () =
  (* With a crippled node budget the solve must still return an
     integer-feasible incumbent.  This knapsack's root LP is already
     integral, so the root phase returns it; the heuristics' incumbents
     at node_limit 1 are pinned by "pinned literal: MILP solves". *)
  let m = Model.create () in
  let n = 10 in
  let xs =
    Array.init n (fun i -> Model.add_var m ~binary:true (Printf.sprintf "x%d" i))
  in
  let weights = Array.init n (fun i -> float_of_int (((i * 7) mod 5) + 1)) in
  let values = Array.init n (fun i -> float_of_int (((i * 11) mod 7) + 1)) in
  Model.add_le m "w"
    (le (Array.to_list (Array.mapi (fun i x -> Model.Linexpr.term weights.(i) x) xs)))
    12.0;
  Model.set_objective m ~minimize:false
    (le (Array.to_list (Array.mapi (fun i x -> Model.Linexpr.term values.(i) x) xs)));
  let r =
    Milp.solve ~options:{ Milp.default_options with Milp.node_limit = 1 } m
  in
  Alcotest.(check bool) "has point" true (Array.length r.Milp.x > 0);
  Alcotest.(check bool) "integral" true (Milp.integral m r.Milp.x);
  Alcotest.(check bool) "bound sane" true (r.Milp.bound >= r.Milp.obj -. 1e-6)

(* A three-row 0/1 knapsack over [n] items, every row of capacity
   [cap]. *)
let multi_knapsack ~n ~cap =
  let m = Model.create () in
  let xs =
    Array.init n (fun i -> Model.add_var m ~binary:true (Printf.sprintf "x%d" i))
  in
  for r = 0 to 2 do
    let weights =
      Array.init n (fun i -> float_of_int ((((i + (3 * r)) * 5) mod 11) + 2))
    in
    Model.add_le m (Printf.sprintf "w%d" r)
      (le (Array.to_list (Array.mapi (fun i x -> Model.Linexpr.term weights.(i) x) xs)))
      cap
  done;
  let values = Array.init n (fun i -> float_of_int (((i * 7) mod 13) + 3)) in
  Model.set_objective m ~minimize:false
    (le (Array.to_list (Array.mapi (fun i x -> Model.Linexpr.term values.(i) x) xs)));
  m

let test_gap_tol_stops_limited_solve () =
  (* [gap_tol] ends the search as soon as the incumbent is within it of
     the least open key, and a solve is Optimal exactly when its final
     gap is at most [gap_tol].  On this knapsack the root cuts leave a
     fractional bound while the root heuristics still land an incumbent,
     so the root gap [g] (the gap at node budget 0) is positive.  Below
     [g] the one-node solve runs as at [gap_tol] 0; from [g] on it stops
     on the root node before expanding it. *)
  let m = multi_knapsack ~n:16 ~cap:29.0 in
  let solve ?(node_limit = 1) gap_tol =
    Milp.solve
      ~options:{ Milp.default_options with Milp.node_limit; gap_tol }
      m
  in
  let g = (solve ~node_limit:0 0.0).Milp.gap in
  Alcotest.(check bool) "positive root gap" true (g > 0.0);
  let r0 = solve 0.0 in
  Alcotest.(check bool) "incumbent found" true (Array.length r0.Milp.x > 0);
  Alcotest.(check int) "one node at gap_tol 0" 1 r0.Milp.nodes;
  let g1 = r0.Milp.gap in
  List.iter
    (fun tol ->
      let r = solve tol in
      let name = Printf.sprintf "gap_tol %h" tol in
      Alcotest.(check int) (name ^ ": same nodes") r0.Milp.nodes r.Milp.nodes;
      Alcotest.(check (float 0.0)) (name ^ ": same gap") g1 r.Milp.gap;
      Alcotest.(check (array (float 0.0))) (name ^ ": same point") r0.Milp.x
        r.Milp.x;
      Alcotest.(check string) (name ^ ": status")
        (if g1 <= tol then "optimal" else "feasible")
        (Status.to_string r.Milp.status))
    (List.sort_uniq compare
       (List.filter
          (fun tol -> tol < g)
          [ 0.0; Float.pred g1; g1; Float.succ g1; Float.pred g ]));
  List.iter
    (fun tol ->
      let r = solve tol in
      let name = Printf.sprintf "gap_tol %h" tol in
      Alcotest.(check bool) (name ^ ": fewer nodes") true
        (r.Milp.nodes < r0.Milp.nodes);
      Alcotest.(check string) (name ^ ": status") "optimal"
        (Status.to_string r.Milp.status);
      Alcotest.(check bool) (name ^ ": gap within tol") true
        (r.Milp.gap <= tol))
    [ g; Float.succ g; 1.0 ]

let brute_force_knapsack weights values cap =
  let n = Array.length weights in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0.0 and v = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w +. weights.(i);
        v := !v +. values.(i)
      end
    done;
    if !w <= cap && !v > !best then best := !v
  done;
  !best

let prop_knapsack_matches_brute_force =
  let gen rng =
    let open Check.Gen in
    let n = int_range 3 10 rng in
    let ws = list_repeat n (int_range 1 9) rng in
    let vs = list_repeat n (int_range 1 9) rng in
    let cap = int_range 5 25 rng in
    (ws, vs, cap)
  in
  (* Weights, values and the capacity toward 0: a zero weight or value
     is still a knapsack, and the brute force sees the same instance. *)
  let shrink =
    let each = Check.Shrink.list_each Check.Shrink.int in
    Check.Shrink.triple each each Check.Shrink.int
  in
  let pp ppf (ws, vs, cap) =
    let ints = Fmt.(Dump.list int) in
    Format.fprintf ppf "weights %a@\nvalues %a@\ncapacity %d" ints ws ints vs
      cap
  in
  Check.prop ~count:60 "binary knapsack matches brute force"
    (Check.arb ~shrink ~pp gen)
    (fun (ws, vs, cap) ->
      let ws = Array.of_list ws and vs = Array.of_list vs in
      let n = Array.length ws in
      let m = Model.create () in
      let xs =
        Array.init n (fun i ->
            Model.add_var m ~binary:true (Printf.sprintf "x%d" i))
      in
      Model.add_le m "w"
        (le
           (Array.to_list
              (Array.mapi
                 (fun i x -> Model.Linexpr.term (float_of_int ws.(i)) x)
                 xs)))
        (float_of_int cap);
      Model.set_objective m ~minimize:false
        (le
           (Array.to_list
              (Array.mapi
                 (fun i x -> Model.Linexpr.term (float_of_int vs.(i)) x)
                 xs)));
      let expected =
        brute_force_knapsack
          (Array.map float_of_int ws)
          (Array.map float_of_int vs)
          (float_of_int cap)
      in
      let r = Milp.solve m in
      if r.Milp.status <> Status.Optimal then
        Fixtures.errorf "status %s" (Status.to_string r.Milp.status)
      else if Float.abs (r.Milp.obj -. expected) > 1e-6 then
        Fixtures.errorf "milp %g, brute force %g" r.Milp.obj expected
      else Ok ())

(* Small generalized-assignment instances: the exact shape used by the
   consolidation planner (assignment rows + capacity rows). *)
let prop_assignment_matches_brute_force =
  let gen rng =
    let open Check.Gen in
    let groups = int_range 2 6 rng in
    let dcs = int_range 2 3 rng in
    let sizes = list_repeat groups (int_range 1 4) rng in
    let costs = list_repeat (groups * dcs) (int_range 1 20) rng in
    let cap = int_range 6 14 rng in
    (dcs, sizes, costs, cap)
  in
  (* Sizes and costs pointwise toward 0; the shape and capacity stay. *)
  let shrink (dcs, sizes, costs, cap) =
    let each = Check.Shrink.list_each Check.Shrink.int in
    Seq.append
      (Seq.map (fun sizes -> (dcs, sizes, costs, cap)) (each sizes))
      (Seq.map (fun costs -> (dcs, sizes, costs, cap)) (each costs))
  in
  let pp ppf (dcs, sizes, costs, cap) =
    let ints = Fmt.(Dump.list int) in
    Format.fprintf ppf "sites %d capacity %d@\nsizes %a@\ncosts %a" dcs cap
      ints sizes ints costs
  in
  Check.prop ~count:60 "assignment MILP matches brute force"
    (Check.arb ~shrink ~pp gen)
    (fun (dcs, sizes, costs, cap) ->
      let groups = List.length sizes and cap = float_of_int cap in
      let sizes = Array.of_list sizes and costs = Array.of_list costs in
      let m = Model.create () in
      let x =
        Array.init groups (fun i ->
            Array.init dcs (fun j ->
                Model.add_var m ~binary:true (Printf.sprintf "x_%d_%d" i j)))
      in
      for i = 0 to groups - 1 do
        Model.add_eq m
          (Printf.sprintf "assign%d" i)
          (le (Array.to_list (Array.map Model.Linexpr.var x.(i))))
          1.0
      done;
      for j = 0 to dcs - 1 do
        Model.add_le m
          (Printf.sprintf "cap%d" j)
          (le
             (List.init groups (fun i ->
                  Model.Linexpr.term (float_of_int sizes.(i)) x.(i).(j))))
          cap
      done;
      Model.set_objective m
        (le
           (List.concat_map
              (fun i ->
                List.init dcs (fun j ->
                    Model.Linexpr.term
                      (float_of_int costs.((i * dcs) + j))
                      x.(i).(j)))
              (List.init groups Fun.id)));
      (* Brute force over dcs^groups assignments. *)
      let best = ref infinity in
      let assign = Array.make groups 0 in
      let rec enum i =
        if i = groups then begin
          let load = Array.make dcs 0.0 in
          let cost = ref 0.0 in
          for g = 0 to groups - 1 do
            load.(assign.(g)) <- load.(assign.(g)) +. float_of_int sizes.(g);
            cost := !cost +. float_of_int costs.((g * dcs) + assign.(g))
          done;
          if Array.for_all (fun l -> l <= cap) load && !cost < !best then
            best := !cost
        end
        else
          for j = 0 to dcs - 1 do
            assign.(i) <- j;
            enum (i + 1)
          done
      in
      enum 0;
      let r = Milp.solve m in
      match (r.Milp.status, !best = infinity) with
      | Status.Infeasible, true -> Ok ()
      | Status.Infeasible, false ->
          Fixtures.errorf "milp infeasible but brute force found %g" !best
      | Status.Optimal, true ->
          Fixtures.errorf "milp optimal %g but instance infeasible" r.Milp.obj
      | Status.Optimal, false ->
          if Float.abs (r.Milp.obj -. !best) > 1e-6 then
            Fixtures.errorf "milp %g, brute force %g" r.Milp.obj !best
          else Ok ()
      | s, _ -> Fixtures.errorf "status %s" (Status.to_string s))

(* Random generalized-assignment MILPs for the enumeration, deadline and
   pinned-literal checks: eq assignment rows + tight capacity rows give
   fractional relaxations, so the branch-and-bound tree is real. *)
let random_gap rng =
  let groups = 3 + Datasets.Prng.int rng 5 in
  let dcs = 2 + Datasets.Prng.int rng 2 in
  let m = Model.create () in
  let x =
    Array.init groups (fun i ->
        Array.init dcs (fun j ->
            Model.add_var m ~binary:true (Printf.sprintf "x_%d_%d" i j)))
  in
  let sizes =
    Array.init groups (fun _ -> 1.0 +. Datasets.Prng.range rng 0.0 4.0)
  in
  for i = 0 to groups - 1 do
    Model.add_eq m
      (Printf.sprintf "assign%d" i)
      (le (Array.to_list (Array.map Model.Linexpr.var x.(i))))
      1.0
  done;
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let cap =
    (* Usually tight but feasible; occasionally infeasible, which the
       solver and enumeration must classify identically. *)
    total /. float_of_int dcs *. Datasets.Prng.range rng 0.95 1.4
  in
  for j = 0 to dcs - 1 do
    Model.add_le m
      (Printf.sprintf "cap%d" j)
      (le
         (List.init groups (fun i -> Model.Linexpr.term sizes.(i) x.(i).(j))))
      cap
  done;
  Model.set_objective m
    (le
       (List.concat_map
          (fun i ->
            List.init dcs (fun j ->
                Model.Linexpr.term
                  (1.0 +. Datasets.Prng.range rng 0.0 9.0)
                  x.(i).(j)))
          (List.init groups Fun.id)));
  m

(* A solve is deterministic: solving [m] again under the same options
   must return the same point, node count and simplex iterations. *)
let solve_twice name options m =
  let a = Milp.solve ~options m in
  let b = Milp.solve ~options m in
  if a.Milp.x <> b.Milp.x then Alcotest.failf "%s: x differs on a re-solve" name;
  Alcotest.(check int) (name ^ ": nodes on a re-solve") a.Milp.nodes b.Milp.nodes;
  Alcotest.(check int)
    (name ^ ": lp_iterations on a re-solve")
    a.Milp.lp_iterations b.Milp.lp_iterations;
  a

(* The optimum of a [random_gap] model by enumeration: every group
   takes one of the dcs in turn (at most 3^7 assignments), and the
   cheapest assignment the capacity rows admit wins.  Variables were
   added group by group, so [x_i_j] has id [i * dcs + j]. *)
let enumerate_gap m =
  let input = Simplex.of_model m in
  let groups =
    Array.fold_left
      (fun n (r : Model.row) -> if r.sense = Model.Eq then n + 1 else n)
      0 input.Simplex.rows
  in
  let dcs = input.Simplex.nvars / groups in
  let x = Array.make input.Simplex.nvars 0.0 in
  let best = ref None in
  let rec go i =
    if i = groups then begin
      if Simplex.feasible input x then begin
        let cost = ref 0.0 in
        Array.iteri (fun j c -> cost := !cost +. (c *. x.(j))) input.Simplex.obj;
        match !best with
        | Some b when b <= !cost -> ()
        | _ -> best := Some !cost
      end
    end
    else
      for j = 0 to dcs - 1 do
        x.((i * dcs) + j) <- 1.0;
        go (i + 1);
        x.((i * dcs) + j) <- 0.0
      done
  in
  go 0;
  !best

let test_tree_matches_enumeration () =
  (* 55 seeded random MILPs: the solver, deterministic on a re-solve,
     must agree with enumeration on status and objective, and some of
     the instances must open a real tree. *)
  let rng = Datasets.Prng.create 2024 in
  let trees = ref 0 in
  for case = 1 to 55 do
    let m = random_gap rng in
    let name = Printf.sprintf "case %d" case in
    let r = solve_twice name Milp.default_options m in
    (match (enumerate_gap m, r.Milp.status) with
    | None, Status.Infeasible -> ()
    | Some best, Status.Optimal ->
        if Float.abs (r.Milp.obj -. best) > 1e-6 *. (1.0 +. Float.abs best) then
          Alcotest.failf "%s: objective %.9g, enumeration %.9g" name r.Milp.obj
            best
    | None, s ->
        Alcotest.failf "%s: enumeration says infeasible, solver returned %s"
          name (Status.to_string s)
    | Some best, s ->
        Alcotest.failf "%s: enumeration found %.9g, solver returned %s" name
          best (Status.to_string s));
    if r.Milp.nodes > 1 then incr trees
  done;
  Alcotest.(check bool) "some instances branched" true (!trees > 0)

let test_deadline_terminates () =
  (* A zero or near-zero deadline must end the solve promptly with a
     well-formed result, even when the root LP alone outlives it. *)
  let rng = Datasets.Prng.create 31_337 in
  for case = 1 to 3 do
    let m = random_gap rng in
    List.iter
      (fun deadline ->
        let r =
          Milp.solve
            ~options:{ Milp.default_options with Milp.time_limit = deadline }
            m
        in
        match r.Milp.status with
        | Status.Optimal | Status.Feasible | Status.Time_limit
        | Status.Node_limit | Status.Infeasible | Status.Iteration_limit ->
            ()
        | s ->
            Alcotest.failf "case %d deadline %g: unexpected status %s" case
              deadline (Status.to_string s))
      [ 0.0; 1e-9; 1e-4 ]
  done;
  (* Florida x1 under the paper's cost model: its root LP alone takes
     about four times the budget, so only a deadline the simplex checks
     as it pivots ends the solve on time.  The overshoot allowed is
     max(50 ms, 5%) of the 50 ms budget. *)
  let m =
    let options =
      { Etransform.Lp_builder.default_options with
        Etransform.Lp_builder.economies_of_scale = true; fixed_charges = true }
    in
    (Etransform.Lp_builder.build ~options (Datasets.Florida.asis ()))
      .Etransform.Lp_builder.model
  in
  let t0 = Clock.now () in
  let r =
    Milp.solve
      ~options:
        { Milp.default_options with Milp.time_limit = 0.05; node_limit = 24 }
      m
  in
  let wall = Clock.now () -. t0 in
  (match r.Milp.status with
  | Status.Optimal | Status.Feasible | Status.Time_limit -> ()
  | s ->
      Alcotest.failf "florida x1: unexpected status %s" (Status.to_string s));
  if wall > 0.10 then
    Alcotest.failf "florida x1: a 0.05 s budget returned after %.3f s" wall

let test_pump_cycle_terminates () =
  (* Crafted cycling instance: 2x + 2y = 1 over binaries has a fractional
     relaxation (x + y = 1/2) and NO integral point, so the pump can never
     succeed — every distance LP lands on a vertex like (1/2, 0), whose
     rounding repeats an earlier target and trips the rounding-history
     cycle detector.  The run must still terminate (perturbation plus the
     round budget and stall cap), must not report Integral, and must be
     deterministic from round counts down to the returned iterate. *)
  let m = Model.create ~name:"pump_cycle" () in
  let x = Model.add_var m ~binary:true "x"
  and y = Model.add_var m ~binary:true "y" in
  Model.add_eq m "half" Model.Linexpr.(add (term 2.0 x) (term 2.0 y)) 1.0;
  Model.set_objective m ~minimize:true Model.Linexpr.(add (var x) (var y));
  let input = Simplex.of_model m in
  let root = Simplex.solve input in
  Alcotest.(check string) "relaxation solves" "optimal"
    (Status.to_string root.Simplex.status);
  let rounds = ref 0 in
  let solve inp =
    incr rounds;
    if !rounds > 200 then Alcotest.fail "pump did not terminate";
    Simplex.solve inp
  in
  let run () =
    rounds := 0;
    let outcome =
      Fpump.run ~solve ~input ~int_ids:[ 0; 1 ] ~int_tol:1e-9
        ~start:root.Simplex.x
        ~stop:(fun () -> false)
    in
    (outcome, !rounds)
  in
  let o1, n1 = run () in
  let o2, n2 = run () in
  (match o1 with
  | Fpump.Integral _ -> Alcotest.fail "no integral point exists"
  | Fpump.Near p ->
      Alcotest.(check bool) "near iterate satisfies the relaxation" true
        (Simplex.feasible input p)
  | Fpump.Failed -> ());
  Alcotest.(check int) "deterministic round count" n1 n2;
  match (o1, o2) with
  | Fpump.Near p1, Fpump.Near p2 ->
      Alcotest.(check bool) "deterministic iterate" true (p1 = p2)
  | Fpump.Failed, Fpump.Failed -> ()
  | _ -> Alcotest.fail "outcome shape differs between identical runs"

let test_relax_reports_fractional () =
  let m = Model.create () in
  let x = Model.add_var m ~binary:true "x" in
  Model.add_le m "c" (Model.Linexpr.term 2.0 x) 1.0;
  Model.set_objective m ~minimize:false (Model.Linexpr.var x);
  let r = Milp.relax m in
  Alcotest.(check (float 1e-9)) "fractional root" 0.5 r.Simplex.x.(0);
  Alcotest.(check bool) "not integral" false (Milp.integral m r.Simplex.x)

(* A pure LP of 70 rows goes through [Milp.solve] as one root solve:
   optimal at the relaxation's objective, at a point the input accepts. *)
let test_wide_pure_lp () =
  let rng = Datasets.Prng.create 18 in
  let n = 30 and rows = 70 in
  let x0 = Array.init n (fun _ -> Datasets.Prng.range rng 0.0 3.0) in
  let m = Model.create ~name:"wide_lp" () in
  let vars =
    Array.init n (fun j -> Model.add_var m ~hi:5.0 (Printf.sprintf "v%d" j))
  in
  for r = 0 to rows - 1 do
    let e = ref Model.Linexpr.zero and lhs = ref 0.0 in
    Array.iteri
      (fun j v ->
        if Datasets.Prng.int rng 3 = 0 then begin
          let c = Datasets.Prng.range rng (-5.0) 5.0 in
          e := Model.Linexpr.add !e (Model.Linexpr.term c v);
          lhs := !lhs +. (c *. x0.(j))
        end)
      vars;
    let name = Printf.sprintf "r%d" r in
    match r mod 7 with
    | 0 -> Model.add_eq m name !e !lhs
    | 1 | 2 | 3 -> Model.add_le m name !e (!lhs +. 1.0)
    | _ -> Model.add_ge m name !e (!lhs -. 1.0)
  done;
  Model.set_objective m
    (Model.Linexpr.sum
       (Array.to_list
          (Array.map
             (fun v -> Model.Linexpr.term (Datasets.Prng.range rng (-4.0) 4.0) v)
             vars)));
  Alcotest.(check bool) "at least 64 rows" true (Model.num_constrs m >= 64);
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check int) "one node" 1 r.Milp.nodes;
  Alcotest.(check (float 1e-6)) "relaxation objective"
    (Milp.relax m).Simplex.obj_value r.Milp.obj;
  Alcotest.(check bool) "feasible point" true
    (Simplex.feasible (Simplex.of_model m) r.Milp.x)

(* ---- pinned literal --------------------------------------------------- *)

(* Seeded generalized-assignment MILPs, mixed integer/continuous fuzz
   specs and three knapsacks, each solved under the default options.
   Two MD5 literals pin them.  The plan digest hashes each solve's
   status, the bits of its objective and point, and its node count: any
   change to the root cuts, the heuristics, the branching rule or the
   node LPs' warm starts moves it, so a change that claims to keep plans
   bit-identical must leave it as it is.  The iteration digest hashes the
   simplex iterations alone; a change that drops redundant LP solves
   moves it while the plan digest stays. *)
let pinned_solves =
  lazy
    (let rng = Datasets.Prng.create 4_711 in
     let gaps = List.init 40 (fun _ -> Milp.solve (random_gap rng)) in
     let rng = Datasets.Prng.create 1_729 in
     let mixed =
       List.init 12 (fun _ ->
           Milp.solve (Fuzz.Gen_lp.to_model (Fuzz.Gen_lp.milp_mixed rng)))
     in
     gaps @ mixed
     @ List.map
         (fun (n, cap) -> Milp.solve (multi_knapsack ~n ~cap))
         [ (12, 17.0); (16, 29.0); (20, 37.0) ])

(* Fuzz specs on which a root heuristic supplies the incumbent, found by
   drawing each generator's stream from a seed: (generator, seed, index
   of the spec in that stream).  Pump-and-fix lands the incumbent on the
   first three and the root dive on the next two; on the last two the
   dive retries a fix with an empty batch.  The default-option solves
   above never take any of these paths to an incumbent.  Each spec is
   solved under the default options and at [node_limit] 1, where the
   tree cannot replace the heuristic's incumbent. *)
let heuristic_specs =
  Fuzz.Gen_lp.
    [
      (milp_mixed, 4, 258);
      (milp_mixed, 12, 313);
      (milp_small, 1_729, 335);
      (milp_small, 28, 732);
      (milp_mixed, 34, 431);
      (milp_mixed, 3, 4);
      (milp_small, 6, 0);
    ]

let heuristic_solves =
  lazy
    (List.concat_map
       (fun (gen, seed, index) ->
         let rng = Datasets.Prng.create seed in
         for _ = 1 to index do
           ignore (gen rng)
         done;
         let m = Fuzz.Gen_lp.to_model (gen rng) in
         [
           Milp.solve m;
           Milp.solve
             ~options:{ Milp.default_options with Milp.node_limit = 1 } m;
         ])
       heuristic_specs)

let bits v = Printf.sprintf " %Lx" (Int64.bits_of_float v)

let digest_of f rs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      f buf r;
      Buffer.add_char buf '\n')
    rs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let plan_line buf (r : Milp.result) =
  Buffer.add_string buf (Status.to_string r.Milp.status);
  Buffer.add_string buf (bits r.Milp.obj);
  Buffer.add_string buf (Printf.sprintf " %d" r.Milp.nodes);
  Array.iter (fun v -> Buffer.add_string buf (bits v)) r.Milp.x

(* [plan_line] with the bound and gap, which a cut-short tree reports. *)
let limited_line buf (r : Milp.result) =
  Buffer.add_string buf (Status.to_string r.Milp.status);
  List.iter
    (fun v -> Buffer.add_string buf (bits v))
    [ r.Milp.obj; r.Milp.bound; r.Milp.gap ];
  Buffer.add_string buf (Printf.sprintf " %d" r.Milp.nodes);
  Array.iter (fun v -> Buffer.add_string buf (bits v)) r.Milp.x

let iterations_line buf (r : Milp.result) =
  Buffer.add_string buf (string_of_int r.Milp.lp_iterations)

let test_pinned_literal () =
  let rs = Lazy.force pinned_solves in
  Alcotest.(check bool) "trees exercised" true
    (List.length (List.filter (fun r -> r.Milp.nodes > 1) rs) > 5);
  Alcotest.(check string) "plan digest" "a0ed6170828d14048869bb1f8c58e761"
    (digest_of plan_line rs);
  Alcotest.(check string) "heuristic plan digest" "3a86fd01cfdcc3a10ab66980f2d4774c"
    (digest_of limited_line (Lazy.force heuristic_solves))

let test_pinned_iterations () =
  Alcotest.(check string) "iteration digest" "4ac6b2f8e29a6e3a51df6e828d3a5348"
    (digest_of iterations_line (Lazy.force pinned_solves));
  Alcotest.(check string) "heuristic iteration digest" "dafe4cad405e5b784afec38f1f471d50"
    (digest_of iterations_line (Lazy.force heuristic_solves))

(* The [random_gap] models and the knapsacks of the literal above at
   [node_limit] 1 to 4: the status, the bits of the objective, bound,
   gap and point, and the node count, hashed into one MD5.  The default
   budget of the literal above never reaches the last node a budget
   allows; here 13 of the 43 models stop on the budget at every limit,
   so this one pins what a cut-short tree reports. *)
let test_pinned_node_limited () =
  let rng = Datasets.Prng.create 4_711 in
  let models =
    List.init 40 (fun _ -> random_gap rng)
    @ List.map
        (fun (n, cap) -> multi_knapsack ~n ~cap)
        [ (12, 17.0); (16, 29.0); (20, 37.0) ]
  in
  let rs =
    List.concat_map
      (fun m ->
        List.map
          (fun limit ->
            Milp.solve
              ~options:{ Milp.default_options with Milp.node_limit = limit } m)
          [ 1; 2; 3; 4 ])
      models
  in
  let stops =
    List.length
      (List.filter
         (fun r ->
           match r.Milp.status with
           | Status.Feasible | Status.Node_limit -> true
           | _ -> false)
         rs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "solves stopped by the budget (%d)" stops)
    true (stops >= 40);
  Alcotest.(check string) "node-limited digest" "bbd83447ca8ee992ac7297ab1d1999bb"
    (digest_of limited_line rs)

let suite =
  [
    Alcotest.test_case "small knapsack" `Quick test_knapsack_small;
    Alcotest.test_case "general integers" `Quick test_integer_general;
    Alcotest.test_case "integrality infeasible" `Quick test_infeasible_integrality;
    Alcotest.test_case "mixed integer-continuous" `Quick test_mixed;
    Alcotest.test_case "node limit still feasible" `Quick test_node_limit_returns_feasible;
    Alcotest.test_case "relaxation is fractional" `Quick test_relax_reports_fractional;
    Alcotest.test_case "wide pure LP is one root solve" `Quick test_wide_pure_lp;
    Alcotest.test_case "pump cycle detection terminates" `Quick
      test_pump_cycle_terminates;
    Alcotest.test_case "tree matches enumeration" `Quick
      test_tree_matches_enumeration;
    Alcotest.test_case "zero deadline ends a one-domain solve" `Quick
      test_deadline_terminates;
    Fixtures.property prop_knapsack_matches_brute_force;
    Fixtures.property prop_assignment_matches_brute_force;
    Alcotest.test_case "gap_tol stops a node-limited solve" `Quick
      test_gap_tol_stops_limited_solve;
    Alcotest.test_case "pinned literal: MILP solves" `Quick test_pinned_literal;
    Alcotest.test_case "pinned literal: MILP simplex iterations" `Quick
      test_pinned_iterations;
    Alcotest.test_case "pinned literal: node-limited MILP solves" `Quick
      test_pinned_node_limited;
  ]
