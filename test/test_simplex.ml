(* Unit and property tests for the bounded-variable two-phase simplex. *)

open Lp

let check_float = Alcotest.(check (float 1e-6))

let solve_model m = Simplex.solve (Simplex.of_model m)

let assert_optimal ?(tol = 1e-6) m expected =
  let input = Simplex.of_model m in
  let r = Simplex.solve input in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Simplex.status);
  Alcotest.(check (float tol)) "objective" expected r.Simplex.obj_value;
  match Simplex.check_certificate input r with
  | [] -> ()
  | errs -> Alcotest.failf "certificate: %s" (String.concat "; " errs)

(* Classic textbook LP: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. *)
let test_textbook () =
  let m = Model.create ~name:"textbook" () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_le m "c1" (Model.Linexpr.var x) 4.0;
  Model.add_le m "c2" (Model.Linexpr.term 2.0 y) 12.0;
  Model.add_le m "c3"
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 2.0 y))
    18.0;
  Model.set_objective m ~minimize:false
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 5.0 y));
  let r = solve_model m in
  check_float "objective" 36.0 r.Simplex.obj_value;
  check_float "x" 2.0 r.Simplex.x.(0);
  check_float "y" 6.0 r.Simplex.x.(1)

let test_equality_rows () =
  (* min x + 2y s.t. x + y = 10, x - y = 2  ->  x=6, y=4, obj=14 *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_eq m "sum" Model.Linexpr.(add (var x) (var y)) 10.0;
  Model.add_eq m "diff" Model.Linexpr.(sub (var x) (var y)) 2.0;
  Model.set_objective m Model.Linexpr.(add (var x) (term 2.0 y));
  let r = solve_model m in
  check_float "obj" 14.0 r.Simplex.obj_value;
  check_float "x" 6.0 r.Simplex.x.(0);
  check_float "y" 4.0 r.Simplex.x.(1)

let test_bound_flip () =
  (* max x + y with box [0,1]^2 and x + y <= 1.5: needs a nonbasic var to
     ride to its upper bound. *)
  let m = Model.create () in
  let x = Model.add_var m ~hi:1.0 "x" and y = Model.add_var m ~hi:1.0 "y" in
  Model.add_le m "c" Model.Linexpr.(add (var x) (var y)) 1.5;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  let r = solve_model m in
  check_float "obj" 1.5 r.Simplex.obj_value

let test_negative_lower_bounds () =
  (* min x + y with x,y in [-2, 3] and x + y >= -1 -> obj -1. *)
  let m = Model.create () in
  let x = Model.add_var m ~lo:(-2.0) ~hi:3.0 "x"
  and y = Model.add_var m ~lo:(-2.0) ~hi:3.0 "y" in
  Model.add_ge m "c" Model.Linexpr.(add (var x) (var y)) (-1.0);
  Model.set_objective m Model.Linexpr.(add (var x) (var y));
  assert_optimal m (-1.0)

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m ~hi:1.0 "x" in
  Model.add_ge m "c" (Model.Linexpr.var x) 5.0;
  Model.set_objective m (Model.Linexpr.var x);
  let r = solve_model m in
  Alcotest.(check string)
    "status" "infeasible"
    (Status.to_string r.Simplex.status)

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.add_ge m "c" (Model.Linexpr.var x) 1.0;
  Model.set_objective m ~minimize:false (Model.Linexpr.var x);
  let r = solve_model m in
  Alcotest.(check string) "status" "unbounded" (Status.to_string r.Simplex.status)

let test_fixed_variable () =
  let m = Model.create () in
  let x = Model.add_var m ~lo:2.0 ~hi:2.0 "x" in
  let y = Model.add_var m ~hi:10.0 "y" in
  Model.add_le m "c" Model.Linexpr.(add (var x) (var y)) 7.0;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  assert_optimal m 7.0

let test_degenerate () =
  (* Multiple constraints tight at the optimum; exercises anti-cycling. *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_le m "c1" Model.Linexpr.(add (var x) (var y)) 1.0;
  Model.add_le m "c2" Model.Linexpr.(add (term 2.0 x) (term 2.0 y)) 2.0;
  Model.add_le m "c3" Model.Linexpr.(add (term 3.0 x) (term 3.0 y)) 3.0;
  Model.set_objective m ~minimize:false Model.Linexpr.(add (var x) (var y));
  assert_optimal m 1.0

let test_redundant_equalities () =
  (* Linearly dependent equality rows leave an artificial stuck in the
     basis; the solver must cope. *)
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m "y" in
  Model.add_eq m "e1" Model.Linexpr.(add (var x) (var y)) 4.0;
  Model.add_eq m "e2" Model.Linexpr.(add (term 2.0 x) (term 2.0 y)) 8.0;
  Model.set_objective m Model.Linexpr.(add (term 3.0 x) (var y));
  assert_optimal m 4.0

let test_objective_constant () =
  let m = Model.create () in
  let x = Model.add_var m ~hi:2.0 "x" in
  Model.set_objective m Model.Linexpr.(add (var x) (constant 100.0));
  assert_optimal m 100.0

let test_free_variable () =
  (* min y s.t. y >= x - 3, y >= -x + 1, x free: optimum x=2, y=-1. *)
  let m = Model.create () in
  let x = Model.add_var m ~lo:neg_infinity ~hi:infinity "x" in
  let y = Model.add_var m ~lo:(-100.0) "y" in
  Model.add_ge m "c1" Model.Linexpr.(sub (var y) (var x)) (-3.0);
  Model.add_ge m "c2" Model.Linexpr.(add (var y) (var x)) 1.0;
  Model.set_objective m (Model.Linexpr.var y);
  assert_optimal m (-1.0)

let test_duals_transportation () =
  (* 2x2 transportation problem: ship 4 at cost 1, 1 at cost 2, 5 at cost 1
     -> 11.  The certificate check exercises dual recovery. *)
  let m = Model.create () in
  let x = Array.init 4 (fun i -> Model.add_var m (Printf.sprintf "x%d" i)) in
  (* supplies 5, 5; demands 4, 6; costs 1 2 / 3 1 *)
  Model.add_le m "s0" Model.Linexpr.(add (var x.(0)) (var x.(1))) 5.0;
  Model.add_le m "s1" Model.Linexpr.(add (var x.(2)) (var x.(3))) 5.0;
  Model.add_ge m "d0" Model.Linexpr.(add (var x.(0)) (var x.(2))) 4.0;
  Model.add_ge m "d1" Model.Linexpr.(add (var x.(1)) (var x.(3))) 6.0;
  Model.set_objective m
    Model.Linexpr.(
      sum [ var x.(0); term 2.0 x.(1); term 3.0 x.(2); var x.(3) ]);
  assert_optimal m 11.0

(* Random feasible-by-construction LPs must solve to optimality with a
   verifiable KKT certificate and beat the seed point. *)
let prop_random_feasible =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 6 in
      let* rows = int_range 1 6 in
      let* x0 = list_repeat n (float_bound_inclusive 3.0) in
      let* objc = list_repeat n (float_range (-4.0) 4.0) in
      let* coeffs = list_repeat (rows * n) (float_range (-5.0) 5.0) in
      let* senses = list_repeat rows (int_range 0 2) in
      return (n, rows, Array.of_list x0, Array.of_list objc, Array.of_list coeffs, Array.of_list senses))
  in
  QCheck2.Test.make ~name:"random feasible LPs solve optimally" ~count:150 gen
    (fun (n, rows, x0, objc, coeffs, senses) ->
      let m = Model.create () in
      let vars =
        Array.init n (fun i -> Model.add_var m ~hi:5.0 (Printf.sprintf "v%d" i))
      in
      for r = 0 to rows - 1 do
        let e = ref Model.Linexpr.zero in
        let lhs = ref 0.0 in
        for j = 0 to n - 1 do
          let c = coeffs.((r * n) + j) in
          e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
          lhs := !lhs +. (c *. x0.(j))
        done;
        (match senses.(r) with
        | 0 -> Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 1.0)
        | 1 -> Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 1.0)
        | _ -> Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs)
      done;
      let obj =
        Model.Linexpr.sum
          (List.init n (fun j -> Model.Linexpr.term objc.(j) vars.(j)))
      in
      Model.set_objective m obj;
      let input = Simplex.of_model m in
      let r = Simplex.solve input in
      if r.Simplex.status <> Status.Optimal then
        QCheck2.Test.fail_reportf "status %s" (Status.to_string r.Simplex.status);
      let obj_at_x0 =
        Array.to_list (Array.mapi (fun j c -> c *. x0.(j)) objc)
        |> List.fold_left ( +. ) 0.0
      in
      if r.Simplex.obj_value > obj_at_x0 +. 1e-6 then
        QCheck2.Test.fail_reportf "optimum %g worse than seed %g"
          r.Simplex.obj_value obj_at_x0;
      (match Simplex.check_certificate input r with
      | [] -> ()
      | errs -> QCheck2.Test.fail_reportf "certificate: %s" (String.concat "; " errs));
      true)

(* ---- eta-file drift --------------------------------------------------- *)

let test_eta_refactorization_drift () =
  (* A dense equality-constrained LP large enough that the crash basis plus
     the pivot sequence far exceeds the refactorization cadence, so the
     engine rebuilds its eta file mid-solve (and again at the
     optimum).  The returned point must satisfy the rows to tight absolute
     tolerance: any drift the product-form update accumulated and the
     refactorizations failed to kill would show up here. *)
  let rng = Datasets.Prng.create 99 in
  let n = 80 and rows = 50 in
  let x0 = Array.init n (fun _ -> Datasets.Prng.range rng 0.0 3.0) in
  let m = Model.create ~name:"drift" () in
  let vars =
    Array.init n (fun i -> Model.add_var m ~hi:10.0 (Printf.sprintf "v%d" i))
  in
  let coeffs = Array.make_matrix rows n 0.0 in
  for r = 0 to rows - 1 do
    let e = ref Model.Linexpr.zero in
    let lhs = ref 0.0 in
    for j = 0 to n - 1 do
      let c = Datasets.Prng.range rng (-5.0) 5.0 in
      coeffs.(r).(j) <- c;
      e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
      lhs := !lhs +. (c *. x0.(j))
    done;
    if r mod 3 = 0 then Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs
    else if r mod 3 = 1 then
      Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 0.5)
    else Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 0.5)
  done;
  Model.set_objective m
    (Model.Linexpr.sum
       (List.init n (fun j ->
            Model.Linexpr.term (Datasets.Prng.range rng (-4.0) 4.0) vars.(j))));
  let input = Simplex.of_model m in
  let r = Simplex.solve input in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Simplex.status);
  Alcotest.(check bool)
    "pivot sequence is long" true
    (r.Simplex.iterations > 30);
  let residual = ref 0.0 in
  Array.iteri
    (fun ri { Model.sense; rhs; _ } ->
      let act = ref 0.0 in
      for j = 0 to n - 1 do
        act := !act +. (coeffs.(ri).(j) *. r.Simplex.x.(j))
      done;
      let v =
        match sense with
        | Model.Eq -> Float.abs (!act -. rhs)
        | Model.Le -> Float.max 0.0 (!act -. rhs)
        | Model.Ge -> Float.max 0.0 (rhs -. !act)
      in
      if v > !residual then residual := v)
    input.Simplex.rows;
  if !residual >= 1e-8 then
    Alcotest.failf "row residual %.3e exceeds 1e-8" !residual

(* ---- dual-simplex warm starts ---------------------------------------- *)

let textbook_input ~hiy =
  let m = Model.create () in
  let x = Model.add_var m "x" and y = Model.add_var m ~hi:hiy "y" in
  Model.add_le m "c1" (Model.Linexpr.var x) 4.0;
  Model.add_le m "c2" (Model.Linexpr.term 2.0 y) 12.0;
  Model.add_le m "c3"
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 2.0 y))
    18.0;
  Model.set_objective m ~minimize:false
    (Model.Linexpr.add (Model.Linexpr.term 3.0 x) (Model.Linexpr.term 5.0 y));
  Simplex.of_model m

let test_warm_reopt_tightened () =
  (* Solve the textbook LP, save its basis, tighten y's upper bound below
     the optimal y = 6, and reoptimize warm: the dual simplex must land on
     the new optimum x = 10/3, y = 4 -> 30 without a cold restart. *)
  let base = textbook_input ~hiy:infinity in
  let r0 = Simplex.solve ~want_basis:true base in
  Alcotest.(check string) "base status" "optimal"
    (Status.to_string r0.Simplex.status);
  check_float "base obj" 36.0 r0.Simplex.obj_value;
  let basis =
    match r0.Simplex.basis with
    | Some b -> b
    | None -> Alcotest.fail "no basis exported"
  in
  let tightened = textbook_input ~hiy:4.0 in
  let rw = Simplex.solve ~warm:basis tightened in
  let rf = Simplex.solve tightened in
  Alcotest.(check string) "warm status" "optimal"
    (Status.to_string rw.Simplex.status);
  Alcotest.(check bool) "dual path used" true rw.Simplex.warm_started;
  check_float "warm obj" 30.0 rw.Simplex.obj_value;
  check_float "matches fresh" rf.Simplex.obj_value rw.Simplex.obj_value;
  check_float "warm x" rf.Simplex.x.(0) rw.Simplex.x.(0);
  check_float "warm y" rf.Simplex.x.(1) rw.Simplex.x.(1);
  (match Simplex.check_certificate tightened rw with
  | [] -> ()
  | errs -> Alcotest.failf "warm certificate: %s" (String.concat "; " errs))

let test_warm_detects_infeasible () =
  (* min x + y s.t. x + y >= 5 on [0,3]^2 is feasible; shrinking the box to
     [0,1]^2 makes it infeasible, which the warm path must certify. *)
  let build hi =
    let m = Model.create () in
    let x = Model.add_var m ~hi "x" and y = Model.add_var m ~hi "y" in
    Model.add_ge m "c" Model.Linexpr.(add (var x) (var y)) 5.0;
    Model.set_objective m Model.Linexpr.(add (var x) (var y));
    Simplex.of_model m
  in
  let r0 = Simplex.solve ~want_basis:true (build 3.0) in
  Alcotest.(check string) "base status" "optimal"
    (Status.to_string r0.Simplex.status);
  let basis = Option.get r0.Simplex.basis in
  let rw = Simplex.solve ~warm:basis (build 1.0) in
  Alcotest.(check string) "warm status" "infeasible"
    (Status.to_string rw.Simplex.status)

(* A random LP over [n] variables in [0, 5] with [rows] mixed-sense rows,
   all feasible at a random interior point. *)
let random_feasible_lp rng n rows =
  let x0 = Array.init n (fun _ -> Datasets.Prng.range rng 0.0 3.0) in
  let m = Model.create () in
  let vars =
    Array.init n (fun i -> Model.add_var m ~hi:5.0 (Printf.sprintf "v%d" i))
  in
  for r = 0 to rows - 1 do
    let e = ref Model.Linexpr.zero in
    let lhs = ref 0.0 in
    for j = 0 to n - 1 do
      let c = Datasets.Prng.range rng (-5.0) 5.0 in
      e := Model.Linexpr.add !e (Model.Linexpr.term c vars.(j));
      lhs := !lhs +. (c *. x0.(j))
    done;
    match Datasets.Prng.int rng 3 with
    | 0 -> Model.add_le m (Printf.sprintf "r%d" r) !e (!lhs +. 1.0)
    | 1 -> Model.add_ge m (Printf.sprintf "r%d" r) !e (!lhs -. 1.0)
    | _ -> Model.add_eq m (Printf.sprintf "r%d" r) !e !lhs
  done;
  Model.set_objective m
    (Model.Linexpr.sum
       (List.init n (fun j ->
            Model.Linexpr.term (Datasets.Prng.range rng (-4.0) 4.0) vars.(j))));
  Simplex.of_model m

let test_warm_random_bound_changes () =
  (* Feasible-by-construction random LPs: save the optimal basis, tighten a
     random variable's upper bound, and check the warm reoptimization
     agrees with a fresh solve on status and objective.  At least some of
     the cases must actually take the dual path (not fall back cold). *)
  let rng = Datasets.Prng.create 42 in
  let warm_hits = ref 0 in
  for _case = 1 to 60 do
    let n = 2 + Datasets.Prng.int rng 5 in
    let rows = 1 + Datasets.Prng.int rng 5 in
    let input = random_feasible_lp rng n rows in
    let r0 = Simplex.solve ~want_basis:true input in
    match (r0.Simplex.status, r0.Simplex.basis) with
    | Status.Optimal, Some basis ->
        let j = Datasets.Prng.int rng n in
        let hi' = Array.copy input.Simplex.hi in
        hi'.(j) <- Datasets.Prng.range rng 0.0 4.0;
        let tightened = { input with Simplex.hi = hi' } in
        let rw = Simplex.solve ~warm:basis tightened in
        let rf = Simplex.solve tightened in
        if rw.Simplex.status <> rf.Simplex.status then
          Alcotest.failf "status mismatch: warm %s, fresh %s"
            (Status.to_string rw.Simplex.status)
            (Status.to_string rf.Simplex.status);
        if rw.Simplex.status = Status.Optimal then begin
          if Float.abs (rw.Simplex.obj_value -. rf.Simplex.obj_value) > 1e-6
          then
            Alcotest.failf "objective mismatch: warm %.9g, fresh %.9g"
              rw.Simplex.obj_value rf.Simplex.obj_value;
          match Simplex.check_certificate tightened rw with
          | [] -> ()
          | errs ->
              Alcotest.failf "warm certificate: %s" (String.concat "; " errs)
        end;
        if rw.Simplex.warm_started then incr warm_hits
    | _ -> ()
  done;
  Alcotest.(check bool) "dual path exercised" true (!warm_hits > 0)

(* Column [c] of the frame [A | slacks | artificials] in dense form:
   structurals first, one slack per inequality row (+1 on Le, -1 on Ge),
   then one artificial per row. *)
let frame_column (input : Simplex.input) c =
  let rows = input.Simplex.rows in
  let col = Array.make (Array.length rows) 0.0 in
  let n = input.Simplex.nvars in
  let next_slack = ref n in
  Array.iteri
    (fun i { Model.ids; coefs; sense; _ } ->
      Array.iteri (fun k j -> if j = c then col.(i) <- col.(i) +. coefs.(k)) ids;
      match sense with
      | Model.Eq -> ()
      | Model.Le | Model.Ge ->
          if !next_slack = c then
            col.(i) <- (if sense = Model.Le then 1.0 else -1.0);
          incr next_slack)
    rows;
  let art0 = !next_slack in
  if c >= art0 then col.(c - art0) <- 1.0;
  col

let test_basis_rows () =
  (* On an optimal basis, the row of B^-1 that [basis_rows] returns for a
     basic column c must price c at 1 and every other basic column at 0. *)
  let rng = Datasets.Prng.create 7 in
  let checked = ref 0 in
  for _case = 1 to 40 do
    let n = 2 + Datasets.Prng.int rng 6 in
    let rows = 1 + Datasets.Prng.int rng 6 in
    let input = random_feasible_lp rng n rows in
    let r0 = Simplex.solve ~want_basis:true input in
    match (r0.Simplex.status, r0.Simplex.basis) with
    | Status.Optimal, Some b -> (
        match Simplex.basis_rows input b with
        | None -> Alcotest.fail "optimal basis did not factorize"
        | Some row ->
            Array.iter
              (fun c ->
                let w = row c in
                Array.iter
                  (fun c' ->
                    let a = frame_column input c' in
                    let dot = ref 0.0 in
                    Array.iteri (fun i wi -> dot := !dot +. (wi *. a.(i))) w;
                    let want = if c' = c then 1.0 else 0.0 in
                    if Float.abs (!dot -. want) > 1e-9 then
                      Alcotest.failf "row of %d prices column %d at %g" c c'
                        !dot;
                    incr checked)
                  b.Simplex.vbasis)
              b.Simplex.vbasis)
    | _ -> ()
  done;
  Alcotest.(check bool) "products checked" true (!checked > 100)

(* ---- the per-domain matrix and factorization memo ------------------- *)

(* A solve over other rows: replaces the memo entry, so the next warm
   solve rebuilds its matrix and refactorizes its basis. *)
let evict () = ignore (Simplex.solve ~want_basis:true (textbook_input ~hiy:5.0))

let same_solve what (a : Simplex.result) (b : Simplex.result) =
  let same =
    a.Simplex.status = b.Simplex.status
    && a.Simplex.x = b.Simplex.x
    && a.Simplex.duals = b.Simplex.duals
    && a.Simplex.obj_value = b.Simplex.obj_value
    && a.Simplex.iterations = b.Simplex.iterations
    && a.Simplex.basis = b.Simplex.basis
    && a.Simplex.warm_started = b.Simplex.warm_started
  in
  if not same then
    Alcotest.failf "%s: results differ (obj %.17g vs %.17g, %d vs %d iterations)"
      what a.Simplex.obj_value b.Simplex.obj_value a.Simplex.iterations
      b.Simplex.iterations

(* An LP wide enough that a warm repair takes several pivots, its optimal
   basis, and [k] tightened copies of it over the same rows array. *)
let memo_case seed k =
  let rng = Datasets.Prng.create seed in
  let input = random_feasible_lp rng 14 9 in
  let r0 = Simplex.solve ~want_basis:true input in
  let basis =
    match (r0.Simplex.status, r0.Simplex.basis) with
    | Status.Optimal, Some b -> b
    | _ -> Alcotest.failf "seed %d: root LP not optimal" seed
  in
  let tightened =
    List.init k (fun _ ->
        let hi = Array.copy input.Simplex.hi in
        for _ = 1 to 3 do
          let j = Datasets.Prng.int rng input.Simplex.nvars in
          hi.(j) <- Float.min hi.(j) (Datasets.Prng.range rng 0.0 3.0)
        done;
        { input with Simplex.hi })
  in
  (input, basis, tightened)

let test_memo_warm_bound_sets () =
  (* Each bound set is solved from the root basis after the previous
     set's solves, again after a solve from another basis over the same
     rows, and once more after an unrelated LP evicted the memo; the
     solve from the other basis is repeated after an eviction too.  Each
     pair must agree exactly. *)
  let warm = ref 0 in
  List.iter
    (fun seed ->
      let _, basis, tightened = memo_case seed 6 in
      let other = ref None in
      List.iteri
        (fun i inp ->
          let what = Printf.sprintf "seed %d set %d" seed i in
          let a = Simplex.solve ~warm:basis inp in
          Option.iter
            (fun ob ->
              let p = Simplex.solve ~warm:ob inp in
              let b = Simplex.solve ~warm:basis inp in
              evict ();
              same_solve (what ^ " other basis, evicted") p
                (Simplex.solve ~warm:ob inp);
              same_solve (what ^ " after another basis") a b)
            !other;
          evict ();
          same_solve (what ^ " after eviction") a (Simplex.solve ~warm:basis inp);
          if a.Simplex.warm_started && a.Simplex.iterations > 0 then incr warm;
          if a.Simplex.basis <> None then other := a.Simplex.basis)
        tightened)
    [ 3; 11; 29 ];
  Alcotest.(check bool) "warm pivots exercised" true (!warm > 0)

let test_memo_row_identity () =
  (* A structurally equal copy of the rows, and the same rows array under
     a wider [nvars], must solve exactly as a fresh solve does. *)
  List.iter
    (fun seed ->
      let input, basis, tightened = memo_case seed 2 in
      let inp = List.hd tightened in
      let copied = { inp with Simplex.rows = Array.copy inp.Simplex.rows } in
      let a = Simplex.solve ~warm:basis inp in
      let b = Simplex.solve ~warm:basis copied in
      evict ();
      let c = Simplex.solve ~warm:basis copied in
      same_solve (Printf.sprintf "seed %d copied rows" seed) a b;
      same_solve (Printf.sprintf "seed %d copied rows, evicted" seed) a c;
      (* One extra free-standing column over the very same rows array. *)
      let n = input.Simplex.nvars in
      let wide inp =
        { inp with
          Simplex.nvars = n + 1;
          lo = Array.append inp.Simplex.lo [| 0.0 |];
          hi = Array.append inp.Simplex.hi [| 2.0 |];
          obj = Array.append inp.Simplex.obj [| -1.0 |] }
      in
      let r0 = Simplex.solve ~want_basis:true (wide input) in
      let wbasis = Option.get r0.Simplex.basis in
      ignore (Simplex.solve ~warm:basis inp);
      let d = Simplex.solve ~warm:wbasis (wide inp) in
      evict ();
      let e = Simplex.solve ~warm:wbasis (wide inp) in
      same_solve (Printf.sprintf "seed %d wider nvars" seed) d e;
      if d.Simplex.status = Status.Optimal then
        check_float "extra column at its upper bound" 2.0 d.Simplex.x.(n))
    [ 5; 17 ]

let test_memo_two_domains () =
  (* Two domains warm-solve different LPs at the same time; each domain's
     memo is its own, so every result matches the sequential run. *)
  let run (_, basis, tightened) =
    List.map (fun inp -> Simplex.solve ~warm:basis inp) tightened
  in
  let ca = memo_case 41 8 and cb = memo_case 43 8 in
  let ref_a = run ca and ref_b = run cb in
  let rounds = 25 in
  let repeat case reference =
    for _ = 1 to rounds do
      List.iter2 (same_solve "concurrent") reference (run case)
    done
  in
  let d = Domain.spawn (fun () -> repeat ca ref_a) in
  repeat cb ref_b;
  Domain.join d

(* ---- pinned literal --------------------------------------------------- *)

(* Seeded cold solves and chains of warm bound tightenings, each result
   reduced to its status, the bits of its objective and point, and its
   iteration count, all hashed into one MD5.  Any change to the pivot
   sequence or to the floating-point order of the engine's arithmetic
   moves the digest, so a change that claims to keep plans bit-identical
   must leave this literal as it is. *)
let test_pinned_literal () =
  let buf = Buffer.create 4096 in
  let warm = ref 0 in
  let record (r : Simplex.result) =
    Buffer.add_string buf (Status.to_string r.Simplex.status);
    Buffer.add_string buf
      (Printf.sprintf " %Lx %d" (Int64.bits_of_float r.Simplex.obj_value)
         r.Simplex.iterations);
    Array.iter
      (fun v -> Buffer.add_string buf (Printf.sprintf " %Lx" (Int64.bits_of_float v)))
      r.Simplex.x;
    Buffer.add_char buf '\n';
    if r.Simplex.warm_started && r.Simplex.iterations > 0 then incr warm
  in
  List.iter
    (fun (seed, n, rows) ->
      let rng = Datasets.Prng.create seed in
      let input = random_feasible_lp rng n rows in
      record (Simplex.solve input);
      let root = Simplex.solve ~want_basis:true input in
      record root;
      let lo = Array.copy input.Simplex.lo and hi = Array.copy input.Simplex.hi in
      let last = ref root.Simplex.basis in
      for _ = 1 to 8 do
        let j = Datasets.Prng.int rng n in
        let v = Datasets.Prng.range rng lo.(j) hi.(j) in
        if Datasets.Prng.int rng 2 = 0 then lo.(j) <- v else hi.(j) <- v;
        let inp = { input with Simplex.lo = Array.copy lo; hi = Array.copy hi } in
        let r = Simplex.solve ?warm:!last inp in
        record r;
        if r.Simplex.basis <> None then last := r.Simplex.basis
      done)
    [ (1, 6, 4); (2, 9, 7); (3, 14, 9); (4, 20, 14); (5, 40, 30); (6, 60, 45);
      (7, 80, 70) ];
  Alcotest.(check bool) "warm pivots exercised" true (!warm > 10);
  Alcotest.(check string) "pinned digest" "2a3a244cfe46bc0638284e46179fb305"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A generalized assignment relaxation: [g] groups, each placed once on
   one of [t] targets, under capacities tight enough that the LP optimum
   is fractional.  Returns the input and its integrality marks. *)
let assignment_lp rng g t =
  let m = Model.create () in
  let x =
    Array.init g (fun i ->
        Array.init t (fun j ->
            Model.add_var m ~binary:true (Printf.sprintf "x%d_%d" i j)))
  in
  let w = Array.init g (fun _ -> Datasets.Prng.range rng 1.0 9.0) in
  Array.iteri
    (fun i xi ->
      Model.add_eq m (Printf.sprintf "a%d" i)
        (Model.Linexpr.sum (Array.to_list (Array.map Model.Linexpr.var xi)))
        1.0)
    x;
  let cap = 1.1 *. Array.fold_left ( +. ) 0.0 w /. float_of_int t in
  for j = 0 to t - 1 do
    Model.add_le m (Printf.sprintf "c%d" j)
      (Model.Linexpr.sum (List.init g (fun i -> Model.Linexpr.term w.(i) x.(i).(j))))
      cap
  done;
  Model.set_objective m
    (Model.Linexpr.sum
       (List.concat
          (List.init g (fun i ->
               List.init t (fun j ->
                   Model.Linexpr.term (Datasets.Prng.range rng 1.0 20.0) x.(i).(j))))));
  ( Simplex.of_model m,
    Array.map (Model.is_integer m) (Model.vars m) )

(* Seeded assignment LPs strengthened by [Cuts.strengthen]: its dense
   Gomory rows make the final optimal bases refactorize with fill.  Each
   case hashes the final solve's iterations and objective bits and the
   bits of every row of B^-1 that [basis_rows] returns at its basis, so
   any change to the factorization's pivot choice, eta order or
   arithmetic moves the digest. *)
let test_pinned_basis_rows () =
  let buf = Buffer.create 65536 in
  let cut_rows = ref 0 in
  let solve ?warm inp = Simplex.solve ?warm ~want_basis:true inp in
  List.iter
    (fun (seed, g, t) ->
      let rng = Datasets.Prng.create seed in
      let input, integer = assignment_lp rng g t in
      match
        Cuts.strengthen ~solve ~integer ~int_tol:1e-6
          ~stop:(fun () -> false) input
      with
      | None -> Alcotest.failf "seed %d: no cut was added" seed
      | Some (inp, r, _) -> (
          cut_rows :=
            !cut_rows + Array.length inp.Simplex.rows
            - Array.length input.Simplex.rows;
          Buffer.add_string buf
            (Printf.sprintf "%d %d %Lx\n" seed r.Simplex.iterations
               (Int64.bits_of_float r.Simplex.obj_value));
          match r.Simplex.basis with
          | None -> Alcotest.failf "seed %d: no basis" seed
          | Some b -> (
              match Simplex.basis_rows inp b with
              | None -> Alcotest.failf "seed %d: basis did not factorize" seed
              | Some row ->
                  Array.iter
                    (fun c ->
                      Buffer.add_string buf (string_of_int c);
                      Array.iter
                        (fun v ->
                          Buffer.add_string buf
                            (Printf.sprintf " %Lx" (Int64.bits_of_float v)))
                        (row c);
                      Buffer.add_char buf '\n')
                    b.Simplex.vbasis)))
    [ (1, 6, 3); (2, 10, 4); (3, 16, 5); (4, 24, 6); (5, 40, 8); (6, 60, 10) ];
  Alcotest.(check bool) "cut rows appended" true (!cut_rows > 30);
  Alcotest.(check string) "pinned digest" "5e696fc3b2474b7b1e9485f1fbbfffa1"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_sort_by_key () =
  (* Heapsort is not stable: the key sort must reproduce Array.sort's
     placement of ties, not merely some sorted order. *)
  let rng = Datasets.Prng.create 11 in
  for len = 0 to 300 do
    let spread = 1 + Datasets.Prng.int rng (1 + (len / 4)) in
    let key = Array.init len (fun _ -> Datasets.Prng.int rng spread) in
    let want = Array.init len (fun i -> i) in
    Array.sort (fun x y -> Int.compare key.(x) key.(y)) want;
    let got = Array.init len (fun i -> i) in
    Factor.sort_by_key key got;
    if got <> want then Alcotest.failf "length %d: permutations differ" len
  done

(* ---- Factor alone, against a dense solve ----------------------------- *)

(* The frame [A | slacks | artificials] of [input] as dense columns and
   in the compressed-column form [Factor.build] reads. *)
let frame_csc (input : Simplex.input) =
  let m = Array.length input.Simplex.rows in
  let ntot = (Simplex.layout input).Simplex.art0 + m in
  let dense = Array.init ntot (frame_column input) in
  let cstart = Array.make (ntot + 1) 0 in
  let crow = ref [] and cval = ref [] and nnz = ref 0 in
  Array.iteri
    (fun j col ->
      Array.iteri
        (fun i v ->
          if v <> 0.0 then begin
            crow := i :: !crow;
            cval := v :: !cval;
            incr nnz
          end)
        col;
      cstart.(j + 1) <- !nnz)
    dense;
  ( dense,
    cstart,
    Array.of_list (List.rev !crow),
    Array.of_list (List.rev !cval) )

(* Solve [B x = b], or [B^T x = b] when [transpose], where column [p] of
   [B] is [cols.(p)], by Gaussian elimination with partial pivoting.
   Returns [x] and the smallest pivot met ([0.0] when [B] is singular,
   and then [x] means nothing). *)
let dense_solve ~transpose (cols : float array array) (b : float array) =
  let m = Array.length b in
  let a =
    Array.init m (fun i ->
        Array.init m (fun p -> if transpose then cols.(i).(p) else cols.(p).(i)))
  in
  let x = Array.copy b and min_piv = ref infinity in
  for k = 0 to m - 1 do
    let r = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!r).(k) then r := i
    done;
    let t = a.(k) and xt = x.(k) in
    a.(k) <- a.(!r);
    a.(!r) <- t;
    x.(k) <- x.(!r);
    x.(!r) <- xt;
    let piv = a.(k).(k) in
    min_piv := Float.min !min_piv (Float.abs piv);
    if piv <> 0.0 then
      for i = k + 1 to m - 1 do
        let f = a.(i).(k) /. piv in
        if f <> 0.0 then begin
          for c = k to m - 1 do
            a.(i).(c) <- a.(i).(c) -. (f *. a.(k).(c))
          done;
          x.(i) <- x.(i) -. (f *. x.(k))
        end
      done
  done;
  if !min_piv > 0.0 then
    for k = m - 1 downto 0 do
      let acc = ref x.(k) in
      for c = k + 1 to m - 1 do
        acc := !acc -. (a.(k).(c) *. x.(c))
      done;
      x.(k) <- !acc /. a.(k).(k)
    done;
  (x, if m = 0 then 1.0 else !min_piv)

(* [ftran] and [btran] of [f] agree with the dense solves over the basis
   whose column [p] is [dense.(basis.(p))], on random right-hand sides. *)
let check_factor what rng f dense (basis : int array) =
  let cols = Array.map (fun c -> dense.(c)) basis in
  let m = Array.length basis in
  for _ = 1 to 2 do
    let b = Array.init m (fun _ -> Datasets.Prng.range rng (-5.0) 5.0) in
    List.iter
      (fun transpose ->
        let want, piv = dense_solve ~transpose cols b in
        if piv < 1e-9 then Alcotest.failf "%s: dense basis singular" what;
        let got = Array.copy b in
        if transpose then Factor.btran f got else Factor.ftran f got;
        let scale =
          1.0 +. Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 want
        in
        Array.iteri
          (fun i w ->
            if Float.abs (got.(i) -. w) > 1e-8 *. scale then
              Alcotest.failf "%s: %s row %d is %.17g, dense solve %.17g" what
                (if transpose then "btran" else "ftran")
                i got.(i) w)
          want)
      [ false; true ]
  done

(* Build [cols] and check that the permuted basis holds the same columns
   and that the factorization solves like the dense one. *)
let build_checked what rng (dense, cstart, crow, cval) cols =
  match Factor.build ~cstart ~crow ~cval cols with
  | None -> Alcotest.failf "%s: a non-singular basis reported singular" what
  | Some (snap, b) ->
      let sorted a = List.sort compare (Array.to_list a) in
      if sorted b <> sorted cols then
        Alcotest.failf "%s: the permuted basis lost a column" what;
      let f = Factor.start snap in
      check_factor what rng f dense b;
      (f, b)

(* A row from its (id, coefficient) terms. *)
let row_of_terms terms sense rhs =
  { Model.ids = Array.map fst terms; coefs = Array.map snd terms; sense; rhs }

(* A random sparse input: [m] mixed-sense rows over [n] columns, then
   [z0 = x0 + x1] and a column [zero] in no row. *)
let sparse_input rng m n =
  let rows =
    Array.init m (fun _ ->
        let terms = ref [] in
        for j = n - 1 downto 0 do
          if Datasets.Prng.int rng 10 < 3 then
            terms := (j, Datasets.Prng.range rng (-5.0) 5.0) :: !terms
        done;
        let c0 = try List.assoc 0 !terms with Not_found -> 0.0 in
        let c1 = try List.assoc 1 !terms with Not_found -> 0.0 in
        let z = if c0 +. c1 <> 0.0 then [ (n, c0 +. c1) ] else [] in
        let terms = !terms @ z in
        let sense =
          match Datasets.Prng.int rng 3 with
          | 0 -> Model.Le
          | 1 -> Model.Ge
          | _ -> Model.Eq
        in
        row_of_terms (Array.of_list terms) sense 1.0)
  in
  let nv = n + 2 in
  { Simplex.nvars = nv; lo = Array.make nv 0.0; hi = Array.make nv 1.0;
    obj = Array.make nv 0.0; obj_const = 0.0; minimize = true; rows }

(* A random basis of [frame] over [m] rows, well conditioned in the dense
   solve. *)
let random_basis rng (dense, _, _, _) m =
  let ntot = Array.length dense in
  let rec pick tries =
    let all = Array.init ntot (fun j -> j) in
    Datasets.Prng.shuffle rng all;
    let cols = Array.sub all 0 m in
    let _, piv =
      dense_solve ~transpose:false (Array.map (fun c -> dense.(c)) cols)
        (Array.make m 1.0)
    in
    if piv > 1e-2 || tries = 0 then cols else pick (tries - 1)
  in
  pick 200

(* Pivot [steps] random columns into the factorization of [basis] as the
   simplex does: FTRAN, a rank-one update, and a rebuild whenever
   [Factor.due] says so; checks every factorization on the way.  Returns
   the number of rebuilds. *)
let update_checked what rng ((dense, _, _, _) as frame) f basis steps =
  let f = ref f and basis = ref basis and rebuilds = ref 0 in
  let ntot = Array.length dense and m = Array.length !basis in
  let done_ = ref 0 and tries = ref 0 in
  while !done_ < steps && !tries < 100 * steps do
    incr tries;
    let q = Datasets.Prng.int rng ntot in
    if not (Array.mem q !basis) then begin
      let d = Array.copy dense.(q) in
      Factor.ftran !f d;
      let p = ref 0 in
      Array.iteri (fun i v -> if Float.abs v > Float.abs d.(!p) then p := i) d;
      if Float.abs d.(!p) > 0.1 then begin
        let d0 = Array.copy d in
        Factor.update !f ~p:!p d;
        if d <> d0 then Alcotest.failf "%s: update wrote to its column" what;
        !basis.(!p) <- q;
        incr done_;
        if Factor.due !f then begin
          let f', b' = build_checked what rng frame !basis in
          f := f';
          basis := b';
          incr rebuilds
        end
        else check_factor (Printf.sprintf "%s, update %d" what !done_) rng !f
               dense !basis
      end
    end
  done;
  if m > 0 && !done_ < steps then Alcotest.failf "%s: too few pivots" what;
  !rebuilds

let test_factor_dense rng =
  let rebuilds = ref 0 and singular = ref 0 in
  for case = 0 to 24 do
    let m = 1 + Datasets.Prng.int rng 24 in
    let n = 2 + m + Datasets.Prng.int rng m in
    let input = sparse_input rng m n in
    let ((dense, cstart, crow, cval) as frame) = frame_csc input in
    let what = Printf.sprintf "case %d (m = %d)" case m in
    let cols = random_basis rng frame m in
    let f, b = build_checked what rng frame cols in
    rebuilds := !rebuilds + update_checked what rng frame f b 90;
    (* A crash basis of slacks and artificials, factored as a diagonal
       of its +-1 entries. *)
    let { Simplex.slack; art0 } = Simplex.layout input in
    let diag =
      Array.init m (fun i ->
          if slack.(i) >= 0 && Datasets.Prng.int rng 2 = 0 then slack.(i)
          else art0 + i)
    in
    let dg = Array.mapi (fun i c -> dense.(c).(i)) diag in
    let f = Factor.start (Factor.diagonal dg) in
    check_factor (what ^ ", diagonal") rng f dense diag;
    ignore (update_checked (what ^ ", diagonal") rng frame f diag 20);
    (* Singular bases: a column in no row, a repeated column, and
       [z0 = x0 + x1] beside [x0] and [x1]; artificials fill the rest. *)
    let basis front =
      Array.init m (fun i ->
          if i < Array.length front then front.(i) else art0 + i)
    in
    let bad =
      [ basis [| n + 1 |] ]
      @ (if m >= 2 then [ basis [| cols.(0); cols.(0) |] ] else [])
      @
      if m >= 3 && Array.exists (fun v -> v <> 0.0) dense.(n) then
        [ basis [| 0; 1; n |] ]
      else []
    in
    List.iter
      (fun cols ->
        match Factor.build ~cstart ~crow ~cval cols with
        | None -> incr singular
        | Some _ -> Alcotest.failf "%s: a singular basis was factored" what)
      bad
  done;
  Alcotest.(check bool) "updates reached a rebuild" true (!rebuilds >= 20);
  Alcotest.(check bool) "singular bases tried" true (!singular >= 60)

let test_factor_cut_rows rng =
  (* Optimal bases of random LPs, extended by [Cuts.extend_basis] over
     appended inequality rows whose slacks go basic, as a cut round
     does. *)
  let checked = ref 0 in
  for case = 0 to 29 do
    let n = 3 + Datasets.Prng.int rng 8 in
    let input = random_feasible_lp rng n (2 + Datasets.Prng.int rng 6) in
    let r = Simplex.solve ~want_basis:true input in
    let k = 1 + Datasets.Prng.int rng 4 in
    let cuts =
      Array.init k (fun _ ->
          let terms =
            Array.init n (fun j -> (j, Datasets.Prng.range rng (-3.0) 3.0))
          in
          let sense = if Datasets.Prng.int rng 2 = 0 then Model.Ge else Model.Le in
          row_of_terms terms sense 1.0)
    in
    match r.Simplex.basis with
    | None -> ()
    | Some b -> (
        let input' =
          { input with Simplex.rows = Array.append input.Simplex.rows cuts }
        in
        match Cuts.extend_basis input b k with
        | None -> ()
        | Some b' ->
            let frame = frame_csc input' in
            let what = Printf.sprintf "cut case %d" case in
            let f, bas = build_checked what rng frame b'.Simplex.vbasis in
            ignore (update_checked what rng frame f bas 10);
            incr checked)
  done;
  Alcotest.(check bool) "extended bases checked" true (!checked >= 20)

(* Fresh bases, bases after updates and rebuilds, singular bases, and
   bases with cut rows appended: any factorization behind [Factor] must
   pass this. *)
let test_factor () =
  let rng = Datasets.Prng.create 23 in
  test_factor_dense rng;
  test_factor_cut_rows rng

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "textbook max LP" `Quick test_textbook;
    Alcotest.test_case "equality rows" `Quick test_equality_rows;
    Alcotest.test_case "bound flip to upper" `Quick test_bound_flip;
    Alcotest.test_case "negative lower bounds" `Quick test_negative_lower_bounds;
    Alcotest.test_case "infeasible detection" `Quick test_infeasible;
    Alcotest.test_case "unbounded detection" `Quick test_unbounded;
    Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
    Alcotest.test_case "degenerate constraints" `Quick test_degenerate;
    Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
    Alcotest.test_case "objective constant" `Quick test_objective_constant;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "transportation duals" `Quick test_duals_transportation;
    Alcotest.test_case "warm reopt after tightening" `Quick
      test_warm_reopt_tightened;
    Alcotest.test_case "warm detects infeasible" `Quick
      test_warm_detects_infeasible;
    Alcotest.test_case "warm random bound changes" `Quick
      test_warm_random_bound_changes;
    Alcotest.test_case "eta refactorization drift" `Quick
      test_eta_refactorization_drift;
    Alcotest.test_case "basis rows from BTRAN" `Quick test_basis_rows;
    Alcotest.test_case "memo: warm bound sets, evicted or not" `Quick
      test_memo_warm_bound_sets;
    Alcotest.test_case "memo: copied rows and wider nvars" `Quick
      test_memo_row_identity;
    Alcotest.test_case "memo: two domains at once" `Quick
      test_memo_two_domains;
    Alcotest.test_case "pinned literal: cold and warm solves" `Quick
      test_pinned_literal;
    q prop_random_feasible;
    Alcotest.test_case "pinned literal: B^-1 rows after cut rounds" `Quick
      test_pinned_basis_rows;
    Alcotest.test_case "key sort is Array.sort's permutation" `Quick
      test_sort_by_key;
    Alcotest.test_case "factor: ftran and btran against a dense solve" `Quick
      test_factor;
  ]
