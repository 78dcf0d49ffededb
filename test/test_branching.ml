(* Lp.Branching.select: the probe budget the caller passes, the
   strong-branching cap of 8, and the most-fractional fallback. *)

module B = Lp.Branching

(* Twelve integer variables, all fractional, with distinct distances to
   the nearest integer: variable 5 (x = 2.5) is the most fractional,
   then 11, 10, ..., 0. *)
let int_ids = List.init 12 Fun.id

let x =
  Array.init 12 (fun j ->
      if j = 5 then 2.5 else float_of_int j +. (0.02 *. float_of_int (j + 1)))

let counting_probe result =
  let calls = ref [] in
  let probe j _ =
    calls := j :: !calls;
    result j
  in
  (calls, probe)

let select ~budget t probe = B.select t ~budget ~int_ids ~tol:1e-6 ~x ~probe

let test_budget_bounds_probes () =
  List.iter
    (fun budget ->
      let calls, probe = counting_probe (fun _ -> (Some 1.0, Some 1.0)) in
      ignore (select ~budget (B.create ~nvars:12) probe);
      (* A fresh table leaves every candidate unreliable, so the node
         probes exactly as many as the budget and the cap allow. *)
      Alcotest.(check int)
        (Printf.sprintf "probes at budget %d" budget)
        (min 8 budget) (List.length !calls);
      Alcotest.(check int)
        (Printf.sprintf "distinct candidates at budget %d" budget)
        (List.length !calls)
        (List.length (List.sort_uniq compare !calls)))
    [ 0; 1; 2; 3; 7; 8; 9; 100 ]

let test_budget_zero_never_probes () =
  let calls, probe =
    counting_probe (fun _ -> Alcotest.fail "probe called at budget 0")
  in
  let t = B.create ~nvars:12 in
  for _ = 1 to 3 do
    Alcotest.(check int) "most fractional" 5 (select ~budget:0 t probe)
  done;
  Alcotest.(check int) "no probes" 0 (List.length !calls)

(* Probes go to the most fractional candidates first. *)
let test_probe_order () =
  let calls, probe = counting_probe (fun _ -> (Some 1.0, Some 1.0)) in
  ignore (select ~budget:3 (B.create ~nvars:12) probe);
  Alcotest.(check (list int)) "probe order" [ 5; 11; 10 ] (List.rev !calls)

(* With nothing observed, by the probes or before, the selector falls
   back to the most fractional candidate. *)
let test_unobserved_is_most_fractional () =
  let calls, probe = counting_probe (fun _ -> (None, None)) in
  Alcotest.(check int) "no information" 5
    (select ~budget:4 (B.create ~nvars:12) probe);
  Alcotest.(check int) "probes still ran" 4 (List.length !calls);
  Alcotest.(check int) "agrees with most_fractional" 5
    (B.most_fractional int_ids 1e-6 x)

(* Observations steer the choice: the candidate whose probes degrade
   the objective most in both directions wins over the most fractional
   one, and a candidate with 4 observations per direction is reliable
   and not probed again. *)
let test_observations_steer () =
  let t = B.create ~nvars:12 in
  let _, probe =
    counting_probe (fun j ->
        if j = 11 then (Some 50.0, Some 50.0) else (Some 0.1, Some 0.1))
  in
  Alcotest.(check int) "largest product" 11 (select ~budget:8 t probe);
  for _ = 1 to 4 do
    B.observe t ~var:5 ~up:true ~frac:0.5 ~degradation:1.0;
    B.observe t ~var:5 ~up:false ~frac:0.5 ~degradation:1.0
  done;
  let calls, probe = counting_probe (fun _ -> (Some 1.0, Some 1.0)) in
  ignore (select ~budget:1 t probe);
  Alcotest.(check (list int)) "reliable candidate skipped" [ 11 ] !calls

let test_integral_point () =
  let calls, probe = counting_probe (fun _ -> (Some 1.0, Some 1.0)) in
  Alcotest.(check int) "integral" (-1)
    (B.select (B.create ~nvars:3) ~budget:8 ~int_ids:[ 0; 1; 2 ] ~tol:1e-6
       ~x:[| 1.0; 2.0; -3.0 |] ~probe);
  Alcotest.(check int) "no probes" 0 (List.length !calls)

let suite =
  [
    Alcotest.test_case "probes bounded by budget and cap" `Quick
      test_budget_bounds_probes;
    Alcotest.test_case "budget 0 never probes" `Quick
      test_budget_zero_never_probes;
    Alcotest.test_case "most fractional probed first" `Quick test_probe_order;
    Alcotest.test_case "no observations: most fractional" `Quick
      test_unobserved_is_most_fractional;
    Alcotest.test_case "observations steer the choice" `Quick
      test_observations_steer;
    Alcotest.test_case "integral point" `Quick test_integral_point;
  ]
