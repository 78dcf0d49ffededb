(* Step-function (economies-of-scale) encodings: the Schoomer technique the
   paper uses for volume discounts. *)

open Lp

let segs widths costs =
  List.map2
    (fun width unit_cost -> { Piecewise.width; unit_cost })
    widths costs

let test_cost_at () =
  let s = segs [ 10.0; 10.0; 10.0 ] [ 5.0; 4.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Piecewise.cost_at s 0.0);
  Alcotest.(check (float 1e-9)) "inside first" 25.0 (Piecewise.cost_at s 5.0);
  Alcotest.(check (float 1e-9)) "boundary" 50.0 (Piecewise.cost_at s 10.0);
  Alcotest.(check (float 1e-9)) "second tier" 70.0 (Piecewise.cost_at s 15.0);
  Alcotest.(check (float 1e-9)) "full" 120.0 (Piecewise.cost_at s 30.0);
  Alcotest.(check (float 1e-9)) "overflow clamps" 120.0 (Piecewise.cost_at s 99.0);
  Alcotest.(check (float 1e-9)) "width" 30.0 (Piecewise.total_width s)

(* The concave encoding must pay full price for early units even though
   later units are cheaper — an LP without the binaries would cheat. *)
let test_concave_no_cheating () =
  let m = Model.create () in
  let q = Model.add_var m ~lo:15.0 ~hi:15.0 "q" in
  let cost =
    Piecewise.concave_cost m ~name:"space" ~quantity:(Model.Linexpr.var q)
      (segs [ 10.0; 10.0; 10.0 ] [ 5.0; 4.0; 3.0 ])
  in
  Model.set_objective m cost;
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "pays tier order" 70.0 r.Milp.obj

let test_concave_lp_relaxation_cheats () =
  (* Sanity check that the binaries are doing real work: the LP relaxation
     of the same model is strictly cheaper. *)
  let m = Model.create () in
  let q = Model.add_var m ~lo:15.0 ~hi:15.0 "q" in
  let cost =
    Piecewise.concave_cost m ~name:"space" ~quantity:(Model.Linexpr.var q)
      (segs [ 10.0; 10.0; 10.0 ] [ 5.0; 4.0; 3.0 ])
  in
  Model.set_objective m cost;
  let r = Milp.relax m in
  Alcotest.(check bool) "relaxation cheaper" true (r.Simplex.obj_value < 70.0 -. 1e-6)

let test_convex () =
  let m = Model.create () in
  let q = Model.add_var m ~lo:15.0 ~hi:15.0 "q" in
  let cost =
    Piecewise.convex_cost m ~name:"wan" ~quantity:(Model.Linexpr.var q)
      (segs [ 10.0; 10.0; 10.0 ] [ 3.0; 4.0; 5.0 ])
  in
  Model.set_objective m cost;
  (* increasing prices: plain LP suffices and fills cheap tiers first *)
  let r = Milp.solve m in
  Alcotest.(check (float 1e-6)) "convex cost" 50.0 r.Milp.obj

let test_fixed_charge () =
  (* Two facilities, one with a big opening fee: optimizer should avoid it
     when a single facility suffices. *)
  let m = Model.create () in
  let q1 = Model.add_var m ~hi:10.0 "q1" and q2 = Model.add_var m ~hi:10.0 "q2" in
  Model.add_ge m "demand" Model.Linexpr.(add (var q1) (var q2)) 8.0;
  let f1, _ =
    Piecewise.fixed_charge m ~name:"dc1" ~quantity:(Model.Linexpr.var q1)
      ~capacity:10.0 ~fixed_cost:100.0
  in
  let f2, _ =
    Piecewise.fixed_charge m ~name:"dc2" ~quantity:(Model.Linexpr.var q2)
      ~capacity:10.0 ~fixed_cost:1.0
  in
  Model.set_objective m
    Model.Linexpr.(sum [ f1; f2; term 0.1 q1; term 0.1 q2 ]);
  let r = Milp.solve m in
  Alcotest.(check (float 1e-6)) "only cheap one opens" 1.8 r.Milp.obj

let test_invalid_segments () =
  let m = Model.create () in
  let q = Model.add_var m "q" in
  Alcotest.check_raises "empty"
    (Invalid_argument "s: empty segment list") (fun () ->
      ignore (Piecewise.concave_cost m ~name:"s" ~quantity:(Model.Linexpr.var q) []));
  Alcotest.check_raises "bad width"
    (Invalid_argument "s: non-positive segment width") (fun () ->
      ignore
        (Piecewise.concave_cost m ~name:"s" ~quantity:(Model.Linexpr.var q)
           [ { Piecewise.width = 0.0; unit_cost = 1.0 } ]))

(* For any demand within total width, the MILP cost of the concave encoding
   must equal direct evaluation of the step curve. *)
let prop_concave_matches_direct =
  let gen rng =
    let open Check.Gen in
    let k = int_range 1 4 rng in
    let widths = list_repeat k (int_range 2 10) rng in
    let c0 = int_range 5 12 rng in
    let drops = list_repeat k (int_range 0 3) rng in
    let q = float_range 0.0 1.0 rng in
    (widths, c0, drops, q)
  in
  (* Drops and the demand toward 0; widths and the first cost stay,
     since a zero width is no segment. *)
  let shrink (widths, c0, drops, q) =
    Seq.append
      (Seq.map
         (fun drops -> (widths, c0, drops, q))
         (Check.Shrink.list_each Check.Shrink.int drops))
      (Seq.map (fun q -> (widths, c0, drops, q)) (Check.Shrink.float q))
  in
  let pp ppf (widths, c0, drops, q) =
    let ints = Fmt.(Dump.list int) in
    Format.fprintf ppf "widths %a@\nfirst cost %d@\ndrops %a@\ndemand %.17g"
      ints widths c0 ints drops q
  in
  Check.prop ~count:60 "concave encoding equals direct curve"
    (Check.arb ~shrink ~pp gen)
    (fun (widths, c0, drops, qfrac) ->
      let costs =
        List.rev
          (snd
             (List.fold_left
                (fun (c, acc) d -> (max 1 (c - d), (float_of_int c) :: acc))
                (c0, []) drops))
      in
      let s = segs (List.map float_of_int widths) costs in
      let total = Piecewise.total_width s in
      let q = qfrac *. total in
      let m = Model.create () in
      let qv = Model.add_var m ~lo:q ~hi:q "q" in
      let cost = Piecewise.concave_cost m ~name:"c" ~quantity:(Model.Linexpr.var qv) s in
      Model.set_objective m cost;
      let r = Milp.solve m in
      let direct = Piecewise.cost_at s q in
      if r.Milp.status <> Status.Optimal then
        Fixtures.errorf "status %s" (Status.to_string r.Milp.status)
      else if Float.abs (r.Milp.obj -. direct) > 1e-5 *. (1.0 +. direct) then
        Fixtures.errorf "milp %g direct %g (q=%g)" r.Milp.obj direct q
      else Ok ())

let suite =
  [
    Alcotest.test_case "direct curve evaluation" `Quick test_cost_at;
    Alcotest.test_case "concave encoding honest" `Quick test_concave_no_cheating;
    Alcotest.test_case "LP relaxation would cheat" `Quick test_concave_lp_relaxation_cheats;
    Alcotest.test_case "convex encoding" `Quick test_convex;
    Alcotest.test_case "fixed charge" `Quick test_fixed_charge;
    Alcotest.test_case "invalid segments" `Quick test_invalid_segments;
    Fixtures.property prop_concave_matches_direct;
  ]
