(* LP-format writer/parser round-trips and MPS writer sanity. *)

open Lp

let sample_model () =
  let m = Model.create ~name:"sample" () in
  let x = Model.add_var m ~hi:4.0 "x" in
  let y = Model.add_var m ~lo:(-1.0) ~hi:3.5 "why" in
  let z = Model.add_var m ~binary:true "z" in
  let w = Model.add_var m ~integer:true ~hi:7.0 "w" in
  Model.add_le m "c1" Model.Linexpr.(sum [ var x; term 2.0 y; term (-3.0) z ]) 9.0;
  Model.add_ge m "c2" Model.Linexpr.(add (var y) (term 4.0 w)) 2.0;
  Model.add_eq m "c3" Model.Linexpr.(sub (var x) (var w)) 0.0;
  Model.set_objective m
    Model.Linexpr.(sum [ term 3.0 x; term (-1.0) y; term 10.0 z; var w ]);
  m

let solve m =
  let r = Milp.solve m in
  (r.Milp.status, r.Milp.obj)

let test_roundtrip_solution_equal () =
  let m = sample_model () in
  let text = Lp_format.model_to_string m in
  let m' = Lp_parse.model_of_string text in
  Alcotest.(check int) "vars" (Model.num_vars m) (Model.num_vars m');
  Alcotest.(check int) "constrs" (Model.num_constrs m) (Model.num_constrs m');
  let s1, o1 = solve m and s2, o2 = solve m' in
  Alcotest.(check string) "status" (Status.to_string s1) (Status.to_string s2);
  Alcotest.(check (float 1e-6)) "objective preserved" o1 o2

let test_roundtrip_twice_stable () =
  let m = sample_model () in
  let t1 = Lp_format.model_to_string m in
  let t2 = Lp_format.model_to_string (Lp_parse.model_of_string ~name:"sample" t1) in
  Alcotest.(check string) "fixed point" t1 t2

let test_sections_written () =
  let text = Lp_format.model_to_string (sample_model ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" needle)
        true
        (Astring_contains.contains text needle))
    [ "Minimize"; "Subject To"; "Bounds"; "Binaries"; "Generals"; "End" ]

let test_maximize_preserved () =
  let m = Model.create () in
  let x = Model.add_var m ~hi:2.0 "x" in
  Model.set_objective m ~minimize:false (Model.Linexpr.var x);
  let m' = Lp_parse.model_of_string (Lp_format.model_to_string m) in
  Alcotest.(check bool) "maximize" false (Model.minimize m');
  let _, o = solve m' in
  Alcotest.(check (float 1e-9)) "obj" 2.0 o

let test_sanitize_names () =
  Alcotest.(check string) "spaces" "a_b" (Lp_format.sanitize_name "a b");
  Alcotest.(check string) "leading digit" "x1a" (Lp_format.sanitize_name "1a");
  Alcotest.(check string) "leading e" "xe10" (Lp_format.sanitize_name "e10");
  Alcotest.(check string) "empty" "x" (Lp_format.sanitize_name "")

let test_parse_free_and_inf () =
  let text =
    "Minimize\n obj: x + y\nSubject To\n c: x + y >= -2\nBounds\n x free\n \
     -inf <= y <= 4\nEnd\n"
  in
  let m = Lp_parse.model_of_string text in
  let r = Milp.solve m in
  Alcotest.(check string) "status" "optimal" (Status.to_string r.Milp.status);
  Alcotest.(check (float 1e-6)) "obj" (-2.0) r.Milp.obj

let test_parse_errors () =
  let bad = "Minimize\n obj: x\nSubject To\n c: x * 1\nEnd\n" in
  Alcotest.check_raises "bad char"
    (Lp_parse.Parse_error "unexpected character '*'") (fun () ->
      ignore (Lp_parse.model_of_string bad));
  let missing_rhs = "Minimize\n obj: x\nSubject To\n c: x <=\nEnd\n" in
  Alcotest.check_raises "missing rhs"
    (Lp_parse.Parse_error "constraint 0: expected relation and rhs") (fun () ->
      ignore (Lp_parse.model_of_string missing_rhs))

let test_solution_file () =
  let m = sample_model () in
  let r = Milp.solve m in
  let text =
    Lp_format.solution_to_string m ~status:r.Milp.status ~obj:r.Milp.obj
      r.Milp.x
  in
  Alcotest.(check bool) "has status line" true
    (Astring_contains.contains text "status: optimal");
  Alcotest.(check bool) "has objective" true
    (Astring_contains.contains text "objective:")

let test_mps_writer () =
  let text = Mps_format.model_to_string (sample_model ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" needle)
        true
        (Astring_contains.contains text needle))
    [ "NAME"; "ROWS"; "COLUMNS"; "RHS"; "BOUNDS"; "ENDATA"; "INTORG" ];
  (* Objective 3x + 2y + 5 and a column z in no row: the constant must
     survive as the negated objective-row rhs, and every column BOUNDS
     names must be declared in COLUMNS. *)
  let m = Model.create ~name:"const" () in
  let x = Model.add_var m ~hi:4.0 "x" and y = Model.add_var m ~hi:4.0 "y" in
  let _z = Model.add_var m ~hi:5.0 "z" in
  Model.add_le m "c" Model.Linexpr.(add (var x) (var y)) 6.0;
  Model.set_objective m
    Model.Linexpr.(sum [ term 3.0 x; term 2.0 y; constant 5.0 ]);
  let section = ref "" and entries = ref [] in
  List.iter
    (fun line ->
      let words = String.split_on_char ' ' line |> List.filter (( <> ) "") in
      if line <> "" && line.[0] <> ' ' then section := List.hd words
      else if words <> [] then entries := (!section, words) :: !entries)
    (String.split_on_char '\n' (Mps_format.model_to_string m));
  let lines_of name =
    List.filter_map (fun (s, w) -> if s = name then Some w else None) !entries
  in
  let columns = List.map List.hd (lines_of "COLUMNS") in
  let bounded = List.map (fun w -> List.nth w 2) (lines_of "BOUNDS") in
  Alcotest.(check bool) "objective constant as rhs obj -5" true
    (List.mem [ "rhs"; "obj"; "-5" ] (lines_of "RHS"));
  Alcotest.(check bool) "z is bounded" true (List.mem "z" bounded);
  List.iter
    (fun col ->
      Alcotest.(check bool)
        (Printf.sprintf "bounded column %s declared" col)
        true (List.mem col columns))
    bounded

(* [Model.validate] reports structural problems, including an integer
   variable with no integer in its bounds. *)
let test_validate_empty_integral_domain () =
  let m = Model.create () in
  let _ = Model.add_var m ~integer:true ~lo:0.4 ~hi:0.6 "x" in
  Alcotest.(check bool) "reports empty integral domain" true
    (List.exists
       (fun s -> Astring_contains.contains s "empty integral domain")
       (Model.validate m))

let test_validate_crossed_bounds () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.set_bounds m x ~lo:2.0 ~hi:1.0;
  Alcotest.(check bool) "bound order flagged" true (Model.validate m <> [])

(* A NaN rhs and an infinite rhs are each reported once, whatever the
   row's sense. *)
let test_validate_non_finite_rhs () =
  let m = Model.create () in
  let x = Model.add_var m "x" in
  Model.add_le m "nan_row" (Model.Linexpr.var x) Float.nan;
  Model.add_ge m "inf_row" (Model.Linexpr.var x) Float.neg_infinity;
  let problems = Model.validate m in
  let count row =
    List.length
      (List.filter (fun s -> Astring_contains.contains s row) problems)
  in
  Alcotest.(check int) "NaN rhs reported once" 1 (count "nan_row");
  Alcotest.(check int) "infinite rhs reported once" 1 (count "inf_row");
  Alcotest.(check int) "nothing else" 2 (List.length problems)

let prop_random_models_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* rows = int_range 0 5 in
      let* coeffs = list_repeat ((rows + 1) * n) (int_range (-9) 9) in
      let* rhss = list_repeat (max rows 1) (int_range (-20) 20) in
      let* senses = list_repeat (max rows 1) (int_range 0 2) in
      let* kinds = list_repeat n (int_range 0 2) in
      return (n, rows, Array.of_list coeffs, Array.of_list rhss,
              Array.of_list senses, Array.of_list kinds))
  in
  QCheck2.Test.make ~name:"random models round-trip through LP format"
    ~count:80 gen (fun (n, rows, coeffs, rhss, senses, kinds) ->
      let m = Model.create () in
      let vars =
        Array.init n (fun i ->
            match kinds.(i) with
            | 0 -> Model.add_var m ~hi:6.0 (Printf.sprintf "v%d" i)
            | 1 -> Model.add_var m ~binary:true (Printf.sprintf "v%d" i)
            | _ -> Model.add_var m ~integer:true ~hi:4.0 (Printf.sprintf "v%d" i))
      in
      for r = 0 to rows - 1 do
        let e =
          Model.Linexpr.sum
            (List.init n (fun j ->
                 Model.Linexpr.term
                   (float_of_int coeffs.(((r + 1) * n) + j))
                   vars.(j)))
        in
        let sense =
          match senses.(r) with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq
        in
        (* Keep equality rows satisfiable: anchor them at zero. *)
        let rhs =
          if sense = Model.Eq then 0.0 else float_of_int rhss.(r)
        in
        Model.add_constr m (Printf.sprintf "r%d" r) e sense rhs
      done;
      Model.set_objective m
        (Model.Linexpr.sum
           (List.init n (fun j ->
                Model.Linexpr.term (float_of_int coeffs.(j)) vars.(j))));
      let m' = Lp_parse.model_of_string (Lp_format.model_to_string m) in
      let r1 = Milp.solve m and r2 = Milp.solve m' in
      if r1.Milp.status <> r2.Milp.status then
        QCheck2.Test.fail_reportf "status %s vs %s"
          (Status.to_string r1.Milp.status)
          (Status.to_string r2.Milp.status);
      if
        r1.Milp.status = Status.Optimal
        && Float.abs (r1.Milp.obj -. r2.Milp.obj) > 1e-6
      then QCheck2.Test.fail_reportf "objective %g vs %g" r1.Milp.obj r2.Milp.obj;
      true)

(* [Model.Linexpr.terms] against the sort-and-merge it replaced for
   descending input: keep the input order when ids ascend, otherwise sort
   (id, coefficient) pairs with [Array.sort], then sum each run of equal
   ids in order and drop zero sums.  Compared bit for bit. *)
let reference_terms (l : (float * int) list) =
  let ids = Array.of_list (List.map snd l)
  and cs = Array.of_list (List.map fst l) in
  let n0 = Array.length ids in
  let sorted = ref true in
  for i = 1 to n0 - 1 do
    if ids.(i - 1) > ids.(i) then sorted := false
  done;
  if not !sorted then begin
    let pairs = Array.init n0 (fun i -> (ids.(i), cs.(i))) in
    Array.sort (fun (a, _) (b, _) -> Stdlib.compare (a : int) b) pairs;
    Array.iteri
      (fun i (id, c) ->
        ids.(i) <- id;
        cs.(i) <- c)
      pairs
  end;
  let out = ref [] and i = ref 0 in
  while !i < n0 do
    let id = ids.(!i) in
    let acc = ref 0.0 in
    while !i < n0 && ids.(!i) = id do
      acc := !acc +. cs.(!i);
      incr i
    done;
    if !acc <> 0.0 then out := (id, !acc) :: !out
  done;
  let out = List.rev !out in
  (Array.of_list (List.map fst out), Array.of_list (List.map snd out))

let test_terms_match_reference () =
  let m = Model.create () in
  let vars = Array.init 40 (fun i -> Model.add_var m (Printf.sprintf "v%d" i)) in
  let st = Random.State.make [| 24 |] in
  let coef () = Random.State.float st 2.0 -. 1.0 in
  let distinct ids = List.map (fun id -> (coef (), id)) ids in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let k = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(k);
      a.(k) <- t
    done;
    Array.to_list a
  in
  let up = List.init 40 Fun.id in
  let cases =
    [
      ("empty", []);
      ("single", [ (0.5, 7) ]);
      ("ascending", distinct up);
      ("strictly descending", distinct (List.rev up));
      ("shuffled distinct", distinct (shuffle up));
      ( "repeated ids",
        shuffle (List.concat_map (fun id -> [ (0.1, id); (0.2, id); (0.3, id) ]) up)
      );
      ("repeats ascending", List.concat_map (fun id -> [ (0.7, id); (coef (), id) ]) up);
      ( "repeats descending",
        List.concat_map
          (fun id -> [ (coef (), id); (0.1, id); (coef (), id); (0.2, id) ])
          (List.rev up) );
      ("cancelling sums", [ (0.3, 5); (1.0, 2); (-0.3, 5); (-1.0, 2); (0.25, 1) ]);
      ("signed zeros", [ (0.0, 9); (-0.0, 6); (2.0, 4); (-0.0, 1); (0.0, 0) ]);
      ("signed zeros ascending", [ (-0.0, 1); (0.0, 3); (1.5, 8) ]);
    ]
  in
  let bits (ids, coefs) = (ids, Array.map Int64.bits_of_float coefs) in
  List.iter
    (fun (name, l) ->
      let e =
        Model.Linexpr.sum (List.map (fun (c, id) -> Model.Linexpr.term c vars.(id)) l)
      in
      let got = Model.Linexpr.terms e and want = reference_terms l in
      if bits got <> bits want then Alcotest.failf "%s: terms differ" name;
      (* The same terms as one [dot] leaf with absent entries between
         them, and scaled by one half inside a sum. *)
      let padded = List.concat_map (fun t -> [ None; Some t ]) l in
      let w = Array.of_list (List.map (function Some (c, _) -> c | None -> 9.0) padded)
      and vs = Array.of_list (List.map (Option.map (fun (_, id) -> vars.(id))) padded) in
      let got = Model.Linexpr.terms (Model.Linexpr.dot w vs) in
      if bits got <> bits want then Alcotest.failf "%s: dot terms differ" name;
      let half = List.map (fun (c, id) -> (0.5 *. c, id)) l in
      let got =
        Model.Linexpr.terms
          Model.Linexpr.(add zero (scale 0.5 (dot w vs)))
      in
      if bits got <> bits (reference_terms half) then
        Alcotest.failf "%s: scaled dot terms differ" name)
    cases

let suite =
  [
    Alcotest.test_case "roundtrip preserves optimum" `Quick test_roundtrip_solution_equal;
    Alcotest.test_case "write-parse-write is stable" `Quick test_roundtrip_twice_stable;
    Alcotest.test_case "all sections written" `Quick test_sections_written;
    Alcotest.test_case "maximize preserved" `Quick test_maximize_preserved;
    Alcotest.test_case "name sanitizer" `Quick test_sanitize_names;
    Alcotest.test_case "free and infinite bounds" `Quick test_parse_free_and_inf;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "solution file" `Quick test_solution_file;
    Alcotest.test_case "mps writer" `Quick test_mps_writer;
    Alcotest.test_case "validate empty integral domain" `Quick
      test_validate_empty_integral_domain;
    Alcotest.test_case "validate crossed bounds" `Quick
      test_validate_crossed_bounds;
    Alcotest.test_case "validate non-finite rhs" `Quick
      test_validate_non_finite_rhs;
    Alcotest.test_case "terms match sort-and-merge" `Quick
      test_terms_match_reference;
    QCheck_alcotest.to_alcotest prop_random_models_roundtrip;
  ]
