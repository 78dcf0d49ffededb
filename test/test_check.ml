(* The property-testing library itself: stream determinism, failure
   reporting, greedy shrink convergence, and seed selection via
   CHECK_SEED. *)

let int_list_arb =
  Check.arb
    ~shrink:(Check.Shrink.list ~elt:Check.Shrink.int)
    ~pp:(fun ppf l ->
      Format.fprintf ppf "[%s]"
        (String.concat ";" (List.map string_of_int l)))
    (Check.Gen.list ~max:20 (Check.Gen.int_range 0 9))

let test_determinism () =
  let prop =
    Check.prop "p" int_list_arb (fun _ -> Ok ())
  in
  let a = Check.run_one ~seed:7 prop in
  let b = Check.run_one ~seed:7 prop in
  Alcotest.(check string) "same seed, same stream" a.Check.stream
    b.Check.stream;
  Alcotest.(check bool) "stream digest is real" true (a.Check.stream <> "-");
  let c = Check.run_one ~seed:8 prop in
  Alcotest.(check bool) "different seed, different stream" true
    (a.Check.stream <> c.Check.stream)

let test_case_rng_isolated_from_count () =
  (* Case [i]'s instance depends only on (seed, name, i): growing the
     count extends the stream without disturbing its prefix, so a
     failure index printed by a big run replays in a small one. *)
  let seen = ref [] in
  let remember =
    Check.prop "q"
      (Check.arb (Check.Gen.int_range 0 1_000_000))
      (fun x ->
        seen := x :: !seen;
        Ok ())
  in
  ignore (Check.run_one ~seed:3 ~count:5 remember);
  let short = List.rev !seen in
  seen := [];
  ignore (Check.run_one ~seed:3 ~count:10 remember);
  let long = List.rev !seen in
  Alcotest.(check (list int)) "prefix stable under count growth" short
    (List.filteri (fun i _ -> i < 5) long)

let test_shrink_convergence () =
  (* sum >= 10 fails; greedy descent over list/element shrinks must
     reach a local minimum: few elements, small sum. *)
  let prop =
    Check.prop ~count:200 "sum" int_list_arb (fun l ->
        if List.fold_left ( + ) 0 l >= 10 then Error "sum too big" else Ok ())
  in
  let o = Check.run_one ~seed:1 prop in
  match o.Check.failure with
  | None -> Alcotest.fail "property should have failed"
  | Some f ->
      Alcotest.(check bool) "shrinking happened" true (f.Check.shrink_steps > 0);
      let ce =
        match f.Check.counterexample with
        | Some s -> s
        | None -> Alcotest.fail "no counterexample printed"
      in
      (* Parse back the printed list and check minimality: removing any
         element or decrementing any element must drop the sum below
         10, i.e. sum in [10, 10 + max element). *)
      let items =
        match String.trim ce with
        | "[]" -> []
        | s ->
            String.sub s 1 (String.length s - 2)
            |> String.split_on_char ';'
            |> List.map int_of_string
      in
      let sum = List.fold_left ( + ) 0 items in
      Alcotest.(check bool) "still failing" true (sum >= 10);
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (Printf.sprintf "element %d is load-bearing" x)
            true
            (sum - x < 10))
        items

let test_failure_carries_replay_data () =
  let prop =
    Check.prop "always"
      (Check.arb ~pp:(fun ppf x -> Format.fprintf ppf "%d" x)
         (Check.Gen.int_range 0 9))
      (fun _ -> Error "no")
  in
  let o = Check.run_one ~seed:42 prop in
  match o.Check.failure with
  | None -> Alcotest.fail "must fail"
  | Some f ->
      Alcotest.(check int) "seed recorded" 42 f.Check.seed;
      Alcotest.(check int) "first case fails" 0 f.Check.case;
      Alcotest.(check string) "reason" "no" f.Check.reason

let test_check_seed_env () =
  let prev = Sys.getenv_opt "CHECK_SEED" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CHECK_SEED" (Option.value prev ~default:""))
    (fun () ->
      Unix.putenv "CHECK_SEED" "4242";
      Alcotest.(check int) "env seed wins" 4242 (Check.default_seed ());
      (* A mistyped replay seed must not quietly run the default seed. *)
      List.iter
        (fun bad ->
          Unix.putenv "CHECK_SEED" bad;
          Alcotest.check_raises
            (Printf.sprintf "%S rejected by name" bad)
            (Invalid_argument
               (Printf.sprintf "CHECK_SEED=%S is not an integer" bad))
            (fun () -> ignore (Check.default_seed ())))
        [ "12a"; "not-a-number" ];
      Unix.putenv "CHECK_SEED" "";
      Alcotest.(check int) "empty counts as unset" 0xe7ca5e
        (Check.default_seed ()))

let test_exceptions_are_failures () =
  let prop =
    Check.prop "raises" (Check.arb (Check.Gen.return ())) (fun () ->
        failwith "boom")
  in
  let o = Check.run_one ~seed:0 prop in
  match o.Check.failure with
  | None -> Alcotest.fail "raising body must fail the property"
  | Some f ->
      Alcotest.(check bool) "reason mentions the exception" true
        (String.length f.Check.reason > 0)

(* [Shrink.int n] for every n in -1000..1000: a finite sequence without
   repeats, every candidate closer to 0 than n, ending one step from n
   toward 0 — negative n mirroring positive n.  At most 64 candidates
   are read, so a sequence that cycles fails instead of hanging. *)
let test_shrink_int_terminates () =
  let candidates n = List.of_seq (Seq.take 64 (Check.Shrink.int n)) in
  Alcotest.(check (list int)) "5" [ 0; 3; 4 ] (candidates 5);
  Alcotest.(check (list int)) "-5" [ 0; -3; -4 ] (candidates (-5));
  Alcotest.(check (list int)) "-1" [ 0 ] (candidates (-1));
  Alcotest.(check (list int)) "0" [] (candidates 0);
  for n = -1000 to 1000 do
    let cs = candidates n in
    let fail what = Alcotest.failf "Shrink.int %d: %s" n what in
    if List.length cs >= 64 then fail "does not end";
    if List.length (List.sort_uniq compare cs) <> List.length cs then
      fail "repeats a candidate";
    if List.exists (fun c -> abs c >= abs n) cs then
      fail "a candidate is no closer to 0";
    if n <> 0 && List.nth cs (List.length cs - 1) <> n - compare n 0 then
      fail "does not end one step from n"
  done

(* A failing property run through the test fixtures' adapter fails its
   alcotest case with the property, seed, case index, counterexample and
   the command that replays it from the test binary. *)
let test_adapter_failure_replays () =
  let prop =
    Check.prop ~count:50 "too big"
      (Check.arb ~shrink:Check.Shrink.int ~pp:Format.pp_print_int
         (Check.Gen.int_range 0 100))
      (fun x -> if x >= 10 then Fixtures.errorf "%d >= 10" x else Ok ())
  in
  let f =
    match (Check.run_one prop).Check.failure with
    | Some f -> f
    | None -> Alcotest.fail "property should have failed"
  in
  let first = Alcotest.test_case "first" `Quick ignore in
  let run =
    match Fixtures.locate [ ("demo", [ first; Fixtures.property prop ]) ] with
    | [ (_, [ _; (_, _, run) ]) ] -> run
    | _ -> assert false
  in
  match run () with
  | () -> Alcotest.fail "a failing property must fail its case"
  | exception e ->
      let msg = Printexc.to_string e in
      let has what needle =
        Alcotest.(check bool) what true (Astring_contains.contains msg needle)
      in
      has "property" "property too big FAILED";
      has "seed and case"
        (Printf.sprintf "seed=%d case=%d" f.Check.seed f.Check.case);
      has "counterexample" "counterexample:\n10";
      has "replay line"
        (Printf.sprintf
           "reproduce: CHECK_SEED=%d dune exec test/main.exe -- test demo 1"
           f.Check.seed);
      Alcotest.(check bool) "no fuzz driver line" false
        (Astring_contains.contains msg "etransform_fuzz")

let suite =
  [
    Alcotest.test_case "stream determinism" `Quick test_determinism;
    Alcotest.test_case "case rng isolated from count" `Quick
      test_case_rng_isolated_from_count;
    Alcotest.test_case "shrink converges to local minimum" `Quick
      test_shrink_convergence;
    Alcotest.test_case "failure carries replay data" `Quick
      test_failure_carries_replay_data;
    Alcotest.test_case "CHECK_SEED env override" `Quick test_check_seed_env;
    Alcotest.test_case "exceptions are failures" `Quick
      test_exceptions_are_failures;
    Alcotest.test_case "shrink int: finite, no repeats, mirrored" `Quick
      test_shrink_int_terminates;
    Alcotest.test_case "adapter failure names its replay" `Quick
      test_adapter_failure_replays;
  ]
