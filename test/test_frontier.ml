(* The open-node frontier of the MILP search (Lp.Frontier): its heap
   laws, checked directly and against a sorted-list multiset model. *)

module Prng = Datasets.Prng

(* A fixed push sequence with duplicate keys: the first pop takes the
   low end of the heap, and a full drain leaves the high end for last. *)
let test_frontier_ends () =
  let q = Lp.Frontier.create () in
  Alcotest.(check bool) "empty" true (Lp.Frontier.is_empty q);
  List.iter
    (fun k -> Lp.Frontier.push q ~key:k (int_of_float k))
    [ 5.0; 1.0; 9.0; 3.0; 7.0; 1.0; 9.0 ];
  Alcotest.(check int) "length" 7 (Lp.Frontier.length q);
  Alcotest.(check (option (float 0.0))) "min_key" (Some 1.0)
    (Lp.Frontier.min_key q);
  (match Lp.Frontier.pop_min q with
  | Some (k, v) ->
      Alcotest.(check (float 0.0)) "pop_min" 1.0 k;
      Alcotest.(check int) "payload follows key" 1 v
  | None -> Alcotest.fail "pop_min on non-empty");
  Alcotest.(check int) "length after pop" 6 (Lp.Frontier.length q);
  let rec drain acc =
    match Lp.Frontier.pop_min q with
    | Some (k, _) -> drain (k :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (float 0.0))) "drain order"
    [ 1.0; 3.0; 5.0; 7.0; 9.0; 9.0 ] (drain []);
  Alcotest.(check bool) "drained" true (Lp.Frontier.is_empty q);
  Alcotest.(check (option (float 0.0))) "min_key of empty" None
    (Lp.Frontier.min_key q)

(* Random interleavings of push/pop_min against a sorted-list multiset
   model, then a full drain.  Only keys are compared: entries with
   equal keys may surface in any order. *)
let test_frontier_model () =
  let rng = Prng.create 0xD0E5 in
  for _ = 1 to 50 do
    let q = Lp.Frontier.create () in
    let model = ref [] in
    let pop what =
      match (Lp.Frontier.pop_min q, !model) with
      | None, [] -> ()
      | Some (k, ()), m :: rest ->
          Alcotest.(check (float 0.0)) what m k;
          model := rest
      | Some _, [] -> Alcotest.failf "%s: pop from empty model" what
      | None, _ -> Alcotest.failf "%s: lost an entry" what
    in
    for _ = 1 to 200 do
      if Prng.int rng 3 < 2 then begin
        let k = float_of_int (Prng.int rng 20) in
        Lp.Frontier.push q ~key:k ();
        model := List.sort compare (k :: !model)
      end
      else pop "min matches model"
    done;
    Alcotest.(check int) "sizes agree" (List.length !model)
      (Lp.Frontier.length q);
    Alcotest.(check (option (float 0.0))) "min_key"
      (match !model with m :: _ -> Some m | [] -> None)
      (Lp.Frontier.min_key q);
    while !model <> [] do
      pop "drain"
    done;
    Alcotest.(check bool) "drained" true (Lp.Frontier.is_empty q)
  done

(* The frontier began as the work-stealing deque; the case names keep
   that history so results stay comparable across versions. *)
let suite =
  [
    Alcotest.test_case "wsdeque: pop both ends" `Quick test_frontier_ends;
    Alcotest.test_case "wsdeque: multiset model" `Quick test_frontier_model;
  ]
