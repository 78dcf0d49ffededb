(* The work-stealing scheduler under the MILP tree search (Lp.Wsdeque /
   Lp.Wsched): deque laws against a multiset model, scripted
   single-thread chaos schedules through the [steal_order] hook, stop
   semantics, and a real multi-domain tree run with a watchdog (the
   suite must never hang on a scheduler bug). *)

module Prng = Datasets.Prng

(* ------------------------------------------------------------- wsdeque *)

let test_deque_ends () =
  let q = Lp.Wsdeque.create () in
  Alcotest.(check bool) "empty" true (Lp.Wsdeque.is_empty q);
  List.iter
    (fun k -> Lp.Wsdeque.push q ~key:k (int_of_float k))
    [ 5.0; 1.0; 9.0; 3.0; 7.0; 1.0; 9.0 ];
  Alcotest.(check int) "length" 7 (Lp.Wsdeque.length q);
  Alcotest.(check (option (float 0.0))) "min_key" (Some 1.0)
    (Lp.Wsdeque.min_key q);
  (match Lp.Wsdeque.pop_min q with
  | Some (k, _) -> Alcotest.(check (float 0.0)) "pop_min" 1.0 k
  | None -> Alcotest.fail "pop_min on non-empty");
  (match Lp.Wsdeque.pop_max q with
  | Some (k, _) -> Alcotest.(check (float 0.0)) "pop_max" 9.0 k
  | None -> Alcotest.fail "pop_max on non-empty");
  Alcotest.(check int) "length after pops" 5 (Lp.Wsdeque.length q)

(* Random interleavings of push/pop_min/pop_max against a sorted-list
   multiset model.  Only keys are compared: entries with equal keys may
   surface in any order. *)
let test_deque_model () =
  let rng = Prng.create 0xD0E5 in
  for _ = 1 to 50 do
    let q = Lp.Wsdeque.create () in
    let model = ref [] in
    for _ = 1 to 200 do
      match Prng.int rng 4 with
      | 0 | 1 ->
          let k = float_of_int (Prng.int rng 20) in
          Lp.Wsdeque.push q ~key:k ();
          model := List.sort compare (k :: !model)
      | 2 -> (
          match (Lp.Wsdeque.pop_min q, !model) with
          | None, [] -> ()
          | Some (k, ()), m :: rest ->
              Alcotest.(check (float 0.0)) "min matches model" m k;
              model := rest
          | Some _, [] -> Alcotest.fail "pop_min from empty model"
          | None, _ -> Alcotest.fail "pop_min lost an entry")
      | _ -> (
          match (Lp.Wsdeque.pop_max q, List.rev !model) with
          | None, [] -> ()
          | Some (k, ()), m :: rest ->
              Alcotest.(check (float 0.0)) "max matches model" m k;
              model := List.rev rest
          | Some _, [] -> Alcotest.fail "pop_max from empty model"
          | None, _ -> Alcotest.fail "pop_max lost an entry")
    done;
    Alcotest.(check int) "sizes agree" (List.length !model)
      (Lp.Wsdeque.length q);
    (* Drain what's left from alternating ends. *)
    let rec drain lo hi =
      match (lo, hi) with
      | [], [] ->
          Alcotest.(check bool) "drained" true (Lp.Wsdeque.is_empty q)
      | m :: rest, hi -> (
          match Lp.Wsdeque.pop_min q with
          | Some (k, ()) ->
              Alcotest.(check (float 0.0)) "drain min" m k;
              drain rest hi
          | None -> Alcotest.fail "drain min lost an entry")
      | [], m :: rest -> (
          match Lp.Wsdeque.pop_max q with
          | Some (k, ()) ->
              Alcotest.(check (float 0.0)) "drain max" m k;
              drain [] rest
          | None -> Alcotest.fail "drain max lost an entry")
    in
    let n = List.length !model in
    let lo = List.filteri (fun i _ -> i < (n + 1) / 2) !model in
    let hi = List.rev (List.filteri (fun i _ -> i >= (n + 1) / 2) !model) in
    drain lo hi
  done

(* ----------------------------------------------- scripted chaos (1 thread) *)

(* A synthetic branch-and-bound tree: node (key, depth) expands into two
   children with derived keys until [max_depth].  The processed-key
   multiset is schedule-invariant, so any steal interleaving — driven
   here by a seeded [steal_order] hook and random pop ownership — must
   process exactly the sequential multiset. *)
let run_tree ~sched ~rng ~workers ~max_depth =
  let processed = ref [] in
  let expand ~who k depth =
    if depth < max_depth then begin
      Lp.Wsched.push sched ~who ~key:((k *. 1.7) +. 0.3) (depth + 1);
      Lp.Wsched.push sched ~who ~key:((k *. 0.6) +. 1.1) (depth + 1)
    end
  in
  Lp.Wsched.push sched ~who:0 ~key:2.0 0;
  let rec loop () =
    let who = Prng.int rng workers in
    match Lp.Wsched.try_pop sched ~who with
    | Some (k, depth) ->
        processed := k :: !processed;
        expand ~who k depth;
        Lp.Wsched.done_one sched;
        loop ()
    | None ->
        (* A miss is not emptiness: a scripted hook may well have sent
           this thief to itself or to empty victims for a whole sweep.
           Single-threaded driving means nothing is in flight here, so
           [pending] alone decides between retrying and done. *)
        if Lp.Wsched.pending sched > 0 then loop ()
  in
  loop ();
  List.sort compare !processed

let test_sched_scripted_chaos () =
  let max_depth = 6 in
  let reference =
    let rng = Prng.create 1 in
    let sched = Lp.Wsched.create ~workers:1 () in
    run_tree ~sched ~rng ~workers:1 ~max_depth
  in
  Alcotest.(check int) "tree size" 127 (List.length reference);
  let stole = ref false in
  for seed = 1 to 20 do
    let rng = Prng.create seed in
    let hook_rng = Prng.create (seed * 7919) in
    let steal_order ~thief ~round =
      ignore thief;
      ignore round;
      Prng.int hook_rng 4
    in
    let sched = Lp.Wsched.create ~workers:4 ~steal_order () in
    let got = run_tree ~sched ~rng ~workers:4 ~max_depth in
    if Lp.Wsched.steals sched > 0 then stole := true;
    Alcotest.(check (list (float 1e-9)))
      (Printf.sprintf "seed %d multiset" seed)
      reference got;
    Alcotest.(check int) "drained" 0 (Lp.Wsched.queued sched);
    (match Lp.Wsched.next sched ~who:0 with
    | Lp.Wsched.Done -> ()
    | _ -> Alcotest.fail "finite scheduler must report Done")
  done;
  Alcotest.(check bool) "steals exercised across seeds" true !stole

let test_sched_stop_abandons () =
  let sched = Lp.Wsched.create ~workers:2 () in
  Lp.Wsched.push sched ~who:0 ~key:4.0 ();
  Lp.Wsched.push sched ~who:1 ~key:2.0 ();
  Lp.Wsched.push sched ~who:1 ~key:8.0 ();
  (match Lp.Wsched.try_pop sched ~who:0 with
  | Some (k, ()) ->
      Alcotest.(check (float 0.0)) "own best first" 4.0 k;
      Lp.Wsched.done_one sched
  | None -> Alcotest.fail "pop");
  Lp.Wsched.stop sched;
  (match Lp.Wsched.next sched ~who:0 with
  | Lp.Wsched.Stopped -> ()
  | _ -> Alcotest.fail "stop must abandon the queue");
  Alcotest.(check bool) "stopped" true (Lp.Wsched.stopped sched);
  (* The abandoned frontier keeps reporting its best open key. *)
  Alcotest.(check (option (float 0.0))) "open bound" (Some 2.0)
    (Lp.Wsched.min_key sched)

(* ------------------------------------------------------- real domains *)

(* Four domains race over a 511-node synthetic tree.  A watchdog domain
   force-stops the scheduler if the run wedges, so a termination bug
   fails the assertion instead of hanging the suite. *)
let test_sched_domains () =
  let max_depth = 8 in
  let expected = (1 lsl (max_depth + 1)) - 1 in
  let workers = 4 in
  let sched = Lp.Wsched.create ~workers () in
  let processed = Atomic.make 0 in
  let finished = Atomic.make false in
  Lp.Wsched.push sched ~who:0 ~key:1.0 0;
  let worker who () =
    let rec loop () =
      match Lp.Wsched.next sched ~who with
      | Lp.Wsched.Done | Lp.Wsched.Stopped -> ()
      | Lp.Wsched.Work (k, depth) ->
          Atomic.incr processed;
          if depth < max_depth then begin
            Lp.Wsched.push sched ~who ~key:(k +. 1.0) (depth + 1);
            Lp.Wsched.push sched ~who ~key:(k +. 2.0) (depth + 1)
          end;
          Lp.Wsched.done_one sched;
          loop ()
    in
    loop ()
  in
  let watchdog () =
    let deadline = 600 in
    let rec wait n =
      if Atomic.get finished then ()
      else if n >= deadline then Lp.Wsched.stop sched
      else begin
        Unix.sleepf 0.05;
        wait (n + 1)
      end
    in
    wait 0
  in
  let dog = Domain.spawn watchdog in
  let doms = Array.init workers (fun i -> Domain.spawn (worker i)) in
  Array.iter Domain.join doms;
  Atomic.set finished true;
  Domain.join dog;
  Alcotest.(check bool) "watchdog did not fire" false
    (Lp.Wsched.stopped sched);
  Alcotest.(check int) "every node processed exactly once" expected
    (Atomic.get processed);
  Alcotest.(check int) "nothing left queued" 0 (Lp.Wsched.queued sched);
  Alcotest.(check int) "nothing left pending" 0 (Lp.Wsched.pending sched)

let suite =
  [
    Alcotest.test_case "wsdeque: pop both ends" `Quick test_deque_ends;
    Alcotest.test_case "wsdeque: multiset model" `Quick test_deque_model;
    Alcotest.test_case "scripted steal chaos == sequential" `Quick
      test_sched_scripted_chaos;
    Alcotest.test_case "stop abandons, keeps open bound" `Quick
      test_sched_stop_abandons;
    Alcotest.test_case "four domains, watchdogged" `Quick test_sched_domains;
  ]
