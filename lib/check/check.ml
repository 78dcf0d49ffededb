module Prng = Datasets.Prng

module Gen = struct
  type 'a t = Prng.t -> 'a

  let run g rng = g rng
  let return x _ = x
  let map f g rng = f (g rng)

  let map2 f a b rng =
    let x = a rng in
    let y = b rng in
    f x y

  let bind g f rng =
    let x = g rng in
    f x rng

  let pair a b = map2 (fun x y -> (x, y)) a b

  let triple a b c rng =
    let x = a rng in
    let y = b rng in
    let z = c rng in
    (x, y, z)

  let bool rng = Prng.int rng 2 = 0

  let int_range lo hi rng =
    if hi < lo then invalid_arg "Gen.int_range: empty range";
    lo + Prng.int rng (hi - lo + 1)

  let float_range lo hi rng = Prng.range rng lo hi

  let choose xs =
    let a = Array.of_list xs in
    fun rng -> Prng.pick rng a

  let oneof gs =
    let a = Array.of_list gs in
    fun rng -> (Prng.pick rng a) rng

  let frequency wgs =
    let total = List.fold_left (fun acc (w, _) -> acc + w) 0 wgs in
    if total <= 0 then invalid_arg "Gen.frequency: weights must be positive";
    fun rng ->
      let roll = Prng.int rng total in
      let rec pick acc = function
        | [] -> assert false
        | (w, g) :: rest ->
            if roll < acc + w then g rng else pick (acc + w) rest
      in
      pick 0 wgs

  let list ~max g rng =
    let n = Prng.int rng (max + 1) in
    List.init n (fun _ -> g rng)

  let list_repeat n g rng = List.init n (fun _ -> g rng)

  let array ~max g rng =
    let n = Prng.int rng (max + 1) in
    Array.init n (fun _ -> g rng)

  let char_range lo hi rng =
    Char.chr (int_range (Char.code lo) (Char.code hi) rng)

  let string_of ~max c rng =
    let n = Prng.int rng (max + 1) in
    String.init n (fun _ -> c rng)

  let permutation n rng =
    let a = Array.init n Fun.id in
    Prng.shuffle rng a;
    a
end

module Shrink = struct
  type 'a t = 'a -> 'a Seq.t

  let nil _ = Seq.empty

  (* Candidate [n - d] for the distance [d = n, n/2, n/4, ..., ±1]: 0,
     then halvings toward n, then the final step toward 0.  [d] keeps the
     sign of [n] and truncation halves it toward 0 on either side, so a
     negative [n] mirrors the positive one and nothing overflows. *)
  let int n =
    let rec candidates d () =
      if d = 0 then Seq.Nil else Seq.Cons (n - d, candidates (d / 2))
    in
    candidates n

  let float f =
    if f = 0.0 || Float.is_nan f then Seq.empty
    else
      List.to_seq
        (List.filter
           (fun c -> c <> f && Float.abs c < Float.abs f)
           [ 0.0; f /. 4.0; f /. 2.0; Float.of_int (Float.to_int f) ])

  let list_each elt l =
    Seq.concat
      (Seq.mapi
         (fun i y ->
           Seq.map
             (fun x -> List.mapi (fun j z -> if j = i then x else z) l)
             (elt y))
         (List.to_seq l))

  let list ?(elt = nil) l =
    let n = List.length l in
    let remove_run start len =
      List.filteri (fun i _ -> i < start || i >= start + len) l
    in
    let halves =
      if n >= 2 then
        List.to_seq [ remove_run 0 (n / 2); remove_run (n / 2) (n - (n / 2)) ]
      else Seq.empty
    in
    let singles =
      Seq.init n (fun i -> remove_run i 1)
    in
    if n = 0 then Seq.empty
    else Seq.append halves (Seq.append singles (list_each elt l))

  let array ?elt a =
    Seq.map Array.of_list (list ?elt (Array.to_list a))

  let pair sa sb (a, b) =
    Seq.append
      (Seq.map (fun a' -> (a', b)) (sa a))
      (Seq.map (fun b' -> (a, b')) (sb b))

  let triple sa sb sc (a, b, c) =
    Seq.append
      (Seq.map (fun a' -> (a', b, c)) (sa a))
      (Seq.append
         (Seq.map (fun b' -> (a, b', c)) (sb b))
         (Seq.map (fun c' -> (a, b, c')) (sc c)))
end

type 'a arb = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  pp : (Format.formatter -> 'a -> unit) option;
}

let arb ?(shrink = Shrink.nil) ?pp gen = { gen; shrink; pp }

type prop =
  | Prop : {
      name : string;
      count : int;
      smoke_count : int;
      arb : 'a arb;
      body : 'a -> (unit, string) result;
    }
      -> prop

let prop ?(count = 100) ?smoke_count name arb body =
  let smoke_count =
    match smoke_count with Some n -> n | None -> max 1 (count / 5)
  in
  Prop { name; count; smoke_count; arb; body }

let prop_name (Prop p) = p.name

type failure = {
  prop : string;
  seed : int;
  case : int;
  reason : string;
  shrink_steps : int;
  counterexample : string option;
  original : string option;
}

type outcome = {
  name : string;
  cases : int;
  stream : string;
  failure : failure option;
}

(* An empty value counts as unset: [Unix.putenv] cannot unset a
   variable, so restoring an unset one leaves it empty. *)
let default_seed () =
  match Option.map String.trim (Sys.getenv_opt "CHECK_SEED") with
  | None | Some "" -> 0xe7ca5e
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          invalid_arg (Printf.sprintf "CHECK_SEED=%S is not an integer" s))

(* Evaluate the body defensively: exceptions are failures, not crashes of
   the whole run. *)
let eval body x =
  match body x with
  | Ok () -> None
  | Error reason -> Some reason
  | exception e ->
      Some (Printf.sprintf "exception %s" (Printexc.to_string e))

(* Greedy descent: repeatedly replace the counterexample by its first
   still-failing shrink candidate.  The candidate-evaluation budget keeps
   adversarial shrinkers (or very slow properties) bounded. *)
let shrink_loop arb body value reason =
  let budget = ref 400 in
  let steps = ref 0 in
  let cur = ref value and cur_reason = ref reason in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    let candidates = arb.shrink !cur in
    let rec try_seq seq =
      if !budget <= 0 then ()
      else
        match seq () with
        | Seq.Nil -> ()
        | Seq.Cons (cand, rest) -> (
            decr budget;
            match eval body cand with
            | None -> try_seq rest
            | Some r ->
                cur := cand;
                cur_reason := r;
                incr steps;
                progress := true)
    in
    try_seq candidates
  done;
  (!cur, !cur_reason, !steps)

let render pp x =
  match pp with
  | None -> None
  | Some pp -> (
      match Format.asprintf "%a" pp x with
      | s -> Some s
      | exception _ -> Some "<printer raised>")

(* Case [i] of property [name] draws from a PRNG keyed only by
   (seed, name, i): independent of every other property and of the case
   count, so a printed (seed, case) pair replays exactly. *)
let case_rng ~seed ~name i =
  Prng.create (Hashtbl.hash (seed, name, i))

let run_one ?seed ?(smoke = false) ?count (Prop p) =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let cases =
    match count with
    | Some n -> n
    | None -> if smoke then p.smoke_count else p.count
  in
  let stream = ref "" in
  let failure = ref None in
  let i = ref 0 in
  while !failure = None && !i < cases do
    let rng = case_rng ~seed ~name:p.name !i in
    match p.arb.gen rng with
    | exception e ->
        failure :=
          Some
            {
              prop = p.name;
              seed;
              case = !i;
              reason =
                Printf.sprintf "generator raised %s" (Printexc.to_string e);
              shrink_steps = 0;
              counterexample = None;
              original = None;
            }
    | x ->
        (match render p.arb.pp x with
        | Some s -> stream := Digest.string (!stream ^ s)
        | None -> ());
        (match eval p.body x with
        | None -> incr i
        | Some reason ->
            let shrunk, shrunk_reason, steps =
              shrink_loop p.arb p.body x reason
            in
            failure :=
              Some
                {
                  prop = p.name;
                  seed;
                  case = !i;
                  reason = shrunk_reason;
                  shrink_steps = steps;
                  counterexample = render p.arb.pp shrunk;
                  original = (if steps = 0 then None else render p.arb.pp x);
                })
  done;
  let stream =
    if !stream = "" then "-" else String.sub (Digest.to_hex !stream) 0 12
  in
  {
    name = p.name;
    cases = (match !failure with None -> cases | Some f -> f.case + 1);
    stream;
    failure = !failure;
  }

let pp_failure ppf f =
  let section title =
    Option.iter (fun s ->
        Format.fprintf ppf "@,%s:@,%s" title (String.trim s))
  in
  Format.fprintf ppf
    "@[<v>property %s FAILED (seed=%d case=%d shrink-steps=%d)@,reason: %s"
    f.prop f.seed f.case f.shrink_steps f.reason;
  section "counterexample" f.counterexample;
  section "before shrinking" f.original;
  Format.fprintf ppf "@]"

let run ?seed ?(smoke = false) ?count ?(out = stdout) props =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let ok = ref true in
  List.iter
    (fun p ->
      let o = run_one ~seed ~smoke ?count p in
      (match o.failure with
      | None ->
          Printf.fprintf out "ok   %-34s cases=%-4d stream=%s\n%!" o.name
            o.cases o.stream
      | Some f ->
          ok := false;
          Printf.fprintf out "FAIL %-34s cases=%-4d stream=%s\n%!" o.name
            o.cases o.stream;
          Printf.fprintf out "%s\n%!" (Format.asprintf "%a" pp_failure f);
          Printf.fprintf out
            "reproduce: CHECK_SEED=%d etransform_fuzz --only %s\n%!" f.seed
            f.prop))
    props;
  !ok
