(* Serialization oracles: round-trip laws for the service JSON codec and
   the CPLEX LP writer/parser, and order-insensitivity of the job
   fingerprint under generated field permutations. *)

open Check

let failf fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------ JSON round-trip *)

(* Finite floats only: non-finite values serialize to [null] by design,
   which is a deliberate non-injectivity, not a bug. *)
let gen_num : float Gen.t =
  Gen.frequency
    [
      (3, Gen.map float_of_int (Gen.int_range (-1000) 1000));
      (2, fun rng -> float_of_int (Gen.int_range (-4000) 4000 rng) /. 4.0);
      (2, Gen.float_range (-1e6) 1e6);
      ( 1,
        Gen.choose
          [
            0.0; -0.0; 0.1; -0.1; 1e15; -1e15; 1e15 +. 1.0; 1.5e300; -1.5e300;
            4.9e-324; 1e-9; 123456789012345.0; 1234567890123456.0;
          ] );
    ]

let gen_string : string Gen.t =
  Gen.string_of ~max:12
    (Gen.frequency
       [
         (8, Gen.char_range ' ' '~');
         (1, Gen.choose [ '"'; '\\'; '\n'; '\r'; '\t'; '\x01'; '\x1f' ]);
       ])

let rec gen_json depth : Service.Json.t Gen.t =
 fun rng ->
  let leaf =
    Gen.frequency
      [
        (1, Gen.return Service.Json.Null);
        (1, Gen.map (fun b -> Service.Json.Bool b) Gen.bool);
        (3, Gen.map (fun f -> Service.Json.Num f) gen_num);
        (3, Gen.map (fun s -> Service.Json.Str s) gen_string);
      ]
  in
  if depth = 0 then leaf rng
  else
    Gen.frequency
      [
        (2, leaf);
        ( 1,
          Gen.map
            (fun l -> Service.Json.List l)
            (Gen.list ~max:4 (gen_json (depth - 1))) );
        ( 1,
          Gen.map
            (fun kvs -> Service.Json.Obj kvs)
            (Gen.list ~max:4 (Gen.pair gen_string (gen_json (depth - 1)))) );
      ]
      rng

let rec json_eq a b =
  match (a, b) with
  | Service.Json.Null, Service.Json.Null -> true
  | Service.Json.Bool x, Service.Json.Bool y -> x = y
  | Service.Json.Num x, Service.Json.Num y -> Float.compare x y = 0
  | Service.Json.Str x, Service.Json.Str y -> String.equal x y
  | Service.Json.List x, Service.Json.List y ->
      List.length x = List.length y && List.for_all2 json_eq x y
  | Service.Json.Obj x, Service.Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_eq v1 v2)
           x y
  | _ -> false

let rec shrink_json (j : Service.Json.t) : Service.Json.t Seq.t =
  match j with
  | Service.Json.Null -> Seq.empty
  | Service.Json.Bool _ -> Seq.return Service.Json.Null
  | Service.Json.Num f ->
      if f = 0.0 then Seq.return Service.Json.Null
      else Seq.return (Service.Json.Num 0.0)
  | Service.Json.Str s ->
      if s = "" then Seq.return Service.Json.Null
      else
        Seq.cons Service.Json.Null
          (Seq.map
             (fun s -> Service.Json.Str s)
             (List.to_seq
                [ String.sub s 0 (String.length s / 2); String.sub s 1 (String.length s - 1) ]))
  | Service.Json.List items ->
      Seq.append (List.to_seq items)
        (Seq.map
           (fun l -> Service.Json.List l)
           (Shrink.list ~elt:shrink_json items))
  | Service.Json.Obj kvs ->
      Seq.append
        (List.to_seq (List.map snd kvs))
        (Seq.map
           (fun l -> Service.Json.Obj l)
           (Shrink.list
              ~elt:(fun (k, v) -> Seq.map (fun v -> (k, v)) (shrink_json v))
              kvs))

let arb_json =
  Check.arb ~shrink:shrink_json
    ~pp:(fun ppf j -> Format.fprintf ppf "%s" (Service.Json.to_string j))
    (gen_json 3)

let json_roundtrip j =
  let s = Service.Json.to_string j in
  match Service.Json.parse s with
  | Error e -> failf "rendered %S, reparse failed: %s" s e
  | Ok j' ->
      if json_eq j j' then Ok ()
      else failf "rendered %S, reparsed as %S" s (Service.Json.to_string j')

(* -------------------------------------------------- LP file round-trip *)

(* The writer and parser agree on the model up to representation: parsing
   reassigns variable ids in first-appearance order, and zero
   coefficients vanish (Linexpr canonicalization drops them).  So the law
   is semantic: compare by variable NAME, with zero coefficients dropped,
   and require every "visible" variable to survive — a variable with
   default bounds [0,inf), no objective weight, no row appearance and no
   integrality mark leaves no trace in the LP text, by design. *)

let canon_terms names ids coefs =
  Array.to_list (Array.mapi (fun k j -> (j, coefs.(k))) ids)
  |> List.filter_map (fun (j, c) -> if c = 0.0 then None else Some (names j, c))
  |> List.sort compare

let visible m v ~in_obj ~in_rows =
  in_obj || in_rows || Lp.Model.is_integer m v
  || Lp.Model.lower m v <> 0.0
  || Lp.Model.upper m v <> infinity

let model_semantics m =
  let vars = Lp.Model.vars m in
  let names j = Lp.Model.var_name m vars.(j) in
  let obj_ids, obj_coefs, obj_const = Lp.Model.objective_terms m in
  let obj = canon_terms names obj_ids obj_coefs in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (c : Lp.Model.row) ->
           ( Lp.Model.constr_name m i,
             canon_terms names c.ids c.coefs,
             c.sense,
             c.rhs ))
         (Lp.Model.constrs m))
  in
  let appears = Hashtbl.create 16 in
  List.iter (fun (name, _) -> Hashtbl.replace appears name true) obj;
  List.iter
    (fun (_, terms, _, _) ->
      List.iter (fun (name, _) -> Hashtbl.replace appears name true) terms)
    rows;
  let bounds =
    Array.to_list vars
    |> List.filter_map (fun v ->
           let name = Lp.Model.var_name m v in
           if
             visible m v ~in_obj:(Hashtbl.mem appears name) ~in_rows:false
             || Hashtbl.mem appears name
           then
             Some
               ( name,
                 ( Lp.Model.lower m v,
                   Lp.Model.upper m v,
                   Lp.Model.is_integer m v ) )
           else None)
    |> List.sort compare
  in
  (Lp.Model.minimize m, obj_const, obj, rows, bounds)

let lp_model_roundtrip spec =
  let m = Gen_lp.to_model spec in
  let text = Lp.Lp_format.model_to_string m in
  match Lp.Lp_parse.model_of_string text with
  | exception Lp.Lp_parse.Parse_error e ->
      failf "reparse failed: %s\n--- written LP ---\n%s" e text
  | m' ->
      let a = model_semantics m and b = model_semantics m' in
      if a = b then Ok ()
      else
        failf "semantics changed across write/parse\n--- written LP ---\n%s\n--- rewritten ---\n%s"
          text
          (Lp.Lp_format.model_to_string m')

(* ----------------------------------------- fingerprint permutation law *)

(* A job case is a concrete job spec plus shuffle seeds.  The property
   renders the spec as NDJSON twice with independently permuted field
   orders (recursively: top level, estate object, milp object), decodes
   both through the real Batch front-end, and requires equal
   fingerprints.  Changing a delivery-only field must keep the
   fingerprint; flipping a plan-relevant field must change it. *)

type job_case = {
  estate_name : string;
  scale : float;
  seed : int;
  groups : int;
  targets : int;
  dr : bool;
  eos : bool;
  fixed_charges : bool;
  omega : float option;
  reserve : float option;
  dr_server_cost : float option;
  nodes : int option;
  time : float option;
  gap : float option;
  deadline_s : float option;
  degrade : bool option;
  shuffle_a : int;
  shuffle_b : int;
}

let opt g : 'a option Gen.t =
  Gen.frequency [ (1, Gen.return None); (2, Gen.map Option.some g) ]

let gen_job_case : job_case Gen.t =
 fun rng ->
  let estate_name =
    Gen.choose [ "enterprise1"; "florida"; "federal"; "synthetic" ] rng
  in
  let c =
    {
      estate_name;
      scale = Gen.choose [ 0.5; 1.0; 2.0 ] rng;
      seed = Gen.int_range 0 99 rng;
      groups = Gen.int_range 2 12 rng;
      targets = Gen.int_range 1 4 rng;
      dr = Gen.bool rng;
      eos = Gen.bool rng;
      fixed_charges = Gen.bool rng;
      omega = opt (Gen.choose [ 0.25; 0.5; 0.75 ]) rng;
      reserve = opt (Gen.choose [ 0.1; 0.3 ]) rng;
      dr_server_cost = opt (Gen.choose [ 50.0; 100.0 ]) rng;
      nodes = opt (Gen.int_range 1 64) rng;
      time = opt (Gen.choose [ 1.0; 30.0 ]) rng;
      gap = opt (Gen.choose [ 0.001; 0.01 ]) rng;
      deadline_s = opt (Gen.choose [ 5.0; 60.0 ]) rng;
      degrade = opt Gen.bool rng;
      shuffle_a = Gen.int_range 0 0x3FFF_FFFF rng;
      shuffle_b = Gen.int_range 0 0x3FFF_FFFF rng;
    }
  in
  (* A DR job takes no fixed charges. *)
  { c with fixed_charges = c.fixed_charges && not c.dr }

let job_fields ?(id = "j") c =
  let num f = Service.Json.Num f in
  let optf name v fields =
    match v with Some x -> (name, num x) :: fields | None -> fields
  in
  let estate =
    [ ("kind", Service.Json.Str "dataset");
      ("name", Service.Json.Str c.estate_name);
      ("scale", num c.scale) ]
    @
    if c.estate_name = "synthetic" then
      [ ("seed", num (float_of_int c.seed));
        ("groups", num (float_of_int c.groups));
        ("targets", num (float_of_int c.targets)) ]
    else []
  in
  let milp =
    []
    |> optf "gap" c.gap |> optf "time" c.time
    |> optf "nodes" (Option.map float_of_int c.nodes)
  in
  [ ("id", Service.Json.Str id);
    ("estate", Service.Json.Obj estate);
    ("dr", Service.Json.Bool c.dr);
    ("eos", Service.Json.Bool c.eos);
    ("fixed_charges", Service.Json.Bool c.fixed_charges) ]
  |> List.rev
  |> optf "omega" c.omega
  |> optf "reserve" c.reserve
  |> optf "dr_server_cost" c.dr_server_cost
  |> (fun fields ->
       if milp = [] then fields
       else ("milp", Service.Json.Obj milp) :: fields)
  |> optf "deadline_s" c.deadline_s
  |> (fun fields ->
       match c.degrade with
       | Some b -> ("degrade", Service.Json.Bool b) :: fields
       | None -> fields)
  |> List.rev

(* Recursively permute object field order with a PRNG derived from
   [shuffle_seed] only — deterministic per case. *)
let rec permute_json rng j =
  match j with
  | Service.Json.Obj fields ->
      let fields =
        List.map (fun (k, v) -> (k, permute_json rng v)) fields
      in
      let a = Array.of_list fields in
      Datasets.Prng.shuffle rng a;
      Service.Json.Obj (Array.to_list a)
  | Service.Json.List items ->
      Service.Json.List (List.map (permute_json rng) items)
  | j -> j

let decode_fp ?(what = "job") json =
  match Service.Batch.job_of_json json with
  | Ok job -> Ok (Service.Job.fingerprint job)
  | Error e ->
      failf "%s failed to decode: %s (%s)" what e (Service.Json.to_string json)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let fingerprint_permutation c =
  let base = Service.Json.Obj (job_fields c) in
  let perm_a =
    permute_json (Datasets.Prng.create c.shuffle_a) base
  in
  let perm_b =
    permute_json (Datasets.Prng.create c.shuffle_b) base
  in
  let* fp_a = decode_fp ~what:"permutation A" perm_a in
  let* fp_b = decode_fp ~what:"permutation B" perm_b in
  if fp_a <> fp_b then
    failf "field order changed the fingerprint:\n  A %s -> %s\n  B %s -> %s"
      (Service.Json.to_string perm_a)
      fp_a
      (Service.Json.to_string perm_b)
      fp_b
  else
    (* Delivery-only changes: new id, different deadline, flipped degrade. *)
    let delivery =
      Service.Json.Obj
        (job_fields ~id:"other-id"
           {
             c with
             deadline_s = (match c.deadline_s with None -> Some 9.0 | Some _ -> None);
             degrade =
               (match c.degrade with
               | None -> Some false
               | Some b -> Some (not b));
           })
    in
    let* fp_d = decode_fp ~what:"delivery variant" delivery in
    if fp_d <> fp_a then
      failf "delivery-only fields moved the fingerprint: %s vs %s" fp_a fp_d
    else
      (* A plan-relevant flip must move it: dr, or fixed charges where
         the job asks for them (a DR job takes none, and the decoder
         refuses the pair). *)
      let field, flipped =
        if c.fixed_charges then ("fixed_charges", { c with fixed_charges = false })
        else ("dr", { c with dr = not c.dr })
      in
      let flipped = Service.Json.Obj (job_fields flipped) in
      let* fp_f = decode_fp ~what:(field ^ "-flipped variant") flipped in
      if fp_f = fp_a then
        failf "flipping %s did not change the fingerprint (%s)" field fp_a
      else
        match
          Service.Batch.job_of_json
            (Service.Json.Obj (job_fields { c with dr = true; fixed_charges = true }))
        with
        | Ok _ -> failf "decoded a DR job with fixed charges"
        | Error _ -> Ok ()

let pp_job_case ppf c =
  Format.fprintf ppf "%s" (Service.Json.to_string (Service.Json.Obj (job_fields c)))

let arb_job_case =
  Check.arb ~pp:pp_job_case
    ~shrink:(fun c ->
      List.to_seq
        (List.filter
           (fun c' -> c' <> c)
           [
             { c with omega = None };
             { c with reserve = None };
             { c with dr_server_cost = None };
             { c with nodes = None; time = None; gap = None };
             { c with deadline_s = None; degrade = None };
             { c with estate_name = "enterprise1" };
           ]))
    gen_job_case

(* ---------------------------------------------------------- the suite *)

let props =
  [
    prop ~count:200 ~smoke_count:40 "json_roundtrip" arb_json json_roundtrip;
    prop ~count:60 ~smoke_count:12 "lp_model_roundtrip" Gen_lp.arb_milp_mixed
      lp_model_roundtrip;
    prop ~count:100 ~smoke_count:20 "fingerprint_permutation" arb_job_case
      fingerprint_permutation;
  ]
