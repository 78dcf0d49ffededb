(* Seeded fuzz driver over the oracle suite (lib/fuzz).

   Output is a pure function of the seed and the selection flags: one
   line per property with its case count and instance-stream digest, so
   two runs with the same --seed print byte-identical reports and any
   divergence is itself a reproducibility bug.  Exit status 1 when any
   property fails; the failure report names the seed, case index and
   shrunk counterexample needed to replay it. *)

let usage () =
  prerr_endline
    "usage: etransform_fuzz [--seed N] [--smoke] [--count N] [--only NAME] \
     [--list]";
  prerr_endline "";
  prerr_endline
    "  --seed N    PRNG seed (default: CHECK_SEED env var, else 0xe7ca5e)";
  prerr_endline "  --smoke     reduced per-property case counts (~5s total)";
  prerr_endline "  --count N   override the case count of every property";
  prerr_endline "  --only NAME run one property (repeatable)";
  prerr_endline "  --list      print property names and exit";
  exit 2

let () =
  let seed = ref None
  and smoke = ref false
  and count = ref None
  and only = ref []
  and list = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            seed := Some n;
            parse rest
        | None -> usage ())
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--count" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n > 0 ->
            count := Some n;
            parse rest
        | _ -> usage ())
    | "--only" :: v :: rest ->
        only := v :: !only;
        parse rest
    | "--list" :: rest ->
        list := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list then begin
    List.iter (fun p -> print_endline (Check.prop_name p)) Fuzz.Suite.props;
    exit 0
  end;
  let props =
    match !only with
    | [] -> Fuzz.Suite.props
    | names ->
        List.map
          (fun n ->
            match Fuzz.Suite.find n with
            | Some p -> p
            | None ->
                Printf.eprintf "unknown property %S (try --list)\n" n;
                exit 2)
          (List.rev names)
  in
  let seed =
    match !seed with
    | Some n -> n
    | None -> (
        try Check.default_seed ()
        with Invalid_argument msg ->
          prerr_endline ("etransform_fuzz: " ^ msg);
          exit 2)
  in
  let ok = Check.run ~seed ~smoke:!smoke ?count:!count props in
  exit (if ok then 0 else 1)
