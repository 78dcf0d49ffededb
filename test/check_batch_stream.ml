(* Validator for the @service-smoke alias: the NDJSON stream produced by
   `etransform batch` over test/service_smoke.ndjson, read from stdin (or
   from the file named by the first argument), must contain exactly
   one well-formed result line per job, all solved, in input order, and
   the permuted duplicate (s3 vs s1) must share a fingerprint and cost. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("service-smoke: " ^ m); exit 1) fmt

let str_field j name =
  match Option.bind (Service.Json.member name j) Service.Json.to_str with
  | Some s -> s
  | None -> fail "missing string field %S in %s" name (Service.Json.to_string j)

let num_field j name =
  match Option.bind (Service.Json.member name j) Service.Json.to_float with
  | Some v -> v
  | None -> fail "missing numeric field %S in %s" name (Service.Json.to_string j)

let () =
  let ic = if Array.length Sys.argv > 1 then open_in Sys.argv.(1) else stdin in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  if List.length lines <> 3 then
    fail "expected 3 result lines, got %d" (List.length lines);
  let results =
    List.map
      (fun line ->
        match Service.Json.parse line with
        | Ok j -> j
        | Error m -> fail "unparseable result line %S: %s" line m)
      lines
  in
  let ids = List.map (fun j -> str_field j "id") results in
  if ids <> [ "s1"; "s2"; "s3" ] then
    fail "ids out of order: %s" (String.concat "," ids);
  List.iter
    (fun j ->
      if str_field j "code" <> "ok" then
        fail "job %s not ok: %s" (str_field j "id") (Service.Json.to_string j);
      (match Service.Json.member "placement" j with
      | Some (Service.Json.List (_ :: _)) -> ()
      | _ -> fail "job %s has no placement" (str_field j "id"));
      ignore (num_field j "total"))
    results;
  let r1 = List.nth results 0 and r3 = List.nth results 2 in
  if str_field r1 "fp" <> str_field r3 "fp" then
    fail "permuted duplicate changed the fingerprint";
  if num_field r1 "total" <> num_field r3 "total" then
    fail "permuted duplicate changed the cost";
  print_endline "service-smoke: 3 jobs ok, stream aligned, fingerprints stable"
