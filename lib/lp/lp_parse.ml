exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

type token =
  | Ident of string
  | Num of float
  | Plus
  | Minus
  | Rel of Model.sense
  | Colon

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '#' | '!' | '$' | '%'
  | '&' | '(' | ')' | ',' | ';' | '?' | '@' | '{' | '}' | '~' | '\'' | '"' ->
      true
  | _ -> false

let is_num_start = function '0' .. '9' | '.' -> true | _ -> false

(* A token may be a number only if it starts with a digit or dot; idents may
   contain digits and dots after the first character.  The tokenizer works
   on a [lo, hi) range of the full input string, so per-line parsing never
   allocates line substrings. *)
let tokenize_range s lo hi =
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref lo in
  while !i < hi do
    let c = s.[!i] in
    (match c with
    | ' ' | '\t' | '\r' -> incr i
    | '+' ->
        push Plus;
        incr i
    | '-' ->
        push Minus;
        incr i
    | ':' ->
        push Colon;
        incr i
    | '<' | '>' | '=' ->
        let sense =
          match c with
          | '<' -> Model.Le
          | '>' -> Model.Ge
          | _ -> Model.Eq
        in
        incr i;
        if !i < hi && s.[!i] = '=' then incr i;
        push (Rel sense)
    | c when is_num_start c ->
        let start = !i in
        while
          !i < hi
          && (is_num_start s.[!i]
             || s.[!i] = 'e' || s.[!i] = 'E'
             || ((s.[!i] = '+' || s.[!i] = '-')
                && !i > start
                && (s.[!i - 1] = 'e' || s.[!i - 1] = 'E')))
        do
          incr i
        done;
        let sub = String.sub s start (!i - start) in
        (match float_of_string_opt sub with
        | Some f -> push (Num f)
        | None -> fail "bad number %S" sub)
    | c when is_ident_char c ->
        let start = !i in
        while !i < hi && is_ident_char s.[!i] do
          incr i
        done;
        push (Ident (String.sub s start (!i - start)))
    | c -> fail "unexpected character %C" c);
    ()
  done;
  List.rev !toks

type section = Sec_objective | Sec_constraints | Sec_bounds | Sec_binaries
             | Sec_generals | Sec_end

let section_of_line line =
  let l = String.lowercase_ascii (String.trim line) in
  match l with
  | "minimize" | "maximize" | "min" | "max" -> Some (Sec_objective, l.[1] = 'a')
  | "subject to" | "such that" | "st" | "s.t." | "st." ->
      Some (Sec_constraints, false)
  | "bounds" | "bound" -> Some (Sec_bounds, false)
  | "binaries" | "binary" | "bin" -> Some (Sec_binaries, false)
  | "generals" | "general" | "gen" | "integers" | "integer" ->
      Some (Sec_generals, false)
  | "end" -> Some (Sec_end, false)
  | _ -> None

type builder = {
  model : Model.t;
  tbl : (string, Model.var) Hashtbl.t;
}

let lookup b name =
  match Hashtbl.find_opt b.tbl name with
  | Some v -> v
  | None ->
      let v = Model.add_var b.model name in
      Hashtbl.add b.tbl name v;
      v

(* Parse a linear expression prefix of [toks]; stops at a Rel token or end.
   Returns (expr, rest). *)
let parse_expr b toks =
  let expr = ref Model.Linexpr.zero in
  let rec go sign pending toks =
    match toks with
    | Plus :: rest ->
        flush_pending sign pending;
        go 1.0 None rest
    | Minus :: rest ->
        flush_pending sign pending;
        go (-1.0) None rest
    | Num f :: rest -> (
        match pending with
        | None -> go sign (Some f) rest
        | Some c ->
            (* two numbers in a row: previous one was a constant *)
            expr := Model.Linexpr.add !expr (Model.Linexpr.constant (sign *. c));
            go sign (Some f) rest)
    | Ident name :: rest ->
        let coeff = match pending with None -> 1.0 | Some c -> c in
        let v = lookup b name in
        expr := Model.Linexpr.add !expr (Model.Linexpr.term (sign *. coeff) v);
        go 1.0 None rest
    | (Rel _ :: _ | [] | (Colon :: _)) as rest ->
        flush_pending sign pending;
        rest
  and flush_pending sign pending =
    match pending with
    | None -> ()
    | Some c -> expr := Model.Linexpr.add !expr (Model.Linexpr.constant (sign *. c))
  in
  let rest = go 1.0 None toks in
  (!expr, rest)

(* Strip an optional leading "name :" label. *)
let strip_label toks =
  match toks with
  | Ident name :: Colon :: rest -> (Some name, rest)
  | _ -> (None, toks)

let parse_constraints b toks =
  (* Rows are delimited by their relation + rhs. *)
  let rec rows toks idx =
    match toks with
    | [] -> ()
    | _ ->
        let label, toks = strip_label toks in
        let expr, rest = parse_expr b toks in
        (match rest with
        | Rel sense :: Num rhs :: rest'
        | Rel sense :: Plus :: Num rhs :: rest' ->
            let name =
              match label with Some l -> l | None -> Printf.sprintf "c%d" idx
            in
            Model.add_constr b.model name expr sense rhs;
            rows rest' (idx + 1)
        | Rel sense :: Minus :: Num rhs :: rest' ->
            let name =
              match label with Some l -> l | None -> Printf.sprintf "c%d" idx
            in
            Model.add_constr b.model name expr sense (-.rhs);
            rows rest' (idx + 1)
        | _ -> fail "constraint %d: expected relation and rhs" idx)
  in
  rows toks 0

let neg_inf_idents = [ "inf"; "infinity" ]

let parse_bounds_line b toks =
  let num_of = function
    | Num f :: rest -> Some (f, rest)
    | Plus :: Num f :: rest -> Some (f, rest)
    | Minus :: Num f :: rest -> Some (-.f, rest)
    | Ident id :: rest when List.mem (String.lowercase_ascii id) neg_inf_idents
      ->
        Some (infinity, rest)
    | Plus :: Ident id :: rest
      when List.mem (String.lowercase_ascii id) neg_inf_idents ->
        Some (infinity, rest)
    | Minus :: Ident id :: rest
      when List.mem (String.lowercase_ascii id) neg_inf_idents ->
        Some (neg_infinity, rest)
    | _ -> None
  in
  match toks with
  | [] -> ()
  | Ident name :: rest when String.lowercase_ascii name <> "inf" -> (
      let v = lookup b name in
      match rest with
      | [ Ident f ] when String.lowercase_ascii f = "free" ->
          Model.set_bounds b.model v ~lo:neg_infinity ~hi:infinity
      | Rel Model.Le :: tail -> (
          match num_of tail with
          | Some (hi, []) -> Model.set_bounds b.model v ~lo:(Model.lower b.model v) ~hi
          | _ -> fail "bad bound line for %s" name)
      | Rel Model.Ge :: tail -> (
          match num_of tail with
          | Some (lo, []) -> Model.set_bounds b.model v ~lo ~hi:(Model.upper b.model v)
          | _ -> fail "bad bound line for %s" name)
      | Rel Model.Eq :: tail -> (
          match num_of tail with
          | Some (x, []) -> Model.set_bounds b.model v ~lo:x ~hi:x
          | _ -> fail "bad bound line for %s" name)
      | _ -> fail "bad bound line for %s" name)
  | _ -> (
      (* number <= name [<= number]  (or -inf <= name) *)
      match num_of toks with
      | Some (lo, Rel Model.Le :: Ident name :: tail) -> (
          let v = lookup b name in
          match tail with
          | [] -> Model.set_bounds b.model v ~lo ~hi:(Model.upper b.model v)
          | Rel Model.Le :: tail2 -> (
              match num_of tail2 with
              | Some (hi, []) -> Model.set_bounds b.model v ~lo ~hi
              | _ -> fail "bad double bound for %s" name)
          | _ -> fail "bad bound line for %s" name)
      | _ -> fail "unparseable bounds line")

let parse_marks b toks ~binary =
  List.iter
    (function
      | Ident name ->
          let v = lookup b name in
          if binary then Model.set_bounds b.model v ~lo:0.0 ~hi:1.0;
          Model.set_integer b.model v true
      | _ -> fail "expected variable name in integrality section")
    toks

(* The driver makes a single pass over the input string: line boundaries
   and comment starts are found in place, section headers are recognized
   on a small trimmed copy, and everything else is tokenized directly from
   the full string via [tokenize_range].  Objective and constraint bodies
   span lines, so their tokens accumulate as reversed chunks that are
   concatenated once at the end — appending per line is quadratic in the
   number of rows and dominated large-model parse times. *)
let model_of_string ?(name = "parsed") s =
  let b = { model = Model.create ~name (); tbl = Hashtbl.create 64 } in
  let n = String.length s in
  let section = ref None in
  let obj_chunks = ref [] and con_chunks = ref [] in
  let maximize = ref false in
  let pos = ref 0 in
  while !pos <= n - 1 do
    let eol =
      match String.index_from_opt s !pos '\n' with Some i -> i | None -> n
    in
    let lo = !pos in
    (* Strip any comment, then trim the [lo, hi) range in place.  The
       backslash scan must stop at the line end — searching the rest of
       the string per line would be quadratic over the file. *)
    let hi = ref eol in
    (let i = ref lo in
     while !i < !hi do
       if s.[!i] = '\\' then hi := !i else incr i
     done);
    let lo = ref lo in
    while
      !lo < !hi && (s.[!lo] = ' ' || s.[!lo] = '\t' || s.[!lo] = '\r')
    do
      incr lo
    done;
    while
      !hi > !lo
      && (s.[!hi - 1] = ' ' || s.[!hi - 1] = '\t' || s.[!hi - 1] = '\r')
    do
      decr hi
    done;
    let lo = !lo and hi = !hi in
    if hi > lo then begin
      (* Section headers are at most 10 characters ("subject to"); longer
         lines cannot match, so only short ones pay the substring. *)
      let header =
        if hi - lo <= 10 then section_of_line (String.sub s lo (hi - lo))
        else None
      in
      match header with
      | Some (Sec_objective, is_max) ->
          maximize := is_max;
          section := Some Sec_objective
      | Some (sec, _) -> section := Some sec
      | None -> (
          match !section with
          | None -> fail "content before objective section"
          | Some Sec_objective ->
              obj_chunks := tokenize_range s lo hi :: !obj_chunks
          | Some Sec_constraints ->
              con_chunks := tokenize_range s lo hi :: !con_chunks
          | Some Sec_bounds -> parse_bounds_line b (tokenize_range s lo hi)
          | Some Sec_binaries ->
              parse_marks b (tokenize_range s lo hi) ~binary:true
          | Some Sec_generals ->
              parse_marks b (tokenize_range s lo hi) ~binary:false
          | Some Sec_end -> fail "content after End")
    end;
    pos := eol + 1
  done;
  let _, obj_body = strip_label (List.concat (List.rev !obj_chunks)) in
  let expr, rest = parse_expr b obj_body in
  if rest <> [] then fail "trailing tokens in objective";
  Model.set_objective b.model ~minimize:(not !maximize) expr;
  parse_constraints b (List.concat (List.rev !con_chunks));
  b.model

let read_model_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  model_of_string ~name:(Filename.remove_extension (Filename.basename path)) s
