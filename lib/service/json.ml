type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Fail of string

(* ------------------------------------------------------------- parsing *)

(* A cursor over [s]: every read is bounds-checked against [len], and
   nothing is allocated per character. *)
type state = { s : string; len : int; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "%s at offset %d" msg st.pos))

let at_end st = st.pos >= st.len

(* The character under the cursor; only when [not (at_end st)]. *)
let cur st = String.unsafe_get st.s st.pos

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    (not (at_end st))
    && match cur st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let looking_at st c = (not (at_end st)) && cur st = c

let expect st c =
  if looking_at st c then advance st
  else fail st (Printf.sprintf "expected %C" c)

let parse_literal st word value =
  let n = String.length word in
  let rec same i = i = n || (st.s.[st.pos + i] = word.[i] && same (i + 1)) in
  if st.pos + n <= st.len && same 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

(* UTF-8 encode one scalar value (for \uXXXX escapes). *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

(* Strict 4-hex-digit parse: [int_of_string_opt "0x..."] would also accept
   underscores inside the digits, which JSON forbids. *)
let parse_hex4 st =
  if st.pos + 4 > st.len then fail st "truncated \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"
  in
  let u =
    (digit st.s.[st.pos] lsl 12)
    lor (digit st.s.[st.pos + 1] lsl 8)
    lor (digit st.s.[st.pos + 2] lsl 4)
    lor digit st.s.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  u

let is_high_surrogate u = u >= 0xD800 && u <= 0xDBFF
let is_low_surrogate u = u >= 0xDC00 && u <= 0xDFFF

(* One escape, the cursor just past its backslash. *)
let parse_escape st buf =
  if at_end st then fail st "unterminated escape";
  let c = cur st in
  advance st;
  match c with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
      let u = parse_hex4 st in
      if is_low_surrogate u then fail st "unpaired low surrogate in \\u escape"
      else if is_high_surrogate u then begin
        (* A high surrogate is only half a scalar: it must be followed by
           \uDC00-\uDFFF, and the pair combines into one
           supplementary-plane code point. *)
        if
          st.pos + 2 > st.len
          || st.s.[st.pos] <> '\\'
          || st.s.[st.pos + 1] <> 'u'
        then fail st "unpaired high surrogate in \\u escape";
        st.pos <- st.pos + 2;
        let lo = parse_hex4 st in
        if not (is_low_surrogate lo) then
          fail st "unpaired high surrogate in \\u escape";
        add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
      end
      else add_utf8 buf u
  | _ -> fail st "unknown escape"

(* The end of the run of plain string bytes from [i]: the next quote or
   backslash, or [len]. *)
let rec plain_run st i =
  if i < st.len then
    match String.unsafe_get st.s i with
    | '"' | '\\' -> i
    | _ -> plain_run st (i + 1)
  else i

(* A string is copied a run at a time; one without escapes is a single
   [String.sub]. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let stop = plain_run st start in
  st.pos <- stop;
  if looking_at st '"' then begin
    advance st;
    String.sub st.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf st.s start (stop - start);
    let rec go () =
      if at_end st then fail st "unterminated string";
      if cur st = '"' then advance st
      else begin
        advance st;
        parse_escape st buf;
        let start = st.pos in
        let stop = plain_run st start in
        Buffer.add_substring buf st.s start (stop - start);
        st.pos <- stop;
        go ()
      end
    in
    go ();
    Buffer.contents buf
  end

(* The value of the decimal digits [s.[i .. stop - 1]] accumulated onto
   [acc], or -1 at the first byte that is not a digit. *)
let rec digits_value s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        digits_value s (i + 1) stop ((10 * acc) + Char.code c - Char.code '0')
    | _ -> -1

let parse_number st =
  let start = st.pos in
  while
    (not (at_end st))
    && match cur st with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    advance st
  done;
  (* Up to 15 digits, with or without a minus sign, name an integer that
     a float holds exactly, so [float_of_string] would read it as this
     value: skip the copy and the C call. *)
  let neg = st.pos > start && st.s.[start] = '-' in
  let first = if neg then start + 1 else start in
  let n = st.pos - first in
  let v = if n > 0 && n <= 15 then digits_value st.s first st.pos 0 else -1 in
  if v >= 0 then Num (if neg then -.float_of_int v else float_of_int v)
  else
    let text = String.sub st.s start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  if at_end st then fail st "unexpected end of input";
  match cur st with
  | '{' ->
      advance st;
      skip_ws st;
      if looking_at st '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          if looking_at st ',' then begin
            advance st;
            members ((k, v) :: acc)
          end
          else if looking_at st '}' then begin
            advance st;
            List.rev ((k, v) :: acc)
          end
          else fail st "expected , or } in object"
        in
        Obj (members [])
      end
  | '[' ->
      advance st;
      skip_ws st;
      if looking_at st ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          if looking_at st ',' then begin
            advance st;
            items (v :: acc)
          end
          else if looking_at st ']' then begin
            advance st;
            List.rev (v :: acc)
          end
          else fail st "expected , or ] in array"
        in
        List (items [])
      end
  | '"' -> Str (parse_string st)
  | 't' -> parse_literal st "true" (Bool true)
  | 'f' -> parse_literal st "false" (Bool false)
  | 'n' -> parse_literal st "null" Null
  | _ -> parse_number st

let parse s =
  let st = { s; len = String.length s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos < st.len then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Fail msg -> Error msg

(* ------------------------------------------------------------ printing *)

let hex_digit d = "0123456789abcdef".[d]

(* [s.[start .. i - 1]] needs no escaping; copy it when [i] reaches a
   byte that does, or the end. *)
let rec escape_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let c = String.unsafe_get s i in
    if c <> '"' && c <> '\\' && Char.code c >= 0x20 then
      escape_from buf s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf (hex_digit (Char.code c lsr 4));
          Buffer.add_char buf (hex_digit (Char.code c land 0xf)));
      escape_from buf s (i + 1) (i + 1)
    end

let escape buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

(* The runtime primitive behind [Printf]'s [%g] conversions: the format
   goes to C's printf as it is. *)
external format_float : string -> float -> string = "caml_format_float"

(* The decimal digits of [n >= 0], most significant first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_number buf f =
  (* JSON has no NaN/Infinity; emit null for any non-finite value. *)
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    (* [Printf.sprintf "%.0f" f] byte for byte, at a fraction of the
       cost: result lines carry a dozen integers (the placement). *)
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_digits buf (int_of_float (Float.abs f))
  end
  else
    (* Shortest representation that round-trips: [Printf.sprintf "%.12g"],
       else ["%.17g"], without the format interpreter. *)
    let s = format_float "%.12g" f in
    Buffer.add_string buf
      (if float_of_string s = f then s else format_float "%.17g" f)

let number_to_string f =
  let buf = Buffer.create 24 in
  add_number buf f;
  Buffer.contents buf

let to_string j =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_number buf f
    | Str s -> escape buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          items;
        Buffer.add_char buf ']'
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            go v)
          members;
        Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* ----------------------------------------------------------- accessors *)

(* [List.assoc_opt] less its polymorphic compare: a job decode looks up
   some thirty keys, most of them absent. *)
let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj ms -> assoc k ms | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_str = function Str s -> Some s | _ -> None
