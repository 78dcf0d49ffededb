(** Minimal JSON support for the planning service: NDJSON job specs,
    result lines, and the trace sink.  Hand-rolled because the image ships
    no JSON library; covers the full value grammar but none of the
    extensions (comments, NaN, trailing commas). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] parses one JSON document.  [Error msg] carries a position. *)
val parse : string -> (t, string) result

(** Compact single-line rendering (safe for NDJSON / JSONL streams). *)
val to_string : t -> string

(** How {!to_string} prints a [Num]: [null] when not finite, an integer
    below 1e15 in plain digits ([Printf.sprintf "%.0f"]), any other value
    as [Printf.sprintf "%.12g"] when that reads back as the same float,
    else as ["%.17g"]. *)
val number_to_string : float -> string

(** [member k j] is the value under key [k] when [j] is an object. *)
val member : string -> t -> t option

val to_float : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_str : t -> string option
