(** Seeded property-based testing, dependency-free.

    The one property-testing framework of the repository: it drives the
    fuzz oracles ([lib/fuzz], [bin/etransform_fuzz]) and, through an
    adapter in the test fixtures, the properties of the alcotest
    suites.  Combinator generators over the splittable
    {!Datasets.Prng}, greedy shrinking, and a runner whose output is a
    pure function of the seed — running twice with the same seed prints
    byte-identical reports, and every failure line carries the seed and
    case index needed to replay it.

    Seeds: the runner default is {!default_seed}; the [CHECK_SEED]
    environment variable overrides it (so a failure printed in CI can be
    replayed locally with [CHECK_SEED=n dune runtest]), and an explicit
    [?seed] argument overrides both.  Case [i] of a property draws from
    a PRNG derived only from [(seed, property name, i)] — adding or
    reordering other properties never disturbs an instance stream. *)

module Gen : sig
  (** A generator is a function of a PRNG stream.  Generators must
      consume randomness only from the stream they are handed — that is
      what makes instance streams reproducible from a printed seed. *)
  type 'a t = Datasets.Prng.t -> 'a

  val run : 'a t -> Datasets.Prng.t -> 'a

  val return : 'a -> 'a t
  val map : ('a -> 'b) -> 'a t -> 'b t
  val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
  val bind : 'a t -> ('a -> 'b t) -> 'b t
  val pair : 'a t -> 'b t -> ('a * 'b) t
  val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

  val bool : bool t

  (** [int_range lo hi] is uniform over the inclusive range [lo..hi]. *)
  val int_range : int -> int -> int t

  val float_range : float -> float -> float t

  (** Uniform pick from a non-empty list of constants. *)
  val choose : 'a list -> 'a t

  (** Uniform pick among sub-generators. *)
  val oneof : 'a t list -> 'a t

  (** Weighted pick among sub-generators (weights are positive ints). *)
  val frequency : (int * 'a t) list -> 'a t

  (** [list ~max g] has uniform length [0..max]. *)
  val list : max:int -> 'a t -> 'a list t

  (** [list_repeat n g] has exactly [n] elements. *)
  val list_repeat : int -> 'a t -> 'a list t

  val array : max:int -> 'a t -> 'a array t
  val char_range : char -> char -> char t
  val string_of : max:int -> char t -> string t

  (** Fisher-Yates permutation of [0..n-1]. *)
  val permutation : int -> int array t
end

module Shrink : sig
  (** Candidate replacements for a failing value, most aggressive first.
      The runner keeps the first candidate that still fails and repeats
      (greedy descent), so sequences should lead with big reductions. *)
  type 'a t = 'a -> 'a Seq.t

  val nil : 'a t

  (** Toward 0: [0], halvings toward [n], then [n - 1] for positive [n]
      and [n + 1] for negative [n].  Every candidate is closer to 0 than
      [n], and none repeats. *)
  val int : int t

  (** [0.], halvings, and the integer truncation. *)
  val float : float t

  (** Element removal (halves first, then singletons), then pointwise
      element shrinking with [elt]. *)
  val list : ?elt:'a t -> 'a list t

  (** Pointwise element shrinking only: the length never changes, for
      lists whose length other fields fix, such as {!Gen.list_repeat}
      draws. *)
  val list_each : 'a t -> 'a list t

  val array : ?elt:'a t -> 'a array t
  val pair : 'a t -> 'b t -> ('a * 'b) t
  val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
end

(** A generator bundled with its shrinker and printer. *)
type 'a arb

val arb :
  ?shrink:'a Shrink.t ->
  ?pp:(Format.formatter -> 'a -> unit) ->
  'a Gen.t ->
  'a arb

(** A named property over some ['a arb].  The body returns [Ok ()] to
    pass and [Error reason] to fail; raising also fails the case. *)
type prop

(** [prop name arb body] with the full-run case [count] (default 100)
    and the reduced [smoke_count] (default [max 1 (count / 5)]) used by
    the [--smoke] budget of the fuzz driver and the [@fuzz-smoke]
    alias. *)
val prop :
  ?count:int ->
  ?smoke_count:int ->
  string ->
  'a arb ->
  ('a -> (unit, string) result) ->
  prop

val prop_name : prop -> string

type failure = {
  prop : string;
  seed : int;
  case : int;              (** 0-based index of the failing case *)
  reason : string;         (** failure reason of the shrunk instance *)
  shrink_steps : int;
  counterexample : string option;  (** pretty-printed shrunk instance *)
  original : string option;        (** pretty-printed pre-shrink instance *)
}

(** Per-property run summary.  [stream] is a digest of the printed form
    of every instance generated (["-"] when the arb has no printer):
    equal seeds produce equal streams, different seeds almost surely
    don't — the fuzz driver prints it so reproducibility is visible. *)
type outcome = {
  name : string;
  cases : int;
  stream : string;
  failure : failure option;
}

(** 0xe7ca5e, unless [CHECK_SEED] is set and not empty.
    @raise Invalid_argument naming the value when [CHECK_SEED] is not
    an integer: a mistyped replay seed must not run the default one. *)
val default_seed : unit -> int

(** [run_one prop] runs the property's cases at [seed].  [smoke]
    selects the property's smoke count; [count] overrides both. *)
val run_one : ?seed:int -> ?smoke:bool -> ?count:int -> prop -> outcome

(** The failure report: property, seed, case index, reason and the
    printed counterexample.  The line that replays it depends on where
    the property runs, so each caller prints its own ({!run} prints the
    fuzz driver's). *)
val pp_failure : Format.formatter -> failure -> unit

(** [run props] runs every property, printing one [ok]/[FAIL] line per
    property (plus failure details) to [out] (default [stdout]).
    Returns [false] iff any property failed.  Output is deterministic
    given the seed. *)
val run :
  ?seed:int -> ?smoke:bool -> ?count:int -> ?out:out_channel ->
  prop list -> bool
