(** Construction of the consolidation MILP (paper §III-B).

    Minimize  sum_ij X_ij ( S_i (Q_j + alpha E_j + T_j / beta) + D_i W_j + L_ij )
    s.t.      sum_j X_ij = 1           (every group placed)
              sum_i S_i X_ij <= O_j    (capacity)
              X_ij in {0,1}

    Options add the paper's refinements: economies of scale (space priced on
    the volume-discount curve via {!Lp.Piecewise.concave_cost}), fixed site
    opening charges, the business-impact spread constraint
    [sum_i X_ij <= omega * M], shared-risk separation rows, and pin/forbid
    rows from the iterative-modification interface. *)

type options = {
  economies_of_scale : bool;
  fixed_charges : bool;
  omega : float option;
  pins : (int * int) list;     (** (group, target): force placement *)
  forbids : (int * int) list;  (** (group, target): exclude placement *)
  max_latency_ms : float option;
      (** latency budget: exclude targets whose user-weighted mean
          latency for the group exceeds this.  A group with no candidate
          inside the budget keeps its fastest admissible target, and
          pinned pairs always survive the filter. *)
}

val default_options : options

(** [init_blocks n empty f] is [Array.init n f] for an array of blocks
    that may pass 256 words: it starts from the immediate [empty]
    ([[||]], [None]), where [Array.init] would start from the young
    [f 0] and force a minor collection (DESIGN.md, "Allocation on the
    plan path").  [f] runs on [0 .. n-1] in order. *)
val init_blocks : int -> 'a -> (int -> 'a) -> 'a array

type built = {
  model : Lp.Model.t;
  x : Lp.Model.var option array array;
      (** [x.(i).(j)]: assignment variable, [None] when i may not go to j *)
  asis : Asis.t;
  options : options;
}

(** [may_place options asis i j] is the move rule of the side constraints,
    and their one owner: group [i] may sit at target [j], an allowed site,
    not forbidden, inside the latency budget (or the group's fastest site
    when none is), and its pin if it has one.  [build] makes X columns by
    the same rule less the pin clause (a pin fixes its column instead).
    The rule does not read capacities. *)
val may_place : options -> Asis.t -> int -> int -> bool

(** [constrained options]: pins, forbids, [omega] or a latency budget is
    set, so candidates that ignore them (the greedy plan) may not serve. *)
val constrained : options -> bool

val build : ?options:options -> Asis.t -> built

(** [argmax ?except row solution]: the index of [row]'s variable, other
    than [except], with the largest value (the first on ties); -1 if none. *)
val argmax : ?except:int -> Lp.Model.var option array -> float array -> int

(** [decode built solution] reads the X variables back into a plan (argmax
    per group, robust to mild fractionality). *)
val decode : built -> float array -> Placement.t
