type var = {
  id : int;
  name : string;
  mutable lo : float;
  mutable hi : float;
  mutable integer : bool;
}

type sense = Le | Ge | Eq

module Linexpr = struct
  (* Expressions are kept as unreduced trees while being built; [terms]
     canonicalizes on demand.  Building is O(1) per combination, which
     matters when summing tens of thousands of terms. *)
  type t =
    | Zero
    | Const of float
    | Term of float * var
    | Add of t * t
    | Scale of float * t

  let zero = Zero
  let constant c = if c = 0.0 then Zero else Const c
  let term c v = Term (c, v)
  let var v = Term (1.0, v)

  let add a b =
    match (a, b) with Zero, e | e, Zero -> e | a, b -> Add (a, b)

  let scale k e = if k = 1.0 then e else Scale (k, e)
  let sub a b = add a (scale (-1.0) b)
  let sum es = List.fold_left add Zero es

  let fold_terms e ~on_const ~on_term =
    let rec go k e =
      match e with
      | Zero -> ()
      | Const c -> on_const (k *. c)
      | Term (c, v) -> on_term (k *. c) v
      | Add (a, b) ->
          go k a;
          go k b
      | Scale (s, a) -> go (k *. s) a
    in
    go 1.0 e

  let const_part e =
    let c = ref 0.0 in
    fold_terms e ~on_const:(fun x -> c := !c +. x) ~on_term:(fun _ _ -> ());
    !c

  let terms e =
    (* Canonicalize by sort-and-merge over flat id/coefficient arrays
       rather than a hash table: builders emit terms in variable order
       almost always, so the pre-sorted check usually reduces the whole
       pass to two array fills and one merge sweep.  A built-by-prepending
       expression arrives strictly descending; its ids are distinct, so
       reversing it gives the only ascending order.  Any other order goes
       through the pair sort: with repeated ids, its tie order fixes the
       order in which their coefficients are summed. *)
    let ids = ref (Array.make 16 0) and cs = ref (Array.make 16 0.0) in
    let k = ref 0 in
    fold_terms e
      ~on_const:(fun _ -> ())
      ~on_term:(fun c v ->
        if !k = Array.length !ids then begin
          let ids' = Array.make (2 * !k) 0 and cs' = Array.make (2 * !k) 0.0 in
          Array.blit !ids 0 ids' 0 !k;
          Array.blit !cs 0 cs' 0 !k;
          ids := ids';
          cs := cs'
        end;
        !ids.(!k) <- v.id;
        !cs.(!k) <- c;
        incr k);
    let n0 = !k in
    let ids = !ids and cs = !cs in
    let ascending = ref true and descending = ref true in
    for i = 1 to n0 - 1 do
      if ids.(i - 1) > ids.(i) then ascending := false
      else descending := false
    done;
    if !ascending then ()
    else if !descending then
      for i = 0 to (n0 / 2) - 1 do
        let k = n0 - 1 - i in
        let id = ids.(i) and c = cs.(i) in
        ids.(i) <- ids.(k);
        cs.(i) <- cs.(k);
        ids.(k) <- id;
        cs.(k) <- c
      done
    else begin
      let pairs = Array.init n0 (fun i -> (ids.(i), cs.(i))) in
      Array.sort (fun (a, _) (b, _) -> Stdlib.compare (a : int) b) pairs;
      Array.iteri
        (fun i (id, c) ->
          ids.(i) <- id;
          cs.(i) <- c)
        pairs
    end;
    let w = ref 0 and i = ref 0 in
    while !i < n0 do
      let id = ids.(!i) in
      let acc = ref 0.0 in
      while !i < n0 && ids.(!i) = id do
        acc := !acc +. cs.(!i);
        incr i
      done;
      if !acc <> 0.0 then begin
        ids.(!w) <- id;
        cs.(!w) <- !acc;
        incr w
      end
    done;
    Array.init !w (fun i -> (ids.(i), cs.(i)))

  let eval e x =
    let acc = ref 0.0 in
    fold_terms e
      ~on_const:(fun c -> acc := !acc +. c)
      ~on_term:(fun c v -> acc := !acc +. (c *. x.(v.id)));
    !acc

  let pp ~names ppf e =
    let ts = terms e in
    let c = const_part e in
    if Array.length ts = 0 then Fmt.pf ppf "%g" c
    else begin
      Array.iteri
        (fun i (id, coeff) ->
          if i = 0 then
            if coeff < 0.0 then Fmt.pf ppf "- %g %s" (-.coeff) (names id)
            else Fmt.pf ppf "%g %s" coeff (names id)
          else if coeff < 0.0 then Fmt.pf ppf " - %g %s" (-.coeff) (names id)
          else Fmt.pf ppf " + %g %s" coeff (names id))
        ts;
      if c <> 0.0 then Fmt.pf ppf " %s %g" (if c < 0.0 then "-" else "+") (abs_float c)
    end
end

type constr = {
  cname : string;
  expr : Linexpr.t;
  sense : sense;
  rhs : float;
  mutable tcache : (int * float) array option;
}

(* Rows are frozen once added, so their canonical term arrays can be
   computed once and reused — [Milp.solve] compiles the same rows on every
   call, which made repeated canonicalization the dominant setup cost. *)
let row_terms c =
  match c.tcache with
  | Some a -> a
  | None ->
      let a = Linexpr.terms c.expr in
      c.tcache <- Some a;
      a

type t = {
  mname : string;
  mutable nvars : int;
  mutable var_store : var array;
  mutable rows_rev : constr list;
  mutable nrows : int;
  mutable obj : Linexpr.t;
  mutable min : bool;
  mutable obj_cache : ((int * float) array * float) option;
}

let create ?(name = "model") () =
  {
    mname = name;
    nvars = 0;
    var_store = [||];
    rows_rev = [];
    nrows = 0;
    obj = Linexpr.zero;
    min = true;
    obj_cache = None;
  }

let name t = t.mname

let add_var t ?(lo = 0.0) ?(hi = infinity) ?(integer = false) ?(binary = false)
    vname =
  let lo, hi, integer = if binary then (0.0, 1.0, true) else (lo, hi, integer) in
  let v = { id = t.nvars; name = vname; lo; hi; integer } in
  let cap = Array.length t.var_store in
  if t.nvars = cap then begin
    let cap' = max 16 (2 * cap) in
    let store = Array.make cap' v in
    Array.blit t.var_store 0 store 0 cap;
    t.var_store <- store
  end;
  t.var_store.(t.nvars) <- v;
  t.nvars <- t.nvars + 1;
  v

let add_constr t cname expr sense rhs =
  (* Move any constant part of the expression to the right-hand side so the
     stored row is in canonical [terms sense rhs] form. *)
  let c = Linexpr.const_part expr in
  let expr = if c = 0.0 then expr else Linexpr.sub expr (Linexpr.constant c) in
  t.rows_rev <-
    { cname; expr; sense; rhs = rhs -. c; tcache = None } :: t.rows_rev;
  t.nrows <- t.nrows + 1

let add_le t n e rhs = add_constr t n e Le rhs
let add_ge t n e rhs = add_constr t n e Ge rhs
let add_eq t n e rhs = add_constr t n e Eq rhs
let set_objective t ?(minimize = true) e =
  t.obj <- e;
  t.min <- minimize;
  t.obj_cache <- None

let minimize t = t.min

let objective_terms t =
  match t.obj_cache with
  | Some (a, c) -> (a, c)
  | None ->
      let a = Linexpr.terms t.obj and c = Linexpr.const_part t.obj in
      t.obj_cache <- Some (a, c);
      (a, c)

let set_bounds _t v ~lo ~hi =
  v.lo <- lo;
  v.hi <- hi

let set_integer _t v b = v.integer <- b

let num_vars t = t.nvars
let num_constrs t = t.nrows
let vars t = Array.sub t.var_store 0 t.nvars
let constrs t = Array.of_list (List.rev t.rows_rev)

let integer_vars t =
  let acc = ref [] in
  for i = t.nvars - 1 downto 0 do
    if t.var_store.(i).integer then acc := t.var_store.(i) :: !acc
  done;
  !acc

let validate t =
  let problems = ref [] in
  let bad fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  if t.nvars = 0 then bad "model has no variables";
  for i = 0 to t.nvars - 1 do
    let v = t.var_store.(i) in
    if v.lo > v.hi then bad "variable %s has lo %g > hi %g" v.name v.lo v.hi;
    if Float.is_nan v.lo || Float.is_nan v.hi then
      bad "variable %s has NaN bound" v.name;
    if v.integer && Float.ceil (v.lo -. 1e-9) > Float.floor (v.hi +. 1e-9) then
      bad "integer variable %s has empty integral domain [%g, %g]" v.name v.lo
        v.hi
  done;
  List.iter
    (fun r ->
      if Float.is_nan r.rhs || Float.is_integer r.rhs && Float.abs r.rhs = infinity
      then bad "constraint %s has non-finite rhs" r.cname;
      if not (Float.is_nan r.rhs) && Float.abs r.rhs = infinity then
        bad "constraint %s has infinite rhs" r.cname;
      if Array.length (Linexpr.terms r.expr) = 0 then begin
        (* Constant row: either trivially true or witnesses infeasibility. *)
        let ok =
          match r.sense with
          | Le -> 0.0 <= r.rhs +. 1e-9
          | Ge -> 0.0 >= r.rhs -. 1e-9
          | Eq -> Float.abs r.rhs <= 1e-9
        in
        if not ok then bad "constraint %s is constant and violated" r.cname
      end)
    t.rows_rev;
  List.rev !problems

let pp_stats ppf t =
  let nint =
    let n = ref 0 in
    for i = 0 to t.nvars - 1 do
      if t.var_store.(i).integer then incr n
    done;
    !n
  in
  Fmt.pf ppf "%s: %d vars (%d integer), %d constraints" t.mname t.nvars nint
    t.nrows
