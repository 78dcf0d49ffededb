type var = {
  id : int;
  name : string;
  mutable lo : float;
  mutable hi : float;
  mutable integer : bool;
}

type sense = Le | Ge | Eq

module Linexpr = struct
  (* Expressions are kept as unreduced trees while being built; rows
     canonicalize them once, when they are added.  Building is O(1) per
     combination, which matters when summing tens of thousands of terms,
     and a [Dot] leaf holds a whole weighted row or column of a builder's
     variable matrix without a node per term. *)
  type t =
    | Zero
    | Const of float
    | Term of float * var
    | Dot of float array * var option array
    | Add of t * t
    | Scale of float * t

  let zero = Zero
  let constant c = if c = 0.0 then Zero else Const c
  let term c v = Term (c, v)
  let var v = Term (1.0, v)

  let dot w vs =
    if Array.length w <> Array.length vs then
      invalid_arg "Model.Linexpr.dot: arrays differ in length";
    Dot (w, vs)

  let add a b =
    match (a, b) with Zero, e | e, Zero -> e | a, b -> Add (a, b)

  let scale k e = if k = 1.0 then e else Scale (k, e)
  let sub a b = add a (scale (-1.0) b)
  let sum es = List.fold_left add Zero es

  (* The terms of a walk, in visiting order, and the sum of its
     constants. *)
  type acc = {
    mutable ids : int array;
    mutable cs : float array;
    mutable n : int;
    mutable const : float;
  }

  let reserve a extra =
    let cap = Array.length a.ids in
    if a.n + extra > cap then begin
      let cap' = max (a.n + extra) (max 8 (2 * cap)) in
      let ids = Array.make cap' 0 and cs = Array.make cap' 0.0 in
      Array.blit a.ids 0 ids 0 a.n;
      Array.blit a.cs 0 cs 0 a.n;
      a.ids <- ids;
      a.cs <- cs
    end

  (* Visits left before right, and multiplies the scales from the root
     down before each coefficient: [k *. c] with [k] the product of the
     enclosing scales, taken outermost first. *)
  let rec walk a k e =
    match e with
    | Zero -> ()
    | Const c -> a.const <- a.const +. (k *. c)
    | Term (c, v) ->
        reserve a 1;
        a.ids.(a.n) <- v.id;
        a.cs.(a.n) <- k *. c;
        a.n <- a.n + 1
    | Dot (w, vs) ->
        reserve a (Array.length vs);
        let ids = a.ids and cs = a.cs and n = ref a.n in
        for t = 0 to Array.length vs - 1 do
          match vs.(t) with
          | None -> ()
          | Some v ->
              ids.(!n) <- v.id;
              cs.(!n) <- k *. w.(t);
              incr n
        done;
        a.n <- !n
    | Add (l, r) ->
        walk a k l;
        walk a k r
    | Scale (s, l) -> walk a (k *. s) l

  let canonical e =
    (* Canonicalize by sort-and-merge over flat id/coefficient arrays
       rather than a hash table: builders emit terms in variable order
       almost always, so the pre-sorted check usually reduces the whole
       pass to one array fill and one merge sweep.  A built-by-prepending
       expression arrives strictly descending; its ids are distinct, so
       reversing it gives the only ascending order.  Any other order goes
       through the pair sort: with repeated ids, its tie order fixes the
       order in which their coefficients are summed. *)
    let a = { ids = [||]; cs = [||]; n = 0; const = 0.0 } in
    walk a 1.0 e;
    let n0 = a.n and ids = a.ids and cs = a.cs in
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
    let terms = Array.make !w (0, 0.0) in
    for i = 0 to !w - 1 do
      terms.(i) <- (ids.(i), cs.(i))
    done;
    (terms, a.const)

  let terms e = fst (canonical e)
end

type constr = {
  cname : string;
  terms : (int * float) array;
  sense : sense;
  rhs : float;
}

type t = {
  mname : string;
  mutable nvars : int;
  mutable var_store : var array;
  mutable row_store : constr array;
  mutable nrows : int;
  mutable obj : (int * float) array * float;
  mutable min : bool;
}

let create ?(name = "model") () =
  {
    mname = name;
    nvars = 0;
    var_store = [||];
    row_store = [||];
    nrows = 0;
    obj = ([||], 0.0);
    min = true;
  }

let name t = t.mname

(* Append [x] to the first [n] slots of [store], growing it by doubling. *)
let grow store n x =
  let cap = Array.length store in
  if n < cap then store
  else begin
    let store' = Array.make (max 16 (2 * cap)) x in
    Array.blit store 0 store' 0 cap;
    store'
  end

let add_var t ?(lo = 0.0) ?(hi = infinity) ?(integer = false) ?(binary = false)
    vname =
  let lo, hi, integer = if binary then (0.0, 1.0, true) else (lo, hi, integer) in
  let v = { id = t.nvars; name = vname; lo; hi; integer } in
  t.var_store <- grow t.var_store t.nvars v;
  t.var_store.(t.nvars) <- v;
  t.nvars <- t.nvars + 1;
  v

let add_constr t cname expr sense rhs =
  (* The stored row is in canonical [terms sense rhs] form: any constant
     part of the expression moves to the right-hand side. *)
  let terms, c = Linexpr.canonical expr in
  let row = { cname; terms; sense; rhs = rhs -. c } in
  t.row_store <- grow t.row_store t.nrows row;
  t.row_store.(t.nrows) <- row;
  t.nrows <- t.nrows + 1

let add_le t n e rhs = add_constr t n e Le rhs
let add_ge t n e rhs = add_constr t n e Ge rhs
let add_eq t n e rhs = add_constr t n e Eq rhs
let set_objective t ?(minimize = true) e =
  t.obj <- Linexpr.canonical e;
  t.min <- minimize

let minimize t = t.min
let objective_terms t = t.obj

let set_bounds _t v ~lo ~hi =
  v.lo <- lo;
  v.hi <- hi

let set_integer _t v b = v.integer <- b

let num_vars t = t.nvars
let num_constrs t = t.nrows
let vars t = Array.sub t.var_store 0 t.nvars
let constrs t = Array.sub t.row_store 0 t.nrows

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
  for i = 0 to t.nrows - 1 do
    let r = t.row_store.(i) in
    if Float.is_nan r.rhs then bad "constraint %s has NaN rhs" r.cname;
    if Float.abs r.rhs = infinity then
      bad "constraint %s has infinite rhs" r.cname;
    if Array.length r.terms = 0 then begin
      (* Constant row: either trivially true or witnesses infeasibility. *)
      let ok =
        match r.sense with
        | Le -> 0.0 <= r.rhs +. 1e-9
        | Ge -> 0.0 >= r.rhs -. 1e-9
        | Eq -> Float.abs r.rhs <= 1e-9
      in
      if not ok then bad "constraint %s is constant and violated" r.cname
    end
  done;
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
