type core = Sparse

type options = {
  node_limit : int;
  time_limit : float;
  gap_tol : float;
  core : core;
}

let default_options =
  {
    node_limit = 5000;
    time_limit = infinity;
    gap_tol = 1e-6;
    core = Sparse;
  }

type result = {
  status : Status.t;
  x : float array;
  relax_x : float array;
  obj : float;
  bound : float;
  gap : float;
  nodes : int;
  cuts : int;
  lp_iterations : int;
}

let relax ?core:_ m = Simplex.solve (Simplex.of_model m)

let integral ?(tol = 1e-6) m x =
  List.for_all
    (fun (v : Model.var) ->
      let xv = x.(v.Model.id) in
      Float.abs (xv -. Float.round xv) <= tol)
    (Model.integer_vars m)

(* A node is the list of bound changes relative to the root problem, plus
   the optimal basis of the parent LP: a child differs from its parent by a
   single bound, so the dual simplex restarted from that basis usually
   repairs it in a handful of pivots.  [branched] remembers which variable
   and direction created the node, the parent's objective key and the
   branching value's fractional part, so the child LP's outcome can be fed
   back into the pseudocost table.  [solved] is the node's own LP result
   when strong branching already computed it (see [expand]). *)
type node = {
  diffs : (int * float * float) list;
  depth : int;
  warm : Simplex.basis option;
  branched : (int * bool * float * float) option;
      (* (var, up?, parent key, fractional part) *)
  solved : Simplex.result option;
}

(* Integrality tolerance on LP values. *)
let int_tol = 1e-6

(* Iteration cap on a strong-branching probe: enough for the dual simplex
   to repair one bound change, small enough that a recalcitrant child LP
   is abandoned (the probe then reports "no information"). *)
let probe_iters = 200

(* The time budget of one solve, in wall seconds on {!Clock} since the
   solve began.  [deadline] is when it runs out: every LP gets it, so no
   simplex call outlives it by more than a pivot.  [root_s] is what the
   root LP cost: the root phases (cuts, pump, dive) are staged under
   fractions of the budget *remaining after the root LP*, so that on
   models where every LP solve is expensive no single stage can starve the
   tree search of its share.  On wide models the root solve alone can
   cost a large fraction of the whole budget, and slicing the raw limit
   would silently zero out the early stages.  With the default infinite
   budget the slices are infinite too. *)
type budget = {
  limit : float;
  start : float;
  deadline : float;
  mutable root_s : float;
}

let elapsed b = Clock.now () -. b.start

let out_of_time b = elapsed b > b.limit

(* The slice [frac] of the post-root budget is spent. *)
let slice_over b frac () =
  out_of_time b
  || elapsed b > b.root_s +. (frac *. Float.max 0.0 (b.limit -. b.root_s))

(* What the phases of one solve share. *)
type state = {
  options : options;
  input0 : Simplex.input;  (* the model as built *)
  mutable input : Simplex.input;  (* [input0] with the root cuts appended *)
  int_ids : int list;
  integer : bool array;  (* [integer.(j)]: column [j] is an integer *)
  budget : budget;
  mutable lp_iters : int;
  mutable warm : Simplex.basis option;
      (* the basis the pump and the dive carry from solve to solve *)
  mutable incumbent : (float * float array) option;  (* (key, point) *)
  mutable relax_x : float array;  (* root LP optimum before cuts *)
  mutable cuts : int;
  mutable nodes : int;
}

(* Why the solve ended: the root LP did not solve to optimality, an LP at
   the root was integral (its key is then the optimum), or the tree
   search stopped on a budget or within [gap_tol] ([Some]) or ran out of
   open nodes ([None]), with the least open key and the root key for the
   bound. *)
type exit =
  | Root_failed of Status.t
  | Integral of float
  | Searched of { reason : Status.t option; open_key : float; root_key : float }

let init options m =
  let start = Clock.now () in
  let input0 = Simplex.of_model m in
  let int_ids =
    List.map (fun (v : Model.var) -> v.Model.id) (Model.integer_vars m)
  in
  let integer = Array.make input0.Simplex.nvars false in
  List.iter (fun j -> integer.(j) <- true) int_ids;
  let budget =
    { limit = options.time_limit; start;
      deadline = start +. options.time_limit; root_s = 0.0 }
  in
  { options; input0; input = input0; int_ids; integer; budget; lp_iters = 0;
    warm = None; incumbent = None; relax_x = [||]; cuts = 0; nodes = 0 }

(* Internal keys are always "smaller is better"; the map between keys and
   user objective values is its own inverse. *)
let key st o = if st.input0.Simplex.minimize then o else -.o

(* The one LP entry: solve [input] (by default the input with the root
   cuts) with the bound changes [diffs] tightened onto it, under the
   solve's deadline, and count the iterations.  With [~chain:true] the
   solve warm-starts from [st.warm], exports its basis and, when it has
   one, leaves it in [st.warm]. *)
let lp st ?(input = st.input) ?warm ?max_iters ?(want_basis = false)
    ?(chain = false) diffs =
  let input =
    match diffs with
    | [] -> input
    | _ ->
        let lo = Array.copy input.Simplex.lo
        and hi = Array.copy input.Simplex.hi in
        List.iter
          (fun (j, l, h) ->
            lo.(j) <- Float.max lo.(j) l;
            hi.(j) <- Float.min hi.(j) h)
          diffs;
        { input with Simplex.lo = lo; hi }
  in
  let warm = if chain then st.warm else warm in
  let r =
    Simplex.solve ?warm ?max_iters ~deadline:st.budget.deadline
      ~want_basis:(want_basis || chain) input
  in
  st.lp_iters <- st.lp_iters + r.Simplex.iterations;
  if chain && Option.is_some r.Simplex.basis then st.warm <- r.Simplex.basis;
  r

(* A candidate only replaces the incumbent if its key is strictly better.
   Candidates are re-priced against the original objective after rounding
   the integer variables exactly, so heuristics (dive, pump) can never
   corrupt the reported optimum — at worst they fail to help. *)
let accept_point st x =
  let x = Array.copy x in
  List.iter (fun j -> x.(j) <- Float.round x.(j)) st.int_ids;
  let objv =
    st.input0.Simplex.obj_const
    +. Array.fold_left ( +. ) 0.0
         (Array.mapi (fun j c -> c *. x.(j)) st.input0.Simplex.obj)
  in
  let k = key st objv in
  match st.incumbent with
  | Some (k0, _) when k0 <= k +. 1e-12 -> ()
  | _ -> st.incumbent <- Some (k, x)

(* An optimal LP at the root: [Error (Integral _)] ends the solve when it
   is integral, [Ok r] hands it to the next phase. *)
let integral_or_next st (r : Simplex.result) =
  if Branching.most_fractional st.int_ids int_tol r.Simplex.x = -1 then begin
    accept_point st r.Simplex.x;
    Error (Integral (key st r.Simplex.obj_value))
  end
  else Ok r

(* The root LP.  A model with integers exports its basis so the cut
   rounds, the heuristics and the tree all warm-start from this one cold
   solve instead of each paying for their own.  On wide models a cold
   root LP runs tens of seconds while a warm repair is near-free, so the
   pipeline must never cold-solve the root twice. *)
let root st =
  let r = lp st ~input:st.input0 ~want_basis:(st.int_ids <> []) [] in
  st.budget.root_s <- elapsed st.budget;
  match r.Simplex.status with
  | Status.Optimal ->
      st.relax_x <- r.Simplex.x;
      integral_or_next st r
  | s -> Error (Root_failed s)

(* Gomory mixed-integer and cover cuts appended before the tree opens, so
   every node LP — and every warm-started child basis — shares one row
   structure.  The cut rounds may close the integrality gap outright. *)
let strengthen st (root0 : Simplex.result) =
  let root =
    if out_of_time st.budget then root0
    else
      match
        Cuts.strengthen
          ~solve:(fun ?warm input -> lp st ~input ?warm ~want_basis:true [])
          ~integer:st.integer ~int_tol ~root:root0
          ~stop:(slice_over st.budget 0.25) st.input0
      with
      | None -> root0
      | Some (input, r, stats) ->
          st.input <- input;
          st.cuts <- Cuts.total stats;
          r
  in
  integral_or_next st root

(* Which integers pump-and-fix leaves free around the pump's stalled
   point [y]: [(decision, keep_free)], where [decision.(j)] marks the
   integers of pure-integer rows.

   Equality rows need care: a fractional variable in an equality row can
   usually only round by moving its row-mates (an assignment row shifts
   the unit onto a different column), and pinning those row-mates at 0
   strands it.  So every integer sharing an equality row with a
   fractional integer stays free too.  Only pure-integer equality rows
   qualify: a mixed row has continuous columns that can absorb the
   rounding, and freeing its whole integer support would unravel most of
   the pinning.

   Implied integers — those appearing in no pure-integer row — only ever
   gate continuous columns (piecewise segment indicators); their values
   are forced once the decision integers settle, and pinning them at the
   pump's stall values locks the continuous rows into the stall
   configuration.  They stay free throughout.

   Gate-opening: any inequality row touching a free integer may need more
   room than the pinned point left it, and a pinned-low integer whose
   coefficient relaxes the row when raised (a closed big-M site
   indicator) is the only kind of pin that can deny it.  Freeing those
   opens the gates without unravelling the rest of the pinning;
   pinned-high slack-eaters stay pinned, since their equality row-mates
   are pinned anyway.

   All three passes classify over the original rows: appended cut rows
   are dense aggregates whose signs carry no structure, and reading them
   would flag nearly every pinned integer as gate-opening. *)
let free_integers st y =
  let n = st.input.Simplex.nvars and integer = st.integer in
  let rows = st.input0.Simplex.rows in
  let fractional = Array.make n false in
  List.iter
    (fun j ->
      if Float.abs (y.(j) -. Float.round y.(j)) > int_tol then
        fractional.(j) <- true)
    st.int_ids;
  let keep_free = Array.make n false in
  Array.iter
    (fun { Model.ids; sense; _ } ->
      if
        sense = Model.Eq
        && Array.exists (fun j -> fractional.(j)) ids
        && Array.for_all (fun j -> integer.(j)) ids
      then Array.iter (fun j -> keep_free.(j) <- true) ids)
    rows;
  let decision = Array.make n false in
  Array.iter
    (fun { Model.ids; _ } ->
      if Array.for_all (fun j -> integer.(j)) ids then
        Array.iter (fun j -> decision.(j) <- true) ids)
    rows;
  List.iter
    (fun j -> if not decision.(j) then keep_free.(j) <- true)
    st.int_ids;
  Array.iter
    (fun { Model.ids; coefs; sense; _ } ->
      if
        sense <> Model.Eq
        && Array.exists (fun j -> fractional.(j) || keep_free.(j)) ids
      then
        Array.iteri
          (fun k j ->
            let c = coefs.(k) in
            if
              integer.(j)
              && (not fractional.(j))
              && Float.round y.(j) < st.input.Simplex.hi.(j) -. 0.5
              &&
              match sense with
              | Model.Le -> c < 0.0
              | Model.Ge -> c > 0.0
              | Model.Eq -> false
            then keep_free.(j) <- true)
          ids)
    rows;
  (decision, keep_free)

(* Pump-and-fix: the pump stalled at [y] with all but a few integers
   integral.  Pin the integral majority at the pumped values — the pump's
   own LP iterate certifies the pinned LP is feasible — except those
   [free_integers] leaves free, and finish with a short dive over the
   remainder. *)
let pump_and_fix st y =
  let decision, keep_free = free_integers st y in
  let fixes =
    List.filter_map
      (fun j ->
        let v = y.(j) in
        let rv = Float.round v in
        if Float.abs (v -. rv) <= int_tol && not keep_free.(j) then
          Some (j, rv, rv)
        else None)
      st.int_ids
  in
  let r' = lp st ~chain:true fixes in
  if r'.Simplex.status = Status.Optimal then begin
    (* Up-dive the residual with backtracking.  The free integers are
       typically assignment-style binaries split across a few candidates;
       the variable with the largest fractional part is the candidate
       with the most LP support, so try its ceiling first and only zero
       it out when the LP proves there is no room.  (Round-to-nearest is
       exactly wrong here: it zeroes the well-supported candidates and
       strands the mass on candidates that cannot take it.) *)
    let fuel = ref 1000 in
    let stop = slice_over st.budget 0.9 in
    (* Two tiers: decision integers first, implied ones last.  An implied
       indicator near 1 has the largest fractional part at every node,
       but pinning it before the decisions locks the continuous rows it
       gates and surfaces the conflict only many levels deeper — the dive
       then backtracks exponentially.  Once the decisions are integral
       the implied integers resolve independently, row by row. *)
    let pick (x : float array) =
      let best tier =
        List.fold_left
          (fun (bj, bf) j ->
            let f = x.(j) -. Float.floor x.(j) in
            let fr = Float.min f (1.0 -. f) in
            if fr > int_tol && tier j && f > bf then (j, f) else (bj, bf))
          (-1, 0.0) st.int_ids
      in
      match best (fun j -> decision.(j)) with
      | -1, _ -> best (fun j -> not decision.(j))
      | hit -> hit
    in
    let rec dfs diffs (r : Simplex.result) =
      if !fuel <= 0 || stop () then false
      else
        match pick r.Simplex.x with
        | -1, _ ->
            accept_point st r.Simplex.x;
            true
        | j, _ ->
            let xv = r.Simplex.x.(j) in
            let descend v =
              decr fuel;
              let d = (j, v, v) :: diffs in
              let r' = lp st ?warm:r.Simplex.basis ~want_basis:true d in
              r'.Simplex.status = Status.Optimal && dfs d r'
            in
            descend (Float.ceil xv) || descend (Float.floor xv)
    in
    ignore (dfs fixes r')
  end

(* Dive-and-fix from the root LP [root].  Each round pins every integer
   variable already sitting on an integer value in the current LP
   solution (the "batch"), plus the most fractional one rounded to its
   nearest value, then re-solves — so a dive costs a handful of LP solves
   rather than one per integer variable.  Batch fixes are provisional:
   zeros pinned early can strand a variable's row-mates and make later
   rounds infeasible, so on conflict the batch is dropped (the explicitly
   chosen single fixes are kept) and diving continues from a fresh LP.

   Each round re-solves after a batch of bound fixes with the same
   objective, which is exactly the dual-simplex warm regime — just with
   many repairs instead of one — so every round warm-starts from the
   last successful round's basis.  On wide models (Federal-sized:
   thousands of binaries) that is the difference between a dive
   finishing and the dive eating the whole time budget in cold solves. *)
let dive st (root : Simplex.result) =
  let fixed = Hashtbl.create 64 in
  st.warm <- root.Simplex.basis;
  let collect_batch (r : Simplex.result) =
    List.filter_map
      (fun jj ->
        if Hashtbl.mem fixed jj then None
        else begin
          let v = r.Simplex.x.(jj) in
          let rv = Float.round v in
          if Float.abs (v -. rv) <= 1e-7 then Some (jj, rv, rv) else None
        end)
      st.int_ids
  in
  let stop = slice_over st.budget 0.8 in
  let rec go ~singles ~batch (r : Simplex.result) fuel =
    if fuel = 0 || stop () then ()
    else if r.Simplex.status <> Status.Optimal then ()
    else
      match Branching.most_fractional st.int_ids int_tol r.Simplex.x with
      | -1 -> accept_point st r.Simplex.x
      | j ->
          let xv = r.Simplex.x.(j) in
          let near = Float.round xv in
          let far = if near > xv then Float.floor xv else Float.ceil xv in
          let in_batch jj = List.exists (fun (k, _, _) -> k = jj) batch in
          let fresh =
            List.filter (fun (jj, _, _) -> not (in_batch jj)) (collect_batch r)
          in
          let batch' = fresh @ batch in
          (* Near, then far, with the batch; then, the batch having
             over-committed, near and far with the single fixes only.  An
             empty batch leaves nothing to drop, and the retries would
             repeat the failed solves from the same basis. *)
          let rec attempt = function
            | [] -> ()
            | (v, b) :: rest ->
                let r' = lp st ~chain:true (((j, v, v) :: b) @ singles) in
                if r'.Simplex.status = Status.Optimal then begin
                  Hashtbl.replace fixed j ();
                  if b = [] then
                    List.iter
                      (fun (jj, _, _) -> Hashtbl.remove fixed jj)
                      batch';
                  go ~singles:((j, v, v) :: singles) ~batch:b r' (fuel - 1)
                end
                else attempt rest
          in
          let with_batch = [ (near, batch'); (far, batch') ] in
          attempt
            (if batch' = [] then with_batch
             else with_batch @ [ (near, []); (far, []) ])
  in
  go ~singles:[] ~batch:[] root 150

(* Primal heuristics, pump first: its warm objective-swap rounds are the
   cheapest route to a first incumbent, and on wide models an early
   incumbent is what lets best-bound prune at all.  Pump rounds keep
   bounds and rows fixed and only swap the objective, so the previous
   round's basis stays primal feasible: a warm solve skips straight to
   phase-2 primal reoptimization.  The objective-guided dive runs after,
   and only when the pump came up empty — until feasibility is in hand,
   dive rounds that chase the objective are mostly wasted solves. *)
let heuristics st (root : Simplex.result) =
  if not (out_of_time st.budget) then begin
    st.warm <- root.Simplex.basis;
    match
      Fpump.run
        ~solve:(fun input -> lp st ~input ~chain:true [])
        ~input:st.input ~int_ids:st.int_ids ~int_tol ~start:root.Simplex.x
        ~stop:(slice_over st.budget 0.5)
    with
    | Fpump.Integral y -> accept_point st y
    | Fpump.Near y when not (out_of_time st.budget) -> pump_and_fix st y
    | Fpump.Near _ | Fpump.Failed -> ()
  end;
  if Option.is_none st.incumbent && not (out_of_time st.budget) then
    dive st root

(* Branch on the node [nd] whose LP [r] the search just solved: feed the
   outcome to the pseudocosts, then prune it, accept its integral point,
   or push its two children. *)
let expand st bstate frontier nd (r : Simplex.result) =
  (match (nd.branched, r.Simplex.status) with
  | Some (j, up, pk, f), Status.Optimal ->
      Branching.observe bstate ~var:j ~up ~frac:f
        ~degradation:(key st r.Simplex.obj_value -. pk)
  | _ -> ());
  match r.Simplex.status with
  | Status.Infeasible -> ()
  | Status.Optimal -> (
      let k' = key st r.Simplex.obj_value in
      let worse =
        match st.incumbent with
        | Some (ki, _) -> k' >= ki -. 1e-9 *. (1.0 +. Float.abs ki)
        | None -> false
      in
      if not worse then
        (* Strong branching solves each candidate's children from this
           node's basis.  A child whose probe finished on the warm dual
           path, optimal or infeasible, within [probe_iters] is the very
           solve the child's own node LP would run (same bounds, same
           basis, and a node LP's default iteration cap is never below
           2000), so the chosen candidate's probes are handed to its
           children and the rest dropped.  The tree can solve at most
           [node_limit - st.nodes] more LPs, so [select] probes no more
           candidates. *)
        let probed = ref [] in
        let probe j xv =
          if out_of_time st.budget then (None, None)
          else begin
            let dir l h =
              let pr =
                lp st ?warm:r.Simplex.basis ~max_iters:probe_iters
                  ((j, l, h) :: nd.diffs)
              in
              let kept = if pr.Simplex.warm_started then Some pr else None in
              match pr.Simplex.status with
              | Status.Optimal ->
                  ( kept,
                    Some (Float.max 0.0 (key st pr.Simplex.obj_value -. k')) )
              | Status.Infeasible ->
                  (kept, Some Branching.infeasible_degradation)
              | _ -> (None, None)
            in
            (* Sequenced by [let]: the components of a tuple are evaluated
               in an unspecified order. *)
            let up_kept, up = dir (Float.ceil xv) infinity in
            let dn_kept, dn = dir neg_infinity (Float.floor xv) in
            probed := (j, dn_kept, up_kept) :: !probed;
            (dn, up)
          end
        in
        match
          Branching.select bstate
            ~budget:(st.options.node_limit - st.nodes)
            ~int_ids:st.int_ids ~tol:int_tol ~x:r.Simplex.x ~probe
        with
        | -1 -> accept_point st r.Simplex.x
        | j ->
            let xv = r.Simplex.x.(j) in
            let f = xv -. Float.floor xv in
            let fl = Float.floor xv and ce = Float.ceil xv in
            let warm = r.Simplex.basis in
            let dn_solved, up_solved =
              match List.find_opt (fun (i, _, _) -> i = j) !probed with
              | Some (_, dn, up) -> (dn, up)
              | None -> (None, None)
            in
            Frontier.push frontier ~key:k'
              { diffs = (j, neg_infinity, fl) :: nd.diffs;
                depth = nd.depth + 1; warm;
                branched = Some (j, false, k', f);
                solved = dn_solved };
            Frontier.push frontier ~key:k'
              { diffs = (j, ce, infinity) :: nd.diffs;
                depth = nd.depth + 1; warm;
                branched = Some (j, true, k', f);
                solved = up_solved })
  | _ ->
      (* A node LP that fails numerically is abandoned; the incumbent, if
         any, remains valid. *)
      ()

(* The relative gap [finish] reports between the incumbent's key [ki] and
   a bound key [b] capped at it. *)
let rel_gap ki b = Float.abs (ki -. b) /. Float.max 1.0 (Float.abs ki)

(* Whether the incumbent is already within [gap_tol] of the bound that an
   open node of key [k] leaves, the least open key when [k] was just
   popped: every node the search would still expand can improve the
   incumbent by no more than the tolerance. *)
let within_gap st ~root_key k =
  match st.incumbent with
  | Some (ki, _) ->
      rel_gap ki (Float.min (Float.max root_key k) ki) <= st.options.gap_tol
  | None -> false

(* Best-first branch and bound over the open-node frontier, branching by
   [Branching]'s reliability rule.  The tree's root node is the root LP:
   it carries the root basis, so the first pop is a no-op repair, not a
   second cold solve of the same relaxation.  A node stopped by a budget,
   before or during its LP, goes back on the frontier, so its key still
   feeds the reported bound.  The search also ends, with the popped node
   back on the frontier, once the incumbent is within [gap_tol] of the
   least open key. *)
let tree st (root : Simplex.result) =
  let bstate = Branching.create ~nvars:st.input0.Simplex.nvars in
  let root_key = key st root.Simplex.obj_value in
  let frontier = Frontier.create () in
  Frontier.push frontier ~key:root_key
    { diffs = []; depth = 0; warm = root.Simplex.basis; branched = None;
      solved = None };
  let rec search () =
    match Frontier.pop_min frontier with
    | None -> None
    | Some (k, nd) ->
        let pruned =
          match st.incumbent with
          | Some (ki, _) -> k >= ki -. 1e-12
          | None -> false
        in
        if pruned then search ()
        else if within_gap st ~root_key k then begin
          Frontier.push frontier ~key:k nd;
          Some Status.Optimal
        end
        else if st.nodes >= st.options.node_limit then begin
          Frontier.push frontier ~key:k nd;
          Some Status.Node_limit
        end
        else if out_of_time st.budget then begin
          Frontier.push frontier ~key:k nd;
          Some Status.Time_limit
        end
        else begin
          st.nodes <- st.nodes + 1;
          let r =
            match nd.solved with
            | Some r -> r
            | None -> lp st ?warm:nd.warm ~want_basis:true nd.diffs
          in
          match r.Simplex.status with
          | Status.Time_limit ->
              Frontier.push frontier ~key:k nd;
              Some Status.Time_limit
          | _ ->
              expand st bstate frontier nd r;
              search ()
        end
  in
  let reason = search () in
  let open_key =
    match (reason, Frontier.min_key frontier) with
    | Some _, Some k -> k
    | None, _ | Some _, None -> infinity
  in
  Searched { reason; open_key; root_key }

let finish st exit =
  let result ~status ?(x = [||]) ?(obj = nan) ?(bound = nan) ?(gap = nan)
      ~nodes () =
    { status; x; relax_x = st.relax_x; obj; bound; gap; nodes; cuts = st.cuts;
      lp_iterations = st.lp_iters }
  in
  match exit with
  | Root_failed status -> result ~status ~nodes:0 ()
  | Integral k ->
      let _, x = Option.get st.incumbent in
      result ~status:Status.Optimal ~x ~obj:(key st k) ~bound:(key st k)
        ~gap:0.0 ~nodes:1 ()
  | Searched { reason; open_key; root_key } -> (
      match st.incumbent with
      | None ->
          (* Without an incumbent an exhausted tree proves the model
             infeasible; a stopped one reports the budget that stopped it. *)
          result
            ~status:(Option.value reason ~default:Status.Infeasible)
            ~bound:(key st root_key) ~nodes:st.nodes ()
      | Some (ki, x) ->
          let bound_key =
            if open_key = infinity then ki else Float.max root_key open_key
          in
          let bound_key = Float.min bound_key ki in
          let gap = rel_gap ki bound_key in
          let status =
            match reason with
            | None -> Status.Optimal
            | Some _ when gap <= st.options.gap_tol -> Status.Optimal
            | Some _ -> Status.Feasible
          in
          result ~status ~x ~obj:(key st ki) ~bound:(key st bound_key) ~gap
            ~nodes:st.nodes ())

(* One pipeline: [root], [strengthen], [heuristics], [tree], each on the
   shared state; [finish] builds the result from whichever phase ended
   the solve. *)
let solve ?(options = default_options) m =
  let st = init options m in
  let exit =
    match Result.bind (root st) (strengthen st) with
    | Error exit -> exit
    | Ok root ->
        heuristics st root;
        tree st root
  in
  finish st exit
