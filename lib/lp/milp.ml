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
   when strong branching already computed it (see [probe] in [solve]). *)
type node = {
  diffs : (int * float * float) list;
  depth : int;
  warm : Simplex.basis option;
  branched : (int * bool * float * float) option;
      (* (var, up?, parent key, fractional part) *)
  solved : Simplex.result option;
}

let most_fractional = Branching.most_fractional

(* Integrality tolerance on LP values. *)
let int_tol = 1e-6

let rec mem_assoc3 j = function
  | [] -> false
  | (k, _, _) :: rest -> k = j || mem_assoc3 j rest

let round_integers int_ids x =
  let x = Array.copy x in
  List.iter (fun j -> x.(j) <- Float.round x.(j)) int_ids;
  x

(* Iteration cap on a strong-branching probe: enough for the dual simplex
   to repair one bound change, small enough that a recalcitrant child LP
   is abandoned (the probe then reports "no information"). *)
let probe_iters = 200

let solve ?(options = default_options) m =
  let input0 = Simplex.of_model m in
  let minimize = input0.Simplex.minimize in
  (* Internal keys are always "smaller is better". *)
  let key_of_obj o = if minimize then o else -.o in
  let obj_of_key k = if minimize then k else -.k in
  let int_ids = List.map (fun (v : Model.var) -> v.Model.id) (Model.integer_vars m) in
  let lp_iters = ref 0 in
  let count (r : Simplex.result) =
    lp_iters := !lp_iters + r.Simplex.iterations;
    r
  in
  let solve_on (input : Simplex.input) ?warm ?max_iters ?(want_basis = false)
      diffs =
    let lo = Array.copy input.Simplex.lo and hi = Array.copy input.Simplex.hi in
    List.iter
      (fun (j, l, h) ->
        lo.(j) <- Float.max lo.(j) l;
        hi.(j) <- Float.min hi.(j) h)
      diffs;
    count
      (Simplex.solve ?warm ?max_iters ~want_basis
         { input with Simplex.lo = lo; hi })
  in
  let start = Sys.time () in
  let out_of_time () = Sys.time () -. start > options.time_limit in
  (* Root work is staged under fractions of the time budget so that on
     models where every LP solve is expensive no single stage (cuts, pump,
     dive) can starve the tree search of its share.  Slices are carved out
     of the budget *remaining after the root LP* — on wide models the root
     solve alone can cost a large fraction of the whole budget, and slicing
     the raw limit would silently zero out the early stages.  With the
     default infinite budget the slices are infinite too. *)
  let root_elapsed = ref 0.0 in
  let budget_stop frac () =
    out_of_time ()
    || Sys.time () -. start
       > !root_elapsed
         +. (frac *. Float.max 0.0 (options.time_limit -. !root_elapsed))
  in
  (* The incumbent (key, point): a candidate only replaces it if its key
     is strictly better. *)
  let incumbent = ref None (* (key, x) *) in
  (* Candidates are re-priced against the original objective after rounding
     the integer variables exactly, so heuristics (dive, pump) can never
     corrupt the reported optimum — at worst they fail to help. *)
  let accept_point x =
    let x = round_integers int_ids x in
    let objv =
      input0.Simplex.obj_const
      +. Array.fold_left ( +. ) 0.0
           (Array.mapi (fun j c -> c *. x.(j)) input0.Simplex.obj)
    in
    let k = key_of_obj objv in
    match !incumbent with
    | Some (k0, _) when k0 <= k +. 1e-12 -> ()
    | _ -> incumbent := Some (k, x)
  in
  (* The initial root solve of a model with integers exports its basis
     so the cut rounds, the heuristics and the tree all warm-start from
     this one cold solve instead of each paying for their own.  On wide
     models a cold root LP runs tens of seconds while a warm repair is
     near-free, so the pipeline must never cold-solve the root twice. *)
  let root0 = solve_on input0 ~want_basis:(int_ids <> []) [] in
  root_elapsed := Sys.time () -. start;
  (
      match root0.Simplex.status with
      | Status.Infeasible ->
          { status = Status.Infeasible; x = [||]; relax_x = [||]; obj = nan; bound = nan;
            gap = nan; nodes = 0; cuts = 0; lp_iterations = !lp_iters }
      | Status.Unbounded ->
          { status = Status.Unbounded; x = [||]; relax_x = [||]; obj = nan; bound = nan;
            gap = nan; nodes = 0; cuts = 0; lp_iterations = !lp_iters }
      | Status.Iteration_limit | Status.Time_limit | Status.Node_limit
      | Status.Feasible ->
          { status = Status.Iteration_limit; x = [||]; relax_x = [||]; obj = nan; bound = nan;
            gap = nan; nodes = 0; cuts = 0; lp_iterations = !lp_iters }
      | Status.Optimal when most_fractional int_ids int_tol root0.Simplex.x = -1 ->
          accept_point root0.Simplex.x;
          let _, x = Option.get !incumbent in
          let root_key = key_of_obj root0.Simplex.obj_value in
          { status = Status.Optimal; x; relax_x = root0.Simplex.x;
            obj = obj_of_key root_key;
            bound = obj_of_key root_key; gap = 0.0; nodes = 1; cuts = 0;
            lp_iterations = !lp_iters }
      | Status.Optimal ->
          (* Root strengthening: Gomory mixed-integer and cover cuts appended
             before the tree opens, so every node LP — and every warm-started
             child basis — shares one row structure. *)
          let integer = Array.make input0.Simplex.nvars false in
          List.iter (fun j -> integer.(j) <- true) int_ids;
          let input, root, ncuts =
            if not (out_of_time ()) then
              match
                Cuts.strengthen
                  ~solve:(fun ?warm inp ->
                    count
                      (Simplex.solve ?warm ~want_basis:true inp))
                  ~integer ~int_tol ~root:root0
                  ~stop:(budget_stop 0.25) input0
              with
              | None -> (input0, root0, 0)
              | Some (inp, r, st) -> (inp, r, Cuts.total st)
            else (input0, root0, 0)
          in
          let solve_node ?warm ?max_iters ?want_basis diffs =
            solve_on input ?warm ?max_iters ?want_basis diffs
          in
          let root_key = key_of_obj root.Simplex.obj_value in
          if most_fractional int_ids int_tol root.Simplex.x = -1 then begin
            (* The cut rounds closed the integrality gap outright. *)
            accept_point root.Simplex.x;
            let _, x = Option.get !incumbent in
            { status = Status.Optimal; x; relax_x = root0.Simplex.x;
              obj = obj_of_key root_key;
              bound = obj_of_key root_key; gap = 0.0; nodes = 1; cuts = ncuts;
              lp_iterations = !lp_iters }
          end
          else begin
            (* Dive-and-fix.  Each round pins every integer variable already
               sitting on an integer value in the current LP solution (the
               "batch"), plus the most fractional one rounded to its nearest
               value, then re-solves — so a dive costs a handful of LP solves
               rather than one per integer variable.  Batch fixes are
               provisional: zeros pinned early can strand a variable's
               row-mates and make later rounds infeasible, so on conflict the
               batch is dropped (the explicitly chosen single fixes are kept)
               and diving continues from a fresh LP.  Every round
               warm-starts from the previous round's basis (see
               [try_fix] below). *)
            let dive r0 =
              let fixed = Hashtbl.create 64 in
              (* Each dive round re-solves after a batch of bound fixes with
                 the same objective, which is exactly the dual-simplex warm
                 regime — just with many repairs instead of one.  The warm
                 path falls back to a cold solve when the basis struggles, so
                 this is purely a node-cost optimization.  On wide models
                 (Federal-sized: thousands of binaries) it is the difference
                 between a dive finishing and the dive eating the whole time
                 budget in cold solves. *)
              let dive_basis = ref ((r0 : Simplex.result).Simplex.basis) in
              let collect_batch (r : Simplex.result) =
                List.filter_map
                  (fun jj ->
                    if Hashtbl.mem fixed jj then None
                    else begin
                      let v = r.Simplex.x.(jj) in
                      let rv = Float.round v in
                      if Float.abs (v -. rv) <= 1e-7 then Some (jj, rv, rv)
                      else None
                    end)
                  int_ids
              in
              let try_fix extra =
                let r' =
                  solve_node ?warm:!dive_basis ~want_basis:true extra
                in
                if r'.Simplex.status = Status.Optimal then begin
                  (match r'.Simplex.basis with
                  | Some _ as b -> dive_basis := b
                  | None -> ());
                  Some r'
                end
                else None
              in
              let dive_stop = budget_stop 0.8 in
              let rec go ~singles ~batch (r : Simplex.result) fuel =
                if fuel = 0 || dive_stop () then ()
                else if r.Simplex.status <> Status.Optimal then ()
                else
                  match most_fractional int_ids int_tol r.Simplex.x with
                  | -1 -> accept_point r.Simplex.x
                  | j ->
                      let xv = r.Simplex.x.(j) in
                      let near = Float.round xv in
                      let far =
                        if near > xv then Float.floor xv else Float.ceil xv
                      in
                      let fresh =
                        List.filter
                          (fun (jj, _, _) -> not (mem_assoc3 jj batch))
                          (collect_batch r)
                      in
                      let batch' = fresh @ batch in
                      let keep_batch v r' =
                        Hashtbl.replace fixed j ();
                        go ~singles:((j, v, v) :: singles) ~batch:batch' r'
                          (fuel - 1)
                      in
                      (match try_fix (((j, near, near) :: batch') @ singles) with
                      | Some r' -> keep_batch near r'
                      | None ->
                      match try_fix (((j, far, far) :: batch') @ singles) with
                      | Some r' -> keep_batch far r'
                      | None -> (
                          (* The batch over-committed: retry singles only. *)
                          match try_fix ((j, near, near) :: singles) with
                          | Some r' ->
                              Hashtbl.replace fixed j ();
                              List.iter
                                (fun (jj, _, _) -> Hashtbl.remove fixed jj)
                                batch';
                              go ~singles:((j, near, near) :: singles) ~batch:[]
                                r' (fuel - 1)
                          | None -> (
                              match try_fix ((j, far, far) :: singles) with
                              | Some r' ->
                                  Hashtbl.replace fixed j ();
                                  List.iter
                                    (fun (jj, _, _) -> Hashtbl.remove fixed jj)
                                    batch';
                                  go ~singles:((j, far, far) :: singles)
                                    ~batch:[] r' (fuel - 1)
                              | None -> ())))
              in
              go ~singles:[] ~batch:[] r0 150
            in
            (* Primal heuristics, pump first: its warm objective-swap rounds
               are the cheapest route to a first incumbent, and on wide
               models an early incumbent is what lets best-bound prune at
               all.  The objective-guided dive runs after, and only when the
               pump came up empty — until feasibility is in hand, dive
               rounds that chase the objective are mostly wasted solves. *)
            if not (out_of_time ()) then begin
              (* Pump rounds keep bounds and rows fixed and only swap the
                 objective, so the previous round's basis stays primal
                 feasible: a warm solve skips straight to phase-2 primal
                 reoptimization instead of a from-scratch solve. *)
              let pump_basis = ref (root : Simplex.result).Simplex.basis in
              let pump_solve inp =
                let r =
                  count
                    (Simplex.solve ?warm:!pump_basis ~want_basis:true inp)
                in
                (match r.Simplex.basis with
                | Some _ as b -> pump_basis := b
                | None -> ());
                r
              in
              (match
                 Fpump.run ~solve:pump_solve ~input ~int_ids
                   ~int_tol ~start:root.Simplex.x
                   ~stop:(budget_stop 0.5) ~max_rounds:100 ()
               with
              | Fpump.Integral y -> accept_point y
              | Fpump.Near y when not (out_of_time ()) ->
                  (* Pump-and-fix: the pump stalled with all but a few
                     integers integral.  Pin the integral majority at the
                     pumped values — the pump's own LP iterate certifies
                     the pinned LP is feasible — and finish with a short
                     dive over the remainder.  Equality rows need care:
                     a fractional variable in an equality row can usually
                     only round by moving its row-mates (an assignment row
                     shifts the unit onto a different column), and pinning
                     those row-mates at 0 strands it.  So every integer
                     sharing an equality row with a fractional integer
                     stays free too.  Only pure-integer equality rows
                     qualify: a mixed row has continuous columns that can
                     absorb the rounding, and freeing its whole integer
                     support would unravel most of the pinning. *)
                  let fractional = Array.make input.Simplex.nvars false in
                  List.iter
                    (fun j ->
                      if
                        Float.abs (y.(j) -. Float.round y.(j))
                        > int_tol
                      then fractional.(j) <- true)
                    int_ids;
                  let keep_free = Array.make input.Simplex.nvars false in
                  Array.iter
                    (fun (row, sense, _) ->
                      if
                        sense = Model.Eq
                        && Array.exists (fun (j, _) -> fractional.(j)) row
                        && Array.for_all (fun (j, _) -> integer.(j)) row
                      then
                        Array.iter (fun (j, _) -> keep_free.(j) <- true) row)
                    input0.Simplex.rows;
                  (* Implied integers — those appearing in no pure-integer
                     row — only ever gate continuous columns (piecewise
                     segment indicators); their values are forced once the
                     decision integers settle, and pinning them at the
                     pump's stall values locks the continuous rows into the
                     stall configuration.  Leave them free throughout.
                     All three passes classify over the original rows:
                     appended cut rows are dense aggregates whose signs
                     carry no structure, and reading them would flag
                     nearly every pinned integer as gate-opening. *)
                  let decision = Array.make input.Simplex.nvars false in
                  Array.iter
                    (fun (row, _, _) ->
                      if Array.for_all (fun (j, _) -> integer.(j)) row then
                        Array.iter (fun (j, _) -> decision.(j) <- true) row)
                    input0.Simplex.rows;
                  List.iter
                    (fun j -> if not decision.(j) then keep_free.(j) <- true)
                    int_ids;
                  (* Gate-opening: any inequality row touching a free
                     integer may need more room than the pinned point
                     left it, and a pinned-low integer whose coefficient
                     relaxes the row when raised (a closed big-M site
                     indicator) is the only kind of pin that can deny it.
                     Freeing those opens the gates without unravelling the
                     rest of the pinning; pinned-high slack-eaters stay
                     pinned, since their equality row-mates are pinned
                     anyway. *)
                  Array.iter
                    (fun (row, sense, _) ->
                      if
                        sense <> Model.Eq
                        && Array.exists
                             (fun (j, _) -> fractional.(j) || keep_free.(j))
                             row
                      then
                        Array.iter
                          (fun (j, c) ->
                            if
                              integer.(j)
                              && (not fractional.(j))
                              && Float.round y.(j)
                                 < input.Simplex.hi.(j) -. 0.5
                              &&
                              match sense with
                              | Model.Le -> c < 0.0
                              | Model.Ge -> c > 0.0
                              | Model.Eq -> false
                            then keep_free.(j) <- true)
                          row)
                    input0.Simplex.rows;
                  let fixes =
                    List.filter_map
                      (fun j ->
                        let v = y.(j) in
                        let rv = Float.round v in
                        if
                          Float.abs (v -. rv) <= int_tol
                          && not keep_free.(j)
                        then Some (j, rv, rv)
                        else None)
                      int_ids
                  in
                  let r' = solve_node ?warm:!pump_basis ~want_basis:true fixes in
                  if r'.Simplex.status = Status.Optimal then begin
                    (* Up-dive the residual with backtracking.  The free
                       integers are typically assignment-style binaries
                       split across a few candidates; the variable with the
                       largest fractional part is the candidate with the
                       most LP support, so try its ceiling first and only
                       zero it out when the LP proves there is no room.
                       (Round-to-nearest is exactly wrong here: it zeroes
                       the well-supported candidates and strands the
                       mass on candidates that cannot take it.) *)
                    let fuel = ref 1000 in
                    let stop = budget_stop 0.9 in
                    (* Two tiers: decision integers first, implied ones
                       last.  An implied indicator near 1 has the largest
                       fractional part at every node, but pinning it
                       before the decisions locks the continuous rows it
                       gates and surfaces the conflict only many levels
                       deeper — the dive then backtracks exponentially.
                       Once the decisions are integral the implied
                       integers resolve independently, row by row. *)
                    let pick (x : float array) =
                      let best tier =
                        List.fold_left
                          (fun (bj, bf) j ->
                            let f = x.(j) -. Float.floor x.(j) in
                            let fr = Float.min f (1.0 -. f) in
                            if fr > int_tol && tier j && f > bf then
                              (j, f)
                            else (bj, bf))
                          (-1, 0.0) int_ids
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
                            accept_point r.Simplex.x;
                            true
                        | j, _ ->
                            let xv = r.Simplex.x.(j) in
                            let descend v =
                              decr fuel;
                              let d = (j, v, v) :: diffs in
                              let r' =
                                solve_node ?warm:r.Simplex.basis
                                  ~want_basis:true d
                              in
                              r'.Simplex.status = Status.Optimal && dfs d r'
                            in
                            descend (Float.ceil xv)
                            || descend (Float.floor xv)
                    in
                    ignore (dfs fixes r')
                  end
              | Fpump.Near _ | Fpump.Failed -> ())
            end;
            if !incumbent = None && not (out_of_time ()) then
              dive root;
            let bstate = Branching.create ~nvars:input0.Simplex.nvars in
            (* Best-first tree search over the open-node frontier.  The
               tree's root node is the LP we just solved: hand it the root
               basis so the first pop is a no-op repair, not a third cold
               solve of the same relaxation. *)
            let frontier = Frontier.create () in
            Frontier.push frontier ~key:root_key
              { diffs = []; depth = 0; warm = root.Simplex.basis;
                branched = None; solved = None };
            let nodes = ref 0 in
            let stop_reason = ref None in
            (* Deadline-aware per-node budget: once the solve has burned
               enough clock to estimate its pivot rate, each node LP is
               capped at the iterations the *remaining* budget can afford.
               A node whose LP alone would outlive the deadline is pushed
               back open and the search stops, instead of blowing through
               the limit inside one uninterruptible simplex call. *)
            let node_budget () =
              if not (Float.is_finite options.time_limit) then None
              else begin
                let elapsed = Sys.time () -. start in
                let iters = !lp_iters in
                if elapsed <= 1e-3 || iters <= 0 then None
                else begin
                  let remaining =
                    Float.max 0.0 (options.time_limit -. elapsed)
                  in
                  let rate = float_of_int iters /. elapsed in
                  let cap = rate *. remaining in
                  Some (max 500 (int_of_float (Float.min 1e8 cap)))
                end
              end
            in
            let process_result nd (r : Simplex.result) =
              (match (nd.branched, r.Simplex.status) with
              | Some (j, up, pk, f), Status.Optimal ->
                  Branching.observe bstate ~var:j ~up ~frac:f
                    ~degradation:(key_of_obj r.Simplex.obj_value -. pk)
              | _ -> ());
              match r.Simplex.status with
              | Status.Infeasible -> ()
              | Status.Optimal -> (
                  let k' = key_of_obj r.Simplex.obj_value in
                  let worse =
                    match !incumbent with
                    | Some (ki, _) -> k' >= ki -. 1e-9 *. (1.0 +. Float.abs ki)
                    | None -> false
                  in
                  if not worse then
                    (* Strong branching solves each candidate's children
                       from this node's basis.  A child whose probe
                       finished on the warm dual path, optimal or
                       infeasible, within [probe_iters] is the very solve
                       the child's own node LP would run (same bounds,
                       same basis, and a node's iteration cap is never
                       below 500), so the chosen candidate's probes are
                       handed to its children and the rest dropped.  The
                       tree can solve at most [node_limit - !nodes] more
                       LPs, so [select] probes no more candidates. *)
                    let probed = ref [] in
                    let probe j xv =
                      if out_of_time () then (None, None)
                      else begin
                        let dir l h =
                          let pr =
                            solve_node ?warm:r.Simplex.basis
                              ~max_iters:probe_iters
                              ((j, l, h) :: nd.diffs)
                          in
                          let kept =
                            if pr.Simplex.warm_started then Some pr else None
                          in
                          match pr.Simplex.status with
                          | Status.Optimal ->
                              ( kept,
                                Some
                                  (Float.max 0.0
                                     (key_of_obj pr.Simplex.obj_value -. k')) )
                          | Status.Infeasible ->
                              (kept, Some Branching.infeasible_degradation)
                          | _ -> (None, None)
                        in
                        (* Sequenced by [let]: the components of a tuple
                           are evaluated in an unspecified order. *)
                        let up_kept, up = dir (Float.ceil xv) infinity in
                        let dn_kept, dn = dir neg_infinity (Float.floor xv) in
                        probed := (j, dn_kept, up_kept) :: !probed;
                        (dn, up)
                      end
                    in
                    match
                      Branching.select bstate
                        ~budget:(options.node_limit - !nodes) ~int_ids
                        ~tol:int_tol ~x:r.Simplex.x ~probe
                    with
                    | -1 -> accept_point r.Simplex.x
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
                  (* A node LP that fails numerically is abandoned; the
                     incumbent, if any, remains valid. *)
                  ()
            in
            (* A node stopped by a budget goes back on the frontier, so
               its key still feeds the reported bound. *)
            let rec search () =
              match Frontier.pop_min frontier with
              | None -> ()
              | Some (k, nd) ->
                  let pruned =
                    match !incumbent with
                    | Some (ki, _) -> k >= ki -. 1e-12
                    | None -> false
                  in
                  if pruned then search ()
                  else if !nodes >= options.node_limit then begin
                    Frontier.push frontier ~key:k nd;
                    stop_reason := Some Status.Node_limit
                  end
                  else if out_of_time () then begin
                    Frontier.push frontier ~key:k nd;
                    stop_reason := Some Status.Time_limit
                  end
                  else begin
                    incr nodes;
                    let cap = node_budget () in
                    let r =
                      match nd.solved with
                      | Some r -> r
                      | None ->
                          solve_node ?warm:nd.warm ?max_iters:cap
                            ~want_basis:true nd.diffs
                    in
                    match r.Simplex.status with
                    | Status.Iteration_limit when cap <> None ->
                        (* Our own deadline cap fired: the search winds
                           down. *)
                        Frontier.push frontier ~key:k nd;
                        stop_reason := Some Status.Time_limit
                    | _ ->
                        process_result nd r;
                        search ()
                  end
            in
            search ();
            let open_bound =
              match (!stop_reason, Frontier.min_key frontier) with
              | None, _ -> infinity (* tree exhausted: incumbent is optimal *)
              | Some _, Some k -> k
              | Some _, None -> infinity
            in
            match !incumbent with
            | None ->
                let status =
                  match !stop_reason with
                  | None -> Status.Infeasible
                  | Some s -> s
                in
                { status; x = [||]; relax_x = root0.Simplex.x; obj = nan;
                  bound = obj_of_key root_key;
                  gap = nan; nodes = !nodes; cuts = ncuts;
                  lp_iterations = !lp_iters }
            | Some (ki, x) ->
                let bound_key =
                  if open_bound = infinity then ki
                  else Float.max root_key open_bound
                in
                let bound_key = Float.min bound_key ki in
                let gap =
                  Float.abs (ki -. bound_key) /. Float.max 1.0 (Float.abs ki)
                in
                let status =
                  match !stop_reason with
                  | None -> Status.Optimal
                  | Some _ when gap <= options.gap_tol -> Status.Optimal
                  | Some _ -> Status.Feasible
                in
                { status; x; relax_x = root0.Simplex.x; obj = obj_of_key ki;
                  bound = obj_of_key bound_key;
                  gap; nodes = !nodes; cuts = ncuts;
                  lp_iterations = !lp_iters }
          end)
