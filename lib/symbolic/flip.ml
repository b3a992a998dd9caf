(** Constraint flipping and adaptive-seed generation (§3.4.4).

    For every conditional state on the executed path whose condition
    involves symbolic input, build the constraint set

      payload sanity  ∧  pins  ∧  path-prefix (as taken)  ∧  ¬condition

    keeping assert conditions positive, and solve.  Each model concretises
    to a new seed's argument vector. *)

module Expr = Wasai_smt.Expr
module Solver = Wasai_smt.Solver

type candidate = {
  cand_index : int;  (** index of the flipped conditional in the path *)
  cand_site : int;
  cand_flipped_dir : bool option;
      (** direction the flip targets, for branch conditionals *)
  cand_cond : Expr.t;  (** the conditional as taken *)
  cand_prefix : Expr.t list;
      (** the input-mentioning conditions before it, newest first *)
}

(** Enumerate flip candidates for a replayed path. *)
let candidates (r : Replay.result) : candidate list =
  let inp = r.Replay.r_inputs in
  (* "Does this condition mention symbolic input?", asked once per path
     entry.  Conditions share subterms along a path and across the
     session's payloads; a node's tag is process-unique and the inputs
     are the session's, so one tag-keyed memo per action serves them
     all. *)
  let mentions e =
    Expr.contains_var_memo inp.Convention.in_mentions
      (fun v -> Hashtbl.mem inp.Convention.in_vars v.Expr.vid)
      e
  in
  let out = ref [] and prefix = ref [] in
  List.iteri
    (fun i (cs : Replay.cond_state) ->
      if mentions cs.Replay.cs_cond then begin
        (* Only branches are flipped; asserts must stay satisfied.  The
           condition must involve symbolic input (§3.4.4). *)
        if cs.Replay.cs_kind <> Replay.K_assert then
          out :=
            {
              cand_index = i;
              cand_site = cs.Replay.cs_site;
              cand_flipped_dir =
                (match cs.Replay.cs_kind with
                 | Replay.K_branch -> Some (not cs.Replay.cs_taken)
                 | Replay.K_brtable | Replay.K_assert -> None);
              cand_cond = cs.Replay.cs_cond;
              cand_prefix = !prefix;
            }
            :: !out;
        prefix := cs.Replay.cs_cond :: !prefix
      end)
    r.Replay.r_path;
  (* Deepest conditional first: the newest frontier is the most
     valuable flip, and under a per-execution solve budget it must
     not starve behind branches already explored. *)
  !out

(** The path prefix as taken, then the negated conditional. *)
let query (c : candidate) : Expr.t list =
  List.rev_append c.cand_prefix [ Expr.not_ c.cand_cond ]

type solved_seed = {
  seed_args : Wasai_eosio.Abi.value list;
  seed_flipped_site : int;
}

(* Solve candidates (up to [max_solved]), concretising each model into a
   fresh argument vector, and say how each posed query was decided, in
   order.  [current] is the executed seed's arguments, used for
   unconstrained parameters. *)
let solve_decided ?session ?conflict_budget ?(max_solved = 8)
    ?(skip = fun (_ : candidate) -> false) (r : Replay.result)
    ~(current : Wasai_eosio.Abi.value list) :
    solved_seed list * Solver.decided list =
  (* Standalone calls (no session) keep the historical 20k default; with
     a session and no override, the session's budget applies. *)
  let conflict_budget =
    match (conflict_budget, session) with
    | None, None -> Some 20_000
    | cb, _ -> cb
  in
  let inp = r.Replay.r_inputs in
  let solved = ref [] in
  let decided = ref [] in
  let count = ref 0 in
  (* A query is built only for a candidate that is kept. *)
  List.iter
    (fun c ->
      if !count < max_solved && not (skip c) then
        (* Negation keeps the flipped condition's variables. *)
        let free = Hashtbl.create 8 in
        Expr.iter_vars
          (fun v -> Hashtbl.replace free v.Expr.vid ())
          c.cand_cond;
        (* §3.4.4: "we mutate one parameter in ρ⃗" — every input
           variable that does not occur in the flipped condition is
           pinned to its current concrete value.  Those values executed
           the path prefix, so pinning cannot make the constraint set
           unsatisfiable spuriously, and it keeps solved seeds from
           clobbering unrelated parameters (e.g. zeroing [from] and
           breaking its own authorisation). *)
        let p = Convention.pins inp ~current in
        let constraints = ref (query c) in
        for i = Array.length p.Convention.pn_exprs - 1 downto 0 do
          let pin = p.Convention.pn_exprs.(i) in
          if
            pin != Expr.true_
            && not (Hashtbl.mem free p.Convention.pn_vars.(i).Expr.vid)
          then constraints := pin :: !constraints
        done;
        let answer, d =
          Solver.check_decided ?session ?conflict_budget
            (inp.Convention.in_sanity @ !constraints)
        in
        decided := d :: !decided;
        match answer with
        | Solver.Sat model ->
            incr count;
            let args = Convention.concretize inp model ~current in
            solved :=
              { seed_args = args; seed_flipped_site = c.cand_site } :: !solved
        | Solver.Unsat | Solver.Unknown -> ())
    (candidates r);
  (List.rev !solved, List.rev !decided)

let solve ?session ?conflict_budget ?max_solved ?skip r ~current =
  fst (solve_decided ?session ?conflict_budget ?max_solved ?skip r ~current)

(* ------------------------------------------------------------------ *)
(* One flip outcome per repeated region                                *)
(* ------------------------------------------------------------------ *)

(* The last flip over a memoised replay result: what it ran under, its
   seeds, and how each query it posed was decided. *)
type outcome = {
  oc_current : Wasai_eosio.Abi.value list;
  oc_coverage : int;
  oc_budget : int;
  oc_seeds : solved_seed list;
  oc_decided : Solver.decided list;
}

(* The flip is a function of the result, [current], the skip decisions
   and the conflict budget ([max_solved] is the caller's constant), and
   the solver is deterministic under a fixed budget (the quick path is
   pure, and a reset arena is a fresh one), so an outcome recorded under
   equal [current], [coverage] and budget is what solving again would
   give. *)
let solve_memo ~session ~max_solved ~skip ~coverage
    (e : outcome Replay.Memo.entry) ~current =
  let budget = Solver.Session.conflict_budget session in
  match Replay.Memo.note e with
  | Some oc
    when oc.oc_coverage = coverage && oc.oc_budget = budget
         && (oc.oc_current == current || oc.oc_current = current) ->
      List.iter (Solver.Session.recount session) oc.oc_decided;
      oc.oc_seeds
  | _ ->
      let seeds, decided =
        solve_decided ~session ~max_solved ~skip (Replay.Memo.result e)
          ~current
      in
      Replay.Memo.set_note e
        {
          oc_current = current;
          oc_coverage = coverage;
          oc_budget = budget;
          oc_seeds = seeds;
          oc_decided = decided;
        };
      seeds
