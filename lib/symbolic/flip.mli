(** Constraint flipping and adaptive-seed generation (§3.4.4).

    For every flippable conditional on the executed path, build
    [path-prefix (as taken) ∧ ¬condition] plus the inputs' payload-sanity
    constraints and one-parameter-mutation pins, solve, and concretise
    each model into a fresh argument vector. *)

module Expr = Wasai_smt.Expr

type candidate = {
  cand_index : int;  (** index of the flipped conditional in the path *)
  cand_site : int;
  cand_flipped_dir : bool option;
      (** direction the flip targets (branch conditionals) *)
  cand_cond : Expr.t;  (** the conditional as taken *)
  cand_prefix : Expr.t list;
      (** the input-mentioning conditions before it, newest first *)
}

val candidates : Replay.result -> candidate list
(** Flip candidates, deepest conditional first; asserts and input-free
    conditions are excluded. *)

val query : candidate -> Expr.t list
(** The candidate's path prefix as taken, then its negated conditional;
    {!solve} builds it only for candidates it keeps. *)

type solved_seed = {
  seed_args : Wasai_eosio.Abi.value list;
  seed_flipped_site : int;
}

val solve :
  ?session:Wasai_smt.Solver.Session.t ->
  ?conflict_budget:int ->
  ?max_solved:int ->
  ?skip:(candidate -> bool) ->
  Replay.result ->
  current:Wasai_eosio.Abi.value list ->
  solved_seed list
(** [?session] routes every solve through the per-run solver session
    (budget, counters, the domain's SAT arena).  Without a session, a
    standalone conflict budget of 20_000 applies unless overridden.
    The pins of [current] are kept in the inputs ({!Convention.pins})
    for the next payload that observes the same vector. *)

(** {1 One flip outcome per repeated region} *)

type outcome
(** The last flip over a memoised replay result: the observed arguments,
    coverage size and conflict budget it ran under, its seeds, and how
    the session decided each query it posed. *)

val solve_memo :
  session:Wasai_smt.Solver.Session.t ->
  max_solved:int ->
  skip:(candidate -> bool) ->
  coverage:int ->
  outcome Replay.Memo.entry ->
  current:Wasai_eosio.Abi.value list ->
  solved_seed list
(** [solve ~session ~max_solved ~skip (Replay.Memo.result e) ~current],
    kept as [e]'s note.  When the note's flip ran under an equal
    [current], equal [coverage] and the session's present conflict
    budget, its seeds are returned and the session counts each of its
    queries again ({!Wasai_smt.Solver.Session.recount}) instead of
    posing them; no solver span is recorded.  The seeds are what
    solving again would give, since the solver is deterministic under a
    fixed budget ({!Wasai_smt.Solver}).  [coverage] stands for
    [skip]: two calls with equal [coverage] must get equal answers from
    [skip] (the engine passes the size of its coverage map, which only
    grows).  [max_solved] must be the same on every call. *)
