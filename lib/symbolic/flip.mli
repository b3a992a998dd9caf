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

val pin_constraints :
  Convention.inputs ->
  current:Wasai_eosio.Abi.value list ->
  free:(int, unit) Hashtbl.t ->
  Expr.t list
(** Equality pins for every input variable not in [free] — the paper's
    "mutate one parameter" discipline. *)

val solve :
  ?session:Wasai_smt.Solver.Session.t ->
  ?conflict_budget:int ->
  ?max_solved:int ->
  ?skip:(candidate -> bool) ->
  Replay.result ->
  current:Wasai_eosio.Abi.value list ->
  solved_seed list
(** [?session] routes every solve through the per-run solver session
    (budget, counters, SAT arena).  Without a session, a standalone
    conflict budget of 20_000 applies unless overridden. *)
