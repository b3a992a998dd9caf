(** Constraint-solving entry point: decides a conjunction of width-1
    constraints and produces a model.

    Two tiers: a propagation quick-path for the
    "invertible term == constant" chains that verification-style contracts
    produce, and full bit-blasting + CDCL for everything else under a
    deterministic conflict budget.  {!Expr}'s normal form unwraps the
    width-1 [b == 1:1] / [b == 0:1] that replay wraps around an i32
    comparison and re-merges a word reloaded byte by byte, so the quick
    path also decides replay's flipped equalities.  Disequalities
    ([x != c]) still blast: SAT picks their value.

    All accounting is per {!Session}.  A session belongs to one engine
    run on one domain; it carries the conflict budget, the solve
    counters and a verdict memo.  Its blasted queries reuse the domain's
    SAT arena, the only mutable solver state outside a session, which no
    two domains share.  Flip queries repeat: 3,440 of deep-verify's
    5,373 queries per perfbench trial are a constraint list the same
    session already decided under the same budget.  The engine's reuse
    of a repeated region's flip outcome counts 2,986 of them again
    without posing them ({!Session.recount}), and the memo answers the
    other 454 without solving. *)

type model = (int, int64) Hashtbl.t
(** Expression variable id -> value. *)

type result =
  | Sat of model
  | Unsat
  | Unknown  (** budget exhausted *)

type stats = {
  st_quick : int;  (** decided by the propagation quick-path *)
  st_blasted : int;  (** decided by bit-blasting + CDCL *)
  st_unknown : int;  (** blasted and still undecided at the budget *)
  st_cache_hits : int;
      (** always 0: memo hits count as their first tier; kept for the
          journal and corpus lines *)
  st_cache_misses : int;
      (** queries that were not constant-false: those the quick path saw *)
}
(** Immutable snapshot of a session's counters.  Each query counts as
    the tier that first decided it, whether it was solved or answered
    from the session's memo, so the counters equal those of solving every
    query.  A query with a constant-false constraint is answered Unsat
    before any tier and counts as none of these; a quick-path
    contradiction counts only in [st_cache_misses]. *)

val stats_zero : stats
val stats_add : stats -> stats -> stats

type decided
(** How {!check_decided} answered one query: the tier that decided it
    and its answer, as the session counters saw them.  A constant-false
    query is decided by no tier and counts as nothing. *)

module Session : sig
  type t
  (** Per-engine-run solver context: conflict budget, counters and
      verdict memo.  The memo is keyed on the query's conflict budget
      and its constraints' node tags, in order.  The key is exact: tags
      are never reused, a session lives on one domain, and the domain's
      intern table is compacted only when a session is created.  The
      memo stores keys of at most 32,768 words in all (a word per
      constraint plus one); once full, it still answers what it holds
      and solves the rest without remembering them.  Its blasted queries go to the domain's bit-blasting context
      ({!Bitblast.ctx} and its {!Sat} solver), made by the domain's first
      blasted session query and {!Bitblast.reset} before every later one,
      in this session or a later one, so steady-state blasting reuses its
      arrays instead of reallocating them.  A reset arena is
      indistinguishable from a fresh one, so answers and models equal
      those of a sessionless {!check}.  A session is confined to the
      domain that created it; never share one across campaign
      workers. *)

  val create : ?conflict_budget:int -> unit -> t
  (** [conflict_budget] defaults to 50_000 CDCL conflicts.  Creation also
      compacts the domain's expression intern table if it has outgrown
      its threshold: between two runs, where compaction cannot break the
      sharing among one run's path constraints. *)

  val conflict_budget : t -> int

  val set_conflict_budget : t -> int -> unit
  (** Retune the session's conflict budget mid-run (the engine's adaptive
      budget uses this); later queries solve under the new budget.
      Raises [Invalid_argument] when the budget is < 1. *)

  val stats : t -> stats

  val recount : t -> decided -> unit
  (** Count a query decided earlier in this session again, as the tier
      that decided it, without posing it: the counters advance exactly
      as {!check} of that query would advance them. *)
end

val check : ?session:Session.t -> ?conflict_budget:int -> Expr.t list -> result
(** Decide the conjunction of constraints: the quick path first, then
    bit-blasting of what it leaves.  A constant-false constraint is
    refuted first, before any memo or tier.  With [~session], the
    session's budget applies unless [?conflict_budget] overrides it; a
    query the session already decided under the same budget is answered
    with its first answer, counted as the tier that decided it and
    timed as a [Solver_cache] span; any other query is solved, blasts on
    the domain's arena, and is remembered.  Without a session nothing is
    remembered and every blasted query builds a fresh context.

    A session's Sat models are read-only: a repeated query returns the
    very table the first answer held.  A sessionless model is a fresh
    table the caller owns. *)

val check_decided :
  ?session:Session.t -> ?conflict_budget:int -> Expr.t list -> result * decided
(** {!check}, also saying how the query was decided, for
    {!Session.recount}. *)

val validate_model : Expr.t list -> model -> bool
(** Re-evaluate the constraints under a model.  Defence in depth for the
    solver, used by the tests (every Sat model the solver tests see must
    pass it); the engine, flip and campaign code do not call it. *)
