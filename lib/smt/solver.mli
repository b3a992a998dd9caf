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
    run on one domain; it carries the conflict budget and the solve
    counters.  Its blasted queries reuse the domain's SAT arena, the only
    mutable solver state outside a session, which no two domains share.
    Every query is solved; nothing is memoized yet, although flip
    queries do repeat: 3,677 of deep-verify's 5,373 queries per
    perfbench trial are a constraint list the same session already
    solved.  ROADMAP open item 3 plans a per-session verdict memo. *)

type model = (int, int64) Hashtbl.t
(** Expression variable id -> value. *)

type result =
  | Sat of model
  | Unsat
  | Unknown  (** budget exhausted *)

type stats = {
  st_quick : int;  (** solved by the propagation quick-path *)
  st_blasted : int;  (** reached bit-blasting + CDCL *)
  st_unknown : int;  (** blasted and still undecided at the budget *)
  st_cache_hits : int;  (** always 0: kept for the journal and corpus lines *)
  st_cache_misses : int;
      (** queries that were not constant-false: those the quick path saw *)
}
(** Immutable snapshot of a session's counters.  A query with a
    constant-false constraint is answered Unsat before any tier and
    counts as none of these; a quick-path contradiction counts only in
    [st_cache_misses]. *)

val stats_zero : stats
val stats_add : stats -> stats -> stats

module Session : sig
  type t
  (** Per-engine-run solver context: conflict budget + counters.  Its
      blasted queries go to the domain's bit-blasting context
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
end

val check : ?session:Session.t -> ?conflict_budget:int -> Expr.t list -> result
(** Decide the conjunction of constraints: the quick path first, then
    bit-blasting of what it leaves.  With [~session], the solve is
    accounted to the session, blasts on the domain's arena, and the
    session's budget applies unless [?conflict_budget] overrides it.
    Without a session every blasted query builds a fresh context.  Sat
    models are fresh tables — callers may mutate them freely. *)

val validate_model : Expr.t list -> model -> bool
(** Re-evaluate the constraints under a model.  Defence in depth for the
    solver, used by the tests (every Sat model the solver tests see must
    pass it); the engine, flip and campaign code do not call it. *)
