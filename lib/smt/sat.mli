(** CDCL SAT solver (MiniSat-style): two-literal watching, first-UIP
    conflict analysis, VSIDS branching and Luby restarts.  The conflict
    budget stands in for the paper's 3,000 ms per-query cap —
    deterministic, so experiments reproduce exactly.

    Literal encoding: variable [v] (0-based) has positive literal [2v] and
    negative literal [2v+1]. *)

type result = Sat | Unsat | Unknown

type t

val create : unit -> t

val reset : t -> unit
(** Empty the solver in place: afterwards it is indistinguishable from a
    fresh [create ()] — same variable numbering, clause order, watch
    order and VSIDS state, hence the same answers and models — but every
    array keeps the capacity it has grown to.  Costs O(variables used)
    and allocates nothing, so one solver can serve a stream of queries
    as a reusable arena. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val lit_of_var : int -> positive:bool -> int
val var_of_lit : int -> int
val neg : int -> int

val add_clause : t -> int list -> bool
(** Add a clause of literals; returns [false] if the instance is already
    unsatisfiable. *)

val add_clause2 : t -> int -> int -> bool
val add_clause3 : t -> int -> int -> int -> bool
(** [add_clause] for two or three literals, without building a list:
    the same normalisation, so the same clause store. *)

val solve : ?conflict_budget:int -> t -> result
(** Decide the instance; [Unknown] when the budget is exhausted. *)

val model_value : t -> int -> bool
(** Value of a variable in the satisfying assignment (after [solve]
    returned [Sat]; unassigned variables default to [false]). *)

val num_vars : t -> int
val num_conflicts : t -> int
