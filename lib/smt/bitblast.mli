(** Bit-blasting: translate bitvector expressions to CNF (Tseitin
    encoding) over the {!Sat} solver.  Expressions become arrays of SAT
    literals, least-significant bit first. *)

type ctx = {
  sat : Sat.t;
  mutable var_bits : (int, int array) Hashtbl.t;
      (** expression variable id -> literals *)
  mutable cache : (int, int array) Hashtbl.t;  (** expression tag -> literals *)
  true_lit : int;  (** a literal pinned true *)
}

val create : unit -> ctx

val reset : ctx -> unit
(** Return [ctx] to the state [create ()] leaves it in: the SAT solver is
    {!Sat.reset}, both tables are replaced by empty ones and variable 0
    is pinned true again, so [true_lit] stays valid and re-blasting a
    query numbers every variable and clause exactly as a fresh context
    would. *)

val blast : ctx -> Expr.t -> int array
(** Literals of an expression (cached structurally). *)

val assert_true : ctx -> Expr.t -> unit
(** Assert a width-1 expression. *)

val model_of_var : ctx -> Expr.var -> int64
(** Extract a variable's value from the SAT model (after a [Sat] answer);
    unconstrained variables yield 0. *)
