(** Calling-convention input inference (challenge C3, §3.4.2, Table 2).

    Symbolic execution starts at the action function: scalar parameters
    become symbolic locals; [asset] and [string] parameters are concrete
    i32 pointers whose pointees get symbolic bytes in the memory model. *)

module Wasm = Wasai_wasm
module Expr = Wasai_smt.Expr
module Abi = Wasai_eosio.Abi

type sym_param =
  | SP_scalar of Expr.var  (** name / u64 / u32 *)
  | SP_asset of { amount : Expr.var; symbol : Expr.var }
  | SP_string of { len : Expr.var; content : Expr.var array }

(** The one-parameter-mutation pins ({!pins}) of the last argument
    vector a kept flip saw.  One slot per input variable, in query order:
    parameters in order, an asset's amount then its symbol, a string's
    content bytes from the last to the first and then its length. *)
type pins = {
  mutable pn_vector : Abi.value list;  (** the vector the slots hold *)
  pn_vars : Expr.var array;  (** slot -> variable *)
  pn_values : int64 array;  (** slot -> the vector's value, where pinned *)
  pn_exprs : Expr.t array;
      (** slot -> [var == value], or [Expr.true_] where the vector gives
          the variable no value *)
}

type inputs = {
  in_def : Abi.action_def;
  in_params : (string * Abi.param_type * sym_param) list;
  in_vars : (int, unit) Hashtbl.t;  (** ids of every input variable *)
  in_sanity : Expr.t list;  (** payload-sanity constraints *)
  in_pointees : Expr.t array array;
      (** per parameter, the byte terms of its pointee ([[||]] for a
          scalar) *)
  in_mentions : (int, bool) Hashtbl.t;
      (** node tag -> does the node mention an input variable *)
  in_pins : pins;
}

val inputs : max_amount:int64 -> Abi.action_def -> inputs
(** Mint an action's symbolic inputs, once per target session: every
    payload of the action replays against the same variables.  The
    sanity constraints require every asset amount to lie in
    (0, [max_amount]].  The pointee byte terms and an empty mentions memo
    are built here too.  The pins start as those of the empty vector: no
    slot pinned. *)

val bind :
  inputs -> Wasm.Values.value list -> Memmodel.t -> (int, Expr.t) Hashtbl.t
(** One invocation's entry state from the concrete arguments of its
    call_pre: the action function's Local section (receiver and pointer
    locals concrete, scalar parameters symbolic), with the symbolic
    pointees mapped into the memory model ({!Memmodel.map}; Table 2's
    linear-memory column). *)

val pins : inputs -> current:Abi.value list -> pins
(** The one-parameter-mutation pins of the argument vector [current]:
    slot [i] holds [pn_vars.(i) == value] where [current] gives the
    variable a value, [Expr.true_] where it gives none.  The slots are
    kept while consecutive calls pass the same vector, and a new vector
    rebuilds only the slots whose value changed, so each holds the node
    a fresh build would intern.  {!Flip} drops the slots of a
    candidate's free variables. *)

val action_like : Wasm.Types.func_type -> bool

val find_action_functions : Wasm.Ast.module_ -> int list
(** Candidate action functions: indirect-call-table entries plus direct
    callees of [apply] with an action-like signature. *)

val model_value : Wasai_smt.Solver.model -> Expr.var -> default:int64 -> int64

val concretize :
  inputs -> Wasai_smt.Solver.model -> current:Abi.value list -> Abi.value list
(** Turn a solver model into concrete action arguments; unconstrained
    parameters keep the current seed's values. *)
