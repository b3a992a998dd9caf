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

type inputs = {
  in_def : Abi.action_def;
  in_params : (string * Abi.param_type * sym_param) list;
  in_vars : (int, unit) Hashtbl.t;  (** ids of every input variable *)
  in_sanity : Expr.t list;  (** payload-sanity constraints *)
}

val inputs : max_amount:int64 -> Abi.action_def -> inputs
(** Mint an action's symbolic inputs, once per target session: every
    payload of the action replays against the same variables.  The
    sanity constraints require every asset amount to lie in
    (0, [max_amount]]. *)

val bind :
  inputs -> Wasm.Values.value list -> Memmodel.t -> (int, Expr.t) Hashtbl.t
(** One invocation's entry state from the concrete arguments of its
    call_pre: the action function's Local section (receiver and pointer
    locals concrete, scalar parameters symbolic), with the symbolic
    pointees seeded into the memory model (Table 2's linear-memory
    column). *)

val action_like : Wasm.Types.func_type -> bool

val find_action_functions : Wasm.Ast.module_ -> int list
(** Candidate action functions: indirect-call-table entries plus direct
    callees of [apply] with an action-like signature. *)

val model_value : Wasai_smt.Solver.model -> Expr.var -> default:int64 -> int64

val concretize :
  inputs -> Wasai_smt.Solver.model -> current:Abi.value list -> Abi.value list
(** Turn a solver model into concrete action arguments; unconstrained
    parameters keep the current seed's values. *)
