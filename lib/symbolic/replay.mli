(** Symbolic trace replay: lift the runtime trace to symbolic machine
    states following the operational semantics of the paper's Table 3.

    Replay starts at the action function (skipping the dispatcher); loads
    and stores use concrete addresses from the trace; every executed
    conditional (br_if / if / br_table / eosio_assert) is recorded with
    its as-taken symbolic condition. *)

module Expr = Wasai_smt.Expr
module Trace = Wasai_wasabi.Trace

type cond_kind = K_branch | K_assert | K_brtable

type cond_state = {
  cs_site : int;  (** instruction site, or -1 for asserts *)
  cs_cond : Expr.t;  (** width-1 condition as taken on this path *)
  cs_taken : bool;
  cs_kind : cond_kind;
}

type result = {
  r_path : cond_state list;  (** in execution order *)
  r_inputs : Convention.inputs;  (** the inputs the path is stated over *)
  r_imprecise : int;  (** stack-underflow fallbacks (0 on healthy traces) *)
}

val run :
  inputs:Convention.inputs ->
  meta:Trace.meta ->
  target_funcs:int list ->
  Trace.Buffer.t ->
  result option
(** Replay a trace buffer from the action function's entry: the first
    call_pre into one of [target_funcs] carrying at least the action's
    arguments plus the receiver, whose concrete arguments bind [inputs]
    ({!Convention.bind}).  [None] when no call matches.  The buffer is
    only read, never mutated. *)
