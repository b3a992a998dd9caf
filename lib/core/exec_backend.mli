(** Execution backends.

    The engine runs a target's instrumented module through one of two
    tiers: the fuel-metered tree-walking interpreter or the
    closure-compiled threaded-code tier ({!Wasai_wasm.Compile}).  The
    determinism contract between them is absolute: verdicts, coverage
    signatures, trace event tapes and journal lines are byte-identical
    whichever tier executes the payloads. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi

(** [Auto] (the default) is the compiled tier with its per-opcode
    interpreter fallback; [Interp] keeps the chain's native interpreter
    path. *)
type choice = Interp | Auto

val to_string : choice -> string
(** ["interp" | "auto"] — the CLI flag values and the journal-header
    stamp. *)

val of_string : string -> (choice, string) result

val install :
  choice ->
  ?collector:Wasabi.Trace.Buffer.t ->
  Wasai_eosio.Chain.t ->
  Wasai_eosio.Name.t ->
  Wasm.Ast.module_ ->
  unit ->
  unit
(** Wire the chosen backend into the chain for the account's deployed
    module: [Interp] clears any executor (native interpreter path);
    [Auto] compiles [m] and installs the executor, which links its
    pooled instance once, at the first action.  The returned function
    ends the pooled instance ({!Wasm.Compile.release}): its linear
    memory becomes the calling domain's spare, and a later action
    instantiates afresh.  It does nothing for [Interp].  [collector],
    when given, binds the [wasai] instrumentation hooks to direct trace
    appends —
    only sound when every action reaching the executor has the
    collector's target as receiver (the engine guarantees this by
    installing the backend only on the target account).  Call after
    [Chain.set_code] — deploying code resets the executor. *)
