(** Pluggable execution backends.

    The engine runs a target's instrumented module through one of two
    tiers: the fuel-metered tree-walking interpreter or the
    closure-compiled threaded-code tier ({!Wasai_wasm.Compile}).  The
    determinism contract between them is absolute: verdicts, coverage
    signatures, trace event tapes and journal lines are byte-identical
    whichever tier executes the payloads. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi

(** [Auto] (the default) is the compiled tier with its per-opcode
    interpreter fallback; [Compiled] is the same tier chosen explicitly.
    [Interp] keeps the chain's native interpreter path. *)
type choice = Interp | Compiled | Auto

val to_string : choice -> string
(** ["interp" | "compiled" | "auto"] — the CLI flag values and the
    journal-header stamp. *)

val of_string : string -> (choice, string) result
val all : choice list

(** A backend prepares a module once and runs it per action context,
    replicating the interpreter path of [Chain.run_contract] exactly. *)
module type S = sig
  val name : string

  type prepared

  val prepare :
    ?collector:Wasabi.Trace.t ->
    Wasai_eosio.Chain.t ->
    Wasm.Ast.module_ ->
    prepared
  (** One-time translation of a validated module that will run on the
      given chain.  [collector], when given, lets the backend bind the
      [wasai] instrumentation hooks to direct trace appends — only sound
      when every instance of this prepared module executes with the
      collector's target as receiver (the engine guarantees this by
      installing the backend only on the target account). *)

  val run : prepared -> Wasai_eosio.Chain.context -> unit
  (** Execute one action: obtain an instance linked against the chain's
      extensions ({!Wasai_eosio.Chain.resolver}), invoke [apply], and
      swallow [Eosio_exit].  The compiled tier links its pooled instance
      once, at the first action. *)
end

module Interp_backend : S with type prepared = Wasm.Ast.module_
module Compiled_backend : S with type prepared = Wasm.Compile.pool

val interp : (module S)
val compiled : (module S)

val install :
  choice ->
  ?collector:Wasabi.Trace.t ->
  Wasai_eosio.Chain.t ->
  Wasai_eosio.Name.t ->
  Wasm.Ast.module_ ->
  unit
(** Wire the chosen backend into the chain for the account's deployed
    module: [Interp] clears any executor (native interpreter path);
    [Compiled]/[Auto] compile [m] and install the executor.  Call after
    [Chain.set_code] — deploying code resets the executor. *)
