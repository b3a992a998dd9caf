(** Contract-level bytecode instrumentation (§3.3.1, built on the Wasabi
    idea): every instruction is prefixed with a site announcement and
    operand duplication through scratch locals; calls get the five
    lifecycle hooks of the paper's Table 1.  The instrumented module is
    valid Wasm that round-trips through the binary format. *)

val hook_count : int
(** Number of hook imports added (the function index space shifts by this
    much). *)

val instrument : Wasai_wasm.Ast.module_ -> Wasai_wasm.Ast.module_ * Trace.meta
(** Rewrite a module; returns it plus the static site metadata. *)

val instrument_binary : string -> string * Trace.meta
(** Decode a binary, rewrite, re-encode — the pipeline entry the fuzzer
    uses. *)

val runtime_extension :
  Trace.t -> target:Wasai_eosio.Name.t -> Wasai_eosio.Chain.extension
(** Chain extension binding the [wasai] hook imports to a collector,
    restricted to one contract account (the fuzzing target): each hook
    checks the receiver of {!Wasai_eosio.Chain.current} when it fires. *)
