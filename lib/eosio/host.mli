(** The EOSVM "library API": host functions exposed to Wasm contracts
    under the [env] import namespace (§2.2 of the paper) — action data
    access, permission APIs, notifications, assertion, inline/deferred
    actions, blockchain-state APIs and the [db_*_i64] intrinsics. *)

val env_functions : Chain.t -> Wasai_wasm.Interp.host_func list
(** All env host functions of a chain.  Each reads the running action
    from {!Chain.current} when called, so it raises [Invalid_argument]
    outside an action. *)

val install : Chain.t -> unit
(** Build the chain's env host functions once and register the
    extension resolving the [env] namespace to them. *)

val create_chain : ?fuel_per_action:int -> unit -> Chain.t
(** A chain with the env host API pre-installed — the common entry
    point. *)
