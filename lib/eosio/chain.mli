(** Local blockchain: accounts, contract deployment, and the transaction
    execution machinery (notification forwarding, depth-first inline
    actions with whole-transaction rollback, deferred transactions).

    This replaces Nodeos in the paper's setup; consensus, networking and
    signatures are irrelevant to every experiment and are not modelled. *)

module Interp = Wasai_wasm.Interp

exception Assert_failed of string
(** [eosio_assert] failure: aborts and rolls back the transaction. *)

exception Eosio_exit
(** [eosio_exit]: terminates the current contract cleanly. *)

type contract_impl =
  | Wasm_contract of Wasai_wasm.Ast.module_
  | Native_contract of (context -> unit)

and account = {
  acc_name : Name.t;
  mutable acc_contract : contract_impl option;
  mutable acc_abi : Abi.t option;
  mutable acc_executor : (context -> unit) option;
      (** alternative execution tier for a deployed Wasm contract; must be
          observationally identical to the interpreter path.  Cleared
          whenever the code changes. *)
}

and t = {
  db : Database.t;
  accounts : (Name.t, account) Hashtbl.t;
  mutable block_num : int32;
  mutable block_prefix : int32;
  mutable head_time_us : int64;
  mutable fuel_per_action : int;
  mutable deferred : Action.transaction list;
  mutable extensions : extension list;
      (** extra import namespaces (host API, instrumentation hooks) *)
  mutable console : Buffer.t;
  mutable running : context option;
      (** The action whose contract code is executing: set by the chain
          for the extent of the receiver's code (restored on return and
          on exception), [None] between actions.  Host functions read it
          when called; see {!current}. *)
}

and extension = t -> string -> string -> Interp.extern option
(** Import resolver for one namespace, given the chain it links for.
    Instances link once and may run many actions, so the host functions
    an extension returns must read the executing action from
    {!current} when called, never capture it. *)

(** Per-action execution context handed to host functions and native
    contracts. *)
and context = {
  chain : t;
  ctx_receiver : Name.t;  (** the notified/executing account *)
  ctx_code : Name.t;  (** the account the action was sent to *)
  ctx_action : Action.t;
  ctx_notify : Name.t Queue.t;  (** recipients queued by require_recipient *)
  ctx_inline : Action.t Queue.t;  (** actions queued by send_inline *)
}

type tx_result = {
  tx_ok : bool;
  tx_error : string option;
  tx_actions_run : (Name.t * Name.t) list;
      (** (receiver, action) pairs that completed, in order *)
}

val create : ?fuel_per_action:int -> unit -> t
(** A bare chain; prefer {!Host.create_chain}, which installs the env host
    API. *)

val register_extension : t -> extension -> unit
(** Add an import namespace.  Register extensions before the first
    action whose contract imports from them: a pooled compiled instance
    resolves its imports once, at its first action, and never again. *)

val resolver : t -> Interp.resolver
(** Resolve an import through the chain's extensions, most recently
    registered first.  Both execution tiers link against it. *)

val current : t -> context
(** The running action's context, for host functions.  Raises
    [Invalid_argument] when no action is running. *)

val create_account : t -> Name.t -> account
val account : t -> Name.t -> account option
val is_account : t -> Name.t -> bool

val set_code : t -> Name.t -> Wasai_wasm.Ast.module_ -> Abi.t -> unit
(** Deploy a Wasm contract (validated first, as Nodeos does on setcode).
    Raises [Wasai_wasm.Validate.Invalid] on an invalid module, and on
    one Nodeos' [wasm_constraints] refuse: an initial linear memory over
    {!Wasai_wasm.Memory.max_pages} pages (33 MiB) or a table over 1,024
    elements. *)

val set_native : t -> Name.t -> (context -> unit) -> Abi.t -> unit

val clear_code : t -> Name.t -> unit
(** Remove the contract, leaving the account (the "abandoned" state). *)

val set_executor : t -> Name.t -> (context -> unit) option -> unit
(** Install (or clear) an alternative execution tier for the account's
    deployed Wasm contract.  The executor replaces the interpreter path
    of [run_contract] for this account and must be observationally
    identical to it; {!set_code}/{!set_native}/{!clear_code} reset it so
    it can never outlive the module it was built from.  No-op on unknown
    accounts. *)

val console_output : t -> string
val advance_block : t -> unit

val push_transaction : t -> Action.transaction -> tx_result
(** Execute a transaction atomically: any assert/trap/exhaustion rolls
    back the database and any deferred transactions it scheduled. *)

val push_action : t -> Action.t -> tx_result

val run_deferred : t -> tx_result list
(** Run all queued deferred transactions; each is independent. *)
