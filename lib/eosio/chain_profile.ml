(** Chain profiles: the host-function tables a detection oracle matches
    against.

    The paper's detectors are defined over EOSIO's host API (permission
    checks, database mutations, inline actions, block information).
    WANA's cross-platform framing observes that the *logic* of each
    detector is chain-independent — only the host-function names differ.
    A profile captures exactly that name table, so targeting another
    Wasm chain (an eWASM-style host, say) is a new profile record, not a
    fork of the oracle layer.

    Profiles hold {e names}; they are resolved against one contract's
    instrumentation metadata (import section) by the oracle layer, which
    turns each group into the function-index table the streaming
    detectors match call events against. *)

type t = {
  cp_name : string;  (** profile identifier, e.g. ["eosio"] *)
  cp_auth : string list;
      (** permission APIs: an execution is "authorised" once any of
          these ran *)
  cp_state_writes : string list;
      (** persistent on-chain state mutation APIs *)
  cp_inline_send : string list;
      (** inline/deferred action dispatch (the rollback vector) *)
  cp_blockinfo : string list;
      (** block-information sources an adversary can bias *)
}

(** Visible-effect APIs: every call that mutates chain state or emits an
    action.  The MissAuth detector treats these as the protected set. *)
let effects (p : t) : string list = p.cp_inline_send @ p.cp_state_writes

(* The EOSIO host API of the paper's §3.5 detectors.  The name groups
   are exactly the tables the scanner hardcoded before the oracle layer
   existed, so resolving this profile reproduces the historical ids. *)
let eosio : t =
  {
    cp_name = "eosio";
    cp_auth = [ "require_auth"; "require_auth2"; "has_auth" ];
    cp_state_writes = [ "db_store_i64"; "db_update_i64"; "db_remove_i64" ];
    cp_inline_send = [ "send_inline" ];
    cp_blockinfo = [ "tapos_block_prefix"; "tapos_block_num" ];
  }
