(** Chain profiles: named host-function tables parameterising the
    detection oracles.  A new Wasm chain is a new profile record, not a
    fork of the oracle layer (WANA's cross-platform framing). *)

type t = {
  cp_name : string;  (** profile identifier, e.g. ["eosio"] *)
  cp_auth : string list;  (** permission APIs *)
  cp_state_writes : string list;  (** persistent state mutation APIs *)
  cp_inline_send : string list;  (** inline/deferred action dispatch *)
  cp_blockinfo : string list;  (** adversary-biasable block information *)
}

val effects : t -> string list
(** Visible-effect APIs ([cp_inline_send @ cp_state_writes]) — the set
    MissAuth treats as protected. *)

val eosio : t
(** The paper's EOSIO host API; resolving it reproduces the historical
    hardcoded scanner tables exactly. *)
