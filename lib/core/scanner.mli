(** The vulnerability scanner: the harness driving the builtin
    {!Oracle} instances over every executed payload, accumulated across
    the whole fuzzing session.  The channel/flag vocabulary is
    re-exported from {!Oracle} so existing callers keep compiling. *)

module Trace = Wasai_wasabi.Trace
open Wasai_eosio

(** How a payload reached the contract (the §2.3 adversary oracles). *)
type channel = Oracle.channel =
  | Ch_genuine  (** real EOS via eosio.token *)
  | Ch_direct  (** eosponser invoked directly with a forged action *)
  | Ch_fake_token  (** EOS issued by an attacker token contract *)
  | Ch_fake_notif  (** notification forwarded by an agent contract *)
  | Ch_action of Name.t  (** ordinary action push *)

val string_of_channel : channel -> string

val channel_of_string : string -> channel option
(** Strict inverse of {!string_of_channel} ([None] on anything else). *)

type flag = Oracle.flag =
  | Fake_eos
  | Fake_notif
  | Miss_auth
  | Blockinfo_dep
  | Rollback
  | State_io
  | Fake_transfer
  | Asset_overflow

val legacy_flags : flag list
(** The §3.5 five, in the historical journal order. *)

val extension_flags : flag list
(** The related-work classes, journaled only when fired. *)

val all_flags : flag list
val string_of_flag : flag -> string

val flag_of_string : string -> flag option
(** Strict inverse of {!string_of_flag}. *)

(** A user-supplied detector (the §5 extension interface): analyse each
    executed payload's trace buffer and return [true] when the exploit
    event occurred.  Once fired, it stays fired. *)
type custom_oracle = {
  co_name : string;
  co_detect : channel -> Wasai_wasabi.Trace.Buffer.t -> bool;
}

type t = {
  meta : Trace.meta;
  victim : Name.t;
  fake_notif_agent : Name.t;
  action_candidates : int list;  (** possible eosponser ids *)
  mutable eosponser_id : int option;  (** id_e, learned from a genuine trace *)
  oracles : (Oracle.instance * bool ref) list;
      (** builtin detectors with their sticky fire bits *)
  mutable custom : (custom_oracle * bool ref) list;
  mutable evidence : (flag * evidence) list;
      (** first exploit payload observed per fired flag *)
}

(** The exploit payload behind a verdict: what to submit, and how. *)
and evidence = {
  ev_channel : channel;
  ev_payload : Wasai_eosio.Action.t;
}

val create :
  ?fake_token_account:Name.t ->
  meta:Trace.meta ->
  victim:Name.t ->
  fake_notif_agent:Name.t ->
  unit ->
  t
(** Instantiate every builtin oracle against this contract, matching
    host calls through {!Oracle.resolve_ids}; [fake_token_account]
    defaults to the engine's counterfeit token account. *)

val executed_ids : Trace.Buffer.t -> int list
(** Function ids that began execution, in order (the id⃗ chain). *)

val observe :
  ?payload:Wasai_eosio.Action.t ->
  ?executed:int list ->
  t ->
  channel:channel ->
  Trace.Buffer.t ->
  unit
(** Feed one executed payload's trace; the payload is kept as exploit
    evidence the first time each detector fires.  [executed] is the
    precomputed {!executed_ids} chain when the caller already streamed
    the buffer (the engine's fused scan). *)

val verdict : t -> flag -> bool
val report : t -> (flag * bool) list

(** {1 Extension interface (§5)} *)

val register_custom : t -> custom_oracle -> unit
val custom_report : t -> (string * bool) list

val evidence_for : t -> flag -> evidence option
(** Exploit payload behind a fired verdict, if one was captured. *)

val string_of_evidence : ?abi:Abi.t -> evidence -> string
(** Render the payload; with an ABI the arguments are decoded. *)

val evidence_to_wire : evidence -> string
(** Single-token serialisation for journals:
    [channel@account@action@auth1+auth2@hexdata].  No whitespace, tabs or
    newlines; {!evidence_of_wire} round-trips it byte-exactly (the raw
    payload bytes are hex-encoded). *)

val evidence_of_wire : string -> (evidence, string) result
(** Strict inverse of {!evidence_to_wire}: field count, channel keyword,
    EOSIO names and hex payload are all validated. *)

val calls_env_import : Trace.meta -> string -> Trace.Buffer.t -> bool
(** Did the trace call the named env API?  The building block most
    detectors need. *)

val first_call_args :
  Trace.meta -> string -> Trace.Buffer.t -> Wasai_wasm.Values.value list option
(** Arguments of the first call to the named env API. *)
