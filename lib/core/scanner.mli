(** The vulnerability scanner (§3.5): the trace oracles and the session
    harness that runs them over every executed payload.

    Each payload's trace is read once into its {!facts}; every flag
    decides from those facts and the delivery channel whether the
    exploit event occurred ({!fires}).  The session keeps the fired
    flags sticky, with the first firing payload of each as exploit
    evidence, and learns the eosponser action function from genuine
    transfers. *)

module Trace = Wasai_wasabi.Trace
open Wasai_eosio

(** {1 Channels and flags} *)

(** How a payload reached the contract (the §2.3 adversary oracles). *)
type channel =
  | Ch_genuine  (** real EOS via eosio.token *)
  | Ch_direct  (** eosponser invoked directly with a forged action *)
  | Ch_fake_token  (** EOS issued by an attacker token contract *)
  | Ch_fake_notif  (** notification forwarded by an agent contract *)
  | Ch_action of Name.t  (** ordinary action push *)

val string_of_channel : channel -> string

val channel_of_string : string -> channel option
(** Strict inverse of {!string_of_channel} ([None] on anything else). *)

(** Vulnerability classes: the paper's §3.5 five plus the related-work
    extensions (WACANA state I/O, EVulHunter dispatcher confusion,
    He et al. asset overflow). *)
type flag =
  | Fake_eos
  | Fake_notif
  | Miss_auth
  | Blockinfo_dep
  | Rollback
  | State_io
  | Fake_transfer
  | Asset_overflow

val legacy_flags : flag list
(** The §3.5 five, in the historical journal order.  Journal lines
    always carry these. *)

val extension_flags : flag list
(** Post-§3.5 classes, written to journals only when fired — which is
    what keeps legacy contracts' lines byte-identical across builds. *)

val all_flags : flag list
(** [legacy_flags @ extension_flags], the order flags are decided in. *)

val string_of_flag : flag -> string

val flag_of_string : string -> flag option
(** Strict inverse of {!string_of_flag}. *)

val oracle_name : flag -> string
(** The detector's name, e.g. [fake-eos] for {!Fake_eos}. *)

(** {1 One pass over a payload's trace} *)

(** The host-API name groups resolved to function-import indices of one
    instrumented contract (absent imports drop out). *)
type host_ids = {
  hi_auth : int list;
  hi_state_writes : int list;
  hi_inline_send : int list;
  hi_blockinfo : int list;
}

val resolve_ids : Trace.meta -> host_ids
(** Resolve the EOSIO host API of the paper's §3.5 detectors: the
    permission checks ([require_auth], [require_auth2], [has_auth]), the
    state writes ([db_store_i64], [db_update_i64], [db_remove_i64]),
    [send_inline], the block information ([tapos_block_prefix],
    [tapos_block_num]). *)

type env
(** One contract's instrumented sites, each classified once by what the
    one pass reads there (a call into one of the {!resolve_ids} groups,
    which are disjoint; an i64 [eq]/[ne]/[xor]/[sub]; an i64 [mul]), and
    the adversary account names the pair facts compare. *)

val make_env :
  meta:Trace.meta ->
  victim:Name.t ->
  fake_notif_agent:Name.t ->
  fake_token:Name.t ->
  unit ->
  env

(** What one payload's trace shows, collected in one pass by {!facts}.
    A pair counts as compared when an i64 [eq]/[ne]/[xor]/[sub] event
    took exactly its two values, in either order, with both operands
    i64-tagged.  A permission call shows only through
    [fa_unauthorised_effect]. *)
type facts = {
  fa_state_write : bool;  (** a state-write API was called *)
  fa_inline_send : bool;  (** an inline action was sent *)
  fa_blockinfo : bool;  (** a block-information API was called *)
  fa_unauthorised_effect : bool;
      (** a send or state write came before any permission call *)
  fa_agent_victim : bool;  (** the agent/victim pair was compared *)
  fa_victim_token : bool;  (** the victim/[eosio.token] pair was compared *)
  fa_fake_token_token : bool;
      (** the [fake.token]/[eosio.token] pair was compared *)
  fa_mul_overflow : bool;
      (** an i64 [mul] with i64-tagged operands overflowed signed range *)
}

val facts : env -> Trace.Buffer.t -> facts
(** One pass over a payload's trace: every call_pre into a classified
    import and every i64 compare or [mul] event, read once. *)

val i64_mul_overflows : int64 -> int64 -> bool
(** Signed 64-bit multiplication overflow predicate. *)

(** {1 The detectors} *)

(** What the session knows about one payload besides its trace. *)
type ctx = {
  cx_channel : channel;
  cx_eosponser_ran : bool;  (** the eosponser action function executed *)
}

val fires : flag -> ctx -> facts -> bool
(** Did the flag's exploit event occur in this payload?  FakeNotif's
    verdict also needs the session's guard ({!verdict}). *)

(** {1 The session} *)

(** A user-supplied detector (the §5 extension interface): analyse each
    executed payload's trace buffer and return [true] when the exploit
    event occurred.  Once fired, it stays fired. *)
type custom_oracle = {
  co_name : string;
  co_detect : channel -> Trace.Buffer.t -> bool;
}

type t = {
  env : env;
  action_candidates : int list;  (** possible eosponser ids *)
  mutable eosponser_id : int option;  (** id_e, learned from a genuine trace *)
  mutable guard_seen : bool;
      (** some payload compared the agent with the victim (the Listing-2
          [to == _self] guard), which clears FakeNotif *)
  mutable custom : (custom_oracle * bool ref) list;
  mutable evidence : (flag * evidence) list;
      (** the fired flags, in firing order, each with its first
          firing payload *)
}

(** The exploit payload behind a verdict: what to submit, and how. *)
and evidence = {
  ev_channel : channel;
  ev_payload : Wasai_eosio.Action.t;
}

val create :
  meta:Trace.meta -> victim:Name.t -> fake_notif_agent:Name.t -> unit -> t
(** A fresh session: classifies this contract's sites once
    ({!make_env}), against the engine's counterfeit token account
    [fake.token]. *)

val observe :
  payload:Wasai_eosio.Action.t ->
  executed:int list ->
  t ->
  channel:channel ->
  Trace.Buffer.t ->
  unit
(** Feed one executed payload: the pushed action, the ids of the
    functions that began executing in order (the id⃗ chain), and its
    trace.  One pass collects its {!facts}; the flags decide in
    {!all_flags} order, and each flag's first fire keeps the payload as
    exploit evidence.  Each custom oracle reads the buffer itself. *)

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
    custom oracles need. *)
