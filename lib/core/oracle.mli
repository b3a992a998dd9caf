(** The oracle layer: vulnerability detectors as instances matching
    EOSIO host-API calls.

    A {!def} names a vulnerability class and constructs per-session
    {!instance}s.  The scanner harness collects each executed payload's
    {!facts} in one pass over its trace, reading it through one
    contract's {!env}; every instance decides from them whether the
    exploit event occurred.  The harness makes fires sticky and captures
    first-fire evidence. *)

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
(** [legacy_flags @ extension_flags]. *)

val string_of_flag : flag -> string

val flag_of_string : string -> flag option
(** Strict inverse of {!string_of_flag}. *)

(** {1 Environment} *)

(** The host-API name groups resolved to function-import indices of one
    instrumented contract (absent imports drop out). *)
type host_ids = {
  hi_auth : int list;
  hi_state_writes : int list;
  hi_inline_send : int list;
  hi_blockinfo : int list;
}

type env
(** One contract's instrumented sites, each classified once by what the
    one pass reads there (a call into one of the {!resolve_ids} groups,
    which are disjoint; an i64 [eq]/[ne]/[xor]/[sub]; an i64 [mul]), and
    the adversary account names the pair facts compare. *)

(** Per-payload facts computed once by the scanner harness. *)
type ctx = { cx_channel : channel; cx_eosponser_ran : bool }

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

(** {1 Instances and definitions} *)

type instance = {
  oi_name : string;
  oi_flag : flag;
  oi_step : ctx -> facts -> bool;
      (** called on {e every} payload, even after a fire, so FakeNotif's
          exculpatory guard keeps accumulating; [true] = the exploit
          event occurred in this payload *)
  oi_verdict : fired:bool -> bool;
      (** session verdict from the sticky fire (identity for most) *)
}

type def = { od_name : string; od_flag : flag; od_make : unit -> instance }
(** [od_make ()] is a fresh instance for one fuzzing session. *)

val resolve_ids : Trace.meta -> host_ids
(** Resolve the EOSIO host API of the paper's §3.5 detectors: the
    permission checks ([require_auth], [require_auth2], [has_auth]), the
    state writes ([db_store_i64], [db_update_i64], [db_remove_i64]),
    [send_inline], the block information ([tapos_block_prefix],
    [tapos_block_num]). *)

val make_env :
  meta:Trace.meta ->
  victim:Name.t ->
  fake_notif_agent:Name.t ->
  fake_token:Name.t ->
  unit ->
  env
(** Resolves the host API ({!resolve_ids}) against the contract's
    imports and classifies every site of [meta] once. *)

val facts : env -> Trace.Buffer.t -> facts
(** One pass over a payload's trace: every call_pre into a classified
    import and every i64 compare or [mul] event, read once. *)

(** {1 Builtins} *)

val builtins : def list
(** The eight shipped detectors, in canonical flag order. *)

(** {1 Matching helpers} *)

val i64_mul_overflows : int64 -> int64 -> bool
(** Signed 64-bit multiplication overflow predicate. *)
