(** The streaming oracle layer: vulnerability detectors as
    instances matching EOSIO host-API calls.

    A {!def} names a vulnerability class and constructs per-session
    {!instance}s against one contract's {!env}; instances stream each
    executed payload's trace through a {!Wasai_wasabi.Trace.Cursor} and
    report whether the exploit event occurred.  The scanner harness
    makes fires sticky and captures first-fire evidence. *)

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
  hi_effects : int list;  (** [hi_inline_send @ hi_state_writes] *)
}

type env = {
  en_meta : Trace.meta;
  en_func_imports : int;
      (** function imports of the instrumented module, counted once *)
  en_ids : host_ids;
  en_victim : Name.t;
  en_fake_notif_agent : Name.t;
  en_fake_token : Name.t;
}

(** Per-payload facts computed once by the scanner harness. *)
type ctx = { cx_channel : channel; cx_eosponser_ran : bool }

(** {1 Instances and definitions} *)

type instance = {
  oi_name : string;
  oi_flag : flag;
  oi_step : ctx -> Trace.Cursor.t -> bool;
      (** called on {e every} payload, even after a fire, so detectors
          with exculpatory state keep accumulating; [true] = the
          exploit event occurred in this payload *)
  oi_verdict : fired:bool -> bool;
      (** session verdict from the sticky fire (identity for most) *)
}

type def = { od_name : string; od_flag : flag; od_make : env -> instance }

val resolve_ids : Trace.meta -> host_ids
(** Resolve the EOSIO host API of the paper's §3.5 detectors: the
    permission checks ([require_auth], [require_auth2], [has_auth]), the
    state writes ([db_store_i64], [db_update_i64], [db_remove_i64]),
    [send_inline], the block information ([tapos_block_prefix],
    [tapos_block_num]) and the visible effects (sends and writes). *)

val make_env :
  meta:Trace.meta ->
  victim:Name.t ->
  fake_notif_agent:Name.t ->
  fake_token:Name.t ->
  unit ->
  env
(** Resolves the host API ({!resolve_ids}) against the contract's
    imports. *)

(** {1 Builtins} *)

val builtins : def list
(** The eight shipped detectors, in canonical flag order. *)

val instantiate :
  meta:Trace.meta ->
  victim:Name.t ->
  fake_notif_agent:Name.t ->
  fake_token:Name.t ->
  unit ->
  instance list
(** Resolve the environment and construct every builtin detector. *)

(** {1 Cursor-level matching helpers} *)

val calls_any : env -> Trace.Cursor.t -> int list -> bool
(** Stream to the end of the trace; did any call_pre target one of the
    import indices? *)

val i64_pair_compared : Trace.meta -> Trace.Cursor.t -> int64 -> int64 -> bool
(** Did any instruction compare exactly the i64 pair [{x, y}]?  Matches
    i64.eq/ne plus the xor/sub forms comparison-encoding obfuscation
    rewrites to. *)

val i64_mul_overflows : int64 -> int64 -> bool
(** Signed 64-bit multiplication overflow predicate. *)
