(** Client side of the serve protocol: connect to a daemon's socket,
    submit contracts, stream verdicts — the library behind
    [wasai submit]. *)

module Core = Wasai_core
module Journal = Wasai_campaign.Journal

exception Protocol_error of string
(** The daemon hung up, answered a malformed line, or reported a
    protocol-level [ERR] (no subject). *)

type t

val connect : string -> t
(** Connect to the daemon socket.  Raises [Unix.Unix_error] when no
    daemon is listening. *)

val close : t -> unit

val send : t -> Wire.request -> unit
(** Write one request line (blocking until fully written). *)

val next : t -> Wire.response
(** Read the next response line (blocking).  Raises {!Protocol_error}
    on EOF or a malformed line. *)

(** {2 Contract loading} *)

type contract = {
  ct_name : string;
      (** the submission's target name, derived from the file basename
          exactly as batch discovery does
          ({!Wasai_campaign.Discover.account_of_filename}) — so a serve
          submission and a batch campaign over the same directory key
          their journals identically *)
  ct_wasm : string;  (** raw file bytes (binary Wasm or .wat text) *)
  ct_abi : string option;  (** ABI sidecar text, when present *)
}

val contract_of_file : string -> contract
(** Load one [.wasm]/[.wat] file and its optional [<file>.abi] /
    [<base>.abi] sidecar.  Raises [Sys_error] on an unreadable file. *)

val contracts_of_path : string -> contract list
(** A single file, or every usable contract in a directory (via
    {!Wasai_campaign.Discover.contract_files}, which skips bad entries
    with a warning). *)

(** {2 Batch submission} *)

type batch = {
  bt_verdicts : (string * Wire.verdict_kind * Journal.entry) list;
      (** completed submissions in verdict-arrival order *)
  bt_retries : int;  (** BUSY backpressure replies absorbed (after back-off) *)
  bt_errors : (string * string) list;  (** per-submission failures *)
}

val submit_batch :
  ?progress:(Wire.response -> unit) ->
  t ->
  tenant:string ->
  contract list ->
  batch
(** Submit every contract under [tenant] and wait for all verdicts.
    Streamed verdicts for earlier submissions are consumed (and handed
    to [progress]) while later admissions are still in flight; a [BUSY]
    reply sleeps for the daemon's [retry-after] hint and resubmits.
    Raises {!Protocol_error} on a protocol-level failure. *)
