(** Continuous fuzzing as a service: the campaign machinery run as a
    persistent multi-tenant daemon.

    One daemon owns a served root directory and a Unix-domain socket.
    Clients speak the {!Wire} grammar; each [SUBMIT] names a tenant, and
    every tenant gets an isolated journal + corpus under
    [root/<tenant>/] — the same crash-safe files a batch campaign
    writes, so every batch tool ([wasai campaign report], {!Campaign}
    merge validation, corpus reuse) applies to a tenant directory
    unchanged.

    Architecture: a single-domain I/O loop ([select(2)] over the listen
    socket, a self-pipe, and every client connection) handles accepts,
    request parsing and admission control; [sv_jobs] worker domains
    drain a shared {!Work_queue} of admitted submissions; completed
    verdicts travel back to the I/O loop through a completion queue plus
    self-pipe wakeup and are streamed to the submitting client.  The
    I/O loop never fuzzes and the workers never touch a socket.

    Admission control bounds each tenant to [sv_depth] in-flight
    submissions.  Beyond that the daemon answers [BUSY] with a
    [retry-after] hint instead of buffering without bound — explicit
    backpressure, never an unbounded queue.

    Restart safety: each tenant's journal and corpus are a
    {!Wasai_campaign.Store}, the same one a batch campaign writes
    through.  A target counts as done iff its line reached the tenant
    journal (fsync'd before the verdict is streamed), and every line
    carries the daemon's (shard=0/1, seed, budget) provenance stamp.  On
    [--resume] the store checks each tenant journal against that stamp
    and the daemon serves already-journaled names from cache, so a
    [kill -9] mid-queue followed by resume + resubmission yields
    per-tenant reports byte-identical to an uninterrupted run.  A failed
    durable write answers [ERR] for its submission; the worker goes on.

    Determinism argument for that byte-identity: every serve fuzz is
    {e cold} ([cfg_preload] is forced empty; the per-tenant corpus is
    write-only — recorded for later batch reuse, never preloaded by the
    daemon).  If crashed runs preloaded seeds recorded by earlier ones,
    a target re-fuzzed after a crash could run warm and journal
    different solver counters than its uninterrupted twin. *)

module Core = Wasai_core
module Campaign = Wasai_campaign.Campaign
module Journal = Wasai_campaign.Journal

type config = {
  sv_root : string;  (** served root; one subdirectory per tenant *)
  sv_socket : string;  (** Unix-domain socket path *)
  sv_jobs : int;  (** worker domains (the I/O loop is not one of them) *)
  sv_depth : int;  (** max in-flight (queued + running) per tenant *)
  sv_resume : bool;
      (** continue existing tenant journals; without it, a tenant whose
          journal is not empty is refused *)
  sv_engine : Core.Engine.config;
      (** per-submission engine configuration; [cfg_preload] is forced
          empty (see the determinism argument above) *)
}

val make_config :
  root:string ->
  socket:string ->
  ?jobs:int ->
  ?depth:int ->
  ?resume:bool ->
  engine:Core.Engine.config ->
  unit ->
  config
(** Validates at construction: raises [Invalid_argument] when
    [jobs < 1] or [depth < 1].  [jobs] defaults to 1, [depth] to 16,
    [resume] to false. *)

type t

val create : config -> t
(** Bind the socket (unlinking a stale one), create the root, spawn the
    worker domains and open every existing tenant's store: journal
    entries are checked against this daemon's (seed, budget) stamp and
    become the tenant's cached-verdict table.  Raises [Failure] when a
    tenant's journal is not empty and [sv_resume] is false (the message
    names [--resume]), or when a journal was recorded under a different
    configuration; {!Journal.Malformed} on a corrupt journal. *)

val serve : t -> unit
(** Run the I/O loop until a stop is requested ([SHUTDOWN] on the wire,
    {!request_stop}, or {!request_abort}), then drain: workers finish
    (graceful) or drop (abort) the backlog, pending responses are
    flushed, connections and the socket are closed.  The socket file is
    unlinked on graceful stop and deliberately left behind on abort
    (a [kill -9] would not have cleaned up either). *)

val request_stop : t -> unit
(** Graceful stop from another domain (e.g. a signal handler): admitted
    submissions still run to completion and their verdicts are
    streamed; further submissions are refused.  Idempotent. *)

val request_abort : t -> unit
(** Simulated [kill -9] for tests: queued submissions are dropped
    without journaling anything (running ones finish — a real kill may
    also land after a line's fsync), and {!serve} returns without
    cleanup.  Idempotent. *)

(** {2 Tenant reports}

    Offline views over a served root; they read only the journals and
    are usable whether or not a daemon is running. *)

val tenants : root:string -> string list
(** Tenant directories under [root] that hold a journal, sorted.  Empty
    when [root] does not exist. *)

val tenant_entries :
  root:string -> engine:Core.Engine.config -> string -> Journal.entry list
(** A tenant's journal entries, checked against the (seed, budget) stamp
    the daemon would use through a read-only store and collapsed to the
    last entry per name (resume discipline).  Raises [Failure] on a stamp
    mismatch, {!Journal.Malformed} on a corrupt journal. *)

val tenant_report :
  root:string -> engine:Core.Engine.config -> string -> string
(** The per-tenant report: a [tenant <name>: targets=N] header, the
    campaign's canonical {!Campaign.verdicts_text}, and — when any
    exploit was captured — {!Campaign.evidence_text}.  Every field is
    deterministic (no wall-clock, no scheduling), so two roots that
    journaled the same submissions render byte-identical reports: the
    kill -9 acceptance artefact. *)
