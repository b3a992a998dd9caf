(** The [wasai-serve-v1] wire grammar: the line-delimited protocol spoken
    over the serve daemon's Unix-domain socket.

    Like the journal and corpus grammars, every line is tab-separated,
    starts with a version magic, and is parsed {e strictly}: wrong magic,
    wrong verb, wrong field count, a number or hex string in any spelling
    but the one written ({!Wasai_support.Canonical}), or out-of-alphabet
    tenant or target names all reject with a reason instead
    of being guessed at — a daemon fed garbage answers [ERR] and hangs
    up, it never half-parses a submission.

    Requests (client to daemon), one per line:
    {v
    wasai-serve-v1 <TAB> SUBMIT <TAB> tenant <TAB> name <TAB> wasmhex <TAB> abihex|-
    wasai-serve-v1 <TAB> PING
    wasai-serve-v1 <TAB> STATS <TAB> tenant
    wasai-serve-v1 <TAB> METRICS
    wasai-serve-v1 <TAB> SHUTDOWN
    v}

    Responses (daemon to client) — admission replies and streamed
    verdicts share one connection, so every response names its subject:
    {v
    wasai-serve-v1 <TAB> QUEUED <TAB> tenant <TAB> name <TAB> depth=N
    wasai-serve-v1 <TAB> BUSY <TAB> tenant <TAB> name <TAB> retry-after=MS <TAB> depth=N
    wasai-serve-v1 <TAB> VERDICT <TAB> tenant <TAB> fresh|cached <TAB> wait=MS <TAB> <journal line>
    wasai-serve-v1 <TAB> ERR <TAB> name|- <TAB> reason
    wasai-serve-v1 <TAB> PONG <TAB> jobs=N <TAB> tenants=N
    wasai-serve-v1 <TAB> STATS <TAB> tenant <TAB> submitted=N <TAB> completed=N
                   <TAB> rejected=N <TAB> qwait=HIST <TAB> latency=HIST
                   <TAB> uptime=MS <TAB> backend=NAME
    wasai-serve-v1 <TAB> METRICS <TAB> bodyhex
    wasai-serve-v1 <TAB> BYE <TAB> completed=N
    v}

    The [VERDICT] payload embeds a complete {!Journal} line — verdict
    flags, deterministic outcome counters, solver counters, provenance
    stamp and wire-encoded exploit evidence — verbatim: the line a
    client streams is the line the tenant journal holds, so streamed
    results and crash-resumed reports can never disagree.  The journal
    line contains tabs of its own; the parser rejoins everything after
    the [wait=] field and hands it to {!Journal.entry_of_line}.
    [HIST] is {!Wasai_support.Metrics.Histogram.to_wire} (one token, no
    tabs).

    [METRICS] answers with a Prometheus text exposition — per-tenant
    counters, queue-wait/latency histograms with [le] buckets (merged
    exactly across worker domains: they are bumped under the daemon
    lock), the telemetry per-stage aggregates, uptime and backend.  The
    body is multi-line free text, so it rides inside the one-line
    grammar the same way module bytes do: hex-encoded into a single
    token ([bodyhex]). *)

module Journal = Wasai_campaign.Journal

val magic : string
(** ["wasai-serve-v1"]. *)

val valid_tenant : string -> bool
(** Tenant names become directory names under the served root, so the
    alphabet is locked down: 1..32 chars of [a-z0-9._-], and neither
    ["."] nor [".."]. *)

val valid_target : string -> bool
(** Target names double as EOSIO deployment accounts: 1..12 chars of
    [a-z1-5.]. *)

type request =
  | Submit of {
      rq_tenant : string;
      rq_name : string;
      rq_wasm : string;  (** raw module bytes (binary Wasm or .wat text) *)
      rq_abi : string option;  (** ABI sidecar text, [None] = canonical ABI *)
      rq_slices : int;
          (** always 1: every submission runs as one whole-target engine
              loop.  {!request_of_line} sets it to 1 and
              {!line_of_request} refuses any other value. *)
    }
  | Ping
  | Stats of string  (** tenant *)
  | Metrics  (** daemon-wide Prometheus exposition *)
  | Shutdown

type verdict_kind =
  | Fresh  (** fuzzed by this submission *)
  | Cached  (** replayed from the tenant journal (same name, already done) *)

type response =
  | Queued of { rp_tenant : string; rp_name : string; rp_depth : int }
      (** admitted; [rp_depth] = tenant in-flight count after admission *)
  | Busy of {
      rp_tenant : string;
      rp_name : string;
      rp_retry_ms : int;  (** suggested client back-off *)
      rp_depth : int;
    }  (** backpressure: tenant queue full (or this name already queued) *)
  | Verdict of {
      rp_tenant : string;
      rp_kind : verdict_kind;
      rp_wait_ms : int;  (** submission-to-verdict latency, milliseconds *)
      rp_entry : Journal.entry;
    }
  | Err of { rp_name : string option; rp_reason : string }
      (** [rp_name = None] marks a protocol-level error (the daemon hangs
          up); [Some subject] scopes the failure to one submission (a
          target name) or one [STATS] query (a tenant name) *)
  | Pong of { rp_jobs : int; rp_tenants : int }
  | StatsReply of {
      rp_tenant : string;
      rp_submitted : int;
      rp_completed : int;
      rp_rejected : int;
      rp_qwait : string;  (** queue-wait histogram, [Histogram.to_wire] *)
      rp_latency : string;  (** end-to-end histogram, [Histogram.to_wire] *)
      rp_uptime_ms : int;  (** daemon uptime, milliseconds *)
      rp_backend : string;  (** the daemon's [--backend] (interp|auto) *)
    }
  | MetricsReply of { rp_body : string }
      (** the Prometheus text exposition, verbatim (hex on the wire) *)
  | Bye of { rp_completed : int }  (** shutdown acknowledged *)

val line_of_request : request -> string
(** Single line, no trailing newline.  Raises [Invalid_argument] on an
    invalid tenant/target name, an empty [rq_wasm] or [rq_slices <> 1] —
    malformed requests must fail at the producer, not on the wire. *)

val request_of_line : string -> (request, string) result
(** Strict inverse of {!line_of_request}: a [SUBMIT] line has exactly
    six fields, so a trailing seventh (such as [slices=K]) is rejected
    as malformed. *)

val line_of_response : response -> string
(** Single line, no trailing newline.  [Err] reasons are cut to their
    first 256 bytes (then ["..."]) and have tabs/newlines flattened to
    spaces, so the line stays well-formed and small whatever input the
    reason quotes. *)

val response_of_line : string -> (response, string) result
(** Strict inverse of {!line_of_response}; [VERDICT] payloads are
    validated by {!Journal.entry_of_line}. *)
