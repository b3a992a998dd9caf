(** Parallel fuzzing-campaign orchestrator.

    Drives {!Core.Engine.fuzz} over an arbitrary set of contracts: a
    shared {!Work_queue} drained by N OCaml domains, an optional
    crash-safe {!Journal} enabling resumption after a kill, and an
    aggregation layer merging per-target outcomes into a fleet report.

    Fleet scale comes from {!Shard}: a run configured with
    [shard = i/N] fuzzes only the targets whose stable name hash lands in
    slice [i], so N machines given the same directory and the same engine
    configuration partition the fleet with no coordination; their
    journals — each entry stamped with its (shard, seed, budget)
    provenance — recombine through {!merge} into the same canonical
    report an unsharded run would have produced.

    Every target runs to completion as one {!Core.Engine.fuzz} loop on
    one worker domain; parallelism is across targets (domains here,
    shards across machines), never within one.

    Determinism: per-target verdicts depend only on
    [(cfg_engine.cfg_rng_seed, target)] — the engine seeds each target's
    RNG from its account name (see {!Core.Engine.fuzz}) — and the report
    is canonicalised by target name, so {!verdicts_text} and
    {!evidence_text} are byte-identical for any [cc_jobs], any
    scheduling, and any sharding of the same target set. *)

module Core = Wasai_core
module Solver = Wasai_smt.Solver
module Metrics = Wasai_support.Metrics
module Corpus = Wasai_corpus.Corpus

type target_spec = {
  sp_name : string;
      (** campaign-unique identity; doubles as the deployment account, so
          it must be a valid EOSIO name (the RNG seed derives from it) *)
  sp_size : int;
      (** module byte size (0 when unknown) — the long-tail scheduling
          heuristic: fresh targets are enqueued biggest-first (LPT), so
          one huge contract never serialises the campaign tail.  Affects
          only scheduling, never verdicts. *)
  sp_load : unit -> Core.Engine.target;
      (** called in the worker domain, so parsing/generation cost is paid
          in parallel too *)
}

type config = {
  cc_jobs : int;  (** worker domains, including the calling one; >= 1 *)
  cc_engine : Core.Engine.config;
  cc_journal : string option;
      (** append completed targets here; a journal that is not empty is
          continued only with [cc_resume] *)
  cc_resume : bool;
      (** skip targets already present in [cc_journal]; their journal
          entries are merged into the final report *)
  cc_progress : (Journal.entry -> unit) option;
      (** called under the campaign lock after each completed target *)
  cc_shard : Shard.t;
      (** restrict the run to this slice of the fleet
          ({!Shard.whole} = everything) *)
  cc_corpus : string option;
      (** persistent seed-corpus file ({!Corpus}): loaded once at campaign
          start to preload each fresh target's queue with its stored
          interesting seeds, and appended to (crash-safely, under the
          campaign lock) with every new coverage-bearing seed this run
          discovers.  The file need not exist yet. *)
  cc_telemetry : bool;
      (** enable {!Wasai_telemetry.Telemetry} span recording for the
          run (flipped before any worker spawns) and stamp the journal
          header with [telemetry=on] so resumes agree.  Off (the
          default) leaves journals, reports and verdicts byte-identical
          to a build without telemetry. *)
}

val make_config :
  jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?progress:(Journal.entry -> unit) ->
  ?shard:Shard.t ->
  ?corpus:string ->
  ?telemetry:bool ->
  engine:Core.Engine.config ->
  unit ->
  config
(** The only supported way to build a {!config}: validates at
    construction time instead of deep inside {!run}.  Raises
    [Invalid_argument] when [jobs < 1] or when [resume] is requested
    without a [journal].  [resume] defaults to [false], [shard] to
    {!Shard.whole}, [telemetry] to [false]; [journal], [progress] and
    [corpus] default to absent. *)

type report = {
  cr_results : Journal.entry list;  (** sorted by target name *)
  cr_requested : int;  (** targets in this run's (shard-filtered) input set *)
  cr_skipped : int;  (** satisfied from the journal instead of re-fuzzed *)
  cr_jobs : int;  (** 0 for a report built purely from journals *)
  cr_wall : float;  (** campaign wall-clock, seconds *)
  cr_shard : Shard.t;  (** the slice this report covers *)
  cr_corpus_preloaded : int;
      (** corpus seeds handed to fresh targets' queues before generation *)
  cr_corpus_added : int;
      (** new seeds this run appended to the corpus (post-dedupe) *)
}

val run : config -> target_spec list -> report
(** Raises [Invalid_argument] on duplicate target names,
    {!Journal.Malformed} when resuming from a corrupt journal,
    {!Corpus.Malformed} when [cc_corpus] exists but is corrupt, and
    [Failure] when [cc_journal] is not empty and [cc_resume] is off,
    when a resumed journal was recorded under a different backend,
    telemetry switch or (shard, seed, budget) stamp ({!Store.open_}), or
    when a target's load, fuzz or durable write raised (after all
    workers have drained; the journal keeps every target completed
    before the failure).

    Targets outside [cc_shard] are filtered out before anything else:
    they are not fuzzed, not journaled, and not counted in
    [cr_requested].  Fresh targets are fuzzed biggest-first ([sp_size]
    descending, name ascending on ties).

    With [cc_corpus] set, each fresh target's engine queue is preloaded
    with the corpus seeds stored for it ({!Corpus.preload}), and every
    interesting seed the engine reports is deduped into the corpus and
    appended to the file {e before} the target's journal line
    ({!Store.complete}).  Preloads are resolved from the corpus file as
    it stood at campaign start, so verdicts remain a pure function of
    (engine seed, target, corpus state): {!verdicts_text} is still
    byte-identical across [cc_jobs] for a fixed starting corpus. *)

val stamp_of_config : config -> Journal.stamp
(** The (shard, seed, budget) provenance every journal entry of a run
    under [config] carries. *)

val of_entries : Journal.entry list -> report
(** Wrap already-journaled entries as a report without fuzzing anything
    ([cr_jobs = 0]; every entry counts as skipped).  Duplicate entries per
    name collapse to the last, as {!run}'s resume does.  The basis of
    [wasai campaign report]. *)

val merge : string list -> report
(** Load N shard journals and recombine them into the fleet report.

    Validation (all failures raise [Failure] with the offending path):
    each journal must be non-empty and internally consistent (one stamp, and every target name must hash into the
    stamped slice); all journals must agree on (seed, budget, shard
    count); the shard indices must be pairwise distinct (disjointness)
    and cover 0..N-1 (coverage).  Duplicate lines per name collapse to
    the last, as {!run}'s resume does.  Raises {!Journal.Malformed} on a
    corrupt journal and [Invalid_argument] on an empty path list.

    Because per-target verdicts are independent of sharding, the merged
    report's {!verdicts_text} and {!evidence_text} are byte-identical to
    those of an unsharded run over the union of the targets. *)

(** {2 Dry-run planning} *)

type plan_row = {
  pr_name : string;
  pr_size : int;  (** module byte size ([sp_size]) *)
  pr_shard : int;  (** the slice {!Shard.assign} maps this name to *)
  pr_member : bool;  (** belongs to this run's [cc_shard] *)
  pr_done : bool;  (** member already satisfied by the resume journal *)
  pr_order : int option;
      (** 1-based position in the execution order, [None] when the target
          would not be fuzzed (foreign shard or resumed) *)
  pr_preload : int;  (** corpus seeds this target's queue would receive *)
}

type plan = {
  pl_rows : plan_row list;
      (** targets to fuzz first (in execution order), then the rest in
          name order *)
  pl_shard : Shard.t;
  pl_jobs : int;
}

val plan : config -> target_spec list -> plan
(** Everything {!run} would decide before spawning a worker — shard
    membership, resume skips, LPT execution order, per-target corpus
    preloads — without loading or fuzzing anything.  Raises exactly the
    input-validation errors {!run} would ([Invalid_argument] on duplicate
    names, journal/corpus load failures). *)

val plan_text : plan -> string
(** Human-readable rendering of {!plan}: summary lines then one row per
    target.  The basis of [wasai campaign run --dry-run]. *)

(** {2 Aggregation} *)

val flag_counts : report -> (Core.Scanner.flag * int) list
(** Per-flag count of flagged contracts, in {!Core.Scanner.all_flags}
    order. *)

val vulnerable_count : report -> int
val total_branches : report -> int

val solver_totals : report -> Solver.stats
(** Fleet-wide sum of per-target solver counters.  Deterministic
    for any [cc_jobs]: solver sessions are per-target and never shared
    across domains, so each addend is a function of its target alone. *)

val latency_histogram : report -> Metrics.Histogram.t
(** Per-target fuzzing latencies (merged as if per-worker). *)

val verdicts_text : report -> string
(** Canonical per-target verdict lines, sorted by name, with every
    scheduling-dependent field (latency, wall-clock) excluded — the
    byte-identical artefact for comparing runs at different [cc_jobs] or
    different shardings (for a fixed starting corpus state). *)

val flags_text : report -> string
(** The counter-free projection of {!verdicts_text}: one line per target
    with only its name and verdict flags.  Warm (corpus-preloaded) and
    cold runs reach the same verdicts in different numbers of rounds and
    seeds, so their full verdict lines differ; this projection is the
    byte-identical artefact for comparing them. *)

val evidence_text : report -> string
(** Canonical exploit-evidence lines (target, flag, replayable payload),
    in target order then flag order; empty when nothing fired.  As
    scheduling-independent as {!verdicts_text}: the payload behind a
    verdict is a pure function of the per-target run. *)

val to_text : report -> string
(** Full human-readable campaign report: fleet summary, per-flag contract
    counts, latency percentiles, then {!verdicts_text} and — when any
    exploit was captured — {!evidence_text}. *)
