(** Zero-interference span profiling for the whole pipeline.

    Every expensive stage of a fuzzing run — module load, wasabi
    instrumentation, compilation, per-payload execution (split by tier),
    the engine's trace scan, the oracle pass, the two solver tiers and
    the solver's verdict memo, corpus writes and journal fsyncs — can be
    timed as a {e span}, whose duration is added to its stage's and its
    [(stage, target)] pair's totals in a per-domain recorder.

    The contract is zero interference:

    - {b disabled} (the default), {!start} is a single atomic load and
      returns [0]; {!stop} sees the [0] and returns immediately.  No
      clock read, no allocation, no write.  Journals, reports and
      verdicts are byte-identical to a build without any
      instrumentation.
    - {b enabled}, the hot path still allocates nothing: the clock is a
      [[@noalloc] [@untagged]] external over [clock_gettime(MONOTONIC)],
      and the per-stage / per-(stage, target) aggregates, int arrays
      preallocated per domain, are bumped in place.  Recording
      never touches scheduling-visible state — no locks on the hot path,
      no I/O, no effect on RNG, solver or chain state — so enabling
      telemetry cannot change a verdict.

    Aggregation across domains is exact: every domain's recorder is
    registered (under a mutex, once, on first use) in a global list that
    {!snapshot} merges with plain integer sums. *)

(** The fixed stage taxonomy.  Indices are dense and stable; names (via
    {!stage_name}) are the wire/report vocabulary. *)
type stage =
  | Load_validate  (** decode/parse + ABI discovery of a target module *)
  | Instrument  (** wasabi binary instrumentation *)
  | Compile  (** closure-compilation of the instrumented module *)
  | Exec_interp  (** payload execution on the tree-walking interpreter *)
  | Exec_compiled  (** payload execution on the compiled tier *)
  | Trace_scan
      (** the engine's fused edge scan of each payload's trace buffer
          ([Engine.scan_trace]) *)
  | Oracle  (** the scanner's pass over a payload ([Scanner.observe]) *)
  | Solver_quick  (** solver calls answered without bit-blasting *)
  | Solver_blast  (** solver calls that reached bit-blasting *)
  | Solver_cache
      (** solver calls a session's verdict memo answered without solving
          (a repeated query under the same budget) *)
  | Corpus_io  (** corpus shard append + index write *)
  | Journal_fsync  (** journal line write + fsync *)

val stages : stage list
(** All stages, in declaration order. *)

val stage_name : stage -> string
(** Stable snake_case name, e.g. ["exec_compiled"]. *)

(** {1 Switch} *)

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** One atomic load; this is the whole cost of a disabled probe. *)

val reset : unit -> unit
(** Zero every registered recorder and forget interned targets.  Only
    meaningful while no instrumented code is running (between bench
    phases, between tests). *)

(** {1 Hot path} *)

val start : unit -> int
(** Monotonic nanoseconds now, or [0] when disabled.  Allocation-free. *)

val stop : stage -> int -> unit
(** [stop st t0] records a span of stage [st] from [t0] to now against
    the calling domain's ambient target.  No-op when [t0 = 0] (i.e. the
    matching {!start} saw telemetry disabled).  Allocation-free. *)

(** {1 Target attribution} *)

val no_target : int
(** The ambient default: spans recorded outside any target ([0]). *)

val target_id : string -> int
(** Intern a target name (cold path; takes a lock). *)

val set_target : int -> unit
(** Set the calling domain's ambient target for subsequent spans, and
    size this domain's per-target aggregates for it (cold path). *)

(** {1 Snapshot and rendering} *)

type snapshot = {
  ts_spans : int;  (** total spans recorded *)
  ts_stages : (stage * int * int) list;
      (** per stage: (stage, span count, total ns); all stages listed *)
  ts_targets : (string * (stage * int * int) list) list;
      (** per named target: non-empty stage rows, declaration order *)
}

val snapshot : unit -> snapshot
(** Merge every domain's aggregates with exact integer sums.  Safe to
    call while workers run (monitoring reads may then be a span or two
    behind a racing recorder, never corrupt). *)

val report_text : snapshot -> string
(** The per-stage / per-target critical-path breakdown appended to
    campaign reports under [--telemetry]. *)

val prometheus : snapshot -> string
(** Prometheus text-exposition lines for the stage aggregates
    ([wasai_stage_seconds_total] / [wasai_stage_spans_total]). *)
