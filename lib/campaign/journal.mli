(** Crash-safe campaign journal: one line per completed target, appended
    under a lock and fsync'd before the write is acknowledged, so a killed
    campaign can be resumed from exactly the set of targets whose results
    reached disk.

    The format is versioned and parsed strictly: any line that is not a
    well-formed record (including a line torn by a crash mid-write) makes
    {!load} raise {!Malformed} with the offending path, line number and
    reason — a corrupt journal is never silently skipped over.

    Stamped entries are written as v4 lines, which extend the v2 format
    (trailing [solver=] counters) with the campaign provenance stamp
    ([shard=i/N], the engine root [seed=], the round [budget=]), the
    serialized exploit payloads behind every positive verdict
    ([exploits=]), and — new in v4 — the engine's final adaptively
    retuned solver conflict budget as a sixth [fb:] counter inside the
    [solver=] field.  The stamp is what lets
    {!Campaign.merge} check that shard journals from different machines
    belong to one consistent fleet configuration; the exploit records are
    what lets a resumed or merged report replay evidence.  The parser
    additionally accepts v3 (16-field, 5 solver counters), v2 (12-field)
    and v1 (11-field) lines, whose absent counters read as zero and whose
    absent stamp/exploits read as none, so old journals still resume.
    No other line shape is accepted. *)

module Core = Wasai_core
module Solver = Wasai_smt.Solver

(** Campaign provenance of an entry, recorded so that merges can reject
    journals produced under different configurations (different seeds or
    budgets yield different verdicts for the same target). *)
type stamp = {
  js_shard : Shard.t;  (** the slice this entry was fuzzed under *)
  js_seed : int64;  (** engine [cfg_rng_seed] *)
  js_rounds : int;  (** engine [cfg_rounds] budget *)
}

(** One completed target: its verdicts plus the deterministic outcome
    counters (everything of {!Core.Engine.outcome} that the campaign
    report aggregates).  [je_elapsed] is wall-clock and is the only
    scheduling-dependent field; report canonicalisation excludes it. *)
type entry = {
  je_name : string;  (** target name (unique within a campaign) *)
  je_flags : (Core.Scanner.flag * bool) list;
      (** normalised over {!Core.Scanner.all_flags} in order (parsed
          lines default absent extension flags to [false]) *)
  je_branches : int;
  je_rounds : int;
  je_seeds_total : int;
  je_adaptive_seeds : int;
  je_transactions : int;
  je_solver_sat : int;
  je_imprecise : int;
  je_elapsed : float;  (** seconds spent fuzzing this target *)
  je_solver : Solver.stats;
      (** per-target solver counters (zero when parsed from a v1 line) *)
  je_final_budget : int;
      (** the engine's final adaptive solver conflict budget
          ({!Core.Engine.outcome.out_final_budget}; 0 when parsed from a
          pre-v4 line) *)
  je_stamp : stamp option;  (** [None] when parsed from a v1/v2 line *)
  je_exploits : (Core.Scanner.flag * Core.Scanner.evidence) list;
      (** exploit payload behind each positive verdict, in canonical flag
          order (empty when parsed from a v1/v2 line) *)
}

val of_outcome :
  name:string -> elapsed:float -> ?stamp:stamp -> Core.Engine.outcome -> entry
(** Exploit payloads are carried over from the outcome in canonical flag
    order; pass [~stamp] (campaign runs always do) to make them
    persistable — {!line_of_entry} only serialises exploits on stamped v3
    lines. *)

val line_of_entry : entry -> string
(** Single-line record, no trailing newline: 16-field v4 when
    [je_stamp] is present, legacy 12-field v2 otherwise (in which case
    [je_exploits] and [je_final_budget] are not serialised). *)

val entry_of_line : string -> (entry, string) result
(** Accepts v1 (11 fields), v2 (12), v3 (16, 5 solver counters) and v4
    (16, 6 solver counters) lines; each field is validated strictly. *)

(** File-level provenance, stamped once as the first line of a fresh
    journal ([wasai-journal-hdr] followed by [backend=interp|compiled|auto]):
    the execution backend the fleet ran under.  Verdicts are
    backend-invariant by contract, but a resume mixing tiers would make
    that contract unauditable, so — like the per-entry (seed, budget)
    stamp — resume refuses a mismatch.  Entry lines are unchanged: a v4
    line is byte-identical whichever backend produced it, and headerless
    legacy journals still load.

    [jh_telemetry] stamps whether span profiling was on, so a resume
    cannot silently flip it and skew the report's per-stage breakdown.
    Off is the default and writes the legacy two-field line byte for
    byte; [telemetry=on] appends a third field. *)
type header = {
  jh_backend : Core.Exec_backend.choice;
  jh_telemetry : bool;
}

val line_of_header : header -> string
val header_of_line : string -> (header, string) result

exception Malformed of string
(** Raised by {!load}; the message carries path, 1-based line number and
    reason. *)

val load : string -> entry list
(** All entries, in file order (skipping a leading header line).  Raises
    {!Malformed} on any bad line and [Sys_error] if the file cannot be
    read. *)

val load_full : string -> header option * entry list
(** Like {!load}, also returning the header when the file starts with
    one ([None] on headerless legacy journals).  A header line anywhere
    but line 1 raises {!Malformed}. *)

(** Append-side handle; [append] serialises concurrent writers with an
    internal mutex and fsyncs after every line. *)
type writer

val open_writer : ?header:header -> string -> writer
(** Opens (creating if needed) in append mode: resuming a campaign keeps
    the prior entries and extends the same file.  [header] is written
    (and fsync'd) as the first line of freshly-created files only —
    existing files are never rewritten, and resume is expected to have
    validated their header already. *)

val append : writer -> entry -> unit

val close_writer : writer -> unit
