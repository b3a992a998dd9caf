(** Crash-safe campaign journal: one line per completed target, appended
    by {!Store} and fsync'd before the write is acknowledged, so a killed
    campaign can be resumed from exactly the set of targets whose results
    reached disk.

    The format is versioned and parsed strictly.  Line 1 of every
    non-empty journal is a {!header}; every later line is a 16-field
    [wasai-journal-v4] entry: the verdict flags and outcome counters,
    the [solver=] counters (ending with the engine's final adaptive
    conflict budget [fb:]), the campaign provenance stamp ([shard=i/N],
    the engine root [seed=], the round [budget=]) and the serialized
    exploit payloads behind every positive verdict ([exploits=]).  The
    stamp is what lets {!Campaign.merge} check that shard journals from
    different machines belong to one consistent fleet configuration; the
    exploit records are what lets a resumed or merged report replay
    evidence.  Any other complete line makes {!load} raise {!Malformed}
    with the offending path, line number and reason: a corrupt journal
    is never silently skipped over.  A final line without its newline is
    a write that was never acknowledged (a crash or a failed write
    mid-append), and readers skip it.  {!Store} writes journals. *)

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
  je_solver : Solver.stats;  (** per-target solver counters *)
  je_final_budget : int;
      (** the engine's final adaptive solver conflict budget
          ({!Core.Engine.outcome.out_final_budget}) *)
  je_stamp : stamp;
  je_exploits : (Core.Scanner.flag * Core.Scanner.evidence) list;
      (** exploit payload behind each positive verdict, in canonical flag
          order *)
}

val of_outcome :
  name:string -> elapsed:float -> stamp:stamp -> Core.Engine.outcome -> entry
(** Exploit payloads are carried over from the outcome in canonical flag
    order. *)

val line_of_entry : entry -> string
(** Single 16-field line, no trailing newline. *)

val entry_of_line : string -> (entry, string) result
(** Accepts exactly the lines {!line_of_entry} writes; each field is
    validated strictly. *)

(** File-level provenance, line 1 of every journal ([wasai-journal-hdr]
    followed by [backend=interp|auto]): the execution backend the fleet
    ran under.  Verdicts are backend-invariant by contract, but a resume
    mixing tiers would make that contract unauditable, so — like the
    per-entry (seed, budget) stamp — resume refuses a mismatch.  Entry
    lines are byte-identical whichever backend produced them.

    [jh_telemetry] stamps whether span profiling was on, so a resume
    cannot silently flip it and skew the report's per-stage breakdown.
    Off writes a two-field line; [telemetry=on] appends a third field. *)
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
(** All entries, in file order.  Raises {!Malformed} on any bad complete
    line (including a missing header) and [Sys_error] if the file cannot
    be read; an unterminated final line is skipped. *)

val load_full : string -> header option * entry list
(** Like {!load}, also returning the header: [None] only for a file with
    no complete line.  A first line that is not a header, or a header
    anywhere but line 1, raises {!Malformed}. *)
