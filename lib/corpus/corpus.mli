(** Persistent coverage-indexed seed corpus with cross-run reuse.

    The corpus stores every {e interesting} seed a fuzzing run found — a
    seed whose executions opened at least one new branch edge — keyed by
    the stable {!Wasai_wasabi.Trace.edge_signature} of its covered edge
    set, together with its provenance (target, campaign shard stamp,
    engine round, solver counters).  A later campaign preloads these
    seeds into each target's pool before fresh generation, replaying the
    prior run's coverage in its first rounds instead of re-deriving the
    same solver flips from scratch.

    On disk the corpus is a journal-style append-only file: one strict,
    versioned, tab-separated line per seed ([wasai-corpus-v1], 13
    fields), each append fsync'd before it is acknowledged (the campaign
    store writes it).  See [corpus.ml] for the full grammar.  Loading
    validates every field and recomputes every signature; an edited
    complete line raises {!Malformed} rather than corrupting the index.
    A final line without its newline is a write that was never
    acknowledged, and {!load} skips it.

    Determinism: everything derived from a corpus — {!records},
    {!preload} lists, {!minimize} output, {!save} files, {!stats_text} —
    is canonically ordered by (target, action, signature), so it is a
    pure function of the corpus {e contents}, independent of on-disk
    append order, worker scheduling, or machine. *)

module Solver = Wasai_smt.Solver
open Wasai_eosio

type record = {
  rc_target : string;  (** campaign target name (an EOSIO account) *)
  rc_action : Name.t;
  rc_args : Abi.value list;
  rc_sig : int64;
      (** {!Wasai_wasabi.Trace.edge_signature} of [rc_cover]; the dedupe
          key together with [rc_target] *)
  rc_cover : (int * int32) list;  (** sorted strictly ascending, non-empty *)
  rc_new_edges : int;  (** edges of [rc_cover] that were new when recorded *)
  rc_round : int;  (** engine round that executed the seed *)
  rc_shard : int * int;  (** producing campaign's shard slice (i, N) *)
  rc_seed : int64;  (** producing campaign's engine root RNG seed *)
  rc_rounds : int;  (** producing campaign's engine round budget *)
  rc_solver : Solver.stats;  (** producing run's solver counters *)
  rc_solver_budget : int;
      (** producing run's final (adaptively retuned) conflict budget *)
}

val line_of_record : record -> string
(** Single-line record, no trailing newline. *)

val record_of_line : string -> (record, string) result
(** Strict inverse of {!line_of_record}: wrong magic, wrong field count,
    unsorted cover, a signature that does not match the cover, unknown
    value tags and unparseable numbers all reject with a reason. *)

exception Malformed of string
(** Raised by {!load}; the message carries path, 1-based line number and
    reason. *)

(** An in-memory corpus: records plus a (target, signature) index. *)
type t

val create : unit -> t
val size : t -> int

val add : t -> record -> bool
(** Dedupe-on-insert: [false] (and no change) when a record with the
    same (target, signature) pair is already present. *)

val mem : t -> target:string -> int64 -> bool

val records : t -> record list
(** All records in canonical (target, action, signature) order. *)

val targets : t -> string list
(** Distinct target names, sorted. *)

val records_for : t -> target:string -> record list

val preload : t -> target:string -> (Name.t * Abi.value list) list
(** The seed vectors to inject into an engine run for [target]
    ({!Wasai_core} [Engine.config.cfg_preload]), in canonical order —
    the same list for the same corpus contents, however they were
    appended and wherever they are loaded. *)

val load : string -> t
(** Parse a corpus file, deduplicating as it goes (re-appended
    duplicates collapse silently).  Raises {!Malformed} on any bad
    complete line and [Sys_error] if the file cannot be read; an
    unterminated final line is skipped. *)

val save : t -> string -> unit
(** Write the canonical form: records in canonical order, temp file +
    fsync + atomic rename, so a crash never leaves a half-written
    corpus. *)

val minimize : t -> t
(** Greedy set-cover minimisation, per target: keep a subset of seeds
    whose covers union to the same edge set, repeatedly taking the seed
    that covers the most still-uncovered edges (ties broken by canonical
    order; deterministic).  Redundant seeds — every edge already covered
    by the kept set — are dropped. *)

val edge_union : record list -> int
(** Distinct branch edges covered by the union of the records' covers
    (meaningful within one target, where site indices share a module). *)

val stats_text : t -> string
(** Summary plus one line per target (seeds, distinct actions, distinct
    edges), canonically ordered. *)
