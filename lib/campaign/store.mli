(** The durable evidence of one fleet or one serve tenant: a {!Journal}
    of completed targets and a seed corpus of the interesting seeds
    behind them, either of which may be absent.  Campaign runs and
    plans, the serve tenant registry and the serve offline reports all
    reach those files through this module:

    - {b Open policy.}  An absent or empty journal starts fresh and gets
      its header.  A journal holding any complete line is continued only
      with [resume], and only when its header and every entry's stamp
      match this run; without [resume] the open refuses.
    - {b Completion order.}  A target's corpus seeds reach disk before
      its journal line: a journaled target is never re-fuzzed on resume.
    - {b Torn tails.}  A final line without its newline was never
      acknowledged.  Readers skip it; opening a file for writing
      truncates it, fsyncs, and warns with the path and the bytes
      dropped.

    Not synchronised: callers serialise {!complete} under the one lock a
    completion takes. *)

module Core = Wasai_core
module Corpus = Wasai_corpus.Corpus

type t

val open_ :
  ?write:bool ->
  context:string ->
  resume:bool ->
  header:Journal.header ->
  stamp:Journal.stamp ->
  ?journal:string ->
  ?corpus:string ->
  unit ->
  t
(** Load and check the prior entries and seeds, and (with [write], the
    default) open both files for appending.  A read-only store (dry-run
    plans, offline reports) runs the same checks and writes nothing.
    Raises [Failure], prefixed with [context], when a non-empty journal
    is opened without [resume] (naming [--resume]) or was recorded
    under another backend, telemetry switch or stamp;
    {!Journal.Malformed} or {!Corpus.Malformed} on a complete line that
    does not parse. *)

val entries : t -> Journal.entry list
(** The journal's entries at open, in file order. *)

val find : t -> string -> Journal.entry option
(** The last entry journaled for a name, at open or by {!complete}. *)

val corpus : t -> Corpus.t
(** The corpus file's seeds at open, plus those {!complete} added. *)

val complete :
  t -> name:string -> elapsed:float -> Core.Engine.outcome -> Journal.entry * int
(** Dedupe the target's interesting seeds into {!corpus} and append the
    new ones (one fsync, in the [Corpus_io] span), then append its entry
    (in the [Journal_fsync] span).  Returns the entry and the number of
    new seeds.  A failed write raises [Failure "CONTEXT: PATH: reason"],
    naming the file, with [reason] from [Unix.error_message].  After a
    write fails, every later completion raises [Failure] too, so the
    files stay a state a crash could leave. *)

val close : t -> unit

val error_message : exn -> string
(** How campaign and serve report a failure: a [Failure]'s message bare
    (the store's are prefixed with their context), any other exception
    as [Printexc.to_string] gives it. *)
