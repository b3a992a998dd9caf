(** Symbolic trace replay: lift the runtime trace to symbolic machine
    states following the operational semantics of the paper's Table 3.

    Replay starts at the action function (skipping the dispatcher); loads
    and stores use concrete addresses from the trace; every executed
    conditional (br_if / if / br_table / eosio_assert) is recorded with
    its as-taken symbolic condition. *)

module Expr = Wasai_smt.Expr
module Trace = Wasai_wasabi.Trace

type cond_kind = K_branch | K_assert | K_brtable

type cond_state = {
  cs_site : int;  (** instruction site, or -1 for asserts *)
  cs_cond : Expr.t;  (** width-1 condition as taken on this path *)
  cs_taken : bool;
  cs_kind : cond_kind;
}

type result = {
  r_path : cond_state list;  (** in execution order *)
  r_inputs : Convention.inputs;  (** the inputs the path is stated over *)
  r_imprecise : int;  (** stack-underflow fallbacks (0 on healthy traces) *)
}

val run :
  inputs:Convention.inputs ->
  meta:Trace.meta ->
  target_funcs:int list ->
  Trace.Buffer.t ->
  result option
(** Replay a trace buffer from the action function's entry: the first
    call_pre into one of [target_funcs] carrying at least the action's
    arguments plus the receiver, whose concrete arguments bind [inputs]
    ({!Convention.bind}).  [None] when no call matches.  The buffer is
    only read, never mutated.  Every call replays afresh; {!Memo.run}
    replays each distinct region once. *)

(** One replay per distinct trace region.

    A replay reads only the region from its entry call_pre to the end
    of the buffer ({!Trace.Buffer.region_hash}), so two payloads whose
    regions are equal replay, over the same inputs, to the same path up
    to the fresh variables the replay mints (unknown locals and globals,
    floats, unresolved loads and memory, stack underflow).  A memo
    belongs to one engine session.  Each entry is tied to the inputs
    record its result is stated over, so a result never serves another
    inputs record.  A hit returns the first replay's result itself: the
    same [r_path] nodes, fresh variables included, and the same
    [r_imprecise].

    The region copies live in the memo's arena, at most 32,768 words;
    once full, a memo still answers from what it holds and stores
    nothing more.  {!Memo.release} hands the arena to the calling
    domain, whose next {!Memo.create} takes it over, so the sessions of
    a domain reuse one arena.

    Each entry also holds one note of type ['a] for its caller, which
    the engine uses to keep the last flip outcome of the entry's result
    ({!Flip.solve_memo}). *)
module Memo : sig
  type 'a t

  type 'a entry
  (** A replay's result and its note. *)

  val create : unit -> 'a t
  (** An empty memo.  It takes over the arena of the memo the calling
      domain last released, if any. *)

  val release : 'a t -> unit
  (** Empty the memo and hand its arena to the calling domain for its
      next {!create}.  A released memo that is used again starts a new
      arena.  The caller must hold no other use of the memo. *)

  val run :
    'a t ->
    inputs:Convention.inputs ->
    meta:Trace.meta ->
    target_funcs:int list ->
    Trace.Buffer.t ->
    'a entry option
  (** {!run}, answered from the memo when an earlier call over the same
      inputs record replayed an equal region (a hash match that does not
      compare equal is a miss): then the entry is the one that call
      returned, note included.  A miss returns the entry it stores,
      with no note.  A truncated trace, or a miss once the memo is full,
      is replayed into an entry the memo does not hold: its note starts
      empty and no later call sees it.  [meta] and [target_funcs] must
      be the same on every call, as they are within one engine
      session. *)

  val result : 'a entry -> result
  val note : 'a entry -> 'a option

  val set_note : 'a entry -> 'a -> unit
  (** Replace the entry's note. *)
end
