(** The WASAI engine: Algorithm 1 of the paper.

    Per fuzzing target: instrument the bytecode, boot a local chain with
    the auxiliary contracts the adversary oracles need, then loop: select
    a seed honouring transaction dependencies, deliver it through the
    adversary channels, capture the trace, feed the scanner, replay the
    trace symbolically and solve flipped branch constraints into adaptive
    seeds. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi
module Solver = Wasai_smt.Solver
open Wasai_eosio

type config = {
  cfg_rounds : int;  (** iteration budget (stands in for the 5-min timeout) *)
  cfg_time_limit : float option;
      (** optional wall-clock cap in seconds (the paper's per-contract
          timeout); whichever of rounds/time runs out first stops the loop *)
  cfg_rng_seed : int64;
      (** root seed; the per-target RNG is seeded from
          [Rand.mix cfg_rng_seed tgt_account], see {!fuzz} *)
  cfg_solver_budget : int;  (** SAT conflicts (stands in for 3,000 ms) *)
  cfg_max_flips : int;  (** solved branches per execution *)
  cfg_fuel : int;
  cfg_feedback : bool;  (** symbolic feedback (off = blind fuzzing) *)
  cfg_preload : (Name.t * Abi.value list) list;
      (** corpus seeds injected into the pool before fresh generation, at
          fresh (adaptive) priority.  Vectors that do not type-check
          against the target's ABI are skipped.  Preloading consumes no
          randomness, so a warm run draws exactly the random seeds a cold
          run would. *)
  cfg_backend : Exec_backend.choice;
      (** execution tier for the target's instrumented module; the
          determinism contract makes the choice invisible in every
          outcome field (default [Auto], the compiled tier with
          per-opcode interpreter fallback) *)
}

val default_config : config

(** Typed validation failures of {!make_config}. *)
type config_error =
  | Bad_rounds of int
  | Bad_time_limit of float
  | Bad_solver_budget of int
  | Bad_max_flips of int
  | Bad_fuel of int
  | Bad_preload

exception Invalid_config of config_error

val string_of_config_error : config_error -> string

val make_config :
  ?rounds:int ->
  ?time_limit:float ->
  ?rng_seed:int64 ->
  ?solver_budget:int ->
  ?max_flips:int ->
  ?fuel:int ->
  ?feedback:bool ->
  ?preload:(Name.t * Abi.value list) list ->
  ?backend:Exec_backend.choice ->
  unit ->
  config
(** Validating constructor over {!default_config}: raises
    {!Invalid_config} when a knob is nonsensical — [rounds], [fuel],
    [solver_budget] or [max_flips] below 1, a non-positive
    [time_limit], or an explicit [preload] with no seeds (a warm-corpus
    run that would silently fuzz cold).  Every CLI/bench/test entry
    point builds its config here so bad knobs fail loudly at startup
    instead of producing a silently-degenerate run. *)

type target = {
  tgt_account : Name.t;
  tgt_module : Wasm.Ast.module_;
  tgt_abi : Abi.t;
}

(** A seed whose executions explored at least one previously-uncovered
    branch edge — the unit a persistent corpus stores. *)
type interesting = {
  is_round : int;  (** round that executed it *)
  is_action : Name.t;
  is_args : Abi.value list;
  is_cover : (int * int32) list;
      (** every (site, direction) edge its executions touched, sorted *)
  is_signature : int64;  (** [Wasabi.Trace.edge_signature is_cover] *)
  is_new_edges : int;  (** edges of [is_cover] that were new *)
}

type outcome = {
  out_flags : (Scanner.flag * bool) list;
  out_custom : (string * bool) list;  (** verdicts of registered custom oracles *)
  out_exploits : (Scanner.flag * Scanner.evidence) list;
      (** the exploit payload behind every positive verdict *)
  out_branches : int;  (** distinct (site, direction) pairs explored *)
  out_timeline : (int * float * int) list;
      (** (round, elapsed seconds, cumulative branches) *)
  out_rounds : int;
  out_seeds_total : int;
  out_adaptive_seeds : int;
  out_transactions : int;
  out_solver_sat : int;
  out_imprecise : int;
  out_solver : Solver.stats;
      (** per-run solver counters (quick-path / blasted / unknown /
          queries) from the run's solver session *)
  out_interesting : interesting list;
      (** coverage-advancing seeds in discovery order; their covers union
          to the run's final branch set, so replaying them reproduces the
          run's coverage *)
  out_verdict_round : int;
      (** 1-based round after which the final fired-verdict set was
          complete (0 when nothing ever fired) — the convergence metric
          the corpus benchmark compares warm vs cold *)
  out_final_budget : int;
      (** the solver conflict budget after per-round adaptive retuning:
          halved (floored at 1/16 of [cfg_solver_budget]) on rounds
          producing new Unknowns, doubled (capped at 4x) on rounds whose
          fresh-seed queue drained early; equals [cfg_solver_budget]
          when [cfg_feedback] is off *)
  out_truncated : int;
      (** payloads whose trace hit the collector's event limit and was
          cut short; 0 on healthy targets — reports print a warning when
          positive, since verdicts over truncated traces are
          best-effort *)
  out_first_truncated : (int * Name.t) option;
      (** the first such payload, as (1-based transaction ordinal,
          action name) — lets the campaign's per-target warning name a
          concrete offender without logging every truncation *)
}

(** Well-known session accounts. *)

val attacker : Name.t
val player_one : Name.t
val player_two : Name.t
val treasury : Name.t
val fake_token : Name.t
val fake_notif : Name.t

val funding : int64
(** Per-identity balance, restored before every payload. *)

(** Fuzzing session state; exposed so the baselines can reuse the harness
    (EOSFuzzer shares the chain setup and the coverage accounting). *)
type session = {
  cfg : config;
  target : target;
  chain : Chain.t;
  collector : Wasabi.Trace.t;
  meta : Wasabi.Trace.meta;
  scanner : Scanner.t;
  dbg : Dbg.t;
  pool : Seed.pool;
  rng : Wasai_support.Rand.t;
  identities : Name.t list;
  branches : (int * int32, unit) Hashtbl.t;
  solver : Solver.Session.t;
      (** the run's solver session: budget and counters; confined to
          this run's domain, whose SAT arena its blasts reuse *)
  inputs : Wasai_symbolic.Convention.inputs list;
      (** each ABI action's symbolic inputs, minted after [solver] and
          shared, with the state built from them, by every payload of
          the action in this run *)
  replays : Wasai_symbolic.Flip.outcome Wasai_symbolic.Replay.Memo.t;
      (** this run's replay memo: each distinct trace region is replayed
          once per action's inputs, and each entry keeps the last flip
          outcome of its result *)
  exec_stage : Wasai_telemetry.Telemetry.stage;
      (** the telemetry stage payload execution is attributed to — fixed
          per session by the resolved execution backend *)
  release_exec : unit -> unit;
      (** hands the execution tier's pooled linear memory to the
          domain's spare ({!Exec_backend.install}); {!fuzz} calls it when
          the run ends *)
  mutable adaptive_seeds : int;
  mutable transactions : int;
  mutable solver_sat : int;
  mutable imprecise : int;
  mutable truncated_payloads : int;
      (** payloads whose trace hit the collector limit *)
  mutable first_truncated : (int * Name.t) option;
      (** (transaction ordinal, action) of the first truncated payload *)
  mutable current_action : Name.t;
  db_find_import : int option;
  seen_seeds : (string, unit) Hashtbl.t;
}

val setup : config -> target -> session
(** Instrument, deploy and boot the local chain with the adversary
    auxiliaries (token, fake token, forwarding agent).  The session's
    RNG is the per-target stream [Rand.mix cfg_rng_seed tgt_account].

    The first [setup] on a domain raises that domain's minor heap to at
    least 1M words (8 MiB), a nursery that holds a whole target's
    allocation, so what a target keeps alive dies there instead of being
    promoted to the major heap.  It never lowers a larger size (from
    [OCAMLRUNPARAM=s=] or the caller's [Gc.set]), and later setups on
    the domain leave the size alone.  [Gc.set] resizes only the calling
    domain, and a domain spawned later starts at the runtime default,
    so every fuzzing domain (campaign and serve workers, the EOSFuzzer
    baseline) raises its own here.  No outcome depends on the size. *)

val payload : session -> Seed.t -> Scanner.channel -> Action.t * Abi.value list
(** The action pushed for a seed on a channel, plus the argument vector
    the victim's action function actually observes. *)

(** Everything the engine extracts from one payload's trace, computed in
    a single streaming pass over the event buffer (formerly four
    independent list walks). *)
type scan = {
  sc_edges : (int * int32) list;
      (** (site, direction) edges in trace order, duplicates preserved *)
  sc_executed : int list;  (** function ids that began execution, in order *)
  sc_read_missed : int64 option;
      (** last table a db_find probed and missed (end iterator) *)
  sc_read_hit : int64 option;  (** last table a db_find probed and hit *)
}

val scan_trace :
  meta:Wasabi.Trace.meta -> ?db_find:int -> Wasabi.Trace.Buffer.t -> scan
(** Pure fused pass over a trace buffer; [db_find] is the absolute
    import index of [env.db_find_i64] when the contract imports it.
    Equivalent to — and property-tested against — the historical
    separate list passes. *)

(** One payload's execution.  [ex_trace] aliases the session collector:
    read it before the next {!run_one}, which resets it. *)
type execution = {
  ex_result : Chain.tx_result;
  ex_trace : Wasabi.Trace.Buffer.t;
  ex_scan : scan;
  ex_observed : Abi.value list;
}

val run_one : session -> Seed.t -> Scanner.channel -> execution
(** Execute one payload: replenish balances, push, scan the trace once,
    feed the scanner and the coverage/DBG accounting. *)

val fuzz :
  ?cfg:config ->
  ?oracles:(Wasabi.Trace.meta -> Scanner.custom_oracle list) ->
  target ->
  outcome
(** Fuzz one contract to completion; [oracles] builds additional
    detectors from the instrumentation metadata (the §5 extension
    interface).  However the run ends, its pooled linear memory
    ([release_exec]), its collector's arrays ({!Wasabi.Trace.release})
    and its replay memo's arena go to the domain's spares, which the
    next target on the domain takes over.

    Determinism contract: given a fixed [cfg] (with [cfg_time_limit =
    None]) and a fixed target, every field of the outcome except
    [out_timeline]'s elapsed-seconds component is a pure function of
    [(cfg_rng_seed, tgt_account, tgt_module, tgt_abi)].  The per-target
    RNG is seeded with [Rand.mix cfg_rng_seed tgt_account] — never from
    global or sequential state — so fuzzing many targets concurrently
    (e.g. the campaign orchestrator's domains) yields byte-identical
    verdicts to fuzzing them one after another, in any order. *)

val flagged : outcome -> Scanner.flag -> bool
val any_flagged : outcome -> bool
