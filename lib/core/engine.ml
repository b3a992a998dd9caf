(** The WASAI engine: Algorithm 1 of the paper.

    Per fuzzing target: instrument the bytecode, boot a local chain with
    the auxiliary contracts the adversary oracles need (the official
    token, an attacker token issuing fake "EOS", a notification-forwarding
    agent), then loop: select a seed honouring transaction dependencies,
    deliver it through a rotating adversary channel, capture the trace,
    feed the scanner, replay the trace symbolically and solve flipped
    branch constraints into adaptive seeds. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi
module Sym = Wasai_symbolic
module Solver = Wasai_smt.Solver
module Telemetry = Wasai_telemetry.Telemetry
open Wasai_eosio

type config = {
  cfg_rounds : int;  (** iteration budget, standing in for the 5-min timeout *)
  cfg_time_limit : float option;
      (** optional wall-clock cap in seconds (the paper's per-contract
          timeout); whichever of rounds/time runs out first stops the loop *)
  cfg_rng_seed : int64;
  cfg_solver_budget : int;  (** SAT conflicts, standing in for 3,000 ms *)
  cfg_max_flips : int;  (** solved branches per execution *)
  cfg_fuel : int;
  cfg_feedback : bool;  (** symbolic feedback (off = blind fuzzing ablation) *)
  cfg_preload : (Name.t * Abi.value list) list;
      (** corpus seeds injected into the pool before fresh generation *)
  cfg_backend : Exec_backend.choice;
      (** execution tier for the target's instrumented module *)
}

let default_config =
  {
    cfg_rounds = 60;
    cfg_time_limit = None;
    cfg_rng_seed = 1L;
    cfg_solver_budget = 20_000;
    cfg_max_flips = 6;
    cfg_fuel = 30_000_000;
    cfg_feedback = true;
    cfg_preload = [];
    cfg_backend = Exec_backend.Auto;
  }

type config_error =
  | Bad_rounds of int
  | Bad_time_limit of float
  | Bad_solver_budget of int
  | Bad_max_flips of int
  | Bad_fuel of int
  | Bad_preload

exception Invalid_config of config_error

let string_of_config_error = function
  | Bad_rounds n -> Printf.sprintf "cfg_rounds must be >= 1 (got %d)" n
  | Bad_time_limit t ->
      Printf.sprintf "cfg_time_limit must be > 0 (got %g)" t
  | Bad_solver_budget n ->
      Printf.sprintf "cfg_solver_budget must be >= 1 (got %d)" n
  | Bad_max_flips n -> Printf.sprintf "cfg_max_flips must be >= 1 (got %d)" n
  | Bad_fuel n -> Printf.sprintf "cfg_fuel must be >= 1 (got %d)" n
  | Bad_preload -> "cfg_preload given explicitly but holds no seeds"

(* Validating constructor: every CLI/bench/test entry point builds its
   config here so a nonsensical knob fails loudly at startup instead of
   producing a silently-degenerate run (0 rounds looks like "nothing
   vulnerable"; 0 fuel makes every payload an exhaustion). *)
let make_config ?(rounds = default_config.cfg_rounds) ?time_limit
    ?(rng_seed = default_config.cfg_rng_seed)
    ?(solver_budget = default_config.cfg_solver_budget)
    ?(max_flips = default_config.cfg_max_flips)
    ?(fuel = default_config.cfg_fuel)
    ?(feedback = default_config.cfg_feedback) ?preload
    ?(backend = default_config.cfg_backend) () =
  if rounds < 1 then raise (Invalid_config (Bad_rounds rounds));
  (match time_limit with
  | Some t when t <= 0.0 -> raise (Invalid_config (Bad_time_limit t))
  | _ -> ());
  if solver_budget < 1 then
    raise (Invalid_config (Bad_solver_budget solver_budget));
  if max_flips < 1 then raise (Invalid_config (Bad_max_flips max_flips));
  if fuel < 1 then raise (Invalid_config (Bad_fuel fuel));
  let preload =
    match preload with
    | None -> []
    | Some [] -> raise (Invalid_config Bad_preload)
    | Some seeds -> seeds
  in
  {
    cfg_rounds = rounds;
    cfg_time_limit = time_limit;
    cfg_rng_seed = rng_seed;
    cfg_solver_budget = solver_budget;
    cfg_max_flips = max_flips;
    cfg_fuel = fuel;
    cfg_feedback = feedback;
    cfg_preload = preload;
    cfg_backend = backend;
  }

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
      (** coverage-advancing seeds, in discovery order; their covers
          union to the final branch set (every edge was new exactly
          once, under the seed that introduced it) *)
  out_verdict_round : int;
      (** 1-based round after which the final verdict set was complete
          (0 when nothing ever fired) *)
  out_final_budget : int;
      (** the solver conflict budget after adaptive retuning *)
  out_truncated : int;
      (** payloads whose trace hit the collector limit and was cut
          short — verdicts over those traces are best-effort *)
  out_first_truncated : (int * Name.t) option;
      (** the first such payload: (1-based transaction ordinal, action) *)
}

(* Well-known session accounts. *)
let attacker = Name.of_string "attacker"
let player_one = Name.of_string "playerone"
let player_two = Name.of_string "playertwo"
let treasury = Name.of_string "treasury"
let fake_token = Name.of_string "fake.token"
let fake_notif = Name.of_string "fake.notif"

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
  inputs : Sym.Convention.inputs list;
      (** each ABI action's symbolic inputs and the state built from
          them, shared by all its payloads *)
  replays : Sym.Flip.outcome Sym.Replay.Memo.t;
      (** this run's replay memo: each distinct trace region is replayed
          once per action's inputs, and each entry keeps the last flip
          outcome of its result *)
  exec_stage : Telemetry.stage;
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
  mutable current_action : Name.t;  (** for DBG attribution *)
  db_find_import : int option;
  seen_seeds : (string, unit) Hashtbl.t;  (** dedup of generated argument vectors *)
}

(* The notification-forwarding agent of the Fake Notif oracle (§2.3.2):
   on a genuine eosio.token transfer notification it forwards the
   notification to the victim, with [code] still eosio.token. *)
let agent_apply ~victim (ctx : Chain.context) =
  if
    Name.equal ctx.Chain.ctx_code Name.eosio_token
    && Name.equal ctx.Chain.ctx_action.Action.act_name Name.transfer
    && Name.equal ctx.Chain.ctx_receiver fake_notif
  then Queue.add victim ctx.Chain.ctx_notify

(* Adversary identities are funded to the hilt so any positive payload
   amount the solver picks (below 2^61 units) can actually be paid —
   attackers on a test chain issue themselves arbitrary balances. *)
let funding = 0x1000_0000_0000_0000L (* 2^60 units each *)

(* The nursery policy of [setup] (engine.mli).  One target allocates
   about 150k–250k minor words: in the runtime's default 256k-word minor
   heap nearly every target met a collection in mid-life, which promoted
   all it keeps alive (instrumented module, compiled closures, symbolic
   inputs) only for it to die in the major heap.  Raised at a domain's
   first setup, not at process start, where a larger nursery slows
   start-up. *)
let nursery_words = 1 lsl 20 (* 8 MiB *)

let nursery_raised : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let raise_nursery () =
  let raised = Domain.DLS.get nursery_raised in
  if not !raised then begin
    raised := true;
    let gc = Gc.get () in
    if gc.Gc.minor_heap_size < nursery_words then
      Gc.set { gc with Gc.minor_heap_size = nursery_words }
  end

let setup (cfg : config) (target : target) : session =
  raise_nursery ();
  let chain = Host.create_chain ~fuel_per_action:cfg.cfg_fuel () in
  Token.bootstrap chain ~treasury ~supply:0x4000_0000_0000_0000L;
  List.iter
    (fun a -> ignore (Chain.create_account chain a))
    [ attacker; player_one; player_two; target.tgt_account; fake_token; fake_notif ];
  (* Fund the adversary identities and give the victim a working float so
     payouts can succeed (and sometimes overdraw). *)
  List.iter
    (fun owner ->
      let r =
        Chain.push_action chain
          (Token.transfer_action ~token:Name.eosio_token ~from:treasury ~to_:owner
             ~quantity:(Asset.eos_of_units funding) ~memo:"fund")
      in
      ignore r)
    [ attacker; player_one; player_two ];
  (* The victim is funded directly at the token table: transferring to it
     would already trigger its eosponser. *)
  Token.set_balance chain ~token:Name.eosio_token ~owner:target.tgt_account
    ~symbol:Asset.Symbol.eos 500_0000L;
  (* Attacker token issuing fake EOS. *)
  Token.deploy chain fake_token;
  ignore
    (Chain.push_action chain
       (Action.of_args ~account:fake_token ~name:(Name.of_string "create")
          ~args:
            [ Abi.V_name attacker; Abi.V_asset (Asset.eos_of_units 1_000_000_0000L) ]
          ~auth:[ fake_token ]));
  ignore
    (Chain.push_action chain
       (Action.of_args ~account:fake_token ~name:(Name.of_string "issue")
          ~args:
            [
              Abi.V_name attacker;
              Abi.V_asset (Asset.eos_of_units 1_000_000_0000L);
              Abi.V_string "";
            ]
          ~auth:[ attacker ]));
  (* Notification-forwarding agent. *)
  Chain.set_native chain fake_notif
    (agent_apply ~victim:target.tgt_account)
    { Abi.abi_actions = [] };
  (* The target enters through real bytecode: encoded, then decoded
     before instrumentation. *)
  let bin = Wasm.Encode.encode target.tgt_module in
  let t_instr = Telemetry.start () in
  let _, meta = Wasabi.Instrument.instrument (Wasm.Decode.decode bin) in
  Telemetry.stop Telemetry.Instrument t_instr;
  Chain.set_code chain target.tgt_account meta.Wasabi.Trace.instrumented
    target.tgt_abi;
  let collector = Wasabi.Trace.create () in
  Chain.register_extension chain
    (Wasabi.Instrument.runtime_extension collector ~target:target.tgt_account);
  (* The executor must be installed after [set_code] (deploying resets
     it).  The compiled tier binds the instrumentation hooks straight to
     the collector — sound here because only the target account gets the
     executor, and the receiver of every action reaching it is the
     target itself. *)
  let release_exec =
    Exec_backend.install cfg.cfg_backend ~collector chain target.tgt_account
      meta.Wasabi.Trace.instrumented
  in
  let scanner =
    Scanner.create ~meta ~victim:target.tgt_account
      ~fake_notif_agent:fake_notif ()
  in
  (* Determinism contract: the per-target RNG seed is derived from the
     pair (cfg_rng_seed, tgt_account) alone — never from global state or
     from how many targets ran before this one — so a campaign scheduled
     over N domains produces the same per-target verdicts as a serial
     run. *)
  let rng =
    Wasai_support.Rand.create
      (Wasai_support.Rand.mix cfg.cfg_rng_seed target.tgt_account)
  in
  let identities = [ attacker; player_one; player_two; target.tgt_account ] in
  let pool = Seed.create_pool () in
  (* Algorithm 1 line 2: fill seeds with random data. *)
  List.iter
    (fun (def : Abi.action_def) ->
      for _ = 1 to 3 do
        Seed.add pool (Seed.random rng ~identities def)
      done)
    target.tgt_abi.Abi.abi_actions;
  (* Corpus preloads ride on top of — never instead of — the random fill,
     and consume no randomness: a warm pool draws exactly the random
     values a cold pool would, which the warm-vs-cold determinism
     argument depends on. *)
  let preload = Hashtbl.create 16 in
  List.iter
    (fun ((action, args) : Name.t * Abi.value list) ->
      match Abi.find_action target.tgt_abi action with
      | Some def
        when List.map Abi.type_of_value args = List.map snd def.Abi.act_params
        ->
          (* Imported seeds take fresh priority.  The dedup table is local
             to the preload: feedback must stay free to re-derive one of
             these vectors later as an adaptive seed — a trace is a
             function of chain state (tables, block info), so the round-0
             replay does not subsume the original mid-run execution. *)
          let key = Name.to_string action ^ "/" ^ Abi.serialize args in
          if not (Hashtbl.mem preload key) then begin
            Hashtbl.replace preload key ();
            Seed.add pool
              { Seed.sd_action = action; sd_args = args;
                sd_provenance = Seed.Imported }
          end
      | _ ->
          (* A corpus can outlive an ABI: seeds for actions or signatures
             this target no longer has are skipped, not fatal. *)
          ())
    cfg.cfg_preload;
  (* One solver session per engine run: its budget and counters are
     confined to this target on this domain, and its blasts reuse the
     domain's SAT arena.  Creating it compacts the hash-cons table, so
     the inputs are minted after it: they, and everything built from
     them, are this session's own and never outlive it. *)
  let solver =
    Solver.Session.create ~conflict_budget:cfg.cfg_solver_budget ()
  in
  let inputs =
    List.map (Sym.Convention.inputs ~max_amount:funding)
      target.tgt_abi.Abi.abi_actions
  in
  let session =
    {
      cfg;
      target;
      chain;
      collector;
      meta;
      scanner;
      dbg = Dbg.create ();
      pool;
      rng;
      identities;
      branches = Hashtbl.create 256;
      solver;
      inputs;
      replays = Sym.Replay.Memo.create ();
      exec_stage =
        (match cfg.cfg_backend with
        | Exec_backend.Interp -> Telemetry.Exec_interp
        | Exec_backend.Auto -> Telemetry.Exec_compiled);
      release_exec;
      adaptive_seeds = 0;
      transactions = 0;
      solver_sat = 0;
      imprecise = 0;
      truncated_payloads = 0;
      first_truncated = None;
      current_action = Name.transfer;
      db_find_import = Wasabi.Trace.find_env_import meta "db_find_i64";
      (* Deliberately NOT seeded with the preload keys: if feedback
         re-derives a corpus vector mid-run, the re-execution happens
         against the chain state that made it interesting, which the
         round-0 replay cannot reproduce. *)
      seen_seeds = Hashtbl.create 64;
    }
  in
  (* DBG: attribute the victim's DB accesses to the executing action. *)
  chain.Chain.db.Database.on_access <-
    Some
      (fun acc ->
        if Name.equal acc.Database.acc_code target.tgt_account then
          Dbg.record_access session.dbg ~action:session.current_action acc);
  session

(* ------------------------------------------------------------------ *)
(* Payload construction per adversary channel                          *)
(* ------------------------------------------------------------------ *)

let seed_field_asset (args : Abi.value list) =
  match List.find_opt (function Abi.V_asset _ -> true | _ -> false) args with
  | Some (Abi.V_asset a) -> a
  | _ -> Asset.eos_of_units 100L

let seed_field_string (args : Abi.value list) =
  match List.find_opt (function Abi.V_string _ -> true | _ -> false) args with
  | Some (Abi.V_string s) -> s
  | _ -> ""

(** The action pushed for a seed on a channel, plus the argument vector the
    victim's action function actually observes (needed as the concretise
    fallback for feedback). *)
let payload (s : session) (seed : Seed.t) (channel : Scanner.channel) :
    Action.t * Abi.value list =
  let quantity = seed_field_asset seed.Seed.sd_args in
  let memo = seed_field_string seed.Seed.sd_args in
  match channel with
  | Scanner.Ch_genuine ->
      ( Token.transfer_action ~token:Name.eosio_token ~from:attacker
          ~to_:s.target.tgt_account ~quantity ~memo,
        [
          Abi.V_name attacker;
          Abi.V_name s.target.tgt_account;
          Abi.V_asset quantity;
          Abi.V_string memo;
        ] )
  | Scanner.Ch_fake_token ->
      ( Token.transfer_action ~token:fake_token ~from:attacker
          ~to_:s.target.tgt_account ~quantity ~memo,
        [
          Abi.V_name attacker;
          Abi.V_name s.target.tgt_account;
          Abi.V_asset quantity;
          Abi.V_string memo;
        ] )
  | Scanner.Ch_fake_notif ->
      ( Token.transfer_action ~token:Name.eosio_token ~from:attacker
          ~to_:fake_notif ~quantity ~memo,
        [
          Abi.V_name attacker;
          Abi.V_name fake_notif;
          Abi.V_asset quantity;
          Abi.V_string memo;
        ] )
  | Scanner.Ch_direct ->
      (* The attacker declares the forged action as whatever actor the
         seed's [from] names — trivial on a chain where they can create
         arbitrary accounts. *)
      let auth =
        match seed.Seed.sd_args with
        | Abi.V_name from :: _ -> from
        | _ -> attacker
      in
      ( Action.of_args ~account:s.target.tgt_account ~name:Name.transfer
          ~args:seed.Seed.sd_args ~auth:[ auth ],
        seed.Seed.sd_args )
  | Scanner.Ch_action name ->
      let auth =
        match
          List.find_opt (function Abi.V_name _ -> true | _ -> false)
            seed.Seed.sd_args
        with
        | Some (Abi.V_name n) -> n
        | _ -> attacker
      in
      ( Action.of_args ~account:s.target.tgt_account ~name ~args:seed.Seed.sd_args
          ~auth:[ auth ],
        seed.Seed.sd_args )

(* ------------------------------------------------------------------ *)
(* Fused streaming trace scan                                          *)
(* ------------------------------------------------------------------ *)

module B = Wasabi.Trace.Buffer

(** Everything the engine extracts from one payload's trace, computed in
    a single streaming pass over the event buffer (what used to be four
    independent list walks: branch edges, coverage, the db_find read-miss
    machine, and the scanner's executed-function chain). *)
type scan = {
  sc_edges : (int * int32) list;
      (** (site, direction) edges in trace order, duplicates preserved —
          the currency of the live coverage map and corpus signatures *)
  sc_executed : int list;  (** function ids that began execution, in order *)
  sc_read_missed : int64 option;
      (** last table a db_find probed and missed (end iterator) *)
  sc_read_hit : int64 option;  (** last table a db_find probed and hit *)
}

(* Pure: folds the buffer once.  [db_find] is the absolute import index
   of env.db_find_i64 when the contract imports it. *)
let scan_trace ~(meta : Wasabi.Trace.meta) ?db_find (buf : B.t) : scan =
  let n = B.length buf in
  let edges = ref [] and executed = ref [] in
  (* db_find read-miss machine: a call_pre into db_find arms [pending]
     with its event index; the matching call_post's single i32 result is
     the iterator (-1 = miss).  Last write wins, as in the list passes. *)
  let pending = ref (-1) in
  let missed = ref None and hit = ref None in
  for i = 0 to n - 1 do
    match B.kind buf i with
    | B.K_instr ->
        if B.op_count buf i = 1 && B.op_is_i32 buf i 0 then begin
          let site = B.label buf i in
          match (Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr with
          | Wasm.Ast.Br_if _ | Wasm.Ast.If _ ->
              let c = B.op_i32 buf i 0 in
              edges := (site, if c = 0l then 0l else 1l) :: !edges
          | Wasm.Ast.Br_table _ -> edges := (site, B.op_i32 buf i 0) :: !edges
          | _ -> ()
        end
    | B.K_call_pre -> (
        match db_find with
        | None -> ()
        | Some fi -> (
            match
              (Wasabi.Trace.site_of meta (B.label buf i)).Wasabi.Trace.site_instr
            with
            | Wasm.Ast.Call f when f = fi -> pending := i
            | _ -> pending := -1))
    | B.K_call_post ->
        if db_find <> None then begin
          (if !pending >= 0 && B.op_count buf i = 1 && B.op_is_i32 buf i 0 then
             let pre = !pending in
             (* args pattern [ _code; _scope; I64 table; _id ] *)
             if B.op_count buf pre = 4 && B.op_is_i64 buf pre 2 then begin
               let table = B.op_bits buf pre 2 in
               if B.op_i32 buf i 0 = -1l then missed := Some table
               else hit := Some table
             end);
          pending := -1
        end
    | B.K_func_begin -> executed := B.label buf i :: !executed
    | B.K_func_end -> ()
  done;
  {
    sc_edges = List.rev !edges;
    sc_executed = List.rev !executed;
    sc_read_missed = !missed;
    sc_read_hit = !hit;
  }

(* Fold one scan into the session: live coverage map plus the DBG
   read-miss signal driving transaction-dependency resolution. *)
let absorb_scan (s : session) (sc : scan) =
  List.iter (fun e -> Hashtbl.replace s.branches e ()) sc.sc_edges;
  (match sc.sc_read_missed with
   | Some table -> Dbg.record_read_miss s.dbg ~action:s.current_action table
   | None -> ());
  if sc.sc_read_missed = None && sc.sc_read_hit <> None then
    Dbg.clear_read_miss s.dbg ~action:s.current_action

(* ------------------------------------------------------------------ *)
(* One fuzzing execution                                                *)
(* ------------------------------------------------------------------ *)

(* Keep the harness stationary: adversary balances are restored before
   every payload (attackers on a local chain mint at will), and the victim
   keeps a fixed working float. *)
let replenish (s : session) =
  List.iter
    (fun owner ->
      Token.set_balance s.chain ~token:Name.eosio_token ~owner
        ~symbol:Asset.Symbol.eos funding)
    [ attacker; player_one; player_two ];
  Token.set_balance s.chain ~token:fake_token ~owner:attacker
    ~symbol:Asset.Symbol.eos funding;
  Token.set_balance s.chain ~token:Name.eosio_token ~owner:s.target.tgt_account
    ~symbol:Asset.Symbol.eos 500_0000L

(** One payload's execution: the transaction result, the trace buffer
    (an alias of the session collector — read it before the next
    [run_one], which resets it), its fused scan, and the argument vector
    the victim's action function observed. *)
type execution = {
  ex_result : Chain.tx_result;
  ex_trace : B.t;
  ex_scan : scan;
  ex_observed : Abi.value list;
}

let run_one (s : session) (seed : Seed.t) (channel : Scanner.channel) :
    execution =
  let action, observed_args = payload s seed channel in
  replenish s;
  s.current_action <- seed.Seed.sd_action;
  Wasabi.Trace.reset s.collector;
  (* One exec span per payload (not per export invocation): inline
     actions and notifications re-enter the contract within the same
     transaction, and nested spans would double-count the overlap. *)
  let t_exec = Telemetry.start () in
  let result = Chain.push_action s.chain action in
  s.transactions <- s.transactions + 1;
  (* Deferred transactions run right after, as the next block. *)
  ignore (Chain.run_deferred s.chain);
  Telemetry.stop s.exec_stage t_exec;
  let buf = s.collector in
  if B.truncated buf then begin
    s.truncated_payloads <- s.truncated_payloads + 1;
    if s.first_truncated = None then
      s.first_truncated <- Some (s.transactions, seed.Seed.sd_action)
  end;
  let t_scan = Telemetry.start () in
  let sc = scan_trace ~meta:s.meta ?db_find:s.db_find_import buf in
  Telemetry.stop Telemetry.Trace_scan t_scan;
  absorb_scan s sc;
  let t_oracle = Telemetry.start () in
  Scanner.observe ~payload:action ~executed:sc.sc_executed s.scanner ~channel
    buf;
  Telemetry.stop Telemetry.Oracle t_oracle;
  { ex_result = result; ex_trace = buf; ex_scan = sc; ex_observed = observed_args }

(* Symbolic feedback: replay, flip, solve, enqueue adaptive seeds. *)
let feedback (s : session) (seed : Seed.t) (buf : B.t)
    (observed_args : Abi.value list) =
  match
    List.find_opt
      (fun (i : Sym.Convention.inputs) ->
        Name.equal i.Sym.Convention.in_def.Abi.act_name seed.Seed.sd_action)
      s.inputs
  with
  | None -> ()
  | Some inputs -> (
      match
        Sym.Replay.Memo.run s.replays ~inputs ~meta:s.meta
          ~target_funcs:s.scanner.Scanner.action_candidates buf
      with
      | None -> ()
      | Some entry ->
          let result = Sym.Replay.Memo.result entry in
          s.imprecise <- s.imprecise + result.Sym.Replay.r_imprecise;
          (* Skip flips whose target branch direction is already
             covered: the coverage map doubles as frontier tracking.  It
             only grows, so its size names its contents. *)
          let skip (c : Sym.Flip.candidate) =
            match c.Sym.Flip.cand_flipped_dir with
            | Some dir ->
                Hashtbl.mem s.branches
                  (c.Sym.Flip.cand_site, if dir then 1l else 0l)
            | None -> false
          in
          let solved =
            Sym.Flip.solve_memo ~session:s.solver
              ~max_solved:s.cfg.cfg_max_flips ~skip
              ~coverage:(Hashtbl.length s.branches) entry
              ~current:observed_args
          in
          List.iter
            (fun (sol : Sym.Flip.solved_seed) ->
              s.solver_sat <- s.solver_sat + 1;
              let key =
                Name.to_string seed.Seed.sd_action ^ "/"
                ^ Abi.serialize sol.Sym.Flip.seed_args
              in
              if not (Hashtbl.mem s.seen_seeds key) then begin
                Hashtbl.replace s.seen_seeds key ();
                s.adaptive_seeds <- s.adaptive_seeds + 1;
                Seed.add s.pool
                  {
                    Seed.sd_action = seed.Seed.sd_action;
                    sd_args = sol.Sym.Flip.seed_args;
                    sd_provenance = Seed.Adaptive sol.Sym.Flip.seed_flipped_site;
                  }
              end)
            solved)

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)
(* ------------------------------------------------------------------ *)

let channels =
  [|
    Scanner.Ch_genuine; Scanner.Ch_direct; Scanner.Ch_fake_token;
    Scanner.Ch_fake_notif;
  |]

let fuzz_session ~(oracles : Wasabi.Trace.meta -> Scanner.custom_oracle list)
    (s : session) : outcome =
  let cfg = s.cfg and target = s.target in
  List.iter (Scanner.register_custom s.scanner) (oracles s.meta);
  let t0 = Unix.gettimeofday () in
  let timeline = ref [] in
  let actions = Array.of_list target.tgt_abi.Abi.abi_actions in
  let out_of_time () =
    match cfg.cfg_time_limit with
    | None -> false
    | Some limit -> Unix.gettimeofday () -. t0 >= limit
  in
  let rounds_run = ref 0 in
  (* Interesting-seed capture (the corpus feed) and verdict-round
     tracking.  Every input to either — traces, coverage, scanner state —
     is a deterministic function of the target, so both are too. *)
  let interesting = ref [] in
  let record_execution ~round (seed : Seed.t) chans =
    (* The coverage map grows only through this seed's scans, so its
       growth is the count of edges new to this run. *)
    let before = Hashtbl.length s.branches in
    let edges = ref [] (* each execution's edges *) in
    (* A corpus replay re-executes a prior run's transaction for its
       coverage and table effects; it must not shift this run's block
       clock, or every later trace that reads block info diverges from
       the trajectory the corpus was recorded on. *)
    let replayed = seed.Seed.sd_provenance = Seed.Imported in
    let saved_clock =
      if replayed then
        Some
          ( s.chain.Chain.block_num, s.chain.Chain.block_prefix,
            s.chain.Chain.head_time_us )
      else None
    in
    List.iter
      (fun channel ->
        let ex = run_one s seed channel in
        edges := ex.ex_scan.sc_edges :: !edges;
        (* Imported (corpus-replayed) seeds contribute coverage and chain
           state but no flip derivation: the producing run already paid
           the solver for every flip reachable from these traces, so
           re-deriving them here would only flood the pool with duplicate
           adaptive work. *)
        if cfg.cfg_feedback && not replayed then
          feedback s seed ex.ex_trace ex.ex_observed)
      chans;
    (match saved_clock with
     | Some (bn, bp, ht) ->
         s.chain.Chain.block_num <- bn;
         s.chain.Chain.block_prefix <- bp;
         s.chain.Chain.head_time_us <- ht
     | None -> ());
    let fresh = Hashtbl.length s.branches - before in
    if fresh > 0 then
      let cover = List.sort_uniq compare (List.concat !edges) in
      interesting :=
        {
          is_round = round;
          is_action = seed.Seed.sd_action;
          is_args = seed.Seed.sd_args;
          is_cover = cover;
          is_signature = Wasabi.Trace.edge_signature cover;
          is_new_edges = fresh;
        }
        :: !interesting
  in
  let verdict_round = ref 0 in
  let last_fired = ref ([], []) in
  (* Adaptive solver budget (per-target, hence deterministic): halve on a
     round that produced new Unknowns — this target's constraints are too
     hard to be worth full-price retries — and double (up to 4x the
     configured budget) on a round whose fresh-seed queue drained early,
     when there is slack to buy precision with. *)
  let min_budget = max 1 (cfg.cfg_solver_budget / 16) in
  let max_budget = cfg.cfg_solver_budget * 4 in
  let last_unknown = ref 0 in
  for round = 0 to cfg.cfg_rounds - 1 do
   if not (out_of_time ()) then begin
    incr rounds_run;
    (* Algorithm 1 line 4: select an action for transaction dependency. *)
    let def = actions.(round mod Array.length actions) in
    let phi = def.Abi.act_name in
    (* Resolve a pending dependency first: run a writer of the missed
       table before the blocked action. *)
    (match Dbg.dependency_for s.dbg phi with
     | Some writer when not (Name.equal writer phi) -> (
         (* Keep the writer's candidate queue alive with fresh random
            arguments: the blocked read's row id is unknown at table
            granularity, so resolution is by re-drawing, not by
            correlating parameters (§3.3.2, §5). *)
         (match Abi.find_action s.target.tgt_abi writer with
          | Some wdef ->
              Seed.add s.pool (Seed.random s.rng ~identities:s.identities wdef)
          | None -> ());
         match Seed.next s.pool writer with
         | Some wseed ->
             let ch =
               if Name.equal writer Name.transfer then Scanner.Ch_genuine
               else Scanner.Ch_action writer
             in
             record_execution ~round wseed [ ch ]
         | None -> ())
     | _ -> ());
    let seed =
      match Seed.next s.pool phi with
      | Some seed -> seed
      | None ->
          let seed = Seed.random s.rng ~identities:s.identities def in
          Seed.add s.pool seed;
          seed
    in
    (* Transfer seeds are delivered through every adversary channel (the
       §2.3 oracles all need their own payload transaction); other
       actions are pushed directly. *)
    let seed_channels =
      if Name.equal phi Name.transfer then Array.to_list channels
      else [ Scanner.Ch_action phi ]
    in
    let execute seed = record_execution ~round seed seed_channels in
    execute seed;
    (* Drain adaptive seeds eagerly: each was solved to open a specific
       branch and may unlock further flips this same round.  Imported
       (corpus-replayed) seeds are exempt from the cap: they cost no
       solver work, and counting them would starve this round's adaptive
       flips behind a large preload. *)
    let drained = ref 0 in
    let continue_ = ref true in
    while !continue_ && !drained < 16 do
      match Seed.take_fresh s.pool phi with
      | Some fresh ->
          (if fresh.Seed.sd_provenance <> Seed.Imported then incr drained);
          execute fresh
      | None -> continue_ := false
    done;
    (* Verdict-round bookkeeping: the reported round is the last one that
       changed the fired set, i.e. when the final verdicts were complete. *)
    let fired_now =
      ( List.filter snd (Scanner.report s.scanner),
        List.filter snd (Scanner.custom_report s.scanner) )
    in
    if fired_now <> !last_fired then begin
      last_fired := fired_now;
      verdict_round := round + 1
    end;
    (* Adaptive budget retune, gated on feedback (a blind run never
       consults the solver, so there is nothing to trade). *)
    if cfg.cfg_feedback then begin
      let st = Solver.Session.stats s.solver in
      let b = Solver.Session.conflict_budget s.solver in
      if st.Solver.st_unknown > !last_unknown then
        Solver.Session.set_conflict_budget s.solver (max min_budget (b / 2))
      else if !drained < 16 && b * 2 <= max_budget then
        Solver.Session.set_conflict_budget s.solver (b * 2);
      last_unknown := st.Solver.st_unknown
    end;
    timeline :=
      (round, Unix.gettimeofday () -. t0, Hashtbl.length s.branches) :: !timeline
   end
  done;
  let flags = Scanner.report s.scanner in
  {
    out_flags = flags;
    out_custom = Scanner.custom_report s.scanner;
    out_exploits =
      List.filter_map
        (fun (f, fired) ->
          if fired then
            Option.map (fun e -> (f, e)) (Scanner.evidence_for s.scanner f)
          else None)
        flags;
    out_branches = Hashtbl.length s.branches;
    out_timeline = List.rev !timeline;
    out_rounds = !rounds_run;
    out_seeds_total = Seed.total s.pool;
    out_adaptive_seeds = s.adaptive_seeds;
    out_transactions = s.transactions;
    out_solver_sat = s.solver_sat;
    out_imprecise = s.imprecise;
    out_solver = Solver.Session.stats s.solver;
    out_interesting = List.rev !interesting;
    out_verdict_round = !verdict_round;
    out_final_budget = Solver.Session.conflict_budget s.solver;
    out_truncated = s.truncated_payloads;
    out_first_truncated = s.first_truncated;
  }

(** Fuzz one contract to completion and report.  [oracles] builds
    additional detectors from the instrumentation metadata (the §5
    extension interface).  However the run ends, its pooled linear
    memory, its trace collector's arrays and its replay memo's arena go
    to the domain's spares for the next target. *)
let fuzz ?(cfg = default_config) ?(oracles = fun _ -> []) (target : target) :
    outcome =
  let s = setup cfg target in
  Fun.protect
    ~finally:(fun () ->
      s.release_exec ();
      Wasabi.Trace.release s.collector;
      Sym.Replay.Memo.release s.replays)
    (fun () -> fuzz_session ~oracles s)

let flagged (o : outcome) (f : Scanner.flag) : bool =
  match List.assoc_opt f o.out_flags with Some b -> b | None -> false

let any_flagged (o : outcome) = List.exists snd o.out_flags
