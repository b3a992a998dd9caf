(** The streaming oracle layer: vulnerability detectors as instances of
    oracle definitions instead of hardcoded scanner arms.

    An oracle {e definition} names a vulnerability class (flag) and
    knows how to instantiate a per-session {e instance} against one
    contract's environment (instrumentation metadata, resolved host-API
    ids, the adversary account names).  An instance streams over
    every executed payload's trace with a {!Trace.Cursor} and reports
    whether the exploit event occurred in that payload; the scanner
    harness makes the fire sticky and keeps the first firing payload as
    exploit evidence.

    Detectors match host calls through the EOSIO host-API name groups
    below, resolved once per contract to function-import indices. *)

module Wasm = Wasai_wasm
module Trace = Wasai_wasabi.Trace
module Cursor = Trace.Cursor
open Wasai_eosio

(* ------------------------------------------------------------------ *)
(* Channels                                                            *)
(* ------------------------------------------------------------------ *)

(** How the payload reached the contract (the §2.3 adversary oracles). *)
type channel =
  | Ch_genuine  (** real EOS via eosio.token *)
  | Ch_direct  (** eosponser invoked directly with a forged action *)
  | Ch_fake_token  (** EOS issued by an attacker token contract *)
  | Ch_fake_notif  (** notification forwarded by an agent contract *)
  | Ch_action of Name.t  (** ordinary action push *)

let string_of_channel = function
  | Ch_genuine -> "genuine"
  | Ch_direct -> "direct"
  | Ch_fake_token -> "fake-token"
  | Ch_fake_notif -> "fake-notif"
  | Ch_action a -> "action:" ^ Name.to_string a

let channel_of_string = function
  | "genuine" -> Some Ch_genuine
  | "direct" -> Some Ch_direct
  | "fake-token" -> Some Ch_fake_token
  | "fake-notif" -> Some Ch_fake_notif
  | s when String.length s > 7 && String.sub s 0 7 = "action:" -> (
      match Name.of_string (String.sub s 7 (String.length s - 7)) with
      | n -> Some (Ch_action n)
      | exception Invalid_argument _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

(** Vulnerability classes.  The first five are the paper's §3.5 set;
    the rest grow the class set from related work (WACANA state I/O,
    EVulHunter dispatcher confusion, He et al. asset overflow). *)
type flag =
  | Fake_eos
  | Fake_notif
  | Miss_auth
  | Blockinfo_dep
  | Rollback
  | State_io
  | Fake_transfer
  | Asset_overflow

(* The split matters to the journal: legacy flags are always written
   (fixed order), extension flags only when fired — which keeps legacy
   contracts' journal lines byte-identical to pre-extension builds. *)
let legacy_flags = [ Fake_eos; Fake_notif; Miss_auth; Blockinfo_dep; Rollback ]
let extension_flags = [ State_io; Fake_transfer; Asset_overflow ]
let all_flags = legacy_flags @ extension_flags

let string_of_flag = function
  | Fake_eos -> "FakeEOS"
  | Fake_notif -> "FakeNotif"
  | Miss_auth -> "MissAuth"
  | Blockinfo_dep -> "BlockinfoDep"
  | Rollback -> "Rollback"
  | State_io -> "StateIo"
  | Fake_transfer -> "FakeTransfer"
  | Asset_overflow -> "AssetOverflow"

let flag_of_string s = List.find_opt (fun f -> string_of_flag f = s) all_flags

(* ------------------------------------------------------------------ *)
(* Environment and instances                                           *)
(* ------------------------------------------------------------------ *)

(** The host-API name groups resolved to function-import indices of one
    instrumented contract (absent imports drop out). *)
type host_ids = {
  hi_auth : int list;
  hi_state_writes : int list;
  hi_inline_send : int list;
  hi_blockinfo : int list;
  hi_effects : int list;  (** [hi_inline_send @ hi_state_writes] *)
}

(** Everything an oracle instance may close over, resolved once per
    fuzzing session. *)
type env = {
  en_meta : Trace.meta;
  en_func_imports : int;
      (** function imports of the instrumented module: a call to an
          index below it calls the host *)
  en_ids : host_ids;
  en_victim : Name.t;
  en_fake_notif_agent : Name.t;
  en_fake_token : Name.t;
}

(** Per-payload facts the harness computes once and shares with every
    instance (the eosponser identification of §3.5 is stateful and
    lives in the scanner). *)
type ctx = { cx_channel : channel; cx_eosponser_ran : bool }

(** A live detector for one fuzzing session.  [oi_step] is called on
    {e every} executed payload — even after the detector fired — so
    detectors with exculpatory state (Fake_notif's guard detection)
    keep accumulating; it returns [true] when the exploit event
    occurred in this payload.  [oi_verdict] turns the sticky fire into
    the session verdict (identity for most detectors). *)
type instance = {
  oi_name : string;
  oi_flag : flag;
  oi_step : ctx -> Cursor.t -> bool;
  oi_verdict : fired:bool -> bool;
}

(** An oracle: a named constructor of instances. *)
type def = { od_name : string; od_flag : flag; od_make : env -> instance }

(* The EOSIO host API of the paper's §3.5 detectors: permission checks,
   persistent state writes, inline action dispatch (the rollback
   vector), and block information an adversary can bias.  Visible
   effects — what MissAuth protects — are the sends and the writes. *)
let auth_apis = [ "require_auth"; "require_auth2"; "has_auth" ]
let state_write_apis = [ "db_store_i64"; "db_update_i64"; "db_remove_i64" ]
let inline_send_apis = [ "send_inline" ]
let blockinfo_apis = [ "tapos_block_prefix"; "tapos_block_num" ]
let effect_apis = inline_send_apis @ state_write_apis

let resolve_ids (meta : Trace.meta) : host_ids =
  let ids names = List.filter_map (Trace.find_env_import meta) names in
  {
    hi_auth = ids auth_apis;
    hi_state_writes = ids state_write_apis;
    hi_inline_send = ids inline_send_apis;
    hi_blockinfo = ids blockinfo_apis;
    hi_effects = ids effect_apis;
  }

let make_env ~(meta : Trace.meta) ~(victim : Name.t)
    ~(fake_notif_agent : Name.t) ~(fake_token : Name.t) () : env =
  {
    en_meta = meta;
    en_func_imports = Wasm.Ast.num_func_imports meta.Trace.instrumented;
    en_ids = resolve_ids meta;
    en_victim = victim;
    en_fake_notif_agent = fake_notif_agent;
    en_fake_token = fake_token;
  }

(* ------------------------------------------------------------------ *)
(* Cursor-level matching helpers                                       *)
(* ------------------------------------------------------------------ *)

(* Import function called by the event under the cursor, if it is a
   call_pre into the import section. *)
let called_import (env : env) (c : Cursor.t) : int option =
  match Cursor.kind c with
  | Trace.Buffer.K_call_pre -> (
      match (Trace.site_of env.en_meta (Cursor.label c)).Trace.site_instr with
      | Wasm.Ast.Call fi when fi < env.en_func_imports -> Some fi
      | _ -> None)
  | _ -> None

(** Stream the cursor to the end, answering whether any call_pre event
    targets one of [ids]. *)
let calls_any (env : env) (c : Cursor.t) (ids : int list) : bool =
  let rec go () =
    (not (Cursor.at_end c))
    && ((match called_import env c with
         | Some fi -> List.mem fi ids
         | None -> false)
       ||
       (Cursor.advance c;
        go ()))
  in
  ids <> [] && go ()

(* Does any instruction event compare exactly the i64 pair {x, y}?
   Besides i64.eq/ne this matches the xor/sub forms that
   comparison-encoding obfuscation rewrites to — the Listing-2 guard
   matcher, generalised to any pair. *)
let i64_pair_compared (meta : Trace.meta) (c : Cursor.t) (x : int64) (y : int64)
    : bool =
  let rec go () =
    (not (Cursor.at_end c))
    && ((Cursor.kind c = Trace.Buffer.K_instr
         && Cursor.op_count c = 2
         && Cursor.op_is_i64 c 0 && Cursor.op_is_i64 c 1
         && (match (Trace.site_of meta (Cursor.label c)).Trace.site_instr with
             | Wasm.Ast.Int_compare (Wasm.Types.I64, (Wasm.Ast.Eq | Wasm.Ast.Ne))
             | Wasm.Ast.Int_binary (Wasm.Types.I64, (Wasm.Ast.Xor | Wasm.Ast.Sub))
               ->
                 let a = Cursor.op_bits c 0 and b = Cursor.op_bits c 1 in
                 (Int64.equal a x && Int64.equal b y)
                 || (Int64.equal a y && Int64.equal b x)
             | _ -> false))
       ||
       (Cursor.advance c;
        go ()))
  in
  go ()

(* Signed 64-bit multiplication overflow on the recorded operands. *)
let i64_mul_overflows (a : int64) (b : int64) : bool =
  if Int64.equal a 0L || Int64.equal b 0L then false
  else if Int64.equal a Int64.min_int then not (Int64.equal b 1L)
  else if Int64.equal b Int64.min_int then not (Int64.equal a 1L)
  else not (Int64.equal (Int64.div (Int64.mul a b) b) a)

(* ------------------------------------------------------------------ *)
(* The builtin detectors                                               *)
(* ------------------------------------------------------------------ *)

let stateless name flag step =
  {
    od_name = name;
    od_flag = flag;
    od_make =
      (fun env ->
        {
          oi_name = name;
          oi_flag = flag;
          oi_step = step env;
          oi_verdict = (fun ~fired -> fired);
        });
  }

(* FakeEOS (§3.5): the action function identified on the genuine channel
   also ran for a forged direct invocation or a counterfeit token's
   notification. *)
let fake_eos_def =
  stateless "fake-eos" Fake_eos (fun _env ctx _cur ->
      match ctx.cx_channel with
      | Ch_direct | Ch_fake_token -> ctx.cx_eosponser_ran
      | _ -> false)

(* FakeNotif (§3.5): the action function ran for a forwarded
   notification, and no payload ever evaluated the Listing-2
   [to == _self] guard (observing the guard anywhere exculpates). *)
let fake_notif_def =
  {
    od_name = "fake-notif";
    od_flag = Fake_notif;
    od_make =
      (fun env ->
        let guard_seen = ref false in
        {
          oi_name = "fake-notif";
          oi_flag = Fake_notif;
          oi_step =
            (fun ctx cur ->
              if
                i64_pair_compared env.en_meta cur env.en_fake_notif_agent
                  env.en_victim
              then guard_seen := true;
              match ctx.cx_channel with
              | Ch_fake_notif -> ctx.cx_eosponser_ran
              | _ -> false);
          oi_verdict = (fun ~fired -> fired && not !guard_seen);
        });
  }

(* MissAuth (§3.5): an effect API invoked with no permission API
   anywhere before it in the execution chain. *)
let miss_auth_def =
  stateless "miss-auth" Miss_auth (fun env _ctx cur ->
      let auth = env.en_ids.hi_auth and effects = env.en_ids.hi_effects in
      let seen_auth = ref false in
      let hit = ref false in
      while not (Cursor.at_end cur) do
        (match called_import env cur with
         | Some fi ->
             if List.mem fi auth then seen_auth := true
             else if (not !seen_auth) && List.mem fi effects then hit := true
         | None -> ());
        Cursor.advance cur
      done;
      !hit)

(* BlockinfoDep (§3.5): the payout path reads adversary-biasable block
   information. *)
let blockinfo_def =
  stateless "blockinfo-dep" Blockinfo_dep (fun env _ctx cur ->
      calls_any env cur env.en_ids.hi_blockinfo)

(* Rollback (§3.5): an inline action carries the payout, so a reverting
   caller can roll the bet back. *)
let rollback_def =
  stateless "rollback" Rollback (fun env _ctx cur ->
      calls_any env cur env.en_ids.hi_inline_send)

(* StateIo (WACANA's on-chain data vulnerabilities): persistent state
   written while handling a forged payload — the contract trusted
   attacker-controlled input enough to commit it.  Genuine transfers and
   ordinary actions are allowed to write. *)
let state_io_def =
  stateless "state-io" State_io (fun env ctx cur ->
      match ctx.cx_channel with
      | Ch_direct | Ch_fake_token | Ch_fake_notif ->
          calls_any env cur env.en_ids.hi_state_writes
      | Ch_genuine | Ch_action _ -> false)

(* FakeTransfer (EVulHunter's dispatcher-confusion variants): the
   dispatcher *did* compare the acting code against the real token
   contract, yet the action function still ran for the forged payload —
   the comparison exists but is wired wrong (e.g. OR-ed with a
   same-contract escape hatch).  Distinguished from FakeEOS, where the
   guard comparison is missing outright. *)
let fake_transfer_def =
  stateless "fake-transfer" Fake_transfer (fun env ctx cur ->
      let code =
        match ctx.cx_channel with
        | Ch_direct -> Some env.en_victim
        | Ch_fake_token -> Some env.en_fake_token
        | _ -> None
      in
      match code with
      | Some code ->
          ctx.cx_eosponser_ran
          && i64_pair_compared env.en_meta cur code Name.eosio_token
      | None -> false)

(* AssetOverflow (He et al.'s asset-arithmetic overflows): a 64-bit
   multiplication whose recorded operands overflow signed range —
   asset amounts silently wrap, so payouts can be inflated or balance
   checks bypassed.  Any channel: a genuine bet can trigger it too. *)
let asset_overflow_def =
  stateless "asset-overflow" Asset_overflow (fun env _ctx cur ->
      let meta = env.en_meta in
      let rec go () =
        (not (Cursor.at_end cur))
        && ((Cursor.kind cur = Trace.Buffer.K_instr
             && Cursor.op_count cur = 2
             && Cursor.op_is_i64 cur 0 && Cursor.op_is_i64 cur 1
             && (match (Trace.site_of meta (Cursor.label cur)).Trace.site_instr with
                 | Wasm.Ast.Int_binary (Wasm.Types.I64, Wasm.Ast.Mul) ->
                     i64_mul_overflows (Cursor.op_bits cur 0)
                       (Cursor.op_bits cur 1)
                 | _ -> false))
           ||
           (Cursor.advance cur;
            go ()))
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

let builtins : def list =
  [
    fake_eos_def;
    fake_notif_def;
    miss_auth_def;
    blockinfo_def;
    rollback_def;
    state_io_def;
    fake_transfer_def;
    asset_overflow_def;
  ]

let instantiate ~(meta : Trace.meta) ~(victim : Name.t)
    ~(fake_notif_agent : Name.t) ~(fake_token : Name.t) () : instance list =
  let env = make_env ~meta ~victim ~fake_notif_agent ~fake_token () in
  List.map (fun d -> d.od_make env) builtins
