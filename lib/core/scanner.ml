(** The vulnerability scanner (§3.5): the trace oracles and the session
    harness that runs them over every executed payload.

    The scanner consumes the trace of every executed payload together
    with the delivery channel the Engine used (the adversary oracles of
    §2.3), identifies the eosponser action function from genuine
    transfers, and accumulates sticky per-flag fires plus first-fire
    exploit evidence across the whole fuzzing session.

    Every detector is a predicate over one payload's {!facts}, which one
    pass over its trace collects.  The pass matches host calls through
    the EOSIO host-API name groups below, resolved once per contract to
    function-import indices: every instrumented site is classified once,
    when the {!env} is made. *)

module Wasm = Wasai_wasm
module Trace = Wasai_wasabi.Trace
module B = Trace.Buffer
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

let oracle_name = function
  | Fake_eos -> "fake-eos"
  | Fake_notif -> "fake-notif"
  | Miss_auth -> "miss-auth"
  | Blockinfo_dep -> "blockinfo-dep"
  | Rollback -> "rollback"
  | State_io -> "state-io"
  | Fake_transfer -> "fake-transfer"
  | Asset_overflow -> "asset-overflow"

(* ------------------------------------------------------------------ *)
(* Site classification                                                 *)
(* ------------------------------------------------------------------ *)

(** The host-API name groups resolved to function-import indices of one
    instrumented contract (absent imports drop out). *)
type host_ids = {
  hi_auth : int list;
  hi_state_writes : int list;
  hi_inline_send : int list;
  hi_blockinfo : int list;
}

(** What a detector needs to know about one instrumented site: the
    host-API group a call into an import belongs to, or the i64
    instruction the pair and overflow facts read. *)
type site_class =
  | Site_other
  | Site_auth
  | Site_state_write
  | Site_inline_send
  | Site_blockinfo
  | Site_i64_compare  (** i64 [eq]/[ne], or the [xor]/[sub] forms *)
  | Site_i64_mul

(** What {!facts} reads a payload's trace with, resolved once per
    fuzzing session. *)
type env = {
  en_sites : site_class array;  (** site id -> class *)
  en_victim : Name.t;
  en_fake_notif_agent : Name.t;
  en_fake_token : Name.t;
}

(* The EOSIO host API of the paper's §3.5 detectors: permission checks,
   persistent state writes, inline action dispatch (the rollback
   vector), and block information an adversary can bias.  Visible
   effects — what MissAuth protects — are the sends and the writes. *)
let auth_apis = [ "require_auth"; "require_auth2"; "has_auth" ]
let state_write_apis = [ "db_store_i64"; "db_update_i64"; "db_remove_i64" ]
let inline_send_apis = [ "send_inline" ]
let blockinfo_apis = [ "tapos_block_prefix"; "tapos_block_num" ]

let resolve_ids (meta : Trace.meta) : host_ids =
  let ids names = List.filter_map (Trace.find_env_import meta) names in
  {
    hi_auth = ids auth_apis;
    hi_state_writes = ids state_write_apis;
    hi_inline_send = ids inline_send_apis;
    hi_blockinfo = ids blockinfo_apis;
  }

(* Classify every site once.  The groups are disjoint: each import has
   one name, and no name is in two groups. *)
let classify_sites (meta : Trace.meta) : site_class array =
  let func_imports = Wasm.Ast.num_func_imports meta.Trace.instrumented in
  let ids = resolve_ids meta in
  Array.map
    (fun (site : Trace.site) ->
      match site.Trace.site_instr with
      | Wasm.Ast.Call fi when fi < func_imports ->
          if List.mem fi ids.hi_auth then Site_auth
          else if List.mem fi ids.hi_state_writes then Site_state_write
          else if List.mem fi ids.hi_inline_send then Site_inline_send
          else if List.mem fi ids.hi_blockinfo then Site_blockinfo
          else Site_other
      | Wasm.Ast.Int_compare (Wasm.Types.I64, (Wasm.Ast.Eq | Wasm.Ast.Ne))
      | Wasm.Ast.Int_binary (Wasm.Types.I64, (Wasm.Ast.Xor | Wasm.Ast.Sub)) ->
          Site_i64_compare
      | Wasm.Ast.Int_binary (Wasm.Types.I64, Wasm.Ast.Mul) -> Site_i64_mul
      | _ -> Site_other)
    meta.Trace.sites

let make_env ~(meta : Trace.meta) ~(victim : Name.t)
    ~(fake_notif_agent : Name.t) ~(fake_token : Name.t) () : env =
  {
    en_sites = classify_sites meta;
    en_victim = victim;
    en_fake_notif_agent = fake_notif_agent;
    en_fake_token = fake_token;
  }

(* ------------------------------------------------------------------ *)
(* The one pass                                                        *)
(* ------------------------------------------------------------------ *)

(** What one payload's trace shows, collected in one pass ({!facts}).
    A pair counts as compared when an i64 [eq]/[ne]/[xor]/[sub] took
    exactly its two values, in either order, both operands i64-tagged. *)
type facts = {
  fa_state_write : bool;  (** a state-write API was called *)
  fa_inline_send : bool;  (** an inline action was sent *)
  fa_blockinfo : bool;  (** a block-information API was called *)
  fa_unauthorised_effect : bool;
      (** a send or state write came before any permission call *)
  fa_agent_victim : bool;  (** the agent/victim pair was compared *)
  fa_victim_token : bool;  (** the victim/[eosio.token] pair was compared *)
  fa_fake_token_token : bool;
      (** the [fake.token]/[eosio.token] pair was compared *)
  fa_mul_overflow : bool;  (** an i64 [mul] overflowed signed range *)
}

(* Signed 64-bit multiplication overflow on the recorded operands. *)
let i64_mul_overflows (a : int64) (b : int64) : bool =
  if Int64.equal a 0L || Int64.equal b 0L then false
  else if Int64.equal a Int64.min_int then not (Int64.equal b 1L)
  else if Int64.equal b Int64.min_int then not (Int64.equal a 1L)
  else not (Int64.equal (Int64.div (Int64.mul a b) b) a)

(* Event [i] took two operands, both i64-tagged. *)
let two_i64s buf i =
  B.op_count buf i = 2 && B.op_is_i64 buf i 0 && B.op_is_i64 buf i 1

(* Event [i] took exactly the pair {x, y}, in either order. *)
let takes_pair buf i x y =
  (B.op_bits_equal buf i 0 x && B.op_bits_equal buf i 1 y)
  || (B.op_bits_equal buf i 0 y && B.op_bits_equal buf i 1 x)

(** Collect a payload's facts in one pass over its trace. *)
let facts (env : env) (buf : B.t) : facts =
  let auth = ref false and state_write = ref false in
  let inline_send = ref false and blockinfo = ref false in
  let unauthorised = ref false and mul_overflow = ref false in
  let agent_victim = ref false and victim_token = ref false in
  let fake_token_token = ref false in
  let agent = env.en_fake_notif_agent and victim = env.en_victim in
  let fake_token = env.en_fake_token and token = Name.eosio_token in
  for i = 0 to B.length buf - 1 do
    match B.kind buf i with
    | B.K_call_pre -> (
        match env.en_sites.(B.label buf i) with
        | Site_auth -> auth := true
        | Site_state_write ->
            if not !auth then unauthorised := true;
            state_write := true
        | Site_inline_send ->
            if not !auth then unauthorised := true;
            inline_send := true
        | Site_blockinfo -> blockinfo := true
        | Site_other | Site_i64_compare | Site_i64_mul -> ())
    | B.K_instr -> (
        match env.en_sites.(B.label buf i) with
        | Site_i64_compare when two_i64s buf i ->
            if takes_pair buf i agent victim then agent_victim := true;
            if takes_pair buf i victim token then victim_token := true;
            if takes_pair buf i fake_token token then fake_token_token := true
        | Site_i64_mul when two_i64s buf i ->
            if i64_mul_overflows (B.op_bits buf i 0) (B.op_bits buf i 1) then
              mul_overflow := true
        | _ -> ())
    | B.K_call_post | B.K_func_begin | B.K_func_end -> ()
  done;
  {
    fa_state_write = !state_write;
    fa_inline_send = !inline_send;
    fa_blockinfo = !blockinfo;
    fa_unauthorised_effect = !unauthorised;
    fa_agent_victim = !agent_victim;
    fa_victim_token = !victim_token;
    fa_fake_token_token = !fake_token_token;
    fa_mul_overflow = !mul_overflow;
  }

(* ------------------------------------------------------------------ *)
(* The detectors                                                       *)
(* ------------------------------------------------------------------ *)

(** What the session knows about one payload besides its trace (the
    eosponser identification of §3.5 is stateful and lives in the
    session). *)
type ctx = { cx_channel : channel; cx_eosponser_ran : bool }

let fires (f : flag) (ctx : ctx) (fa : facts) : bool =
  match f with
  (* FakeEOS (§3.5): the action function identified on the genuine
     channel also ran for a forged direct invocation or a counterfeit
     token's notification. *)
  | Fake_eos -> (
      match ctx.cx_channel with
      | Ch_direct | Ch_fake_token -> ctx.cx_eosponser_ran
      | _ -> false)
  (* FakeNotif (§3.5): the action function ran for a forwarded
     notification.  A payload that evaluated the Listing-2 [to == _self]
     guard clears the verdict ({!verdict}). *)
  | Fake_notif -> (
      match ctx.cx_channel with
      | Ch_fake_notif -> ctx.cx_eosponser_ran
      | _ -> false)
  (* MissAuth (§3.5): an effect API invoked with no permission API
     anywhere before it in the execution chain. *)
  | Miss_auth -> fa.fa_unauthorised_effect
  (* BlockinfoDep (§3.5): the payout path reads adversary-biasable block
     information. *)
  | Blockinfo_dep -> fa.fa_blockinfo
  (* Rollback (§3.5): an inline action carries the payout, so a
     reverting caller can roll the bet back. *)
  | Rollback -> fa.fa_inline_send
  (* StateIo (WACANA's on-chain data vulnerabilities): persistent state
     written while handling a forged payload — the contract trusted
     attacker-controlled input enough to commit it.  Genuine transfers
     and ordinary actions are allowed to write. *)
  | State_io -> (
      match ctx.cx_channel with
      | Ch_direct | Ch_fake_token | Ch_fake_notif -> fa.fa_state_write
      | Ch_genuine | Ch_action _ -> false)
  (* FakeTransfer (EVulHunter's dispatcher-confusion variants): the
     dispatcher *did* compare the acting code against the real token
     contract, yet the action function still ran for the forged payload
     — the comparison exists but is wired wrong (e.g. OR-ed with a
     same-contract escape hatch).  Distinguished from FakeEOS, where the
     guard comparison is missing outright.  The acting code is the
     victim on the direct channel and the counterfeit token on the
     fake-token one. *)
  | Fake_transfer -> (
      match ctx.cx_channel with
      | Ch_direct -> ctx.cx_eosponser_ran && fa.fa_victim_token
      | Ch_fake_token -> ctx.cx_eosponser_ran && fa.fa_fake_token_token
      | _ -> false)
  (* AssetOverflow (He et al.'s asset-arithmetic overflows): a 64-bit
     multiplication whose recorded operands overflow signed range —
     asset amounts silently wrap, so payouts can be inflated or balance
     checks bypassed.  Any channel: a genuine bet can trigger it too. *)
  | Asset_overflow -> fa.fa_mul_overflow

(* ------------------------------------------------------------------ *)
(* The session                                                         *)
(* ------------------------------------------------------------------ *)

(** A user-supplied detector (the §5 extension interface): it analyses
    each executed payload's trace and returns [true] when the exploit
    event it looks for occurred.  Once fired, it stays fired. *)
type custom_oracle = {
  co_name : string;
  co_detect : channel -> Trace.Buffer.t -> bool;
}

type t = {
  env : env;
  action_candidates : int list;  (** possible eosponser ids (instrumented) *)
  mutable eosponser_id : int option;  (** id_e, learned from a genuine trace *)
  mutable guard_seen : bool;  (** FakeNotif's exculpatory guard *)
  mutable custom : (custom_oracle * bool ref) list;
  mutable evidence : (flag * evidence) list;
      (** fired flags with their first exploit payload *)
}

(** The exploit payload behind a verdict: what to submit, and how. *)
and evidence = {
  ev_channel : channel;
  ev_payload : Wasai_eosio.Action.t;
}

let create ~(meta : Trace.meta) ~(victim : Name.t) ~(fake_notif_agent : Name.t)
    () : t =
  {
    env =
      make_env ~meta ~victim ~fake_notif_agent
        ~fake_token:(Name.of_string "fake.token") ();
    action_candidates =
      Wasai_symbolic.Convention.find_action_functions meta.Trace.instrumented;
    eosponser_id = None;
    guard_seen = false;
    custom = [];
    evidence = [];
  }

let register_custom (t : t) (oracle : custom_oracle) =
  t.custom <- t.custom @ [ (oracle, ref false) ]

(** Feed one executed payload into the scanner: [payload] is the action
    that was pushed, kept as the exploit evidence of each flag it fires
    first, and [executed] the function-begin chain the caller's fused
    scan already collected. *)
let observe ~(payload : Wasai_eosio.Action.t) ~(executed : int list) (t : t)
    ~(channel : channel) (buf : B.t) =
  (* id_e: the action function executing during a *valid* EOS transfer. *)
  (match (channel, t.eosponser_id) with
   | Ch_genuine, None ->
       t.eosponser_id <-
         List.find_opt (fun f -> List.mem f t.action_candidates) executed
   | _ -> ());
  let eosponser_ran =
    match t.eosponser_id with
    | Some e -> List.mem e executed
    | None ->
        (* Until id_e is known, fall back to "any action candidate ran". *)
        List.exists (fun f -> List.mem f t.action_candidates) executed
  in
  let ctx = { cx_channel = channel; cx_eosponser_ran = eosponser_ran } in
  let fa = facts t.env buf in
  (* The guard counts on every payload, fired or not: observing it
     anywhere exculpates FakeNotif. *)
  if fa.fa_agent_victim then t.guard_seen <- true;
  List.iter
    (fun f ->
      if fires f ctx fa && not (List.mem_assoc f t.evidence) then
        t.evidence <-
          t.evidence @ [ (f, { ev_channel = channel; ev_payload = payload }) ])
    all_flags;
  List.iter
    (fun (oracle, fired) ->
      if (not !fired) && oracle.co_detect channel buf then fired := true)
    t.custom

(** Final verdict for one vulnerability class. *)
let verdict (t : t) (f : flag) : bool =
  List.mem_assoc f t.evidence && not (f = Fake_notif && t.guard_seen)

let report (t : t) : (flag * bool) list =
  List.map (fun f -> (f, verdict t f)) all_flags

(** Verdicts of the registered custom oracles. *)
let custom_report (t : t) : (string * bool) list =
  List.map (fun (oracle, fired) -> (oracle.co_name, !fired)) t.custom

(** Exploit payload behind a fired verdict, if one was captured. *)
let evidence_for (t : t) (f : flag) : evidence option =
  List.assoc_opt f t.evidence

let string_of_evidence ?(abi : Abi.t option) (e : evidence) : string =
  let act = e.ev_payload in
  let args =
    match abi with
    | None -> None
    | Some abi -> (
        match Abi.find_action abi act.Action.act_name with
        | None -> None
        | Some action_def -> (
            match Abi.deserialize action_def act.Action.act_data with
            | values ->
                Some
                  (String.concat ", " (List.map Abi.string_of_value values))
            | exception Abi.Deserialize_error _ -> None))
  in
  match args with
  | Some args ->
      Printf.sprintf "%s@%s(%s) auth=[%s] via %s channel"
        (Name.to_string act.Action.act_name)
        (Name.to_string act.Action.act_account)
        args
        (String.concat "," (List.map Name.to_string act.Action.act_auth))
        (string_of_channel e.ev_channel)
  | None ->
      Printf.sprintf "%s via %s channel"
        (Wasai_eosio.Action.to_string act)
        (string_of_channel e.ev_channel)

(* ------------------------------------------------------------------ *)
(* Wire format for persisted evidence                                  *)
(* ------------------------------------------------------------------ *)

(* '@'-separated [channel@account@action@auth1+auth2@hexdata]: none of
   the segment alphabets (channel keywords, the EOSIO name alphabet
   [.12345a-z], lowercase hex) contain '@' or '+', so the record needs
   no escaping and survives inside a tab-separated journal field. *)

let evidence_to_wire (e : evidence) : string =
  let a = e.ev_payload in
  String.concat "@"
    [
      string_of_channel e.ev_channel;
      Name.to_string a.Action.act_account;
      Name.to_string a.Action.act_name;
      String.concat "+" (List.map Name.to_string a.Action.act_auth);
      Wasai_support.Canonical.hex_of_string a.Action.act_data;
    ]

let evidence_of_wire (s : string) : (evidence, string) result =
  let name_of n =
    match Name.of_string n with
    | v -> Ok v
    | exception Invalid_argument _ ->
        Error (Printf.sprintf "evidence %S: bad name %S" s n)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char '@' s with
  | [ ch; account; action; auth; data ] -> (
      match channel_of_string ch with
      | None -> Error (Printf.sprintf "evidence %S: bad channel %S" s ch)
      | Some ev_channel -> (
          let* act_account = name_of account in
          let* act_name = name_of action in
          let* act_auth =
            if auth = "" then Ok []
            else
              List.fold_left
                (fun acc n ->
                  let* acc = acc in
                  let* n = name_of n in
                  Ok (n :: acc))
                (Ok [])
                (String.split_on_char '+' auth)
              |> Result.map List.rev
          in
          match Wasai_support.Canonical.string_of_hex data with
          | Error _ -> Error (Printf.sprintf "evidence %S: bad hex payload" s)
          | Ok act_data ->
              Ok
                {
                  ev_channel;
                  ev_payload =
                    { Action.act_account; act_name; act_data; act_auth };
                }))
  | _ -> Error (Printf.sprintf "evidence %S: expected 5 '@'-separated fields" s)

(* ------------------------------------------------------------------ *)
(* Helpers for writing custom oracles                                  *)
(* ------------------------------------------------------------------ *)

(** [calls_env_import meta name buf]: did the trace call the named
    env API?  The building block most custom oracles need. *)
let calls_env_import (meta : Trace.meta) (name : string) (buf : B.t) : bool =
  match Trace.find_env_import meta name with
  | None -> false
  | Some id ->
      let rec go i =
        i < B.length buf
        && ((B.kind buf i = B.K_call_pre
            &&
            match (Trace.site_of meta (B.label buf i)).Trace.site_instr with
            | Wasm.Ast.Call fi -> fi = id
            | _ -> false)
           || go (i + 1))
      in
      go 0
