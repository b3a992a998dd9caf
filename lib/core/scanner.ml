(** The vulnerability scanner: the harness driving the builtin
    {!Oracle} instances (§3.5) over every executed payload.

    The scanner consumes the trace of every executed payload together
    with the delivery channel the Engine used (the adversary oracles of
    §2.3), identifies the eosponser action function from genuine
    transfers, and accumulates sticky per-detector fires plus
    first-fire exploit evidence across the whole fuzzing session.  The
    detectors themselves live in {!Oracle}; this module re-exports the
    channel/flag vocabulary so existing callers keep compiling. *)

module Wasm = Wasai_wasm
module Trace = Wasai_wasabi.Trace
open Wasai_eosio

(** How the payload reached the contract. *)
type channel = Oracle.channel =
  | Ch_genuine  (** real EOS via eosio.token *)
  | Ch_direct  (** eosponser invoked directly with a forged action *)
  | Ch_fake_token  (** EOS issued by an attacker token contract *)
  | Ch_fake_notif  (** notification forwarded by an agent contract *)
  | Ch_action of Name.t  (** ordinary action push *)

let string_of_channel = Oracle.string_of_channel
let channel_of_string = Oracle.channel_of_string

type flag = Oracle.flag =
  | Fake_eos
  | Fake_notif
  | Miss_auth
  | Blockinfo_dep
  | Rollback
  | State_io
  | Fake_transfer
  | Asset_overflow

let legacy_flags = Oracle.legacy_flags
let extension_flags = Oracle.extension_flags
let all_flags = Oracle.all_flags
let string_of_flag = Oracle.string_of_flag
let flag_of_string = Oracle.flag_of_string

(** A user-supplied detector (the §5 extension interface): it analyses
    each executed payload's trace and returns [true] when the exploit
    event it looks for occurred.  Once fired, it stays fired. *)
type custom_oracle = {
  co_name : string;
  co_detect : channel -> Trace.Buffer.t -> bool;
}

type t = {
  meta : Trace.meta;
  victim : Name.t;
  fake_notif_agent : Name.t;
  action_candidates : int list;  (** possible eosponser ids (instrumented) *)
  mutable eosponser_id : int option;  (** id_e, learned from a genuine trace *)
  oracles : (Oracle.instance * bool ref) list;
      (** builtin detectors with their sticky fire bits *)
  mutable custom : (custom_oracle * bool ref) list;
  mutable evidence : (flag * evidence) list;
      (** first exploit payload observed per fired flag *)
}

(** The exploit payload behind a verdict: what to submit, and how. *)
and evidence = {
  ev_channel : channel;
  ev_payload : Wasai_eosio.Action.t;
}

let create ?(fake_token_account = Name.of_string "fake.token")
    ~(meta : Trace.meta) ~(victim : Name.t) ~(fake_notif_agent : Name.t) () :
    t =
  let instances =
    Oracle.instantiate ~meta ~victim ~fake_notif_agent
      ~fake_token:fake_token_account ()
  in
  {
    meta;
    victim;
    fake_notif_agent;
    action_candidates =
      Wasai_symbolic.Convention.find_action_functions meta.Trace.instrumented;
    eosponser_id = None;
    oracles = List.map (fun oi -> (oi, ref false)) instances;
    custom = [];
    evidence = [];
  }

let register_custom (t : t) (oracle : custom_oracle) =
  t.custom <- t.custom @ [ (oracle, ref false) ]

module B = Trace.Buffer

(* Function ids that began execution, in order (the id⃗ chain of §3.5). *)
let executed_ids (buf : B.t) : int list =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (if B.kind buf i = B.K_func_begin then B.label buf i :: acc else acc)
  in
  go (B.length buf - 1) []

(** Feed one executed payload's trace into the scanner.  [payload] is the
    action that was pushed: when a detector first fires, it is kept as
    the exploit evidence.  [executed] lets a caller that already streamed
    the buffer (the engine's fused scan) pass the function-begin chain in
    instead of re-walking the trace. *)
let observe ?(payload : Wasai_eosio.Action.t option) ?(executed : int list option)
    (t : t) ~(channel : channel) (buf : B.t) =
  let record_evidence flag =
    match payload with
    | Some act when not (List.mem_assoc flag t.evidence) ->
        t.evidence <-
          t.evidence @ [ (flag, { ev_channel = channel; ev_payload = act }) ]
    | _ -> ()
  in
  let ids = match executed with Some ids -> ids | None -> executed_ids buf in
  (* id_e: the action function executing during a *valid* EOS transfer. *)
  (match (channel, t.eosponser_id) with
   | Ch_genuine, None ->
       t.eosponser_id <-
         List.find_opt (fun f -> List.mem f t.action_candidates) ids
   | _ -> ());
  let eosponser_ran =
    match t.eosponser_id with
    | Some e -> List.mem e ids
    | None ->
        (* Until id_e is known, fall back to "any action candidate ran". *)
        List.exists (fun f -> List.mem f t.action_candidates) ids
  in
  let ctx = { Oracle.cx_channel = channel; cx_eosponser_ran = eosponser_ran } in
  (* Every instance steps over every payload (sticky-fired ones too:
     exculpatory state like the FakeNotif guard must keep accumulating);
     the first fire pins the evidence. *)
  List.iter
    (fun ((oi : Oracle.instance), fired) ->
      let cur = Trace.Cursor.make buf in
      if oi.Oracle.oi_step ctx cur then begin
        fired := true;
        record_evidence oi.Oracle.oi_flag
      end)
    t.oracles;
  List.iter
    (fun (oracle, fired) ->
      if (not !fired) && oracle.co_detect channel buf then fired := true)
    t.custom

(** Final verdict for one vulnerability class. *)
let verdict (t : t) (f : flag) : bool =
  match
    List.find_opt (fun ((oi : Oracle.instance), _) -> oi.Oracle.oi_flag = f) t.oracles
  with
  | Some (oi, fired) -> oi.Oracle.oi_verdict ~fired:!fired
  | None -> false

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
        | Some def -> (
            match Abi.deserialize def act.Action.act_data with
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

let hex_of_string (s : string) : string =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let string_of_hex (h : string) : string option =
  let digit c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let n = String.length h in
  if n mod 2 <> 0 then None
  else
    let rec go i acc =
      if i = n then Some (Buffer.contents acc)
      else
        match (digit h.[i], digit h.[i + 1]) with
        | Some hi, Some lo ->
            Buffer.add_char acc (Char.chr ((hi * 16) + lo));
            go (i + 2) acc
        | _ -> None
    in
    go 0 (Buffer.create (n / 2))

let evidence_to_wire (e : evidence) : string =
  let a = e.ev_payload in
  String.concat "@"
    [
      string_of_channel e.ev_channel;
      Name.to_string a.Action.act_account;
      Name.to_string a.Action.act_name;
      String.concat "+" (List.map Name.to_string a.Action.act_auth);
      hex_of_string a.Action.act_data;
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
          match string_of_hex data with
          | None -> Error (Printf.sprintf "evidence %S: bad hex payload" s)
          | Some act_data ->
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

(* Index of the first call_pre into the named env API, if any. *)
let find_call (meta : Trace.meta) (name : string) (buf : B.t) : int option =
  match Trace.find_env_import meta name with
  | None -> None
  | Some id ->
      let n = B.length buf in
      let rec go i =
        if i >= n then None
        else if
          B.kind buf i = B.K_call_pre
          &&
          match (Trace.site_of meta (B.label buf i)).Trace.site_instr with
          | Wasm.Ast.Call fi -> fi = id
          | _ -> false
        then Some i
        else go (i + 1)
      in
      go 0

(** [calls_env_import meta name buf]: did the trace call the named
    env API?  The building block most detectors need. *)
let calls_env_import (meta : Trace.meta) (name : string) (buf : B.t) : bool =
  find_call meta name buf <> None

(** Arguments of the first call to the named env API in the trace. *)
let first_call_args (meta : Trace.meta) (name : string) (buf : B.t) :
    Wasm.Values.value list option =
  Option.map (B.ops buf) (find_call meta name buf)
