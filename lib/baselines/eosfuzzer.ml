(** Reimplementation of the EOSFuzzer baseline (Huang et al. 2020) with
    the behaviours the paper documents in §4.2–4.3:

    - purely random seed generation with no feedback ("it only generates
      random seeds without leveraging feedback");
    - success-based oracles: a vulnerability is reported only when an
      exploit transaction completes and the contract visibly "provides
      services", which is what produces its FNs behind asserts and its
      FPs on honeypot-style contracts;
    - the Fake EOS oracle flaw: if no transaction ever executes
      successfully, the sample is flagged positive anyway;
    - no MissAuth or Rollback detectors, and a BlockinfoDep detector that
      only counts [tapos_*] calls inside successful transactions. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi
module Core = Wasai_core
open Wasai_eosio

type outcome = {
  ef_flags : (Core.Scanner.flag * bool option) list;
      (** [None] = detector not supported *)
  ef_branches : int;
  ef_timeline : (int * float * int) list;
  ef_transactions : int;
}

let flagged (o : outcome) (f : Core.Scanner.flag) : bool option =
  match List.assoc_opt f o.ef_flags with Some v -> v | None -> None

module B = Wasabi.Trace.Buffer

(* Import-call detection in a trace. *)
let calls_import meta buf names =
  let ids = List.filter_map (fun n -> Wasabi.Trace.find_env_import meta n) names in
  let rec go i =
    i < B.length buf
    && ((B.kind buf i = B.K_call_pre
        &&
        match
          (Wasabi.Trace.site_of meta (B.label buf i)).Wasabi.Trace.site_instr
        with
        | Wasm.Ast.Call fi -> List.mem fi ids
        | _ -> false)
       || go (i + 1))
  in
  go 0

(* "Provided services": a visible side effect of the victim. *)
let visible_effect meta buf =
  calls_import meta buf
    [
      "send_inline"; "send_deferred"; "db_store_i64"; "db_update_i64";
      "db_remove_i64"; "printi"; "prints"; "printn";
    ]

let fuzz ?(rounds = 60) ?(rng_seed = 2L) (target : Core.Engine.target) :
    outcome =
  let cfg =
    (Core.Engine.make_config ~rounds:(rounds) ~rng_seed:(rng_seed) ~feedback:false ())
  in
  let s = Core.Engine.setup cfg target in
  let t0 = Unix.gettimeofday () in
  let timeline = ref [] in
  let meta = s.Core.Engine.meta in
  (* "EOSFuzzer fails to execute the fuzzing target every time and flags
     all samples as vulnerable in detecting the Fake EOS" (§4.3): success
     is tracked over the transfer payloads, the fuzzing target. *)
  let any_success = ref false in
  let fake_eos = ref false in
  let fake_notif = ref false in
  let blockinfo = ref false in
  let actions = Array.of_list target.Core.Engine.tgt_abi.Abi.abi_actions in
  for round = 0 to rounds - 1 do
    let def = actions.(round mod Array.length actions) in
    (* Fresh random seed every time: no pool evolution. *)
    let seed =
      Core.Seed.random s.Core.Engine.rng ~identities:s.Core.Engine.identities def
    in
    let channels =
      if Name.equal def.Abi.act_name Name.transfer then
        Core.Scanner.
          [ Ch_genuine; Ch_direct; Ch_fake_token; Ch_fake_notif ]
      else [ Core.Scanner.Ch_action def.Abi.act_name ]
    in
    let candidates = s.Core.Engine.scanner.Core.Scanner.action_candidates in
    List.iter
      (fun channel ->
        let ex = Core.Engine.run_one s seed channel in
        let buf = ex.Core.Engine.ex_trace in
        if ex.Core.Engine.ex_result.Chain.tx_ok then begin
          (* "Executed successfully" = the transaction committed AND the
             fuzzing target's action function actually ran. *)
          (match channel with
           | Core.Scanner.Ch_action _ -> ()
           | _ ->
               if
                 List.exists
                   (fun f -> List.mem f candidates)
                   ex.Core.Engine.ex_scan.Core.Engine.sc_executed
               then any_success := true);
          let effect = visible_effect meta buf in
          (match channel with
           | Core.Scanner.Ch_direct | Core.Scanner.Ch_fake_token ->
               (* Flaw: positive no matter which action responded. *)
               if B.length buf > 0 && effect then fake_eos := true
           | Core.Scanner.Ch_fake_notif -> if effect then fake_notif := true
           | Core.Scanner.Ch_genuine | Core.Scanner.Ch_action _ -> ());
          if calls_import meta buf [ "tapos_block_prefix"; "tapos_block_num" ]
          then blockinfo := true
        end)
      channels;
    timeline :=
      (round, Unix.gettimeofday () -. t0, Hashtbl.length s.Core.Engine.branches)
      :: !timeline
  done;
  (* The oracle flaw (§4.3): a sample where nothing ever executed successfully
     is reported as Fake EOS-vulnerable. *)
  if not !any_success then fake_eos := true;
  {
    ef_flags =
      [
        (Core.Scanner.Fake_eos, Some !fake_eos);
        (Core.Scanner.Fake_notif, Some !fake_notif);
        (Core.Scanner.Miss_auth, None);
        (Core.Scanner.Blockinfo_dep, Some !blockinfo);
        (Core.Scanner.Rollback, None);
      ];
    ef_branches = Hashtbl.length s.Core.Engine.branches;
    ef_timeline = List.rev !timeline;
    ef_transactions = s.Core.Engine.transactions;
  }
