(* Extending WASAI with a custom bug detector (the paper's §5:
   "the bug detectors can be extended in two steps: (1) adding oracles …
   (2) analyzing traces to confirm the exploit events").

     dune exec examples/custom_detector.exe

   We register two extra oracles alongside the built-in five:
   - "uses-deferred": fires when the contract schedules deferred
     transactions at all (an auditing signal, not a vulnerability);
   - "unbounded-payout": fires when an inline transfer leaves the
     contract for more than a sanity threshold — a crude drain detector
     built from the trace-analysis helpers. *)

module BG = Wasai_benchgen
module Core = Wasai_core
module Wasabi = Wasai_wasabi
open Wasai_eosio

let n = Name.of_string

(* Custom oracle 1: any call to the send_deferred host API. *)
let uses_deferred meta : Core.Scanner.custom_oracle =
  {
    Core.Scanner.co_name = "uses-deferred";
    co_detect =
      (fun _channel records ->
        Core.Scanner.calls_env_import meta "send_deferred" records);
  }

(* Custom oracle 2: an inline action whose serialised payload pays out
   more than the threshold.  The buffer pointer/length are in the call's
   arguments; here we settle for the cheap signal that send_inline ran
   on a fake-token payload — money left for free. *)
let unbounded_payout meta : Core.Scanner.custom_oracle =
  {
    Core.Scanner.co_name = "free-money";
    co_detect =
      (fun channel records ->
        match channel with
        | Core.Scanner.Ch_fake_token | Core.Scanner.Ch_direct ->
            Core.Scanner.calls_env_import meta "send_inline" records
        | _ -> false);
  }

let () =
  print_endline "== Custom detectors on top of the WASAI engine ==\n";
  let spec =
    {
      (BG.Contracts.default_spec (n "victim")) with
      BG.Contracts.sp_fake_eos_guard = false;  (* fake tokens accepted *)
      sp_payout_inline = true;  (* pays through send_inline *)
    }
  in
  let m, abi = BG.Contracts.build spec in
  let target =
    { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
  in
  (* The oracle builder receives the engine's instrumentation metadata,
     which is how it resolves host-API ids in trace records. *)
  let outcome =
    Core.Engine.fuzz
      ~oracles:(fun meta -> [ uses_deferred meta; unbounded_payout meta ])
      target
  in
  print_endline "built-in verdicts:";
  List.iter
    (fun (f, b) ->
      Printf.printf "  %-14s %s\n"
        (Core.Scanner.string_of_flag f)
        (if b then "VULNERABLE" else "ok"))
    outcome.Core.Engine.out_flags;
  print_endline "custom verdicts:";
  List.iter
    (fun (name, b) ->
      Printf.printf "  %-14s %s\n" name (if b then "FIRED" else "quiet"))
    outcome.Core.Engine.out_custom;
  assert (List.assoc "free-money" outcome.Core.Engine.out_custom = true);
  (* The contract pays inline, not deferred. *)
  assert (List.assoc "uses-deferred" outcome.Core.Engine.out_custom = false);
  print_endline
    "\nthe drain detector fired on the fake-token payout; writing a new\n\
     detector is a trace predicate plus a registration call."
