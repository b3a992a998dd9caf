(** The WASAI command-line interface.

    Sub-commands:
    - [analyze]    fuzz a contract binary and print a vulnerability report
    - [gen]        generate a benchmark contract (and its ABI) to disk
    - [dump]       print a contract binary in WAT-like text
    - [instrument] rewrite a binary with the trace hooks
    - [baseline]   run the EOSAFE static baseline on a binary
    - [campaign]   fleet campaigns, noun-verb style:
                   [campaign run DIR] fuzzes a directory (or its
                   [--shard i/N] slice) over N domains with a crash-safe
                   journal, [--resume], an optional persistent seed
                   [--corpus] and a [--dry-run] plan printer;
                   [campaign merge J1 J2 ...] validates and merges shard
                   journals into the fleet report; [campaign report]
                   rebuilds a report from a journal without fuzzing
    - [corpus]     seed-corpus maintenance: [corpus stats FILE] summarises
                   coverage, [corpus minimize FILE] rewrites the file to a
                   greedy set-cover subset, [corpus import DST SRC...]
                   merges corpora with signature dedupe
    - [serve]      the continuous fuzzing daemon: per-tenant journals and
                   corpora under [--root], bounded per-tenant queues with
                   explicit backpressure, streamed verdicts over a
                   Unix-domain [--socket], crash-safe [--resume]
    - [submit]     client for [serve]: send a contract or directory under
                   a [--tenant] and stream verdicts as they complete

    ABI files use the textual format of {!Wasai_eosio.Abi.of_text}:
    one action per line, e.g. [transfer(from:name,to:name,quantity:asset,memo:string)]. *)

open Cmdliner
module Wasm = Wasai_wasm
module Core = Wasai_core
module BG = Wasai_benchgen
module Campaign = Wasai_campaign
module Corpus = Wasai_corpus.Corpus
module Serve = Wasai_serve
open Wasai_eosio

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Malformed input is a user error, not an internal one: name the file
   and the reason and exit 2.  [Sys_error] messages already start with
   the path. *)
let with_input path f =
  let fail reason =
    Printf.eprintf "wasai: %s\n" reason;
    exit 2
  in
  let fail_at reason = fail (path ^ ": " ^ reason) in
  try f () with
  | Wasm.Decode.Decode_error (pos, msg) ->
      fail_at (Printf.sprintf "malformed binary at byte %d: %s" pos msg)
  | Wasm.Validate.Invalid msg -> fail_at ("invalid module: " ^ msg)
  | Wasm.Text.Parse_error msg -> fail_at ("malformed text: " ^ msg)
  | Abi.Parse_error msg -> fail_at ("malformed ABI: " ^ msg)
  | Sys_error msg -> fail msg

let decode_file bin_path =
  with_input bin_path (fun () -> Wasm.Decode.decode (read_file bin_path))

let load_contract bin_path abi_path =
  let m =
    with_input bin_path (fun () ->
        if Filename.check_suffix bin_path ".wat" then
          Wasm.Text.parse (read_file bin_path)
        else Wasm.Decode.decode (read_file bin_path))
  in
  let abi =
    match abi_path with
    | Some p -> with_input p (fun () -> Abi.of_text (read_file p))
    | None -> Abi.default_profitable
  in
  (m, abi)

(* ---- analyze -------------------------------------------------------- *)

let analyze_cmd bin_path abi_path rounds backend account verbose =
  let m, abi = load_contract bin_path abi_path in
  let target =
    { Core.Engine.tgt_account = account; tgt_module = m; tgt_abi = abi }
  in
  let t0 = Unix.gettimeofday () in
  let o =
    (* Deploying validates the module. *)
    with_input bin_path (fun () ->
        Core.Engine.fuzz
          ~cfg:(Core.Engine.make_config ~rounds:(rounds) ~backend ())
          target)
  in
  let report =
    Core.Report.make
      ~elapsed:(Unix.gettimeofday () -. t0)
      ~abi:target.Core.Engine.tgt_abi ~target:bin_path o
  in
  print_string (Core.Report.to_text ~verbose report);
  if Core.Report.vulnerable report then exit 1

(* ---- gen ------------------------------------------------------------ *)

(* Each [--vuln] name and how it changes the contract spec. *)
let vuln_flags =
  let open BG.Contracts in
  [
    ("fake-eos", fun _ spec -> { spec with sp_fake_eos_guard = false });
    ("fake-notif", fun _ spec -> { spec with sp_fake_notif_guard = false });
    ("miss-auth", fun _ spec -> { spec with sp_auth_check = false });
    ( "blockinfo",
      fun _ spec -> { spec with sp_blockinfo = true; sp_payout_inline = true }
    );
    ("rollback", fun _ spec -> { spec with sp_payout_inline = true });
    ( "checks",
      fun rng spec ->
        { spec with sp_checks = BG.Verification.random_checks rng ~depth:3 }
    );
  ]

let gen_cmd out_path vulns seed obfuscate =
  let rng = Wasai_support.Rand.create (Int64.of_int seed) in
  let account = Name.of_string "victim" in
  let base = BG.Contracts.default_spec account in
  let spec = List.fold_left (fun spec inject -> inject rng spec) base vulns in
  let m, abi = BG.Contracts.build spec in
  let m = if obfuscate then BG.Obfuscate.obfuscate m else m in
  write_file out_path (Wasm.Encode.encode m);
  write_file (out_path ^ ".abi") (Abi.to_text abi);
  Printf.printf "wrote %s (%d bytes) and %s.abi\n" out_path
    (String.length (Wasm.Encode.encode m))
    out_path

(* ---- dump / build ----------------------------------------------------- *)

let dump_cmd bin_path = print_string (Wasm.Wat.to_string (decode_file bin_path))

let build_cmd wat_path out_path =
  let m = with_input wat_path (fun () -> Wasm.Text.parse (read_file wat_path)) in
  let bin = Wasm.Encode.encode m in
  with_input out_path (fun () -> write_file out_path bin);
  Printf.printf "assembled %s -> %s (%d functions, %d bytes)\n" wat_path out_path
    (Array.length m.Wasm.Ast.funcs)
    (String.length bin)

(* ---- instrument ------------------------------------------------------ *)

let instrument_cmd bin_path out_path =
  let bin, (bin', meta) =
    with_input bin_path (fun () ->
        let bin = read_file bin_path in
        (bin, Wasai_wasabi.Instrument.instrument_binary bin))
  in
  with_input out_path (fun () -> write_file out_path bin');
  Printf.printf "instrumented %s -> %s (%d sites, %d -> %d bytes)\n" bin_path
    out_path
    (Array.length meta.Wasai_wasabi.Trace.sites)
    (String.length bin) (String.length bin')

(* ---- scan ------------------------------------------------------------ *)

let scan_cmd dir rounds backend =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  let total = ref 0 and vulnerable = ref 0 in
  let per_flag = Hashtbl.create 8 in
  Array.iter
    (fun entry ->
      if Filename.check_suffix entry ".wasm" then begin
        incr total;
        let path = Filename.concat dir entry in
        let abi_path =
          let p = path ^ ".abi" in
          if Sys.file_exists p then Some p else None
        in
        let m, abi = load_contract path abi_path in
        let o =
          with_input path (fun () ->
              Core.Engine.fuzz
                ~cfg:(Core.Engine.make_config ~rounds:(rounds) ~backend ())
                {
                  Core.Engine.tgt_account = Name.of_string "victim";
                  tgt_module = m;
                  tgt_abi = abi;
                })
        in
        let report = Core.Report.make ~abi ~target:entry o in
        print_endline (Core.Report.summary report);
        if Core.Report.vulnerable report then begin
          incr vulnerable;
          List.iter
            (fun (f, fired) ->
              if fired then
                Hashtbl.replace per_flag f
                  (1 + Option.value ~default:0 (Hashtbl.find_opt per_flag f)))
            o.Core.Engine.out_flags
        end
      end)
    entries;
  Printf.printf "\n%d/%d contracts flagged vulnerable\n" !vulnerable !total;
  List.iter
    (fun f ->
      match Hashtbl.find_opt per_flag f with
      | Some n -> Printf.printf "  %-14s %d\n" (Core.Scanner.string_of_flag f) n
      | None -> ())
    Core.Scanner.all_flags;
  if !vulnerable > 0 then exit 1

(* ---- report ---------------------------------------------------------- *)

let report_cmd list_oracles =
  if not list_oracles then begin
    Printf.eprintf "wasai report: nothing to do (try --list-oracles)\n";
    exit 2
  end;
  Printf.printf "%-16s %-14s %s\n" "ORACLE" "FLAG" "JOURNAL";
  List.iter
    (fun f ->
      let policy =
        if List.mem f Core.Scanner.legacy_flags then "always (legacy field)"
        else "when fired (extension)"
      in
      Printf.printf "%-16s %-14s %s\n" (Core.Scanner.oracle_name f)
        (Core.Scanner.string_of_flag f)
        policy)
    Core.Scanner.all_flags

(* ---- campaign -------------------------------------------------------- *)

(* Flags shared by every `wasai campaign` verb (run|merge|report), defined
   once and threaded as a record so the three subcommands cannot drift. *)
type campaign_common = {
  co_journal : string;
  co_jobs : int;
  co_out : string option;
}

let emit_campaign_report ?(telemetry = false) out
    (report : Campaign.Campaign.report) =
  let text = Campaign.Campaign.to_text report in
  (* The canonical report text is byte-stable; the telemetry breakdown
     is strictly appended after it, and only when the run profiled. *)
  let text =
    if telemetry then
      text ^ "\n"
      ^ Wasai_telemetry.Telemetry.report_text (Wasai_telemetry.Telemetry.snapshot ())
    else text
  in
  (match out with
   | Some path ->
       write_file path text;
       Printf.eprintf "campaign report written to %s\n" path
   | None -> print_string text);
  if Campaign.Campaign.vulnerable_count report > 0 then exit 1

let campaign_run_cmd common dir rounds backend resume shard seed corpus
    telemetry dry_run =
  let targets =
    try Campaign.Discover.dir dir
    with Failure msg | Sys_error msg ->
      (* Two files deriving one account, or an unreadable directory. *)
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  if targets = [] then begin
    Printf.eprintf "campaign: no .wasm/.wat contracts in %s\n" dir;
    exit 2
  end;
  let total =
    List.length
      (List.filter
         (fun (t : Campaign.Campaign.target_spec) ->
           Campaign.Shard.member shard t.Campaign.Campaign.sp_name)
         targets)
  in
  let finished = ref 0 in
  (* The default already caps at the hardware's recommended domain count;
     a larger explicit --jobs is honoured but oversubscription makes the
     OCaml 5 GC thrash (ROADMAP: 4 domains on 1 core ran ~9x slower). *)
  let recommended = Domain.recommended_domain_count () in
  if common.co_jobs > recommended then
    Printf.eprintf
      "campaign: --jobs %d exceeds the recommended domain count (%d); \
       oversubscribed domains contend in the GC and usually run slower\n%!"
      common.co_jobs recommended;
  let cfg =
    Campaign.Campaign.make_config ~jobs:common.co_jobs
      ~journal:common.co_journal ~resume ~shard ?corpus ~telemetry
      ~progress:(fun (e : Campaign.Journal.entry) ->
        incr finished;
        Printf.eprintf "  [%d/%d] %s done (%.2fs)\n%!" !finished total
          e.Campaign.Journal.je_name e.Campaign.Journal.je_elapsed)
      ~engine:
        (Core.Engine.make_config ~rounds:(rounds) ~rng_seed:(seed) ~backend ())
      ()
  in
  if dry_run then begin
    (* Print the scheduling decision (shard membership, resume skips, LPT
       order, corpus preloads) and stop before loading any contract. *)
    (try print_string (Campaign.Campaign.plan_text (Campaign.Campaign.plan cfg targets))
     with
     | Campaign.Journal.Malformed msg | Corpus.Malformed msg ->
         Printf.eprintf "campaign: %s\n" msg;
         exit 2
     | Failure msg ->
         Printf.eprintf "%s\n" msg;
         exit 2);
    exit 0
  end;
  (* Log the armed detector set up front: which oracles a campaign ran
     under is part of its provenance. *)
  Printf.eprintf "campaign: %d oracles armed: %s\n%!"
    (List.length Core.Scanner.all_flags)
    (String.concat ", "
       (List.map
          (fun f ->
            Printf.sprintf "%s[%s]" (Core.Scanner.oracle_name f)
              (Core.Scanner.string_of_flag f))
          Core.Scanner.all_flags));
  let report =
    try Campaign.Campaign.run cfg targets with
    | Campaign.Journal.Malformed msg | Corpus.Malformed msg ->
        Printf.eprintf "campaign: %s\n" msg;
        exit 2
    | Failure msg ->
        (* Library failures are already prefixed with "campaign: ". *)
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  emit_campaign_report ~telemetry common.co_out report

let campaign_merge_cmd common journals =
  let report =
    try Campaign.Campaign.merge journals with
    | Campaign.Journal.Malformed msg ->
        Printf.eprintf "campaign merge: %s\n" msg;
        exit 2
    | Failure msg ->
        (* Merge failures are already prefixed with "campaign merge: ". *)
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  emit_campaign_report common.co_out report

let campaign_report_cmd common =
  if not (Sys.file_exists common.co_journal) then begin
    Printf.eprintf "campaign report: no journal at %s\n" common.co_journal;
    exit 2
  end;
  let report =
    try Campaign.Campaign.of_entries (Campaign.Journal.load common.co_journal)
    with Campaign.Journal.Malformed msg ->
      Printf.eprintf "campaign report: %s\n" msg;
      exit 2
  in
  emit_campaign_report common.co_out report

(* ---- serve / submit -------------------------------------------------- *)

let serve_cmd root socket jobs depth rounds backend seed resume =
  let engine =
    (Core.Engine.make_config ~rounds:(rounds) ~rng_seed:(seed) ~backend ())
  in
  let cfg =
    try Serve.Serve.make_config ~root ~socket ~jobs ~depth ~resume ~engine ()
    with Invalid_argument msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit 2
  in
  let t =
    try Serve.Serve.create cfg with
    | Failure msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    | Campaign.Journal.Malformed msg | Corpus.Malformed msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 2
  in
  (* request_stop is an atomic store + pipe write, safe from a handler. *)
  let stop _ = Serve.Serve.request_stop t in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Printf.eprintf
    "wasai serve: listening on %s (root=%s jobs=%d depth=%d rounds=%d \
     seed=%Ld%s)\n\
     %!"
    socket root jobs depth rounds seed
    (if resume then " resume" else "");
  Serve.Serve.serve t;
  Printf.eprintf "wasai serve: drained, bye\n%!"

let fired_flags (e : Campaign.Journal.entry) =
  List.filter_map
    (fun (f, fired) -> if fired then Some (Core.Scanner.string_of_flag f) else None)
    e.Campaign.Journal.je_flags

let submit_cmd socket tenant path shutdown =
  let contracts =
    try Serve.Client.contracts_of_path path
    with Sys_error msg ->
      Printf.eprintf "submit: %s\n" msg;
      exit 2
  in
  if contracts = [] then begin
    Printf.eprintf "submit: no usable contracts in %s\n" path;
    exit 2
  end;
  let client =
    try Serve.Client.connect socket
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "submit: cannot connect to %s: %s (is the daemon \
                      running?)\n"
        socket (Unix.error_message e);
      exit 2
  in
  let progress (resp : Serve.Wire.response) =
    match resp with
    | Serve.Wire.Queued { rp_name; rp_depth; _ } ->
        Printf.eprintf "  queued %s (depth %d)\n%!" rp_name rp_depth
    | Serve.Wire.Busy { rp_name; rp_retry_ms; _ } ->
        Printf.eprintf "  busy, retrying %s in %dms\n%!" rp_name rp_retry_ms
    | Serve.Wire.Verdict { rp_kind; rp_wait_ms; rp_entry; _ } ->
        let flags = fired_flags rp_entry in
        Printf.printf "%-13s %s %s (%s, %dms)\n%!"
          rp_entry.Campaign.Journal.je_name
          (if flags = [] then "ok" else "VULNERABLE")
          (if flags = [] then "-" else String.concat "," flags)
          (match rp_kind with
           | Serve.Wire.Fresh -> "fresh"
           | Serve.Wire.Cached -> "cached")
          rp_wait_ms
    | Serve.Wire.Err { rp_name = Some name; rp_reason } ->
        Printf.eprintf "  %s failed: %s\n%!" name rp_reason
    | _ -> ()
  in
  let batch =
    try Serve.Client.submit_batch ~progress client ~tenant contracts
    with
    | Serve.Client.Protocol_error msg ->
        Printf.eprintf "submit: %s\n" msg;
        exit 2
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "submit: %s\n" (Unix.error_message e);
        exit 2
  in
  let vulnerable =
    List.length
      (List.filter
         (fun (_, _, e) -> fired_flags e <> [])
         batch.Serve.Client.bt_verdicts)
  in
  Printf.eprintf "submit: %d verdict(s), %d vulnerable, %d retries, %d \
                  error(s)\n%!"
    (List.length batch.Serve.Client.bt_verdicts)
    vulnerable batch.Serve.Client.bt_retries
    (List.length batch.Serve.Client.bt_errors);
  (if shutdown then
     try
       Serve.Client.send client Serve.Wire.Shutdown;
       let rec wait_bye () =
         match Serve.Client.next client with
         | Serve.Wire.Bye { rp_completed } ->
             Printf.eprintf "submit: daemon shut down (%d completed)\n%!"
               rp_completed
         | _ -> wait_bye ()
       in
       wait_bye ()
     with Serve.Client.Protocol_error msg ->
       Printf.eprintf "submit: shutdown: %s\n" msg;
       exit 2);
  Serve.Client.close client;
  if batch.Serve.Client.bt_errors <> [] then exit 2;
  if vulnerable > 0 then exit 1

(* ---- corpus ---------------------------------------------------------- *)

let corpus_load_or_fail path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "corpus: no corpus file at %s\n" path;
    exit 2
  end;
  try Corpus.load path
  with Corpus.Malformed msg ->
    Printf.eprintf "corpus: %s\n" msg;
    exit 2

let corpus_stats_cmd path = print_string (Corpus.stats_text (corpus_load_or_fail path))

let corpus_minimize_cmd path out dry_run =
  let c = corpus_load_or_fail path in
  let m = Corpus.minimize c in
  Printf.printf "corpus minimize: %d -> %d seeds (edge coverage preserved)\n"
    (Corpus.size c) (Corpus.size m);
  if not dry_run then begin
    let dst = Option.value ~default:path out in
    Corpus.save m dst;
    Printf.eprintf "minimized corpus written to %s\n" dst
  end

let corpus_import_cmd dst srcs =
  let c = if Sys.file_exists dst then corpus_load_or_fail dst else Corpus.create () in
  let before = Corpus.size c in
  List.iter
    (fun src ->
      let s = corpus_load_or_fail src in
      let added =
        List.fold_left
          (fun n r -> if Corpus.add c r then n + 1 else n)
          0 (Corpus.records s)
      in
      Printf.printf "  %s: %d seeds, %d new\n" src (Corpus.size s) added)
    srcs;
  Corpus.save c dst;
  Printf.printf "corpus import: %d -> %d seeds in %s\n" before (Corpus.size c)
    dst

(* ---- baseline -------------------------------------------------------- *)

let baseline_cmd bin_path =
  let m = decode_file bin_path in
  let v = Wasai_baselines.Eosafe.analyze m in
  Printf.printf "EOSAFE static analysis of %s:\n" bin_path;
  Printf.printf "  dispatcher located : %b\n" v.Wasai_baselines.Eosafe.es_located;
  Printf.printf "  timeout            : %b (paths: %d)\n"
    v.Wasai_baselines.Eosafe.es_timeout v.Wasai_baselines.Eosafe.es_paths;
  List.iter
    (fun (f, r) ->
      Printf.printf "  %-14s %s\n"
        (Core.Scanner.string_of_flag f)
        (match r with
         | Some true -> "VULNERABLE"
         | Some false -> "ok"
         | None -> "unsupported"))
    (Wasai_baselines.Eosafe.flags v)

(* ---- cmdliner wiring -------------------------------------------------- *)

let bin_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CONTRACT.wasm")

let abi_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "abi" ] ~docv:"FILE" ~doc:"Textual ABI file (defaults to the standard profitable-contract ABI).")

let rounds_arg =
  Arg.(value & opt int 60 & info [ "rounds" ] ~doc:"Fuzzing iteration budget.")

let backend_conv =
  let parse s =
    match Core.Exec_backend.of_string s with
    | Ok c -> Ok c
    | Error msg -> Error (`Msg msg)
  in
  let print ppf c = Format.pp_print_string ppf (Core.Exec_backend.to_string c) in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv Core.Engine.default_config.Core.Engine.cfg_backend
    & info [ "backend" ] ~docv:"TIER"
        ~doc:
          "Execution tier: $(b,auto) (default; the closure-compiled tier \
           with per-opcode interpreter fallback) or $(b,interp) (the \
           reference tree-walking interpreter).  Verdicts, coverage and journal \
           lines are byte-identical across tiers; the choice is stamped \
           into campaign and serve journal headers and validated on \
           $(b,--resume).")

let account_conv =
  let parse s =
    match Name.of_string s with
    | n -> Ok n
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print ppf n = Format.pp_print_string ppf (Name.to_string n) in
  Arg.conv (parse, print)

let account_arg =
  Arg.(
    value
    & opt account_conv (Name.of_string "victim")
    & info [ "account" ] ~doc:"Account name to deploy the contract under.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ])

let analyze_t =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Fuzz a contract binary and report vulnerabilities")
    Term.(
      const analyze_cmd $ bin_arg $ abi_arg $ rounds_arg $ backend_arg
      $ account_arg $ verbose_arg)

let gen_t =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.wasm")
  in
  let vulns =
    Arg.(
      value
      & opt_all (enum vuln_flags) []
      & info [ "vuln" ]
          ~doc:
            ("Inject a vulnerability: " ^ Arg.doc_alts_enum vuln_flags
           ^ ". Repeatable."))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let obf = Arg.(value & flag & info [ "obfuscate" ]) in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark contract binary")
    Term.(const gen_cmd $ out $ vulns $ seed $ obf)

let dump_t =
  Cmd.v (Cmd.info "dump" ~doc:"Print a contract in WAT-like text")
    Term.(const dump_cmd $ bin_arg)

let build_t =
  let wat =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.wat")
  in
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT.wasm")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Assemble a WAT-subset source file into a binary")
    Term.(const build_cmd $ wat $ out)

let instrument_t =
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT.wasm")
  in
  Cmd.v
    (Cmd.info "instrument" ~doc:"Insert trace hooks into a contract binary")
    Term.(const instrument_cmd $ bin_arg $ out)

let baseline_t =
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run the EOSAFE static baseline on a binary")
    Term.(const baseline_cmd $ bin_arg)

let scan_t =
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Fuzz every *.wasm in a directory (with its *.wasm.abi when present) and summarise")
    Term.(const scan_cmd $ dir $ rounds_arg $ backend_arg)

(* The shared `wasai campaign` flag group: --journal, --jobs and --out are
   defined exactly once and apply uniformly to run|merge|report. *)
let campaign_common_t =
  let journal =
    Arg.(
      value
      & opt string "campaign.journal"
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Crash-safe journal of completed targets (appended, fsync'd); \
             also the input of $(b,report).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for $(b,run) (default: the hardware's \
             recommended count); ignored by $(b,merge) and $(b,report).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the campaign report here instead of stdout.")
  in
  Term.(
    const (fun co_journal co_jobs co_out -> { co_journal; co_jobs; co_out })
    $ journal $ jobs $ out)

let shard_conv =
  let parse s =
    match Campaign.Shard.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t = Format.pp_print_string ppf (Campaign.Shard.to_string t) in
  Arg.conv (parse, print)

let campaign_run_term =
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR") in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Skip targets already completed in the journal and merge their \
                recorded results into the report.")
  in
  let shard =
    Arg.(
      value
      & opt shard_conv Campaign.Shard.whole
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Fuzz only the targets whose stable name hash lands in slice \
             $(i,I) of $(i,N); give each fleet machine a distinct slice and \
             $(b,merge) their journals afterwards.")
  in
  let seed =
    Arg.(
      value
      & opt int64 Core.Engine.default_config.Core.Engine.cfg_rng_seed
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Engine root RNG seed; every shard of one fleet must use the \
             same value (merge validates it).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Persistent seed corpus: preload each target's queue with its \
             stored coverage-bearing seeds, and append the new ones this \
             run discovers (crash-safe; the file is created on first \
             use).  A warm rerun replays the recorded coverage instead of \
             rediscovering it.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "Record per-stage span telemetry (zero-interference: verdicts \
             and journal entry lines are unchanged), print the per-stage / \
             per-target critical-path breakdown after the report, and stamp \
             the journal header with telemetry=on so resumes agree.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:
            "Print the scheduling plan — shard assignment, resume skips, \
             execution order (biggest module first) and per-target corpus \
             preloads — then exit without fuzzing anything.")
  in
  Term.(
    const campaign_run_cmd $ campaign_common_t $ dir $ rounds_arg $ backend_arg
    $ resume $ shard $ seed $ corpus $ telemetry $ dry_run)

let campaign_t =
  let run_t =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Fuzz a directory of contracts (*.wasm/*.wat with optional *.abi \
            sidecars) in parallel over OCaml domains, journaling each \
            completed target; exits 1 when any contract is flagged")
      campaign_run_term
  in
  let merge_t =
    let journals =
      Arg.(
        non_empty & pos_all file []
        & info [] ~docv:"JOURNAL"
            ~doc:"Shard journals to merge (one per fleet slice).")
    in
    Cmd.v
      (Cmd.info "merge"
         ~doc:
           "Validate and merge per-shard campaign journals into the fleet \
            report: shards must be disjoint, cover 0..N-1 and share one \
            (seed, budget) configuration.  The canonical verdict and \
            evidence sections are byte-identical to an unsharded run")
      Term.(const campaign_merge_cmd $ campaign_common_t $ journals)
  in
  let report_t =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Rebuild the campaign report from the journal alone, without \
            fuzzing anything (replays recorded verdicts and exploit \
            evidence)")
      Term.(const campaign_report_cmd $ campaign_common_t)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Fleet-scale fuzzing campaigns: $(b,run) a (shard of a) directory, \
          $(b,merge) shard journals, or re-$(b,report) a journal")
    [ run_t; merge_t; report_t ]

let corpus_t =
  let corpus_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CORPUS")
  in
  let stats_t =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Summarise a seed corpus: per-target seed counts, distinct \
            branch edges covered, and provenance spread")
      Term.(const corpus_stats_cmd $ corpus_pos)
  in
  let minimize_t =
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"FILE"
            ~doc:"Write the minimized corpus here instead of rewriting \
                  $(i,CORPUS) in place.")
    in
    let dry_run =
      Arg.(
        value & flag
        & info [ "dry-run" ]
            ~doc:"Report the reduction without writing anything.")
    in
    Cmd.v
      (Cmd.info "minimize"
         ~doc:
           "Reduce a corpus to a greedy set-cover subset: the smallest \
            seeds-first selection whose union still covers every recorded \
            branch edge per target (deterministic)")
      Term.(const corpus_minimize_cmd $ corpus_pos $ out $ dry_run)
  in
  let import_t =
    let srcs =
      Arg.(
        non_empty & pos_right 0 file []
        & info [] ~docv:"SRC"
            ~doc:"Corpora to fold into $(i,CORPUS) (e.g. from other fleet \
                  machines).")
    in
    Cmd.v
      (Cmd.info "import"
         ~doc:
           "Merge seed corpora: fold every $(i,SRC) into $(i,CORPUS), \
            deduplicating by (target, coverage signature); $(i,CORPUS) is \
            created if absent")
      Term.(const corpus_import_cmd $ corpus_pos $ srcs)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Seed-corpus maintenance: $(b,stats), $(b,minimize) (greedy \
          set-cover), $(b,import) (cross-machine merge).  The corpus file \
          itself is written by `wasai campaign run --corpus`")
    [ stats_t; minimize_t; import_t ]

let socket_arg =
  Arg.(
    value
    & opt string "wasai.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_t =
  let root =
    Arg.(
      value
      & opt string "serve.root"
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Served root: every tenant gets an isolated journal + corpus \
             under $(docv)/<tenant>/.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains fuzzing submissions.")
  in
  let depth =
    Arg.(
      value
      & opt int 16
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Max in-flight submissions per tenant; beyond it the daemon \
             answers BUSY with a retry-after hint (explicit backpressure \
             instead of unbounded buffering).")
  in
  let seed =
    Arg.(
      value
      & opt int64 Core.Engine.default_config.Core.Engine.cfg_rng_seed
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Engine root RNG seed; stamped into every tenant journal line \
             and validated on $(b,--resume).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue existing tenant journals: already-journaled targets \
             are served from cache, everything else is fuzzed fresh.  \
             Without it a root that already holds journals is refused.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the continuous fuzzing daemon: per-tenant journals and \
          corpora under a served root, bounded per-tenant queues with \
          backpressure, streamed verdicts, and crash-safe resume \
          ($(b,kill -9) + $(b,--resume) reproduces the uninterrupted \
          per-tenant reports byte-for-byte)")
    Term.(
      const serve_cmd $ root $ socket_arg $ jobs $ depth $ rounds_arg
      $ backend_arg $ seed $ resume)

let report_t =
  let list_oracles =
    Arg.(
      value & flag
      & info [ "list-oracles" ]
          ~doc:
            "List every vulnerability oracle — name, verdict flag, and \
             whether its journal field is a legacy always-present column \
             or an extension appended only when fired.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Scanner introspection: $(b,--list-oracles) prints the detectors \
          the engine arms for every target (the five paper classes plus \
          three related-work extensions)")
    Term.(const report_cmd $ list_oracles)

let submit_t =
  let tenant =
    Arg.(
      value
      & opt string "default"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Tenant to submit under ([a-z0-9._-], up to 32 chars).")
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"PATH"
          ~doc:"A contract file (*.wasm/*.wat) or a directory of them.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Ask the daemon to shut down after this batch completes.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit contracts to a running serve daemon and stream the \
          verdicts as they complete; exits 1 when any submission is \
          flagged vulnerable")
    Term.(const submit_cmd $ socket_arg $ tenant $ path $ shutdown)

let () =
  let info =
    Cmd.info "wasai" ~version:"1.0.0"
      ~doc:"Concolic fuzzer for Wasm (EOSIO) smart contracts"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_t; gen_t; dump_t; build_t; instrument_t; baseline_t; scan_t;
            report_t; campaign_t; corpus_t; serve_t; submit_t;
          ]))
