(** Evaluation harness: regenerates every table and figure of the paper's
    evaluation (§4), plus ablation and micro benchmarks.

    Usage: [main.exe [--scale N] [--rounds N] [--count N] [--full]
    [experiment ...]]

    Experiments: fig3 table4 table5 table6 table-ext rq4 ablation campaign
    shard corpus compile telemetry micro, or all of them with [all] (the
    default).  [--scale] divides the corpus sizes (default 20; [--full]
    runs the paper-sized corpora — minutes of CPU).  [campaign] measures
    multi-domain scaling (1/2/4 workers) over a generated corpus plus an
    LPT-vs-name-order scheduling datapoint; [shard] measures distributed
    2/4-way sharding against an unsharded baseline and verifies merge
    identity; [corpus] measures warm-vs-cold solver work with the
    persistent seed corpus; [table-ext] is the P/R/F1 table for the three
    related-work extension classes; [compile] measures the
    closure-compiled execution tier ([auto]) against the interpreter
    (payloads/sec, verdict/coverage parity required, >= 2x target);
    [telemetry] prints the per-stage critical-path breakdown of a
    telemetry-on campaign and measures the probes' overhead.

    [compile-smoke] (tier parity, compiled >= 1x the interpreter) and
    [telemetry-smoke] (probe overhead <= 3%) are the two [dune runtest]
    gates that need a clock; [all] leaves them out.  Every other check
    is a test under test/.  An unknown experiment or option, or a flag
    without a positive integer, exits 2 with a usage line. *)

open Wasai_support
module BG = Wasai_benchgen
module Core = Wasai_core
module BL = Wasai_baselines
open Harness

(* ------------------------------------------------------------------ *)
(* Figure 3: branch coverage over time                                  *)
(* ------------------------------------------------------------------ *)

let fig3 (opts : options) =
  Printf.printf "\n=== Figure 3: cumulative distinct branches vs fuzzing time ===\n";
  Printf.printf "(%d contracts, %d rounds each; paper: 100 contracts, 5 min each)\n"
    opts.opt_fig3_contracts opts.opt_rounds;
  let contracts = BG.Corpus.coverage_set ~count:opts.opt_fig3_contracts () in
  let collect run = List.map run contracts in
  let wasai_tls =
    collect (fun s ->
        let o =
          Core.Engine.fuzz
            ~cfg:
              (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id) ())
            (target_of_sample s)
        in
        List.map (fun (_, t, b) -> (t, b)) o.Core.Engine.out_timeline)
  in
  let ef_tls =
    collect (fun s ->
        let o =
          BL.Eosfuzzer.fuzz ~rounds:opts.opt_rounds
            ~rng_seed:(Int64.of_int ((s.BG.Corpus.smp_id * 13) + 1))
            (target_of_sample s)
        in
        List.map (fun (_, t, b) -> (t, b)) o.BL.Eosfuzzer.ef_timeline)
  in
  let total_at tls t =
    List.fold_left
      (fun acc tl ->
        let v =
          List.fold_left (fun best (tt, b) -> if tt <= t then b else best) 0 tl
        in
        acc + v)
      0 tls
  in
  let t_max =
    List.fold_left
      (fun m tl -> List.fold_left (fun m (t, _) -> max m t) m tl)
      0.001 (wasai_tls @ ef_tls)
  in
  let buckets =
    List.init 13 (fun i -> t_max *. ((float_of_int i /. 12.) ** 2.0))
  in
  Printf.printf "%-12s %-10s %-10s %-6s\n" "time (s)" "WASAI" "EOSFuzzer" "ratio";
  List.iter
    (fun t ->
      let w = total_at wasai_tls t and e = total_at ef_tls t in
      Printf.printf "%-12.4f %-10d %-10d %-6.2f\n" t w e
        (float_of_int w /. float_of_int (max 1 e)))
    buckets;
  let w_end = total_at wasai_tls t_max and e_end = total_at ef_tls t_max in
  Printf.printf
    "final: WASAI %d vs EOSFuzzer %d -> %.2fx  (paper: ~75,000 vs ~37,000 -> ~2x)\n"
    w_end e_end
    (float_of_int w_end /. float_of_int (max 1 e_end))

(* ------------------------------------------------------------------ *)
(* Tables 4 / 5 / 6                                                     *)
(* ------------------------------------------------------------------ *)

let table4 (opts : options) =
  let corpus = BG.Corpus.ground_truth ~seed:opts.opt_seed ~scale:opts.opt_scale () in
  Printf.printf "\nTable 4 corpus: %d samples (scale 1/%d of 3,340)\n"
    (List.length corpus) opts.opt_scale;
  let rows = evaluate_corpus ~rounds:opts.opt_rounds corpus in
  print_table ~title:"Table 4: accuracy on the ground-truth benchmark (RQ2)"
    ~paper:paper_table4 rows

let table5 (opts : options) =
  let corpus = BG.Corpus.obfuscated ~seed:opts.opt_seed ~scale:opts.opt_scale () in
  Printf.printf "\nTable 5 corpus: %d obfuscated samples\n" (List.length corpus);
  let rows = evaluate_corpus ~rounds:opts.opt_rounds corpus in
  print_table ~title:"Table 5: impact of code obfuscation (RQ3)"
    ~paper:paper_table5 rows

let table6 (opts : options) =
  let corpus = BG.Corpus.verification ~scale:opts.opt_scale () in
  Printf.printf "\nTable 6 corpus: %d complicated-verification samples\n"
    (List.length corpus);
  let rows = evaluate_corpus ~rounds:opts.opt_rounds corpus in
  print_table ~title:"Table 6: impact of complicated verification (RQ3)"
    ~paper:paper_table6 rows

(* The related-work extension classes (StateIo / FakeTransfer /
   AssetOverflow) have no paper reference row — the poster's evaluation
   covers the five legacy classes only — so the paper column is empty. *)
let table_ext (opts : options) =
  let corpus = BG.Corpus.extension ~scale:(max 1 (opts.opt_scale / 4)) () in
  Printf.printf "\nExtension corpus: %d samples over the 3 related-work classes\n"
    (List.length corpus);
  let rows = evaluate_corpus ~rounds:opts.opt_rounds corpus in
  print_table
    ~title:
      "Extension: related-work classes (WACANA state I/O, EVulHunter fake \
       transfer, asset overflow)"
    ~paper:[] rows

(* ------------------------------------------------------------------ *)
(* RQ4: vulnerabilities in the wild                                     *)
(* ------------------------------------------------------------------ *)

let rq4 (opts : options) =
  let count = min 991 (max 40 (991 * 4 / max 1 opts.opt_scale)) in
  Printf.printf
    "\n=== RQ4: the synthetic mainnet population (%d contracts; paper: 991) ===\n"
    count;
  let population = BG.Mainnet.generate ~count () in
  let flag_counts = Hashtbl.create 8 in
  let bump f =
    Hashtbl.replace flag_counts f
      (1 + Option.value ~default:0 (Hashtbl.find_opt flag_counts f))
  in
  let verify = Metrics.empty () in
  let flagged_contracts =
    List.filter
      (fun (d : BG.Mainnet.deployed) ->
        let o =
          Core.Engine.fuzz
            ~cfg:
              (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~rng_seed:(Int64.of_int d.BG.Mainnet.dep_id) ())
            {
              Core.Engine.tgt_account = d.BG.Mainnet.dep_account;
              tgt_module = d.BG.Mainnet.dep_module;
              tgt_abi = d.BG.Mainnet.dep_abi;
            }
        in
        List.iter (fun (f, b) -> if b then bump f) o.Core.Engine.out_flags;
        let flagged = Core.Engine.any_flagged o in
        (* The paper's manual-verification step (100 sampled contracts,
           dynamic debugging): here the planted ground truth verifies
           every contract. *)
        Metrics.record verify ~truth:(BG.Mainnet.truth_any d) ~predicted:flagged;
        flagged)
      population
  in
  let n_flagged = List.length flagged_contracts in
  let pct x total = 100.0 *. float_of_int x /. float_of_int total in
  Printf.printf "flagged vulnerable: %d/%d (%.1f%%)   paper: 707/991 (71.3%%)\n"
    n_flagged count (pct n_flagged count);
  List.iter
    (fun (f, paper_n) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt flag_counts f) in
      Printf.printf "  %-14s %4d (%.1f%%)   paper: %d (%.1f%%)\n"
        (Core.Scanner.string_of_flag f) n (pct n count) paper_n (pct paper_n 991))
    [
      (Core.Scanner.Fake_eos, 241);
      (Core.Scanner.Fake_notif, 264);
      (Core.Scanner.Miss_auth, 470);
      (Core.Scanner.Blockinfo_dep, 22);
      (Core.Scanner.Rollback, 122);
    ];
  (* Patch-history analysis of the flagged contracts. *)
  let abandoned, operating =
    List.partition
      (fun (d : BG.Mainnet.deployed) ->
        d.BG.Mainnet.dep_history = BG.Mainnet.Abandoned)
      flagged_contracts
  in
  (* Verify patches by re-fuzzing the latest version (paper footnote 1). *)
  let patched, exposed =
    List.partition
      (fun (d : BG.Mainnet.deployed) ->
        match BG.Mainnet.latest_version d with
        | None -> false
        | Some (m, abi) ->
            let o =
              Core.Engine.fuzz
                ~cfg:
                  (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~rng_seed:(Int64.of_int (d.BG.Mainnet.dep_id + 99)) ())
                {
                  Core.Engine.tgt_account = d.BG.Mainnet.dep_account;
                  tgt_module = m;
                  tgt_abi = abi;
                }
            in
            not (Core.Engine.any_flagged o))
      operating
  in
  Printf.printf
    "of flagged: %d abandoned, %d operating (%.1f%%; paper 58.4%%), of which %d patched / %d still exposed\n"
    (List.length abandoned) (List.length operating)
    (pct (List.length operating) (max 1 n_flagged))
    (List.length patched) (List.length exposed);
  Printf.printf "paper: 413 operating, 72 patched, 341 exposed\n";
  Printf.printf
    "verification against planted ground truth: %d FP / %d FN over %d contracts (paper's manual check: 2 FPs, 1 FN in a 100-sample audit)\n"
    verify.Metrics.fp verify.Metrics.fn (Metrics.total verify)

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ablation (opts : options) =
  Printf.printf "\n=== Ablations ===\n";
  (* 1. Feedback on/off: detection and coverage on a deep-gated contract. *)
  let rng = Rand.create 11L in
  let spec =
    {
      (BG.Contracts.default_spec (Wasai_eosio.Name.of_string "victim")) with
      BG.Contracts.sp_payout_inline = true;
      sp_checks =
        [
          { BG.Contracts.chk_target = BG.Contracts.Chk_amount; chk_value = 123456789L };
          {
            BG.Contracts.chk_target = BG.Contracts.Chk_symbol;
            chk_value = Wasai_eosio.Asset.Symbol.eos;
          };
        ];
      sp_milestones = BG.Verification.random_milestones rng ~depth:10;
    }
  in
  let m, abi = BG.Contracts.build spec in
  let target =
    {
      Core.Engine.tgt_account = Wasai_eosio.Name.of_string "victim";
      tgt_module = m;
      tgt_abi = abi;
    }
  in
  let with_fb =
    Core.Engine.fuzz
      ~cfg:(Core.Engine.make_config ~rounds:(opts.opt_rounds) ())
      target
  in
  let without_fb =
    Core.Engine.fuzz
      ~cfg:
        (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~feedback:false ())
      target
  in
  Printf.printf
    "symbolic feedback: ON  -> branches=%d rollback-found=%b | OFF -> branches=%d rollback-found=%b\n"
    with_fb.Core.Engine.out_branches
    (Core.Engine.flagged with_fb Core.Scanner.Rollback)
    without_fb.Core.Engine.out_branches
    (Core.Engine.flagged without_fb Core.Scanner.Rollback);
  (* 2. Memory model: concrete-address vs EOSAFE merge-map. *)
  let n_ops = 3000 in
  let _, t_wasai =
    time_it (fun () ->
        let mem = Wasai_symbolic.Memmodel.create () in
        for i = 0 to n_ops - 1 do
          Wasai_symbolic.Memmodel.store mem ~addr:(i * 8 mod 4096) ~width_bytes:8
            (Wasai_smt.Expr.const 64 (Int64.of_int i));
          ignore
            (Wasai_symbolic.Memmodel.load mem ~addr:(i * 8 mod 4096) ~width_bytes:8)
        done)
  in
  let work, t_eosafe =
    time_it (fun () ->
        let mem = Wasai_symbolic.Eosafe_memory.create () in
        for i = 0 to (n_ops / 10) - 1 do
          Wasai_symbolic.Eosafe_memory.store mem
            ~addr:(Wasai_smt.Expr.const 32 (Int64.of_int (i * 8 mod 4096)))
            ~width_bytes:8
            (Wasai_smt.Expr.const 64 (Int64.of_int i));
          ignore
            (Wasai_symbolic.Eosafe_memory.load mem
               ~addr:(Wasai_smt.Expr.const 32 (Int64.of_int (i * 8 mod 4096)))
               ~width_bytes:8)
        done;
        Wasai_symbolic.Eosafe_memory.work mem)
  in
  Printf.printf
    "memory model: WASAI concrete-address %d ops in %.3fs | EOSAFE merge-map %d ops in %.3fs (scanned %d entries)\n"
    (2 * n_ops) t_wasai (2 * n_ops / 10) t_eosafe work;
  (* 3. Solver tiers: quick path vs bit-blasting, tallied by a private
     session (solver accounting is per-session, not global). *)
  let open Wasai_smt in
  let session = Solver.Session.create () in
  let x = Expr.fresh_var ~name:"x" 64 in
  let _, t_quick =
    time_it (fun () ->
        for i = 0 to 499 do
          ignore
            (Solver.check ~session
               [ Expr.cmp Expr.Eq (Expr.var x) (Expr.const 64 (Int64.of_int i)) ])
        done)
  in
  let _, t_blast =
    time_it (fun () ->
        for i = 0 to 19 do
          let y = Expr.fresh_var ~name:"y" 32 in
          ignore
            (Solver.check ~session
               [
                 Expr.cmp Expr.Eq
                   (Expr.unop Expr.Popcnt (Expr.var y))
                   (Expr.const 32 (Int64.of_int (1 + (i mod 20))));
               ])
        done)
  in
  let st = Solver.Session.stats session in
  Printf.printf
    "solver: 500 equality chains via quick path in %.4fs (quick-path hits +%d) | 20 popcount queries via bit-blasting in %.3fs (blasted %d)\n"
    t_quick st.Solver.st_quick t_blast st.Solver.st_blasted

(* ------------------------------------------------------------------ *)
(* Campaign: multi-domain scaling                                       *)
(* ------------------------------------------------------------------ *)

module Campaign = Wasai_campaign

(* Unique per-sample deployment accounts: verdicts derive from the account
   name, so every target needs a stable identity of its own. *)
let campaign_account i =
  let b = Buffer.create 8 in
  Buffer.add_string b "camp";
  let rec go i =
    if i >= 26 then go (i / 26);
    Buffer.add_char b (Char.chr (Char.code 'a' + (i mod 26)))
  in
  go i;
  Wasai_eosio.Name.of_string (Buffer.contents b)

let campaign_targets ?(sized = true) ~count () =
  List.mapi
    (fun i (s : BG.Corpus.sample) ->
      let account = campaign_account i in
      {
        Campaign.Campaign.sp_name = Wasai_eosio.Name.to_string account;
        (* Encoded byte size feeds the campaign's biggest-first (LPT)
           scheduling; [sized:false] zeroes it to get plain name order
           for the scheduling comparison. *)
        sp_size =
          (if sized then
             String.length (Wasai_wasm.Encode.encode s.BG.Corpus.smp_module)
           else 0);
        sp_load =
          (fun () ->
            {
              Core.Engine.tgt_account = account;
              tgt_module = s.BG.Corpus.smp_module;
              tgt_abi = s.BG.Corpus.smp_abi;
            });
      })
    (BG.Corpus.coverage_set ~count ())

let campaign_config ?journal ?shard ~rounds ~jobs () =
  Campaign.Campaign.make_config ~jobs ?journal ?shard
    ~engine:(Core.Engine.make_config ~rounds:(rounds) ())
    ()

let campaign_exp (opts : options) =
  let count = max 16 opts.opt_fig3_contracts in
  let rounds = opts.opt_rounds in
  Printf.printf
    "\n=== Campaign: domain scaling over %d generated contracts (%d rounds \
     each) ===\n"
    count rounds;
  Printf.printf "hardware: %d recommended domain(s)\n%!"
    (Domain.recommended_domain_count ());
  let targets = campaign_targets ~count () in
  (* The process's CPU seconds, user plus system, over all its domains. *)
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let runs =
    List.map
      (fun jobs ->
        let cpu0 = cpu () in
        let r = Campaign.Campaign.run (campaign_config ~rounds ~jobs ()) targets in
        Printf.printf "  jobs=%d  wall=%.2fs  cpu=%.2fs  %s\n%!" jobs
          r.Campaign.Campaign.cr_wall
          (cpu () -. cpu0)
          (Metrics.Histogram.to_string (Campaign.Campaign.latency_histogram r));
        (jobs, r))
      [ 1; 2; 4 ]
  in
  let _, serial = List.hd runs in
  let serial_text = Campaign.Campaign.verdicts_text serial in
  List.iter
    (fun (jobs, r) ->
      Printf.printf "  jobs=%d speedup vs serial: %.2fx  verdicts identical: %b\n"
        jobs
        (serial.Campaign.Campaign.cr_wall /. r.Campaign.Campaign.cr_wall)
        (String.equal serial_text (Campaign.Campaign.verdicts_text r)))
    runs;
  Printf.printf "fleet: %d/%d vulnerable, %d total branches\n"
    (Campaign.Campaign.vulnerable_count serial)
    count
    (Campaign.Campaign.total_branches serial);
  (* Long-tail scheduling datapoint: biggest-module-first (LPT) vs plain
     name order at 4 domains.  Same targets, same verdicts; only the
     enqueue order — and hence the makespan — differs. *)
  let lpt =
    Campaign.Campaign.run (campaign_config ~rounds ~jobs:4 ()) targets
  in
  let unsorted =
    Campaign.Campaign.run
      (campaign_config ~rounds ~jobs:4 ())
      (campaign_targets ~sized:false ~count ())
  in
  Printf.printf
    "  scheduling (4 domains): LPT makespan=%.2fs vs name-order=%.2fs \
     (%.2fx); verdicts identical: %b\n"
    lpt.Campaign.Campaign.cr_wall unsorted.Campaign.Campaign.cr_wall
    (unsorted.Campaign.Campaign.cr_wall
    /. Float.max 1e-9 lpt.Campaign.Campaign.cr_wall)
    (String.equal
       (Campaign.Campaign.verdicts_text lpt)
       (Campaign.Campaign.verdicts_text unsorted))

(* ------------------------------------------------------------------ *)
(* Campaign: distributed sharding                                       *)
(* ------------------------------------------------------------------ *)

(* Fuzz each shard slice in its own journal (as N independent machines
   would), then recombine with [Campaign.merge].  Returns the merged
   report plus each shard's (targets, wall). *)
let run_sharded ~rounds ~jobs ~shards targets =
  let journals =
    List.init shards (fun i ->
        let j =
          Filename.temp_file (Printf.sprintf "wasai-shard%d-" i) ".journal"
        in
        Sys.remove j;
        j)
  in
  let walls =
    List.mapi
      (fun i journal ->
        let shard = Campaign.Shard.make ~index:i ~count:shards in
        let r =
          Campaign.Campaign.run
            (campaign_config ~journal ~shard ~rounds ~jobs ())
            targets
        in
        (r.Campaign.Campaign.cr_requested, r.Campaign.Campaign.cr_wall))
      journals
  in
  let merged = Campaign.Campaign.merge journals in
  List.iter Sys.remove journals;
  (merged, walls)

let exploit_count (r : Campaign.Campaign.report) =
  List.fold_left
    (fun acc (e : Campaign.Journal.entry) ->
      acc + List.length e.Campaign.Journal.je_exploits)
    0 r.Campaign.Campaign.cr_results

let shard_exp (opts : options) =
  let count = max 16 opts.opt_fig3_contracts in
  let rounds = opts.opt_rounds in
  Printf.printf
    "\n=== Campaign: distributed sharding over %d generated contracts (%d \
     rounds each) ===\n%!"
    count rounds;
  let targets = campaign_targets ~count () in
  let unsharded =
    Campaign.Campaign.run (campaign_config ~rounds ~jobs:1 ()) targets
  in
  Printf.printf "  unsharded: %d targets, wall=%.2fs\n%!" count
    unsharded.Campaign.Campaign.cr_wall;
  let v0 = Campaign.Campaign.verdicts_text unsharded in
  let e0 = Campaign.Campaign.evidence_text unsharded in
  List.iter
    (fun shards ->
      let merged, walls = run_sharded ~rounds ~jobs:1 ~shards targets in
      let makespan = List.fold_left (fun m (_, w) -> max m w) 0.0 walls in
      Printf.printf "  %d shards: slices [%s], fleet makespan=%.2fs \
                     (%.2fx), merge identical: verdicts=%b evidence=%b\n%!"
        shards
        (String.concat "; "
           (List.map (fun (n, w) -> Printf.sprintf "%d targets %.2fs" n w) walls))
        makespan
        (unsharded.Campaign.Campaign.cr_wall /. Float.max 1e-9 makespan)
        (String.equal v0 (Campaign.Campaign.verdicts_text merged))
        (String.equal e0 (Campaign.Campaign.evidence_text merged)))
    [ 2; 4 ];
  Printf.printf "  exploit evidence: %d payloads over %d vulnerable targets\n"
    (exploit_count unsharded)
    (Campaign.Campaign.vulnerable_count unsharded)

(* ------------------------------------------------------------------ *)
(* Corpus: persistent seed reuse (warm vs cold)                         *)
(* ------------------------------------------------------------------ *)

module SeedCorpus = Wasai_corpus.Corpus

let preload_of_outcome (o : Core.Engine.outcome) =
  List.map
    (fun (i : Core.Engine.interesting) ->
      (i.Core.Engine.is_action, i.Core.Engine.is_args))
    o.Core.Engine.out_interesting

let fired_flags (o : Core.Engine.outcome) = List.filter snd o.Core.Engine.out_flags

(* The quantity a preload actually saves: solver runs (quick-path +
   bit-blasted).  Replayed seeds re-open the prior run's branches
   without re-deriving the flips that found them, so a warm run's
   feedback loop has far less left to solve.  Verdict *rounds* are the
   wrong axis: they are bounded below by cross-round chain mechanics
   (db-gated actions need a writer round before the reader, the action
   schedule cycles mod |actions|) that replaying seeds cannot shortcut. *)
let solver_runs (o : Core.Engine.outcome) =
  o.Core.Engine.out_solver.Wasai_smt.Solver.st_quick
  + o.Core.Engine.out_solver.Wasai_smt.Solver.st_blasted

(* Engine-level warm-vs-cold over one sample: fuzz cold, preload the
   cold run's interesting seeds, fuzz again. *)
let warm_cold ~rounds (s : BG.Corpus.sample) =
  let cfg =
    (Core.Engine.make_config ~rounds:(rounds) ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id) ())
  in
  let cold = Core.Engine.fuzz ~cfg (target_of_sample s) in
  let warm =
    Core.Engine.fuzz
      ~cfg:{ cfg with Core.Engine.cfg_preload = preload_of_outcome cold }
      (target_of_sample s)
  in
  (cold, warm)

let corpus_exp (opts : options) =
  let count = max 16 opts.opt_fig3_contracts in
  let rounds = opts.opt_rounds in
  Printf.printf
    "\n=== Corpus: cross-run seed reuse over %d generated contracts (%d \
     rounds each) ===\n%!"
    count rounds;
  (* Engine level: solver runs to the same verdict set, cold vs warm. *)
  let cold_q, warm_q, cold_vr, warm_vr, parity, seeds =
    List.fold_left
      (fun (cq, wq, cv, wv, ok, n) s ->
        let cold, warm = warm_cold ~rounds s in
        ( cq + solver_runs cold,
          wq + solver_runs warm,
          cv + max 1 cold.Core.Engine.out_verdict_round,
          wv + max 1 warm.Core.Engine.out_verdict_round,
          ok && fired_flags cold = fired_flags warm,
          n + List.length cold.Core.Engine.out_interesting ))
      (0, 0, 0, 0, true, 0)
      (BG.Corpus.coverage_set ~count ())
  in
  Printf.printf
    "  engine: cold solver runs=%d, warm (preloaded)=%d -> %.2fx fewer; \
     verdict parity: %b; rounds-to-verdict cold=%d warm=%d; %d \
     interesting seeds\n"
    cold_q warm_q
    (float_of_int cold_q /. float_of_int (max 1 warm_q))
    parity cold_vr warm_vr seeds;
  (* Campaign level: a cold campaign fills the corpus file; warm reruns
     must reproduce the verdict flags, byte-identically across --jobs. *)
  let targets = campaign_targets ~count () in
  let corpus_file = Filename.temp_file "wasai-corpus" ".seeds" in
  Sys.remove corpus_file;
  let campaign ~jobs ~corpus =
    Campaign.Campaign.run
      (Campaign.Campaign.make_config ~jobs ~corpus
         ~engine:
           (Core.Engine.make_config ~rounds:(rounds) ())
         ())
      targets
  in
  let cold_r = campaign ~jobs:2 ~corpus:corpus_file in
  let warm1_file = corpus_file ^ ".w1" and warm2_file = corpus_file ^ ".w2" in
  let copy src dst = SeedCorpus.save (SeedCorpus.load src) dst in
  copy corpus_file warm1_file;
  copy corpus_file warm2_file;
  let warm1 = campaign ~jobs:1 ~corpus:warm1_file in
  let warm2 = campaign ~jobs:2 ~corpus:warm2_file in
  let stored = SeedCorpus.load corpus_file in
  let minimized = SeedCorpus.minimize stored in
  (* Flag parity per target: chain state is part of a trace, so a replay
     can steer a warm run onto a trajectory that misses (or adds) a
     state-dependent flag.  Report the distribution, not a boolean. *)
  let flag_lines r =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Campaign.Campaign.flags_text r))
  in
  let agree =
    List.fold_left2
      (fun n c w -> if String.equal c w then n + 1 else n)
      0 (flag_lines cold_r) (flag_lines warm1)
  in
  let total = List.length (flag_lines cold_r) in
  Printf.printf
    "  campaign: %d seeds stored cold; warm preloaded %d; flag parity \
     warm-vs-cold: %d/%d targets; warm verdicts byte-identical across \
     jobs 1/2: %b\n"
    cold_r.Campaign.Campaign.cr_corpus_added
    warm1.Campaign.Campaign.cr_corpus_preloaded agree total
    (String.equal
       (Campaign.Campaign.verdicts_text warm1)
       (Campaign.Campaign.verdicts_text warm2));
  Printf.printf "  minimize: %d -> %d seeds (greedy set cover)\n"
    (SeedCorpus.size stored) (SeedCorpus.size minimized);
  List.iter Sys.remove [ corpus_file; warm1_file; warm2_file ]

(* ------------------------------------------------------------------ *)
(* Compiled execution tier (Exec_backend)                               *)
(* ------------------------------------------------------------------ *)

(* Run one tier over a corpus with symbolic feedback off, so wall-clock
   is dominated by payload execution — the component the compiled tier
   accelerates — rather than the solver.  Returns one canonical
   verdict+coverage line per sample (the parity artefact), total pushed
   transactions, and wall-clock seconds. *)
let run_tier ~rounds ~backend samples =
  let t0 = Unix.gettimeofday () in
  let lines, tx =
    List.fold_left
      (fun (lines, tx) (s : BG.Corpus.sample) ->
        let o =
          Core.Engine.fuzz
            ~cfg:
              (Core.Engine.make_config ~rounds
                 ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id)
                 ~feedback:false ~backend ())
            (target_of_sample s)
        in
        let name =
          Wasai_eosio.Name.to_string s.BG.Corpus.smp_spec.BG.Contracts.sp_account
        in
        let line =
          Printf.sprintf "%s b=%d %s" name o.Core.Engine.out_branches
            (String.concat ","
               (List.filter_map
                  (fun (f, b) ->
                    if b then Some (Core.Scanner.string_of_flag f) else None)
                  o.Core.Engine.out_flags))
        in
        (line :: lines, tx + o.Core.Engine.out_transactions))
      ([], 0) samples
  in
  (List.rev lines, tx, Unix.gettimeofday () -. t0)

(* Figure 3 throughput of the compiled tier vs the interpreter over the
   legacy ground-truth corpus: the tentpole target is >= 2x payloads/sec
   at identical verdicts and coverage. *)
let compile_exp (opts : options) =
  Printf.printf "\n=== Compiled execution tier: throughput vs interpreter ===\n";
  let samples = BG.Corpus.coverage_set ~count:opts.opt_fig3_contracts () in
  let rounds = opts.opt_rounds in
  Printf.printf "(%d branch-rich Figure 3 contracts, %d rounds each, symbolic feedback off)\n%!"
    (List.length samples) rounds;
  let i_lines, i_tx, i_wall = run_tier ~rounds ~backend:Core.Exec_backend.Interp samples in
  let c_lines, c_tx, c_wall = run_tier ~rounds ~backend:Core.Exec_backend.Auto samples in
  let parity = i_lines = c_lines && i_tx = c_tx in
  let ipps = float_of_int i_tx /. i_wall in
  let cpps = float_of_int c_tx /. c_wall in
  Printf.printf "  interp   : %6d payloads in %6.2f s -> %8.0f payloads/sec\n"
    i_tx i_wall ipps;
  Printf.printf "  compiled : %6d payloads in %6.2f s -> %8.0f payloads/sec\n"
    c_tx c_wall cpps;
  Printf.printf
    "  speedup %.2fx (target >= 2x); verdict/coverage parity: %b\n%!"
    (cpps /. ipps) parity

(* Quick local verification (<10 s) of the compiled tier: over a small
   legacy slice, the compiled backend must reach byte-identical
   verdict+coverage lines and push counts, and must not be slower than
   the interpreter. *)
let compile_smoke () =
  Printf.printf "\n=== Compile smoke (tier parity + throughput) ===\n%!";
  let samples = BG.Corpus.ground_truth ~scale:100 () in
  let rounds = 16 in
  let i_lines, i_tx, i_wall = run_tier ~rounds ~backend:Core.Exec_backend.Interp samples in
  let c_lines, c_tx, c_wall = run_tier ~rounds ~backend:Core.Exec_backend.Auto samples in
  let parity = i_lines = c_lines && i_tx = c_tx in
  let ipps = float_of_int i_tx /. i_wall in
  let cpps = float_of_int c_tx /. c_wall in
  let faster = cpps >= ipps in
  let ok = parity && faster in
  Printf.printf
    "%d contracts, %d payloads: verdict+coverage parity: %b; interp %.0f \
     payloads/sec vs compiled %.0f payloads/sec (%.2fx, must be >= 1x): %b \
     -> %s\n"
    (List.length samples) i_tx parity ipps cpps (cpps /. ipps) faster
    (if ok then "OK" else "MISMATCH");
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Telemetry: zero-interference observability                           *)
(* ------------------------------------------------------------------ *)

module Telemetry = Wasai_telemetry.Telemetry

(* CPU seconds of [reps] pure-execution sweeps (symbolic feedback off)
   over a corpus slice, telemetry off vs on.  The two sides are
   interleaved per target, in alternating order: host speed on a shared
   VM drifts by tens of percent over seconds, while one target's off/on
   pair runs within a few milliseconds, so drift lands on both sides
   alike instead of on whichever whole sweep it happened to hit.  Each
   side is still [reps] complete sweeps, so the ratio of the two totals
   is the probes' end-to-end cost.  Totals, not minima: a minimum over a
   few millisecond-long runs is itself noisy, while the totals average
   every run.  CPU time (getrusage) is exact here: no other domain runs
   during the sweeps, and time the host gives to other processes does
   not count. *)
let telemetry_overhead ~reps ~rounds samples =
  let run ~tele ~rounds sample =
    if tele then Telemetry.enable () else Telemetry.disable ();
    let t0 = Sys.time () in
    ignore (run_tier ~rounds ~backend:Core.Exec_backend.Auto [ sample ]);
    let cpu = Sys.time () -. t0 in
    Telemetry.disable ();
    cpu
  in
  (* Warm up first: the opening sweep pays one-off costs (code paging,
     compiled-pool population, GC sizing) that would otherwise land on
     whichever side runs first. *)
  List.iter
    (fun s -> ignore (run ~tele:false ~rounds:(max 2 (rounds / 8)) s))
    samples;
  let off = ref 0. and on = ref 0. in
  for rep = 1 to reps do
    Telemetry.reset ();
    List.iteri
      (fun i s ->
        let time_off () = off := !off +. run ~tele:false ~rounds s in
        let time_on () = on := !on +. run ~tele:true ~rounds s in
        if (i + rep) land 1 = 0 then (time_off (); time_on ())
        else (time_on (); time_off ()))
      samples
  done;
  Telemetry.reset ();
  (!off, !on)

let telemetry_exp (opts : options) =
  Printf.printf "\n=== Telemetry: per-stage critical path + probe overhead ===\n%!";
  (* A telemetry-on campaign over generated contracts: the per-stage /
     per-target breakdown the --telemetry flag prints. *)
  let count = max 8 (opts.opt_fig3_contracts / 2) in
  let rounds = opts.opt_rounds in
  let targets = campaign_targets ~count () in
  let journal = Filename.temp_file "wasai-telemetry" ".journal" in
  Sys.remove journal;
  let r =
    Campaign.Campaign.run
      (Campaign.Campaign.make_config ~jobs:2 ~journal ~telemetry:true
         ~engine:(Core.Engine.make_config ~rounds ())
         ())
      targets
  in
  Sys.remove journal;
  let snap = Telemetry.snapshot () in
  print_string (Telemetry.report_text snap);
  Telemetry.disable ();
  Telemetry.reset ();
  Printf.printf "  (campaign: %d targets, wall=%.2fs)\n" count
    r.Campaign.Campaign.cr_wall;
  (* Probe overhead on the execution-bound workload. *)
  let samples = BG.Corpus.ground_truth ~scale:100 () in
  let off, on = telemetry_overhead ~reps:3 ~rounds:16 samples in
  let ratio = on /. Float.max 1e-9 off in
  Printf.printf
    "  overhead on the compile-smoke corpus (3 sweeps, interleaved per \
     target, CPU s): off=%.3fs on=%.3fs -> %.2f%%\n"
    off on
    (100. *. (ratio -. 1.))

(* The probes' end-to-end cost, gated in [dune runtest]: telemetry on
   must cost at most 3% CPU over off, over 8 sweeps interleaved per
   target.  The branch-rich coverage contracts give ~100 ms per sweep.
   The zero-interference half of the contract (journals and reports
   byte-identical off/on) needs no clock and is a test in
   test_campaign. *)
let telemetry_smoke () =
  Printf.printf "\n=== Telemetry smoke (probe overhead) ===\n%!";
  let off, on =
    telemetry_overhead ~reps:8 ~rounds:48 (BG.Corpus.coverage_set ~count:30 ())
  in
  let ratio = on /. Float.max 1e-9 off in
  let ok = ratio <= 1.03 in
  Printf.printf
    "probe overhead over 8 sweeps interleaved per target: off=%.3fs on=%.3fs \
     CPU (%.2f%%, bound 3%%) -> %s\n"
    off on
    (100. *. (ratio -. 1.))
    (if ok then "OK" else "MISMATCH");
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  Printf.printf "\n=== Micro benchmarks (Bechamel) ===\n%!";
  let open Bechamel in
  let open Toolkit in
  let spec = BG.Contracts.default_spec (Wasai_eosio.Name.of_string "victim") in
  let m, _abi = BG.Contracts.build spec in
  let bin = Wasai_wasm.Encode.encode m in
  let tests =
    [
      Test.make ~name:"wasm.decode-contract"
        (Staged.stage (fun () -> ignore (Wasai_wasm.Decode.decode bin)));
      Test.make ~name:"wasm.validate-contract"
        (Staged.stage (fun () -> Wasai_wasm.Validate.check_module m));
      Test.make ~name:"wasabi.instrument-contract"
        (Staged.stage (fun () -> ignore (Wasai_wasabi.Instrument.instrument m)));
      (let mem = Wasai_symbolic.Memmodel.create () in
       Test.make ~name:"symbolic.memmodel-store-load"
         (Staged.stage (fun () ->
              Wasai_symbolic.Memmodel.store mem ~addr:128 ~width_bytes:8
                (Wasai_smt.Expr.const 64 99L);
              ignore (Wasai_symbolic.Memmodel.load mem ~addr:128 ~width_bytes:8))));
      (let x = Wasai_smt.Expr.fresh_var ~name:"x" 64 in
       Test.make ~name:"smt.quick-equality"
         (Staged.stage (fun () ->
              ignore
                (Wasai_smt.Solver.check
                   [ Wasai_smt.Expr.(cmp Eq (var x) (const 64 7L)) ]))));
      Test.make ~name:"smt.blast-16bit-mul"
        (Staged.stage (fun () ->
             let y = Wasai_smt.Expr.fresh_var ~name:"y" 16 in
             ignore
               (Wasai_smt.Solver.check
                  [
                    Wasai_smt.Expr.(
                      cmp Eq (binop Mul (var y) (const 16 3L)) (const 16 21L));
                  ])));
    ]
  in
  List.iter
    (fun t ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~limit:500 ~quota:(Time.second 0.3) ())
          Instance.[ monotonic_clock ]
          t
      in
      let a =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-36s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
        a)
    tests

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(* What [all] runs, in order. *)
let experiments =
  [
    ("fig3", fig3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table-ext", table_ext);
    ("rq4", rq4);
    ("ablation", ablation);
    ("campaign", campaign_exp);
    ("shard", shard_exp);
    ("corpus", corpus_exp);
    ("compile", compile_exp);
    ("telemetry", telemetry_exp);
    ("micro", fun _ -> micro ());
  ]

let gates =
  [
    ("compile-smoke", fun _ -> compile_smoke ());
    ("telemetry-smoke", fun _ -> telemetry_smoke ());
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "main.exe: %s\n\
         usage: main.exe [--scale N] [--rounds N] [--count N] [--full] \
         [EXPERIMENT ...]\n\
         experiments: %s all\n"
        msg
        (String.concat " " (List.map fst (experiments @ gates)));
      exit 2)
    fmt

(* Every argument is checked before anything runs, so a misspelled gate
   in a dune rule fails the rule instead of passing it silently. *)
let parse_args args =
  let positive flag v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> usage_error "%s needs a positive integer, got %S" flag v
  in
  let rec go opts names = function
    | [] -> (opts, List.rev names)
    | "--scale" :: v :: rest ->
        go { opts with opt_scale = positive "--scale" v } names rest
    | "--rounds" :: v :: rest ->
        go { opts with opt_rounds = positive "--rounds" v } names rest
    | "--count" :: v :: rest ->
        go { opts with opt_fig3_contracts = positive "--count" v } names rest
    | [ ("--scale" | "--rounds" | "--count") as flag ] ->
        usage_error "%s needs a value" flag
    | "--full" :: rest ->
        go
          { opts with opt_scale = 1; opt_rounds = 60; opt_fig3_contracts = 100 }
          names rest
    | name :: rest when name = "all" || List.mem_assoc name (experiments @ gates)
      ->
        go opts (name :: names) rest
    | arg :: _ when String.starts_with ~prefix:"-" arg ->
        usage_error "unknown option %S" arg
    | name :: _ -> usage_error "unknown experiment %S" name
  in
  go default_options [] args

let () =
  let opts, names = parse_args (List.tl (Array.to_list Sys.argv)) in
  let names = if names = [] then [ "all" ] else names in
  Printf.printf "WASAI evaluation harness  (scale 1/%d, %d rounds/contract)\n"
    opts.opt_scale opts.opt_rounds;
  List.iter
    (fun name ->
      if name = "all" then List.iter (fun (_, run) -> run opts) experiments
      else (List.assoc name (experiments @ gates)) opts)
    names
