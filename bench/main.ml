(** Evaluation harness: regenerates every table and figure of the paper's
    evaluation (§4), plus ablation and micro benchmarks.

    Usage: [main.exe [experiment] [--scale N] [--rounds N] [--count N]
    [--backend interp|compiled|auto] [--json FILE]]

    Experiments: fig3 table4 table5 table6 table-ext rq4 ablation solver
    campaign campaign-smoke slice-smoke shard shard-smoke corpus corpus-smoke trace
    trace-smoke serve-smoke oracle-smoke compile compile-smoke telemetry
    telemetry-smoke micro all (default: all).  [--scale]
    divides the corpus sizes (default 20; use [--full] for the paper-sized
    corpora — minutes of CPU).  [campaign] measures multi-domain scaling
    (1/2/4 workers) over a generated corpus plus an LPT-vs-name-order
    scheduling datapoint; [campaign-smoke] is a <10 s
    parity + resume check; [slice-smoke] is a <10 s round-space
    partitioning check (off-vs-sliced verdict parity, K=1/K=8 merge
    byte-identity and a >= 1.5x modelled 4-worker makespan win on a
    one-dominant-module corpus); [shard] measures distributed 2/4-way sharding
    against an unsharded baseline and verifies merge identity;
    [shard-smoke] is a <10 s 2-shard merge byte-identity check; [solver]
    is a <10 s cache-on/off microbenchmark over a repeated-flip
    workload; [corpus] measures warm-vs-cold rounds-to-verdict with the
    persistent seed corpus; [corpus-smoke] is a <10 s warm-reuse parity
    check; [trace] measures the flat event-buffer collector against the
    historical list collector (records/sec and allocated bytes per
    payload, requires >= 2x fewer); [trace-smoke] is a <10 s
    streaming-vs-materialised identity check; [serve-smoke] is a <10 s
    serve-daemon check (two concurrent tenants vs batch parity, BUSY
    backpressure, kill + resume byte-identity); [table-ext] is the
    P/R/F1 table for the three related-work extension classes;
    [oracle-smoke] is a <10 s 8-class detection + legacy byte-identity
    check of the oracle registry; [compile] measures the closure-compiled
    execution tier against the interpreter (payloads/sec over the legacy
    ground-truth corpus, verdict/coverage parity required, >= 2x target);
    [compile-smoke] is a <10 s parity + not-slower check of the same;
    [telemetry] prints the per-stage critical-path breakdown of a
    telemetry-on campaign and measures the probes' overhead;
    [telemetry-smoke] is a <10 s zero-interference check (journal/report
    byte-identity off vs on at jobs 1 and 2, stage coverage, METRICS
    exposition, overhead <= 3%); [--backend] forces every WASAI engine
    run in the harness onto one execution tier; [--json FILE] writes a
    machine-readable summary (experiment names, metrics, asserted
    bounds) alongside the text scoreboard. *)

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
              (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id) ~backend:opts.opt_backend ())
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
  let rows = evaluate_corpus ~rounds:opts.opt_rounds ~backend:opts.opt_backend corpus in
  print_table ~title:"Table 4: accuracy on the ground-truth benchmark (RQ2)"
    ~paper:paper_table4 rows

let table5 (opts : options) =
  let corpus = BG.Corpus.obfuscated ~seed:opts.opt_seed ~scale:opts.opt_scale () in
  Printf.printf "\nTable 5 corpus: %d obfuscated samples\n" (List.length corpus);
  let rows = evaluate_corpus ~rounds:opts.opt_rounds ~backend:opts.opt_backend corpus in
  print_table ~title:"Table 5: impact of code obfuscation (RQ3)"
    ~paper:paper_table5 rows

let table6 (opts : options) =
  let corpus = BG.Corpus.verification ~scale:opts.opt_scale () in
  Printf.printf "\nTable 6 corpus: %d complicated-verification samples\n"
    (List.length corpus);
  let rows = evaluate_corpus ~rounds:opts.opt_rounds ~backend:opts.opt_backend corpus in
  print_table ~title:"Table 6: impact of complicated verification (RQ3)"
    ~paper:paper_table6 rows

(* The related-work extension classes (StateIo / FakeTransfer /
   AssetOverflow) have no paper reference row — the poster's evaluation
   covers the five legacy classes only — so the paper column is empty. *)
let table_ext (opts : options) =
  let corpus = BG.Corpus.extension ~scale:(max 1 (opts.opt_scale / 4)) () in
  Printf.printf "\nExtension corpus: %d samples over the 3 related-work classes\n"
    (List.length corpus);
  let rows = evaluate_corpus ~rounds:opts.opt_rounds ~backend:opts.opt_backend corpus in
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
              (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~rng_seed:(Int64.of_int d.BG.Mainnet.dep_id) ~backend:opts.opt_backend ())
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
                  (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~rng_seed:(Int64.of_int (d.BG.Mainnet.dep_id + 99)) ~backend:opts.opt_backend ())
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
      ~cfg:(Core.Engine.make_config ~rounds:(opts.opt_rounds) ~backend:opts.opt_backend ())
      target
  in
  let without_fb =
    Core.Engine.fuzz
      ~cfg:
        (Core.Engine.make_config ~rounds:(opts.opt_rounds) ~feedback:false ~backend:opts.opt_backend ())
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
(* Solver: per-session constraint cache                                 *)
(* ------------------------------------------------------------------ *)

(* Repeated-flip workload: the engine re-derives near-identical constraint
   sets round after round (the same path prefix with one condition
   negated), which is exactly what the per-session cache memoises.  Build
   a ~10-deep path over symbolic inputs — equality guards the quick path
   solves, plus small-width arithmetic conditions that force bit-blasting
   — submit every (prefix, flipped) candidate, and repeat the whole sweep
   for several rounds as the engine does.  Run once with the cache
   disabled (capacity 0, the pre-cache baseline) and once with the
   default session; verdict sequences must be identical. *)
let solver_exp () =
  Printf.printf "\n=== Solver: per-session constraint cache ===\n%!";
  let open Wasai_smt in
  let x = Expr.fresh_var ~name:"sx" 64 in
  let y = Expr.fresh_var ~name:"sy" 16 in
  let conds =
    Array.init 10 (fun i ->
        if i mod 3 = 2 then
          (* Small-width multiply: outside the quick path, must blast. *)
          Expr.(
            cmp Ule
              (binop Mul (var y) (const 16 (Int64.of_int (3 + i))))
              (const 16 (Int64.of_int (6000 + (1000 * i)))))
        else
          (* Equality guard the propagation quick path picks off. *)
          Expr.(
            cmp Eq
              (binop Add (var x) (const 64 (Int64.of_int (17 * i))))
              (const 64 (Int64.of_int (1000 + (100 * i))))))
  in
  (* One query per flip candidate: the prefix as taken, then ¬cond. *)
  let queries =
    List.init (Array.length conds) (fun i ->
        List.init i (fun j -> conds.(j)) @ [ Expr.not_ conds.(i) ])
  in
  let rounds = 8 in
  let n = rounds * List.length queries in
  let run session =
    let verdicts = ref [] in
    let _, t =
      time_it (fun () ->
          for _ = 1 to rounds do
            List.iter
              (fun q ->
                verdicts :=
                  (match Solver.check ~session q with
                   | Solver.Sat _ -> `Sat
                   | Solver.Unsat -> `Unsat
                   | Solver.Unknown -> `Unknown)
                  :: !verdicts)
              queries
          done)
    in
    (List.rev !verdicts, Solver.Session.stats session, t)
  in
  let v0, st0, t0 = run (Solver.Session.create ~cache_capacity:0 ()) in
  let v1, st1, t1 = run (Solver.Session.create ()) in
  let per_query t = 1e6 *. t /. float_of_int n in
  Printf.printf
    "  cache off: %d queries  quick=%d blasted=%d unknown=%d  %.4fs (%.1f us/query)\n"
    n st0.Solver.st_quick st0.Solver.st_blasted st0.Solver.st_unknown t0
    (per_query t0);
  Printf.printf
    "  cache on:  %d queries  quick=%d blasted=%d unknown=%d  hits=%s  %.4fs (%.1f us/query)\n"
    n st1.Solver.st_quick st1.Solver.st_blasted st1.Solver.st_unknown
    (Metrics.rate_string ~hits:st1.Solver.st_cache_hits
       ~total:(st1.Solver.st_cache_hits + st1.Solver.st_cache_misses))
    t1 (per_query t1);
  let ok =
    v0 = v1 && st1.Solver.st_cache_hits > 0
    && st1.Solver.st_blasted < st0.Solver.st_blasted
  in
  Printf.printf
    "  verdicts identical: %b  blasting runs saved: %d\n"
    (v0 = v1)
    (st0.Solver.st_blasted - st1.Solver.st_blasted);
  json_record ~experiment:"solver"
    ~bounds:
      [
        {
          jb_name = "verdict_parity";
          jb_bound = "cache on/off verdicts identical";
          jb_pass = v0 = v1;
        };
        {
          jb_name = "blasting_saved";
          jb_bound = "cache hits > 0 and fewer blasts";
          jb_pass =
            st1.Solver.st_cache_hits > 0
            && st1.Solver.st_blasted < st0.Solver.st_blasted;
        };
      ]
    [
      ("queries", float_of_int n);
      ("cache_off_s", t0);
      ("cache_on_s", t1);
      ("cache_hits", float_of_int st1.Solver.st_cache_hits);
      ("blasts_saved", float_of_int (st0.Solver.st_blasted - st1.Solver.st_blasted));
    ];
  if not ok then begin
    Printf.printf "solver cache benchmark FAILED\n";
    exit 1
  end

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

let campaign_config ?journal ?resume ?max_targets ?shard ~rounds ~jobs () =
  Campaign.Campaign.make_config ~jobs ?journal ?resume ?max_targets ?shard
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
  let runs =
    List.map
      (fun jobs ->
        let r = Campaign.Campaign.run (campaign_config ~rounds ~jobs ()) targets in
        Printf.printf "  jobs=%d  wall=%.2fs  %s\n%!" jobs
          r.Campaign.Campaign.cr_wall
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
       (Campaign.Campaign.verdicts_text unsorted));
  (* Intra-target slicing datapoint.  With a queue this deep (16 targets
     for 4 workers) --slices auto declines to cut anything — fair-share
     says whole targets already balance — while forcing --slices 4
     quadruples the per-target seeding cost for no makespan gain.  The
     payoff case, a queue shallower than the worker pool, is pinned by
     [slice-smoke]. *)
  let slice_cfg slices =
    Campaign.Campaign.make_config ~jobs:4 ~slices
      ~engine:(Core.Engine.make_config ~rounds:(rounds) ())
      ()
  in
  let auto_plan = Campaign.Campaign.plan (slice_cfg Campaign.Campaign.Auto) targets in
  let auto_units =
    List.fold_left
      (fun acc (r : Campaign.Campaign.plan_row) -> acc + r.Campaign.Campaign.pr_slices)
      0 auto_plan.Campaign.Campaign.pl_rows
  in
  let forced =
    Campaign.Campaign.run (slice_cfg (Campaign.Campaign.Fixed 4)) targets
  in
  (* Per-target flag agreement with the whole-target run: sliced cells
     draw from disjoint RNG streams, so borderline targets may explore
     differently — byte-identity is only promised between slice counts
     of the same decomposition (K vs K'), which slice-smoke pins. *)
  let agree =
    let lines r =
      String.split_on_char '\n' (Campaign.Campaign.flags_text r)
    in
    List.fold_left2
      (fun acc a b -> if String.equal a b then acc + 1 else acc)
      0 (lines serial) (lines forced)
    - 1 (* both texts end with a trailing empty line *)
  in
  Printf.printf
    "  slicing (4 domains): auto plans %d work units over %d targets \
     (queue-deep, K=1); forced K=4 wall=%.2fs vs whole-target wall=%.2fs \
     (%.2fx work amplification from per-cell seeding), flag agreement \
     %d/%d targets\n"
    auto_units count forced.Campaign.Campaign.cr_wall
    lpt.Campaign.Campaign.cr_wall
    (forced.Campaign.Campaign.cr_wall
    /. Float.max 1e-9 lpt.Campaign.Campaign.cr_wall)
    agree count

(* Quick local verification (<10 s): a tiny corpus through the parallel
   path plus an interrupt/resume round-trip on a throwaway journal. *)
let campaign_smoke () =
  Printf.printf "\n=== Campaign smoke (parallel parity + resume) ===\n%!";
  let targets = campaign_targets ~count:6 () in
  let rounds = 6 in
  let full =
    Campaign.Campaign.run (campaign_config ~rounds ~jobs:2 ()) targets
  in
  let journal = Filename.temp_file "wasai-smoke" ".journal" in
  Sys.remove journal;
  let interrupted =
    Campaign.Campaign.run
      (campaign_config ~journal ~max_targets:3 ~rounds ~jobs:2 ())
      targets
  in
  let resumed =
    Campaign.Campaign.run
      (campaign_config ~journal ~resume:true ~rounds ~jobs:2 ())
      targets
  in
  Sys.remove journal;
  let ok =
    List.length interrupted.Campaign.Campaign.cr_results = 3
    && resumed.Campaign.Campaign.cr_skipped = 3
    && String.equal
         (Campaign.Campaign.verdicts_text full)
         (Campaign.Campaign.verdicts_text resumed)
  in
  Printf.printf "parallel run, interrupt at 3/6, resume: %s (wall %.2fs)\n"
    (if ok then "OK" else "MISMATCH")
    (full.Campaign.Campaign.cr_wall +. interrupted.Campaign.Campaign.cr_wall
     +. resumed.Campaign.Campaign.cr_wall);
  json_record ~experiment:"campaign-smoke"
    ~bounds:
      [
        {
          jb_name = "resume_parity";
          jb_bound = "resumed verdicts = uninterrupted verdicts";
          jb_pass = ok;
        };
      ]
    [ ("wall_s", full.Campaign.Campaign.cr_wall) ];
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Campaign: intra-target slicing                                       *)
(* ------------------------------------------------------------------ *)

(* A module whose fuzzing cost is round work rather than setup: deep
   injected verification checks behind popcount-obfuscated guards keep
   the solver busy every round, so a big round budget makes this one
   module dominate a campaign's makespan. *)
let dominant_target () =
  let rng = Rand.create 7L in
  let account = Wasai_eosio.Name.of_string "dominant" in
  let spec =
    {
      (BG.Contracts.default_spec account) with
      BG.Contracts.sp_fake_eos_guard = false;
      sp_checks = BG.Verification.random_checks rng ~depth:6;
    }
  in
  let m, abi = BG.Contracts.build spec in
  let m = BG.Obfuscate.obfuscate m in
  ( account,
    { Core.Engine.tgt_account = account; tgt_module = m; tgt_abi = abi } )

(* Longest-processing-time schedule length for [units] on [workers]
   identical workers: the makespan model the campaign scheduler targets.
   Modelling over serially-measured unit costs keeps the comparison
   meaningful whatever the bench host's real core count. *)
let lpt_makespan ~workers units =
  let loads = Array.make workers 0.0 in
  List.iter
    (fun u ->
      let best = ref 0 in
      Array.iteri (fun i l -> if l < loads.(!best) then best := i) loads;
      loads.(!best) <- loads.(!best) +. u)
    (List.sort (fun a b -> compare (b : float) a) units);
  Array.fold_left Float.max 0.0 loads

(* Quick local verification (<10 s) of round-space partitioning: on a
   one-dominant-module corpus (queue shallower than the worker pool)
   slicing must (a) leave the verdict untouched — Off vs sliced agree on
   every flag, K=1 vs K=8 merge byte-identically, and a campaign run
   with --slices auto journals the same entry line — and (b) cut the
   modelled 4-worker makespan by >= 1.5x even though each cell re-pays
   seeding, because the idle workers absorb the split. *)
let slice_smoke () =
  Printf.printf
    "\n=== Slice smoke (round-space partitioning: parity + makespan) ===\n%!";
  let rounds = 1200 in
  let cfg = Core.Engine.make_config ~rounds () in
  let account, target = dominant_target () in
  let name = Wasai_eosio.Name.to_string account in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let whole, t_whole = time (fun () -> Core.Engine.fuzz ~cfg target) in
  let k8 =
    List.init 8 (fun i ->
        time (fun () -> Core.Engine.Slice.run ~cfg ~slice:i ~count:8 target))
  in
  let k1, _ = time (fun () -> Core.Engine.Slice.run ~cfg ~slice:0 ~count:1 target) in
  let stamp =
    {
      Campaign.Journal.js_shard = Campaign.Shard.whole;
      js_seed = cfg.Core.Engine.cfg_rng_seed;
      js_rounds = rounds;
    }
  in
  let entry_line frags =
    Campaign.Journal.line_of_entry
      (Campaign.Journal.of_outcome ~name ~elapsed:0.0 ~stamp
         (Core.Engine.Slice.outcome_of_fragment
            (Core.Engine.Slice.merge frags)))
  in
  let merged = Core.Engine.Slice.merge (List.map fst k8) in
  let parity =
    (Core.Engine.Slice.outcome_of_fragment merged).Core.Engine.out_flags
    = whole.Core.Engine.out_flags
  in
  let k_identity =
    String.equal (entry_line (List.map fst k8)) (entry_line [ k1 ])
  in
  (* the production path: a 1-target campaign at --slices auto picks
     K=2 for 2 workers and must journal the very same entry line *)
  let spec =
    {
      Campaign.Campaign.sp_name = name;
      sp_size =
        String.length
          (Wasai_wasm.Encode.encode target.Core.Engine.tgt_module);
      sp_load = (fun () -> target);
    }
  in
  let report =
    Campaign.Campaign.run
      (Campaign.Campaign.make_config ~jobs:2
         ~slices:Campaign.Campaign.Auto
         ~engine:(Core.Engine.make_config ~rounds ())
         ())
      [ spec ]
  in
  let campaign_identity =
    match report.Campaign.Campaign.cr_results with
    | [ e ] ->
        String.equal
          (Campaign.Journal.line_of_entry
             { e with Campaign.Journal.je_elapsed = 0.0 })
          (entry_line (List.map fst k8))
    | _ -> false
  in
  (* makespan on 4 workers: Off schedules one indivisible unit (three
     workers idle); sliced schedules the 8 measured slice units *)
  let ms_off = lpt_makespan ~workers:4 [ t_whole ] in
  let ms_sliced = lpt_makespan ~workers:4 (List.map snd k8) in
  let ratio = ms_off /. Float.max 1e-9 ms_sliced in
  let ok = parity && k_identity && campaign_identity && ratio >= 1.5 in
  Printf.printf
    "  verdict parity off-vs-sliced: %b   K=1 vs K=8 entry identity: %b\n"
    parity k_identity;
  Printf.printf "  campaign --slices auto journals the same entry: %b\n"
    campaign_identity;
  Printf.printf
    "  4-worker makespan (modelled over measured unit costs): whole \
     %.3fs vs 8 slices %.3fs -> %.2fx (target >= 1.5x)\n"
    ms_off ms_sliced ratio;
  Printf.printf "slice smoke: %s\n" (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"slice-smoke"
    ~bounds:
      [
        {
          jb_name = "verdict_parity";
          jb_bound = "off and sliced agree on every flag";
          jb_pass = parity;
        };
        {
          jb_name = "merge_identity";
          jb_bound = "K=1 and K=8 merge to byte-identical entries";
          jb_pass = k_identity && campaign_identity;
        };
        {
          jb_name = "makespan";
          jb_bound = "sliced 4-worker makespan >= 1.5x better";
          jb_pass = ratio >= 1.5;
        };
      ]
    [
      ("whole_s", t_whole);
      ("sliced_makespan_s", ms_sliced);
      ("makespan_ratio", ratio);
    ];
  if not ok then exit 1

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

(* Quick local verification (<10 s): 2 shards over a tiny corpus, merged,
   must reproduce the unsharded verdict AND evidence sections
   byte-for-byte, with every vulnerable target carrying replayable
   exploit payloads round-tripped through the v3 journal. *)
let shard_smoke () =
  Printf.printf "\n=== Shard smoke (2 shards + merge vs unsharded) ===\n%!";
  let targets = campaign_targets ~count:8 () in
  let rounds = 6 in
  let unsharded =
    Campaign.Campaign.run (campaign_config ~rounds ~jobs:2 ()) targets
  in
  let merged, walls = run_sharded ~rounds ~jobs:2 ~shards:2 targets in
  let verdicts_ok =
    String.equal
      (Campaign.Campaign.verdicts_text unsharded)
      (Campaign.Campaign.verdicts_text merged)
  in
  let evidence_ok =
    String.equal
      (Campaign.Campaign.evidence_text unsharded)
      (Campaign.Campaign.evidence_text merged)
  in
  let vulnerable = Campaign.Campaign.vulnerable_count merged in
  let exploits = exploit_count merged in
  let ok = verdicts_ok && evidence_ok && vulnerable > 0 && exploits > 0 in
  Printf.printf
    "slices: [%s]; merged %d targets, %d vulnerable, %d exploit payloads; \
     verdicts identical: %b, evidence identical: %b -> %s\n"
    (String.concat "; "
       (List.map (fun (n, w) -> Printf.sprintf "%d targets %.2fs" n w) walls))
    (List.length merged.Campaign.Campaign.cr_results)
    vulnerable exploits verdicts_ok evidence_ok
    (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"shard-smoke"
    ~bounds:
      [
        {
          jb_name = "merge_identity";
          jb_bound = "merged verdicts+evidence = unsharded";
          jb_pass = verdicts_ok && evidence_ok;
        };
      ]
    [
      ("vulnerable", float_of_int vulnerable);
      ("exploits", float_of_int exploits);
    ];
  if not ok then exit 1

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

(* Quick local verification (<10 s): a warm rerun must reach the cold
   run's exact verdict set with at least 2x fewer solver runs in
   aggregate, campaign warm/cold flag parity must hold byte-for-byte and
   stay byte-identical across worker counts, and minimize must preserve
   the per-target edge union. *)
let corpus_smoke () =
  Printf.printf "\n=== Corpus smoke (warm seed reuse + parity) ===\n%!";
  let rounds = 8 in
  let samples = BG.Corpus.coverage_set ~count:6 () in
  let cold_sum, warm_sum, parity =
    List.fold_left
      (fun (c, w, ok) s ->
        let cold, warm = warm_cold ~rounds s in
        ( c + solver_runs cold,
          w + solver_runs warm,
          ok && fired_flags cold = fired_flags warm ))
      (0, 0, true) samples
  in
  let targets = campaign_targets ~count:6 () in
  let corpus_file = Filename.temp_file "wasai-smoke" ".seeds" in
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
  let flags_ok =
    String.equal
      (Campaign.Campaign.flags_text cold_r)
      (Campaign.Campaign.flags_text warm1)
  in
  let jobs_ok =
    String.equal
      (Campaign.Campaign.verdicts_text warm1)
      (Campaign.Campaign.verdicts_text warm2)
  in
  let minimize_ok =
    SeedCorpus.size minimized <= SeedCorpus.size stored
    && SeedCorpus.targets minimized = SeedCorpus.targets stored
    && List.for_all
         (fun target ->
           SeedCorpus.edge_union (SeedCorpus.records_for minimized ~target)
           = SeedCorpus.edge_union (SeedCorpus.records_for stored ~target))
         (SeedCorpus.targets stored)
  in
  let speedup_ok = 2 * warm_sum <= cold_sum in
  List.iter Sys.remove [ corpus_file; warm1_file; warm2_file ];
  let ok = parity && flags_ok && jobs_ok && minimize_ok && speedup_ok in
  Printf.printf
    "cold solver runs=%d warm=%d (>=2x fewer: %b); verdict parity: %b; \
     campaign flags warm=cold: %b; warm verdicts identical jobs 1/2: %b; \
     minimize %d -> %d keeps coverage: %b -> %s\n"
    cold_sum warm_sum speedup_ok parity flags_ok jobs_ok
    (SeedCorpus.size stored) (SeedCorpus.size minimized) minimize_ok
    (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"corpus-smoke"
    ~bounds:
      [
        {
          jb_name = "warm_speedup";
          jb_bound = ">= 2x fewer solver runs";
          jb_pass = speedup_ok;
        };
        {
          jb_name = "parity";
          jb_bound = "warm = cold flags, jobs 1 = jobs 2";
          jb_pass = parity && flags_ok && jobs_ok;
        };
      ]
    [
      ("cold_solver_runs", float_of_int cold_sum);
      ("warm_solver_runs", float_of_int warm_sum);
    ];
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Trace: flat event buffer vs the historical list collector            *)
(* ------------------------------------------------------------------ *)

module Wasabi = Wasai_wasabi
module Trace = Wasabi.Trace

(* The pre-buffer collector, reconstructed as the allocation baseline:
   one heap record per event, operands consed onto a per-record list,
   the payload reversed into a materialised [record list] at drain —
   exactly the profile the flat tape removed. *)
module List_collector = struct
  type pending =
    | P_none
    | P_instr of int * Wasai_wasm.Values.value list
    | P_pre of int * Wasai_wasm.Values.value list
    | P_post of int * Wasai_wasm.Values.value list

  type t = { mutable acc : Trace.record list; mutable pending : pending }

  let create () = { acc = []; pending = P_none }

  let flush t =
    (match t.pending with
    | P_none -> ()
    | P_instr (site, ops) ->
        t.acc <- Trace.R_instr { site; ops = List.rev ops } :: t.acc
    | P_pre (site, args) ->
        t.acc <- Trace.R_call_pre { site; args = List.rev args } :: t.acc
    | P_post (site, results) ->
        t.acc <- Trace.R_call_post { site; results = List.rev results } :: t.acc);
    t.pending <- P_none

  let begin_instr t s =
    flush t;
    t.pending <- P_instr (s, [])

  let begin_call_pre t s =
    flush t;
    t.pending <- P_pre (s, [])

  let begin_call_post t s =
    flush t;
    t.pending <- P_post (s, [])

  let operand t v =
    match t.pending with
    | P_none -> ()
    | P_instr (s, ops) -> t.pending <- P_instr (s, v :: ops)
    | P_pre (s, ops) -> t.pending <- P_pre (s, v :: ops)
    | P_post (s, ops) -> t.pending <- P_post (s, v :: ops)

  let func_begin t f =
    flush t;
    t.acc <- Trace.R_func_begin f :: t.acc

  let func_end t f =
    flush t;
    t.acc <- Trace.R_func_end f :: t.acc

  let drain t =
    flush t;
    let r = List.rev t.acc in
    t.acc <- [];
    r
end

(* Re-drive one captured payload through a collector's hook API, exactly
   as the instrumented contract's wasai.* imports would. *)
let replay_hooks ~begin_instr ~begin_call_pre ~begin_call_post ~operand
    ~func_begin ~func_end records =
  List.iter
    (fun r ->
      match r with
      | Trace.R_instr { site; ops } ->
          begin_instr site;
          List.iter operand ops
      | Trace.R_call_pre { site; args } ->
          begin_call_pre site;
          List.iter operand args
      | Trace.R_call_post { site; results } ->
          begin_call_post site;
          List.iter operand results
      | Trace.R_func_begin f -> func_begin f
      | Trace.R_func_end f -> func_end f)
    records

(* Capture the per-payload record streams (plus each payload's fused
   scan) of a short real run over a DB-gated victim, so instr,
   call-pre/post and func events all appear in the workload. *)
let trace_payloads () =
  let spec =
    {
      (BG.Contracts.default_spec (Wasai_eosio.Name.of_string "victim")) with
      BG.Contracts.sp_fake_eos_guard = false;
      sp_db_gate = true;
      sp_payout_inline = true;
      sp_blockinfo = true;
    }
  in
  let m, abi = BG.Contracts.build spec in
  let s =
    Core.Engine.setup
      (Core.Engine.make_config ~rounds:(2) ())
      {
        Core.Engine.tgt_account = Wasai_eosio.Name.of_string "victim";
        tgt_module = m;
        tgt_abi = abi;
      }
  in
  let actions = Array.of_list abi.Wasai_eosio.Abi.abi_actions in
  let payloads = ref [] in
  for round = 0 to 5 do
    let def = actions.(round mod Array.length actions) in
    let seed =
      Core.Seed.random s.Core.Engine.rng ~identities:s.Core.Engine.identities
        def
    in
    let channels =
      if
        Wasai_eosio.Name.equal def.Wasai_eosio.Abi.act_name
          Wasai_eosio.Name.transfer
      then
        Core.Scanner.[ Ch_genuine; Ch_direct; Ch_fake_token; Ch_fake_notif ]
      else [ Core.Scanner.Ch_action def.Wasai_eosio.Abi.act_name ]
    in
    List.iter
      (fun channel ->
        let ex = Core.Engine.run_one s seed channel in
        payloads :=
          (Trace.Compat.to_list ex.Core.Engine.ex_trace, ex.Core.Engine.ex_scan)
          :: !payloads)
      channels
  done;
  (s, List.rev !payloads)

let trace_exp () =
  Printf.printf "\n=== Trace: flat event buffer vs list collector ===\n%!";
  let _, payloads = trace_payloads () in
  let streams = List.map fst payloads in
  let records_per_sweep =
    List.fold_left (fun n rs -> n + List.length rs) 0 streams
  in
  let reps = 400 in
  let payload_count = reps * List.length streams in
  let bench name f =
    Gc.compact ();
    let a0 = Gc.allocated_bytes () in
    let _, t =
      time_it (fun () ->
          for _ = 1 to reps do
            f ()
          done)
    in
    let per_payload =
      (Gc.allocated_bytes () -. a0) /. float_of_int payload_count
    in
    Printf.printf "  %-8s %8.2f Mrecords/s  %10.0f allocated bytes/payload\n%!"
      name
      (float_of_int (reps * records_per_sweep) /. t /. 1e6)
      per_payload;
    per_payload
  in
  let lc = List_collector.create () in
  let list_bytes =
    bench "list" (fun () ->
        List.iter
          (fun rs ->
            replay_hooks
              ~begin_instr:(List_collector.begin_instr lc)
              ~begin_call_pre:(List_collector.begin_call_pre lc)
              ~begin_call_post:(List_collector.begin_call_post lc)
              ~operand:(List_collector.operand lc)
              ~func_begin:(List_collector.func_begin lc)
              ~func_end:(List_collector.func_end lc) rs;
            ignore (List_collector.drain lc))
          streams)
  in
  let buf = Trace.create () in
  let buffer_bytes =
    bench "buffer" (fun () ->
        List.iter
          (fun rs ->
            Trace.reset buf;
            replay_hooks ~begin_instr:(Trace.begin_instr buf)
              ~begin_call_pre:(Trace.begin_call_pre buf)
              ~begin_call_post:(Trace.begin_call_post buf)
              ~operand:(Trace.operand buf) ~func_begin:(Trace.func_begin buf)
              ~func_end:(Trace.func_end buf) rs;
            ignore (Trace.Buffer.length buf))
          streams)
  in
  let ratio = list_bytes /. Float.max 1.0 buffer_bytes in
  let ok = ratio >= 2.0 in
  Printf.printf
    "  %d payloads x %d reps, %d records/sweep; allocation ratio list/buffer \
     = %.1fx (required >= 2x): %b\n"
    (List.length streams) reps records_per_sweep ratio ok;
  if not ok then begin
    Printf.printf "trace buffer benchmark FAILED\n";
    exit 1
  end

(* Quick local verification (<10 s): the streaming pipeline must be
   observationally identical to the historical materialised view.
   Per-payload branch edges recomputed from the compat record list must
   equal the fused scan's (hence equal coverage signatures), feeding the
   record list back through the append path must round-trip losslessly,
   and two identically-seeded fuzz runs through the buffer pipeline must
   fire the same verdicts with the same coverage signature. *)
let trace_smoke () =
  Printf.printf "\n=== Trace smoke (streaming pipeline identity) ===\n%!";
  let s, payloads = trace_payloads () in
  let meta = s.Core.Engine.meta in
  let ref_edges records =
    List.filter_map
      (fun r ->
        match r with
        | Trace.R_instr { site; ops = [ Wasai_wasm.Values.I32 c ] } -> (
            match (Trace.site_of meta site).Trace.site_instr with
            | Wasai_wasm.Ast.Br_if _ | Wasai_wasm.Ast.If _ ->
                Some (site, if c = 0l then 0l else 1l)
            | Wasai_wasm.Ast.Br_table _ -> Some (site, c)
            | _ -> None)
        | _ -> None)
      records
  in
  let scan_ok, roundtrip_ok =
    List.fold_left
      (fun (sok, rok) (records, (sc : Core.Engine.scan)) ->
        let edges = ref_edges records in
        ( sok
          && sc.Core.Engine.sc_edges = edges
          && Int64.equal
               (Trace.edge_signature sc.Core.Engine.sc_edges)
               (Trace.edge_signature edges),
          rok && Trace.Compat.to_list (Trace.Compat.of_records records) = records
        ))
      (true, true) payloads
  in
  let cover_signature (o : Core.Engine.outcome) =
    Trace.edge_signature
      (List.concat_map
         (fun (i : Core.Engine.interesting) -> i.Core.Engine.is_cover)
         o.Core.Engine.out_interesting)
  in
  let verdict_ok, signature_ok, truncated_ok =
    List.fold_left
      (fun (vok, gok, tok) smp ->
        let cfg =
          (Core.Engine.make_config ~rounds:(6) ~rng_seed:(Int64.of_int smp.BG.Corpus.smp_id) ())
        in
        let o1 = Core.Engine.fuzz ~cfg (target_of_sample smp) in
        let o2 = Core.Engine.fuzz ~cfg (target_of_sample smp) in
        ( vok && o1.Core.Engine.out_flags = o2.Core.Engine.out_flags,
          gok
          && Int64.equal (cover_signature o1) (cover_signature o2)
          && o1.Core.Engine.out_branches = o2.Core.Engine.out_branches,
          tok && o1.Core.Engine.out_truncated = 0 ))
      (true, true, true)
      (BG.Corpus.coverage_set ~count:4 ())
  in
  let ok = scan_ok && roundtrip_ok && verdict_ok && signature_ok && truncated_ok in
  Printf.printf
    "%d payloads: fused scan edges = list-pass edges: %b; record round-trip \
     lossless: %b; rerun verdicts identical: %b; coverage signatures \
     identical: %b; no spurious truncation: %b -> %s\n"
    (List.length payloads) scan_ok roundtrip_ok verdict_ok signature_ok
    truncated_ok
    (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"trace-smoke"
    ~bounds:
      [
        {
          jb_name = "pipeline_identity";
          jb_bound = "fused scan = list pass, reruns identical";
          jb_pass = ok;
        };
      ]
    [ ("payloads", float_of_int (List.length payloads)) ];
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Serve: fuzzing as a service                                          *)
(* ------------------------------------------------------------------ *)

module Serve = Wasai_serve

(* <10 s check of the serve daemon: two tenants submitting concurrently
   stream the same verdicts a batch campaign computes over the same
   bytes, a saturated tenant queue answers explicit BUSY backpressure,
   and an aborted (simulated kill -9) root resumes to a tenant report
   byte-identical to the uninterrupted run's. *)
let serve_smoke () =
  Printf.printf
    "\n=== Serve smoke (two tenants + backpressure + kill/resume) ===\n%!";
  let rounds = 6 in
  let engine =
    (Core.Engine.make_config ~rounds:(rounds) ())
  in
  (* short /tmp anchor: Unix-domain socket paths cap around 104 bytes *)
  let dir =
    Printf.sprintf "/tmp/wasai-serve-smoke-%d-%d" (Unix.getpid ())
      (int_of_float (Unix.gettimeofday () *. 1000.) mod 1_000_000)
  in
  Unix.mkdir dir 0o755;
  let contracts =
    List.mapi
      (fun i (s : BG.Corpus.sample) ->
        ( Wasai_eosio.Name.to_string (campaign_account i),
          Wasai_wasm.Encode.encode s.BG.Corpus.smp_module,
          Wasai_eosio.Abi.to_text s.BG.Corpus.smp_abi ))
      (BG.Corpus.coverage_set ~count:8 ())
  in
  let alice = List.filteri (fun i _ -> i mod 2 = 0) contracts in
  let bob = List.filteri (fun i _ -> i mod 2 = 1) contracts in
  let client_contracts cs =
    List.map
      (fun (name, wasm, abi) ->
        { Serve.Client.ct_name = name; ct_wasm = wasm; ct_abi = Some abi })
      cs
  in
  let connect_retry path =
    let rec go n =
      match Serve.Client.connect path with
      | c -> c
      | exception Unix.Unix_error _ when n > 0 ->
          Unix.sleepf 0.05;
          go (n - 1)
    in
    go 100
  in
  let submit ~tenant socket cs =
    let c = connect_retry socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () -> Serve.Client.submit_batch c ~tenant (client_contracts cs))
  in
  (* batch reference over the same encoded bytes the daemon decodes *)
  let batch_verdicts cs =
    let targets =
      List.map
        (fun (name, wasm, abi) ->
          {
            Campaign.Campaign.sp_name = name;
            sp_size = String.length wasm;
            sp_load =
              (fun () ->
                {
                  Core.Engine.tgt_account = Wasai_eosio.Name.of_string name;
                  tgt_module = Wasai_wasm.Decode.decode wasm;
                  tgt_abi = Wasai_eosio.Abi.of_text abi;
                });
          })
        cs
    in
    Campaign.Campaign.verdicts_text
      (Campaign.Campaign.run
         (Campaign.Campaign.make_config ~jobs:2 ~engine ())
         targets)
  in
  let streamed_verdicts (b : Serve.Client.batch) =
    Campaign.Campaign.verdicts_text
      (Campaign.Campaign.of_entries
         (List.map (fun (_, _, e) -> e) b.Serve.Client.bt_verdicts))
  in
  (* phase 1: one daemon, two tenants submitting from concurrent domains;
     depth 2 < 4 submissions per tenant forces BUSY backpressure, which
     the client retry loop absorbs *)
  let root1 = Filename.concat dir "root" in
  let socket1 = Filename.concat dir "s.sock" in
  let t =
    Serve.Serve.create
      (Serve.Serve.make_config ~root:root1 ~socket:socket1 ~jobs:2 ~depth:2
         ~engine ())
  in
  let d = Domain.spawn (fun () -> Serve.Serve.serve t) in
  let da = Domain.spawn (fun () -> submit ~tenant:"alice" socket1 alice) in
  let db = Domain.spawn (fun () -> submit ~tenant:"bob" socket1 bob) in
  let ba = Domain.join da in
  let bb = Domain.join db in
  Serve.Serve.request_stop t;
  Domain.join d;
  let parity_a = String.equal (streamed_verdicts ba) (batch_verdicts alice) in
  let parity_b = String.equal (streamed_verdicts bb) (batch_verdicts bob) in
  let busy = ba.Serve.Client.bt_retries + bb.Serve.Client.bt_retries in
  Printf.printf
    "  two tenants: alice parity %b, bob parity %b, BUSY backpressure \
     replies absorbed: %d\n%!"
    parity_a parity_b busy;
  (* phase 2: kill (abort drops the queued backlog un-journaled, as
     kill -9 would) and resume; the resumed report must be byte-identical
     to phase 1's uninterrupted alice report *)
  let root2 = Filename.concat dir "root2" in
  let socket2 = Filename.concat dir "k.sock" in
  let t2 =
    Serve.Serve.create
      (Serve.Serve.make_config ~root:root2 ~socket:socket2 ~jobs:1 ~depth:8
         ~engine ())
  in
  let d2 = Domain.spawn (fun () -> Serve.Serve.serve t2) in
  let c = connect_retry socket2 in
  List.iter
    (fun (name, wasm, abi) ->
      Serve.Client.send c
        (Serve.Wire.Submit
           {
             rq_tenant = "alice";
             rq_name = name;
             rq_wasm = wasm;
             rq_abi = Some abi;
                  rq_slices = 1;
           }))
    alice;
  let rec await_first_verdict () =
    match Serve.Client.next c with
    | Serve.Wire.Verdict _ -> ()
    | _ -> await_first_verdict ()
  in
  await_first_verdict ();
  Serve.Serve.request_abort t2;
  Domain.join d2;
  Serve.Client.close c;
  let journaled =
    List.length (Serve.Serve.tenant_entries ~root:root2 ~engine "alice")
  in
  let t3 =
    Serve.Serve.create
      (Serve.Serve.make_config ~root:root2 ~socket:socket2 ~jobs:2 ~depth:8
         ~resume:true ~engine ())
  in
  let d3 = Domain.spawn (fun () -> Serve.Serve.serve t3) in
  ignore (submit ~tenant:"alice" socket2 alice);
  Serve.Serve.request_stop t3;
  Domain.join d3;
  let reference = Serve.Serve.tenant_report ~root:root1 ~engine "alice" in
  let resumed = Serve.Serve.tenant_report ~root:root2 ~engine "alice" in
  let partial = journaled >= 1 && journaled < List.length alice in
  let identical = String.equal reference resumed in
  Printf.printf
    "  kill/resume: %d/%d journaled at kill, resumed report identical: %b\n%!"
    journaled (List.length alice) identical;
  let ok = parity_a && parity_b && busy >= 1 && partial && identical in
  Printf.printf "serve smoke: %s\n" (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"serve-smoke"
    ~bounds:
      [
        {
          jb_name = "tenant_parity";
          jb_bound = "streamed verdicts = batch campaign";
          jb_pass = parity_a && parity_b;
        };
        {
          jb_name = "kill_resume";
          jb_bound = "resumed report byte-identical";
          jb_pass = partial && identical;
        };
      ]
    [ ("busy_retries", float_of_int busy) ];
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Oracle registry: 8-class smoke                                       *)
(* ------------------------------------------------------------------ *)

(* Quick local verification (<10 s) of the pluggable oracle layer.
   Detection: over small slices of the ground-truth and extension
   corpora, WASAI's per-class precision and recall must be >= every
   baseline that supports the class, and the three extension classes
   must come out perfect — every planted bug found, zero false positives
   on their safe variants.  Byte-identity: the extension oracles must
   stay silent on the legacy corpus, and a campaign over legacy targets
   must produce journal lines and a verdict report that never mention an
   extension flag, with every journal line round-tripping byte-for-byte
   through the strict parser. *)
let oracle_smoke () =
  Printf.printf
    "\n=== Oracle smoke (8-class detection + legacy byte-identity) ===\n%!";
  let rounds = 24 in
  let legacy = BG.Corpus.ground_truth ~scale:100 () in
  let ext = BG.Corpus.extension ~scale:10 () in
  let conf : (string * BG.Contracts.vuln, Metrics.confusion) Hashtbl.t =
    Hashtbl.create 32
  in
  let get tool cls =
    match Hashtbl.find_opt conf (tool, cls) with
    | Some c -> c
    | None ->
        let c = Metrics.empty () in
        Hashtbl.replace conf (tool, cls) c;
        c
  in
  let ext_fires_on_legacy = ref 0 in
  let eval ~check_ext_silence (s : BG.Corpus.sample) =
    let flag = flag_of_class s.BG.Corpus.smp_class in
    let wasai = run_wasai ~rounds s in
    let record tool verdict =
      match verdict flag with
      | Some predicted ->
          Metrics.record (get tool s.BG.Corpus.smp_class)
            ~truth:s.BG.Corpus.smp_truth ~predicted
      | None -> ()
    in
    record "WASAI" wasai;
    record "EOSFuzzer" (run_eosfuzzer ~rounds s);
    record "EOSAFE" (run_eosafe s);
    if check_ext_silence then
      List.iter
        (fun f -> if wasai f = Some true then incr ext_fires_on_legacy)
        Core.Scanner.extension_flags
  in
  List.iter (eval ~check_ext_silence:true) legacy;
  List.iter (eval ~check_ext_silence:false) ext;
  let classes =
    List.map fst (BG.Corpus.paper_counts @ BG.Corpus.extension_counts)
  in
  let detection_ok =
    List.for_all
      (fun cls ->
        match Hashtbl.find_opt conf ("WASAI", cls) with
        | None -> false
        | Some w ->
            let beats tool =
              match Hashtbl.find_opt conf (tool, cls) with
              | None -> true
              | Some b ->
                  Metrics.precision w >= Metrics.precision b
                  && Metrics.recall w >= Metrics.recall b
            in
            let ok = beats "EOSFuzzer" && beats "EOSAFE" in
            Printf.printf "  %-14s WASAI %s%s\n"
              (BG.Contracts.string_of_vuln cls)
              (Metrics.row_string w)
              (if ok then "" else "  << below a baseline");
            ok)
      classes
  in
  let ext_perfect =
    List.for_all
      (fun (cls, _) ->
        match Hashtbl.find_opt conf ("WASAI", cls) with
        | Some c ->
            c.Metrics.tp > 0 && c.Metrics.tn > 0 && c.Metrics.fp = 0
            && c.Metrics.fn = 0
        | None -> false)
      BG.Corpus.extension_counts
  in
  (* Byte-identity of the legacy wire: journal + verdict report. *)
  let targets =
    List.mapi
      (fun i (s : BG.Corpus.sample) ->
        let account = campaign_account i in
        {
          Campaign.Campaign.sp_name = Wasai_eosio.Name.to_string account;
          sp_size =
            String.length (Wasai_wasm.Encode.encode s.BG.Corpus.smp_module);
          sp_load =
            (fun () ->
              {
                Core.Engine.tgt_account = account;
                tgt_module = s.BG.Corpus.smp_module;
                tgt_abi = s.BG.Corpus.smp_abi;
              });
        })
      (List.filteri (fun i _ -> i < 8) legacy)
  in
  let journal = Filename.temp_file "wasai-oracle-smoke" ".journal" in
  Sys.remove journal;
  let report =
    Campaign.Campaign.run (campaign_config ~journal ~rounds ~jobs:2 ()) targets
  in
  let lines =
    let ic = open_in journal in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  Sys.remove journal;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let mentions_ext s =
    List.exists
      (fun f -> contains s (Core.Scanner.string_of_flag f))
      Core.Scanner.extension_flags
  in
  (* Campaign journals open with the backend header line; it must
     round-trip too, and the entry lines after it must stay on the
     legacy wire. *)
  let header_ok, entry_lines =
    match lines with
    | first :: rest -> (
        match Campaign.Journal.header_of_line first with
        | Ok h ->
            (String.equal (Campaign.Journal.line_of_header h) first, rest)
        | Error _ -> (false, rest))
    | [] -> (false, [])
  in
  let journal_ok =
    header_ok
    && List.length entry_lines = List.length targets
    && List.for_all
         (fun line ->
           (not (mentions_ext line))
           &&
           match Campaign.Journal.entry_of_line line with
           | Ok e -> String.equal (Campaign.Journal.line_of_entry e) line
           | Error _ -> false)
         entry_lines
  in
  let report_ok = not (mentions_ext (Campaign.Campaign.verdicts_text report)) in
  let silent_ok = !ext_fires_on_legacy = 0 in
  let ok = detection_ok && ext_perfect && silent_ok && journal_ok && report_ok in
  Printf.printf
    "detection >= baselines on all 8 classes: %b; extension classes perfect \
     (planted bugs found, zero FPs): %b; extension oracles silent on %d \
     legacy contracts: %b; header + %d journal lines round-tripping \
     byte-identically and extension-free: %b; verdict report \
     extension-free: %b -> %s\n"
    detection_ok ext_perfect (List.length legacy) silent_ok
    (List.length entry_lines) journal_ok report_ok
    (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"oracle-smoke"
    ~bounds:
      [
        {
          jb_name = "detection";
          jb_bound = ">= baselines on all 8 classes";
          jb_pass = detection_ok;
        };
        {
          jb_name = "legacy_byte_identity";
          jb_bound = "journal + report extension-free";
          jb_pass = silent_ok && journal_ok && report_ok;
        };
      ]
    [ ("legacy_contracts", float_of_int (List.length legacy)) ];
  if not ok then exit 1

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
  let c_lines, c_tx, c_wall = run_tier ~rounds ~backend:Core.Exec_backend.Compiled samples in
  let parity = i_lines = c_lines && i_tx = c_tx in
  let ipps = float_of_int i_tx /. i_wall in
  let cpps = float_of_int c_tx /. c_wall in
  Printf.printf "  interp   : %6d payloads in %6.2f s -> %8.0f payloads/sec\n"
    i_tx i_wall ipps;
  Printf.printf "  compiled : %6d payloads in %6.2f s -> %8.0f payloads/sec\n"
    c_tx c_wall cpps;
  Printf.printf
    "  speedup %.2fx (target >= 2x); verdict/coverage parity: %b\n%!"
    (cpps /. ipps) parity;
  json_record ~experiment:"compile"
    ~bounds:
      [
        {
          jb_name = "parity";
          jb_bound = "verdict/coverage identical across tiers";
          jb_pass = parity;
        };
      ]
    [
      ("interp_payloads_per_s", ipps);
      ("compiled_payloads_per_s", cpps);
      ("speedup", cpps /. ipps);
    ]

(* Quick local verification (<10 s) of the compiled tier: over a small
   legacy slice, the compiled backend must reach byte-identical
   verdict+coverage lines and push counts, and must not be slower than
   the interpreter. *)
let compile_smoke () =
  Printf.printf "\n=== Compile smoke (tier parity + throughput) ===\n%!";
  let samples = BG.Corpus.ground_truth ~scale:100 () in
  let rounds = 16 in
  let i_lines, i_tx, i_wall = run_tier ~rounds ~backend:Core.Exec_backend.Interp samples in
  let c_lines, c_tx, c_wall = run_tier ~rounds ~backend:Core.Exec_backend.Compiled samples in
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
  json_record ~experiment:"compile-smoke"
    ~bounds:
      [
        {
          jb_name = "parity";
          jb_bound = "verdict/coverage identical across tiers";
          jb_pass = parity;
        };
        { jb_name = "speed"; jb_bound = ">= 1x interpreter"; jb_pass = faster };
      ]
    [
      ("interp_payloads_per_s", ipps);
      ("compiled_payloads_per_s", cpps);
      ("speedup", cpps /. ipps);
    ];
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
         ~engine:(Core.Engine.make_config ~rounds ~backend:opts.opt_backend ())
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
    (100. *. (ratio -. 1.));
  json_record ~experiment:"telemetry"
    [
      ("spans", float_of_int snap.Telemetry.ts_spans);
      ("campaign_wall_s", r.Campaign.Campaign.cr_wall);
      ("overhead_off_s", off);
      ("overhead_on_s", on);
      ("overhead_ratio", ratio);
    ]

(* Quick local verification (<10 s) of the zero-interference contract:
   telemetry on/off campaigns must produce byte-identical journal entry
   lines and verdict reports at jobs 1 and 2 (the on-journal differing
   only by the additive header stamp), the on-run's report must cover
   the exec/solver/oracle/journal stages, a serve daemon's METRICS
   exposition must parse line-by-line, and the probes' measured overhead
   on the compile-smoke corpus must stay within 3%. *)
let telemetry_smoke () =
  Printf.printf
    "\n=== Telemetry smoke (byte-identity + stage coverage + overhead) ===\n%!";
  (* Probe overhead first, while the process is quiet: the campaign and
     serve phases below spawn worker domains, whose CPU time would count
     and whose GC debris makes deltas noisy.  The branch-rich coverage
     contracts give ~100 ms per sweep. *)
  let off, on =
    telemetry_overhead ~reps:8 ~rounds:48 (BG.Corpus.coverage_set ~count:30 ())
  in
  let ratio = on /. Float.max 1e-9 off in
  let overhead_ok = ratio <= 1.03 in
  let targets = campaign_targets ~count:6 () in
  let rounds = 6 in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  (* One campaign run at [jobs] with telemetry [tele]; returns the
     journal header, entry lines and canonical verdict report.  The
     [elapsed=] field is measured wall-clock — nondeterministic between
     any two runs, telemetry or not — so it is zeroed through an entry
     round-trip; every other byte of the line is compared as written. *)
  let canonical_entry line =
    match Campaign.Journal.entry_of_line line with
    | Ok e ->
        Campaign.Journal.line_of_entry
          { e with Campaign.Journal.je_elapsed = 0. }
    | Error _ -> line
  in
  let run_campaign ~jobs ~tele =
    let journal = Filename.temp_file "wasai-tsmoke" ".journal" in
    Sys.remove journal;
    let r =
      Campaign.Campaign.run
        (Campaign.Campaign.make_config ~jobs ~journal ~telemetry:tele
           ~engine:(Core.Engine.make_config ~rounds ())
           ())
        targets
    in
    let header, entries =
      match read_lines journal with
      | h :: rest -> (h, List.map canonical_entry rest)
      | [] -> ("", [])
    in
    Sys.remove journal;
    (header, entries, Campaign.Campaign.verdicts_text r)
  in
  let h_off1, e_off1, v_off1 = run_campaign ~jobs:1 ~tele:false in
  let h_on1, e_on1, v_on1 = run_campaign ~jobs:1 ~tele:true in
  (* capture the stage breakdown while the on-run's spans are still hot *)
  let report = Telemetry.report_text (Telemetry.snapshot ()) in
  Telemetry.disable ();
  Telemetry.reset ();
  let h_off2, e_off2, v_off2 = run_campaign ~jobs:2 ~tele:false in
  let h_on2, e_on2, v_on2 = run_campaign ~jobs:2 ~tele:true in
  Telemetry.disable ();
  Telemetry.reset ();
  let sorted = List.sort compare in
  let identity_ok =
    (* off = the legacy two-field header, byte-for-byte *)
    h_off1 = "wasai-journal-hdr\tbackend=auto"
    && h_off2 = h_off1
    (* on = the same header plus only the additive stamp *)
    && h_on1 = h_off1 ^ "\ttelemetry=on"
    && h_on2 = h_on1
    (* entry lines never change: byte-identical at jobs 1, identical as
       a multiset at jobs 2 (worker completion order is not canonical) *)
    && e_on1 = e_off1
    && sorted e_on2 = sorted e_off2
    && sorted e_off2 = sorted e_off1
  in
  let report_ok =
    List.for_all (fun v -> String.equal v v_off1) [ v_on1; v_off2; v_on2 ]
  in
  let stages_ok =
    List.for_all
      (fun s -> contains report s)
      [ "exec_"; "solver_"; "oracle"; "journal_fsync" ]
  in
  (* METRICS exposition from a live daemon parses line-by-line. *)
  let dir =
    Printf.sprintf "/tmp/wasai-telemetry-smoke-%d-%d" (Unix.getpid ())
      (int_of_float (Unix.gettimeofday () *. 1000.) mod 1_000_000)
  in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "t.sock" in
  let t =
    Serve.Serve.create
      (Serve.Serve.make_config ~root:(Filename.concat dir "root") ~socket
         ~jobs:1 ~depth:4
         ~engine:(Core.Engine.make_config ~rounds ())
         ())
  in
  let d = Domain.spawn (fun () -> Serve.Serve.serve t) in
  let connect_retry path =
    let rec go n =
      match Serve.Client.connect path with
      | c -> c
      | exception Unix.Unix_error _ when n > 0 ->
          Unix.sleepf 0.05;
          go (n - 1)
    in
    go 100
  in
  let c = connect_retry socket in
  let sample = List.hd (BG.Corpus.coverage_set ~count:1 ()) in
  ignore
    (Serve.Client.submit_batch c ~tenant:"alice"
       [
         {
           Serve.Client.ct_name = "trgta";
           ct_wasm = Wasai_wasm.Encode.encode sample.BG.Corpus.smp_module;
           ct_abi = Some (Wasai_eosio.Abi.to_text sample.BG.Corpus.smp_abi);
         };
       ]);
  Serve.Client.send c Serve.Wire.Metrics;
  let exposition =
    match Serve.Client.next c with
    | Serve.Wire.MetricsReply { rp_body } -> rp_body
    | _ -> ""
  in
  Serve.Client.close c;
  Serve.Serve.request_stop t;
  Domain.join d;
  Telemetry.disable ();
  Telemetry.reset ();
  let metrics_ok =
    exposition <> ""
    && contains exposition "wasai_tenant_completed_total{tenant=\"alice\"} 1"
    && contains exposition "wasai_stage_seconds_total{stage="
    && List.for_all
         (fun line ->
           line = ""
           || line.[0] = '#'
           ||
           match String.rindex_opt line ' ' with
           | None -> false
           | Some i ->
               let v =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               (match float_of_string_opt v with
               | Some f -> Float.is_finite f
               | None -> false))
         (String.split_on_char '\n' exposition)
  in
  let ok = identity_ok && report_ok && stages_ok && metrics_ok && overhead_ok in
  Printf.printf
    "journal byte-identity off/on at jobs 1+2 (header stamp only): %b; \
     verdict reports identical: %b; on-report covers \
     exec/solver/oracle/journal stages: %b; serve METRICS exposition \
     parses: %b; probe overhead over 8 sweeps interleaved per target: \
     off=%.3fs on=%.3fs CPU (%.2f%%, bound 3%%): %b -> %s\n"
    identity_ok report_ok stages_ok metrics_ok off on
    (100. *. (ratio -. 1.))
    overhead_ok
    (if ok then "OK" else "MISMATCH");
  json_record ~experiment:"telemetry-smoke"
    ~bounds:
      [
        {
          jb_name = "journal_byte_identity";
          jb_bound = "off/on identical modulo header stamp";
          jb_pass = identity_ok;
        };
        {
          jb_name = "report_identity";
          jb_bound = "verdict reports byte-identical";
          jb_pass = report_ok;
        };
        {
          jb_name = "stage_coverage";
          jb_bound = "exec/solver/oracle/journal_fsync present";
          jb_pass = stages_ok;
        };
        {
          jb_name = "metrics_exposition";
          jb_bound = "every METRICS line parses";
          jb_pass = metrics_ok;
        };
        { jb_name = "overhead"; jb_bound = "<= 1.03x"; jb_pass = overhead_ok };
      ]
    [
      ("overhead_off_s", off);
      ("overhead_on_s", on);
      ("overhead_ratio", ratio);
    ];
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

let () =
  let opts = ref default_options in
  let experiments = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        opts := { !opts with opt_scale = int_of_string v };
        parse rest
    | "--rounds" :: v :: rest ->
        opts := { !opts with opt_rounds = int_of_string v };
        parse rest
    | "--count" :: v :: rest ->
        opts := { !opts with opt_fig3_contracts = int_of_string v };
        parse rest
    | "--backend" :: v :: rest ->
        (match Core.Exec_backend.of_string v with
        | Ok b -> opts := { !opts with opt_backend = b }
        | Error msg -> failwith msg);
        parse rest
    | "--json" :: v :: rest ->
        json_path := Some v;
        parse rest
    | "--full" :: rest ->
        opts :=
          { !opts with opt_scale = 1; opt_rounds = 60; opt_fig3_contracts = 100 };
        parse rest
    | x :: rest ->
        experiments := x :: !experiments;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let experiments =
    match List.rev !experiments with [] -> [ "all" ] | e -> e
  in
  let opts = !opts in
  Printf.printf "WASAI evaluation harness  (scale 1/%d, %d rounds/contract)\n"
    opts.opt_scale opts.opt_rounds;
  let run = function
    | "fig3" -> fig3 opts
    | "table4" -> table4 opts
    | "table5" -> table5 opts
    | "table6" -> table6 opts
    | "table-ext" -> table_ext opts
    | "rq4" -> rq4 opts
    | "ablation" -> ablation opts
    | "solver" -> solver_exp ()
    | "campaign" -> campaign_exp opts
    | "campaign-smoke" -> campaign_smoke ()
    | "slice-smoke" -> slice_smoke ()
    | "shard" -> shard_exp opts
    | "shard-smoke" -> shard_smoke ()
    | "corpus" -> corpus_exp opts
    | "corpus-smoke" -> corpus_smoke ()
    | "trace" -> trace_exp ()
    | "trace-smoke" -> trace_smoke ()
    | "serve-smoke" -> serve_smoke ()
    | "oracle-smoke" -> oracle_smoke ()
    | "compile" -> compile_exp opts
    | "compile-smoke" -> compile_smoke ()
    | "telemetry" -> telemetry_exp opts
    | "telemetry-smoke" -> telemetry_smoke ()
    | "micro" -> micro ()
    | "all" ->
        fig3 opts;
        table4 opts;
        table5 opts;
        table6 opts;
        table_ext opts;
        rq4 opts;
        ablation opts;
        solver_exp ();
        campaign_exp opts;
        shard_exp opts;
        corpus_exp opts;
        trace_exp ();
        compile_exp opts;
        telemetry_exp opts;
        micro ()
    | other -> Printf.eprintf "unknown experiment %s\n" other
  in
  List.iter run experiments;
  json_flush ()
