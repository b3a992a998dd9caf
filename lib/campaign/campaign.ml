(** Parallel fuzzing-campaign orchestrator: a shared work queue drained by
    N domains, each running the engine on an independent target; completed
    targets are journaled (fsync'd) before they count as done; the merged
    report is canonicalised by target name so its verdict section is
    identical for any worker count.

    Sharding extends the same scheme across machines: [cc_shard = i/N]
    restricts a run to the targets {!Shard.assign} maps to slice [i], the
    journal stamps every entry with the (shard, seed, budget) provenance,
    and {!merge} recombines N shard journals into the same canonical
    report an unsharded run would have produced. *)

module Core = Wasai_core
module Solver = Wasai_smt.Solver
module Metrics = Wasai_support.Metrics
module Corpus = Wasai_corpus.Corpus
module Telemetry = Wasai_telemetry.Telemetry

type target_spec = {
  sp_name : string;
  sp_size : int;
  sp_load : unit -> Core.Engine.target;
}

type config = {
  cc_jobs : int;
  cc_engine : Core.Engine.config;
  cc_journal : string option;
  cc_resume : bool;
  cc_progress : (Journal.entry -> unit) option;
  cc_shard : Shard.t;
  cc_corpus : string option;
  cc_telemetry : bool;
}

let make_config ~jobs ?journal ?(resume = false) ?progress
    ?(shard = Shard.whole) ?corpus ?(telemetry = false) ~engine () =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Campaign.make_config: jobs %d < 1" jobs);
  if resume && journal = None then
    invalid_arg
      "Campaign.make_config: resume requires a journal (there is nothing to \
       resume from)";
  {
    cc_jobs = jobs;
    cc_engine = engine;
    cc_journal = journal;
    cc_resume = resume;
    cc_progress = progress;
    cc_shard = shard;
    cc_corpus = corpus;
    cc_telemetry = telemetry;
  }

type report = {
  cr_results : Journal.entry list;
  cr_requested : int;
  cr_skipped : int;
  cr_jobs : int;
  cr_wall : float;
  cr_shard : Shard.t;
  cr_corpus_preloaded : int;
  cr_corpus_added : int;
}

(* The provenance every journal entry of this run carries; merge-time
   validation compares these across machines. *)
let stamp_of_config (cfg : config) : Journal.stamp =
  {
    Journal.js_shard = cfg.cc_shard;
    js_seed = cfg.cc_engine.Core.Engine.cfg_rng_seed;
    js_rounds = cfg.cc_engine.Core.Engine.cfg_rounds;
  }

let check_unique (caller : string) (targets : target_spec list) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t.sp_name then
        invalid_arg
          (Printf.sprintf
             "Campaign.%s: duplicate target name %S (the journal and the \
              report are keyed by name)"
             caller t.sp_name);
      Hashtbl.replace seen t.sp_name ())
    targets

(* The store a run or a plan works from: this run's journal and corpus,
   checked against its header and stamp. *)
let open_store ~write (cfg : config) =
  let backend = cfg.cc_engine.Core.Engine.cfg_backend in
  Store.open_ ~write ~context:"campaign" ~resume:cfg.cc_resume
    ~header:{ Journal.jh_backend = backend; jh_telemetry = cfg.cc_telemetry }
    ~stamp:(stamp_of_config cfg) ?journal:cfg.cc_journal ?corpus:cfg.cc_corpus
    ()

(* Long-tail mitigation: biggest module first (classic LPT scheduling),
   so one huge contract never starts last and serialises the tail of the
   campaign.  Ties — including every spec with an unknown size of 0 —
   keep a deterministic name order.  The order only affects scheduling:
   verdicts are per-target and the report is canonicalised by name. *)
let order_targets (targets : target_spec list) : target_spec list =
  List.sort
    (fun a b ->
      match compare b.sp_size a.sp_size with
      | 0 -> compare a.sp_name b.sp_name
      | c -> c)
    targets

(* The corpus seeds each member target would preload, resolved once up
   front; workers read the table concurrently but never write it. *)
let preloads_of (corpus : Corpus.t) (targets : target_spec list) =
  let preloads = Hashtbl.create 64 in
  List.iter
    (fun t ->
      match Corpus.preload corpus ~target:t.sp_name with
      | [] -> ()
      | seeds -> Hashtbl.replace preloads t.sp_name seeds)
    targets;
  preloads

let run (cfg : config) (targets : target_spec list) : report =
  check_unique "run" targets;
  (* Shard first: every later count (requested, fuzzed, skipped) describes
     this machine's slice, and names outside it never touch the journal. *)
  let targets = List.filter (fun t -> Shard.member cfg.cc_shard t.sp_name) targets in
  let store = open_store ~write:true cfg in
  (* A target is done iff its entry line reached the journal.  Entries
     for names outside this run's input set are ignored, so a shared
     journal never leaks foreign results into the report. *)
  let prior_results = List.filter_map (fun t -> Store.find store t.sp_name) targets in
  let remaining =
    order_targets
      (List.filter (fun t -> Store.find store t.sp_name = None) targets)
  in
  (* The corpus is read once, at open: the preload each target receives
     is a pure function of the corpus file at campaign start, identical
     for every worker count and schedule. *)
  let preloads = preloads_of (Store.corpus store) remaining in
  let corpus_preloaded =
    Hashtbl.fold (fun _ seeds acc -> acc + List.length seeds) preloads 0
  in
  let corpus_added = ref 0 in
  let queue = Work_queue.create () in
  Work_queue.push_all queue remaining;
  Work_queue.close queue;
  (* Flip the recorder switch before any worker domain exists:
     [Domain.spawn] orders the write ahead of everything the workers do,
     so every probe in the fleet sees one consistent setting. *)
  if cfg.cc_telemetry then Telemetry.enable ();
  let lock = Mutex.create () in
  let results = ref prior_results in
  let failures = ref [] in
  let t0 = Unix.gettimeofday () in
  (* Worker stderr is serialised under the campaign lock: two domains
     must never interleave partial warning lines.  Callers hold the
     lock. *)
  let warn_truncated name (o : Core.Engine.outcome) =
    if o.Core.Engine.out_truncated > 0 then
      Printf.eprintf
        "wasai: warning: %s: %d payload trace(s) truncated at the \
         collector limit%s; verdicts are best-effort\n%!"
        name o.Core.Engine.out_truncated
        (match o.Core.Engine.out_first_truncated with
        | Some (tx, action) ->
            Printf.sprintf " (first: %s, tx %d)"
              (Wasai_eosio.Name.to_string action)
              tx
        | None -> "")
  in
  (* The campaign lock is the one lock a completion takes: it serialises
     the store's durable writes, the results and the progress callback.
     Callers hold it. *)
  let complete_target ~name ~elapsed (o : Core.Engine.outcome) =
    warn_truncated name o;
    let entry, added = Store.complete store ~name ~elapsed o in
    corpus_added := !corpus_added + added;
    results := entry :: !results;
    Option.iter (fun f -> f entry) cfg.cc_progress
  in
  let worker () =
    let rec loop () =
      match Work_queue.take queue with
      | None -> ()
      | Some spec ->
          (try
             (* Attribute every span this domain records — execution,
                solving, scanning, journaling — to this target until the
                next one is claimed.  Interning is a lock-taking cold
                path, so skip it when telemetry is off. *)
             if Telemetry.enabled () then
               Telemetry.set_target (Telemetry.target_id spec.sp_name);
             let ecfg =
               match Hashtbl.find_opt preloads spec.sp_name with
               | Some seeds ->
                   { cfg.cc_engine with Core.Engine.cfg_preload = seeds }
               | None -> cfg.cc_engine
             in
             let t_load = Telemetry.start () in
             let target = spec.sp_load () in
             Telemetry.stop Telemetry.Load_validate t_load;
             let s0 = Unix.gettimeofday () in
             let o = Core.Engine.fuzz ~cfg:ecfg target in
             Mutex.protect lock (fun () ->
                 complete_target ~name:spec.sp_name
                   ~elapsed:(Unix.gettimeofday () -. s0)
                   o)
           with exn ->
             let msg = Store.error_message exn in
             Mutex.protect lock (fun () ->
                 failures := (spec.sp_name, msg) :: !failures));
          loop ()
    in
    loop ()
  in
  let jobs = max 1 cfg.cc_jobs in
  (* The calling domain is worker 0; spawn the other jobs-1. *)
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Store.close store;
  (match List.rev !failures with
   | [] -> ()
   | (name, msg) :: rest ->
       failwith
         (Printf.sprintf "campaign: target %S failed: %s%s" name msg
            (match rest with
             | [] -> ""
             | _ -> Printf.sprintf " (and %d more failures)" (List.length rest))));
  {
    cr_results =
      List.sort
        (fun (a : Journal.entry) b -> compare a.Journal.je_name b.Journal.je_name)
        !results;
    cr_requested = List.length targets;
    cr_skipped = List.length prior_results;
    cr_jobs = jobs;
    cr_wall = Unix.gettimeofday () -. t0;
    cr_shard = cfg.cc_shard;
    cr_corpus_preloaded = corpus_preloaded;
    cr_corpus_added = !corpus_added;
  }

(* ------------------------------------------------------------------ *)
(* Dry-run planning                                                    *)
(* ------------------------------------------------------------------ *)

type plan_row = {
  pr_name : string;
  pr_size : int;
  pr_shard : int;
  pr_member : bool;
  pr_done : bool;
  pr_order : int option;
  pr_preload : int;
}

type plan = {
  pl_rows : plan_row list;
  pl_shard : Shard.t;
  pl_jobs : int;
}

(* Everything [run] would decide before spawning a single worker, without
   loading or fuzzing anything: shard membership, resume skips, LPT
   execution order and per-target corpus preloads. *)
let plan (cfg : config) (targets : target_spec list) : plan =
  check_unique "plan" targets;
  let store = open_store ~write:false cfg in
  let done_ name = Store.find store name <> None in
  let corpus = Store.corpus store in
  let count = cfg.cc_shard.Shard.sh_count in
  (* Fresh member targets lead, in the exact order [run] would enqueue
     them; everything else (done, foreign) follows in name order for
     context. *)
  let fresh =
    order_targets
      (List.filter
         (fun t -> Shard.member cfg.cc_shard t.sp_name && not (done_ t.sp_name))
         targets)
  in
  let row ?order t =
    let member = Shard.member cfg.cc_shard t.sp_name in
    {
      pr_name = t.sp_name;
      pr_size = t.sp_size;
      pr_shard = Shard.assign ~count t.sp_name;
      pr_member = member;
      pr_done = member && done_ t.sp_name;
      pr_order = order;
      pr_preload =
        (if member then List.length (Corpus.preload corpus ~target:t.sp_name)
         else 0);
    }
  in
  let planned = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace planned t.sp_name ()) fresh;
  let rest =
    List.sort
      (fun a b -> compare a.sp_name b.sp_name)
      (List.filter (fun t -> not (Hashtbl.mem planned t.sp_name)) targets)
  in
  {
    pl_rows =
      List.mapi (fun i t -> row ~order:(i + 1) t) fresh @ List.map row rest;
    pl_shard = cfg.cc_shard;
    pl_jobs = max 1 cfg.cc_jobs;
  }

let plan_text (p : plan) =
  let b = Buffer.create 512 in
  let fuzzed = List.filter (fun r -> r.pr_order <> None) p.pl_rows in
  Buffer.add_string b
    (Printf.sprintf
       "campaign plan (dry run): %d targets, %d to fuzz%s, %d worker domain%s\n"
       (List.length p.pl_rows) (List.length fuzzed)
       (if Shard.is_whole p.pl_shard then ""
        else Printf.sprintf " in shard %s" (Shard.to_string p.pl_shard))
       p.pl_jobs
       (if p.pl_jobs = 1 then "" else "s"))
  ;
  let preload_total =
    List.fold_left (fun acc r -> acc + r.pr_preload) 0 fuzzed
  in
  Buffer.add_string b
    (Printf.sprintf "corpus preload: %d seed%s across %d target%s\n"
       preload_total
       (if preload_total = 1 then "" else "s")
       (List.length (List.filter (fun r -> r.pr_preload > 0) fuzzed))
       (if List.length fuzzed = 1 then "" else "s"));
  Buffer.add_string b
    "order name          size     shard  status        preload\n";
  List.iter
    (fun r ->
      let status =
        if not r.pr_member then "foreign"
        else if r.pr_done then "done (resume)"
        else "fuzz"
      in
      let order =
        match r.pr_order with
        | Some n -> Printf.sprintf "%5d" n
        | None -> "    -"
      in
      Buffer.add_string b
        (Printf.sprintf "%s %-13s %8d %2d/%-2d  %-13s %7d\n" order r.pr_name
           r.pr_size r.pr_shard p.pl_shard.Shard.sh_count status r.pr_preload))
    p.pl_rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Reports from journals: merge                                        *)
(* ------------------------------------------------------------------ *)

(* Duplicate lines for one name collapse to the last entry, as the
   store's [find] does on resume.  Only a journal built by hand (or by a
   build that let a non-resume rerun append) holds them. *)
let collapse_duplicates (entries : Journal.entry list) : Journal.entry list =
  let last = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (e : Journal.entry) ->
      if not (Hashtbl.mem last e.Journal.je_name) then
        order := e.Journal.je_name :: !order;
      Hashtbl.replace last e.Journal.je_name e)
    entries;
  List.rev_map (fun name -> Hashtbl.find last name) !order

let of_entries (entries : Journal.entry list) : report =
  let entries = collapse_duplicates entries in
  {
    cr_results =
      List.sort
        (fun (a : Journal.entry) b ->
          compare a.Journal.je_name b.Journal.je_name)
        entries;
    cr_requested = List.length entries;
    cr_skipped = List.length entries;
    cr_jobs = 0;
    cr_wall = 0.0;
    cr_shard = Shard.whole;
    cr_corpus_preloaded = 0;
    cr_corpus_added = 0;
  }

let merge_error fmt = Printf.ksprintf (fun s -> failwith ("campaign merge: " ^ s)) fmt

(* One journal = one shard's output: every entry must carry the same
   stamp, and every name must actually hash into the stamped slice. *)
let check_journal (path, entries) : Journal.stamp * Journal.entry list =
  let entries = collapse_duplicates entries in
  match entries with
  | [] -> merge_error "%s: journal is empty (cannot infer its shard)" path
  | first :: _ ->
      let s0 = first.Journal.je_stamp in
      List.iter
        (fun (e : Journal.entry) ->
          let st = e.Journal.je_stamp in
          if st <> s0 then
            merge_error
              "%s: entry %S stamped shard=%s seed=%Ld budget=%d, but the \
               journal opened with shard=%s seed=%Ld budget=%d (mixed \
               configurations)"
              path e.Journal.je_name
              (Shard.to_string st.Journal.js_shard)
              st.Journal.js_seed st.Journal.js_rounds
              (Shard.to_string s0.Journal.js_shard)
              s0.Journal.js_seed s0.Journal.js_rounds;
          let count = s0.Journal.js_shard.Shard.sh_count in
          let want = s0.Journal.js_shard.Shard.sh_index in
          let got = Shard.assign ~count e.Journal.je_name in
          if got <> want then
            merge_error
              "%s: target %S hashes to shard %d/%d but the journal is \
               stamped %s (misfiled entry or renamed target)"
              path e.Journal.je_name got count
              (Shard.to_string s0.Journal.js_shard))
        entries;
      (s0, entries)

let merge (paths : string list) : report =
  if paths = [] then invalid_arg "Campaign.merge: no journals given";
  let journals =
    List.map (fun p -> check_journal (p, Journal.load p)) paths
  in
  (* Fleet-level consistency: one configuration, N disjoint slices that
     cover 0..N-1 exactly once. *)
  let (ref_stamp, _), ref_path =
    (List.hd journals, List.hd paths)
  in
  let count = ref_stamp.Journal.js_shard.Shard.sh_count in
  List.iter2
    (fun (st, _) path ->
      if
        st.Journal.js_shard.Shard.sh_count <> count
        || st.Journal.js_seed <> ref_stamp.Journal.js_seed
        || st.Journal.js_rounds <> ref_stamp.Journal.js_rounds
      then
        merge_error
          "%s (shard=%s seed=%Ld budget=%d) and %s (shard=%s seed=%Ld \
           budget=%d) come from different fleet configurations"
          ref_path
          (Shard.to_string ref_stamp.Journal.js_shard)
          ref_stamp.Journal.js_seed ref_stamp.Journal.js_rounds path
          (Shard.to_string st.Journal.js_shard)
          st.Journal.js_seed st.Journal.js_rounds)
    journals paths;
  let by_index = Hashtbl.create 8 in
  List.iter2
    (fun (st, _) path ->
      let i = st.Journal.js_shard.Shard.sh_index in
      match Hashtbl.find_opt by_index i with
      | Some other ->
          merge_error "%s and %s both claim shard %d/%d (overlapping slices)"
            other path i count
      | None -> Hashtbl.replace by_index i path)
    journals paths;
  for i = 0 to count - 1 do
    if not (Hashtbl.mem by_index i) then
      merge_error
        "shard %d/%d is missing from the given journals (incomplete \
         coverage: %d of %d shards present)"
        i count (Hashtbl.length by_index) count
  done;
  (* Disjointness of the slices makes cross-journal name collisions
     impossible once each journal passed the per-entry assign check. *)
  of_entries (List.concat_map snd journals)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

let flag_counts (r : report) =
  List.map
    (fun f ->
      ( f,
        List.length
          (List.filter
             (fun (e : Journal.entry) ->
               List.assoc_opt f e.Journal.je_flags = Some true)
             r.cr_results) ))
    Core.Scanner.all_flags

let vulnerable_count (r : report) =
  List.length
    (List.filter
       (fun (e : Journal.entry) -> List.exists snd e.Journal.je_flags)
       r.cr_results)

let total_branches (r : report) =
  List.fold_left (fun acc (e : Journal.entry) -> acc + e.Journal.je_branches) 0
    r.cr_results

(* Fleet-wide solver counters: a plain sum over per-target stats.
   Each target's counters are deterministic (sessions are per-target and
   never shared across domains), so the sum is too. *)
let solver_totals (r : report) =
  List.fold_left
    (fun acc (e : Journal.entry) -> Solver.stats_add acc e.Journal.je_solver)
    Solver.stats_zero r.cr_results

let latency_histogram (r : report) =
  let h = Metrics.Histogram.create () in
  List.iter
    (fun (e : Journal.entry) -> Metrics.Histogram.add h e.Journal.je_elapsed)
    r.cr_results;
  h

let verdict_line (e : Journal.entry) =
  let fired = List.filter_map (fun (f, b) -> if b then Some f else None) e.Journal.je_flags in
  (* Solver counters are per-target deterministic (private session per
     engine run), so they are safe inside the canonical verdict section:
     the line stays byte-identical for any worker count. *)
  let st = e.Journal.je_solver in
  Printf.sprintf
    "%-13s %-40s branches=%d rounds=%d seeds=%d adaptive=%d tx=%d sat=%d \
     imprecise=%d quick=%d blast=%d unk=%d hits=%d misses=%d fb=%d"
    e.Journal.je_name
    (match fired with
     | [] -> "ok"
     | fs ->
         "VULNERABLE ["
         ^ String.concat "; " (List.map Core.Scanner.string_of_flag fs)
         ^ "]")
    e.Journal.je_branches e.Journal.je_rounds e.Journal.je_seeds_total
    e.Journal.je_adaptive_seeds e.Journal.je_transactions
    e.Journal.je_solver_sat e.Journal.je_imprecise st.Solver.st_quick
    st.Solver.st_blasted st.Solver.st_unknown st.Solver.st_cache_hits
    st.Solver.st_cache_misses e.Journal.je_final_budget

let verdicts_text (r : report) =
  String.concat "" (List.map (fun e -> verdict_line e ^ "\n") r.cr_results)

(* The counter-free canonical artifact: verdict flags only.  Warm and cold
   runs over the same corpus reach identical verdicts in different numbers
   of rounds/seeds, so the full [verdicts_text] cannot be compared across
   corpus states — this projection can. *)
let flags_line (e : Journal.entry) =
  let fired =
    List.filter_map (fun (f, b) -> if b then Some f else None) e.Journal.je_flags
  in
  Printf.sprintf "%-13s %s" e.Journal.je_name
    (match fired with
     | [] -> "ok"
     | fs ->
         "VULNERABLE ["
         ^ String.concat "; " (List.map Core.Scanner.string_of_flag fs)
         ^ "]")

let flags_text (r : report) =
  String.concat "" (List.map (fun e -> flags_line e ^ "\n") r.cr_results)

(* Exploit evidence is as deterministic as the verdicts (the payload is
   a pure function of the per-target run), so this section is canonical
   too: byte-identical across worker counts, shardings and merges. *)
let evidence_text (r : report) =
  let b = Buffer.create 256 in
  List.iter
    (fun (e : Journal.entry) ->
      List.iter
        (fun (f, ev) ->
          Buffer.add_string b
            (Printf.sprintf "%-13s %-14s %s\n" e.Journal.je_name
               (Core.Scanner.string_of_flag f)
               (Core.Scanner.string_of_evidence ev)))
        e.Journal.je_exploits)
    r.cr_results;
  Buffer.contents b

let to_text (r : report) =
  let b = Buffer.create 1024 in
  (if r.cr_jobs = 0 then
     Buffer.add_string b
       (Printf.sprintf
          "campaign: %d targets merged from journals (0 fuzzed this run)\n"
          r.cr_requested)
   else
     Buffer.add_string b
       (Printf.sprintf
          "campaign: %d targets%s (%d fuzzed, %d resumed from journal), %d \
           worker domain%s, %.2fs wall\n"
          r.cr_requested
          (if Shard.is_whole r.cr_shard then ""
           else Printf.sprintf " in shard %s" (Shard.to_string r.cr_shard))
          (List.length r.cr_results - r.cr_skipped)
          r.cr_skipped r.cr_jobs
          (if r.cr_jobs = 1 then "" else "s")
          r.cr_wall));
  Buffer.add_string b
    (Printf.sprintf "vulnerable: %d/%d contracts, %d distinct branches explored\n"
       (vulnerable_count r)
       (List.length r.cr_results)
       (total_branches r));
  List.iter
    (fun (f, n) ->
      (* Legacy flag rows are always printed; extension-class rows appear
         only when at least one contract fired them, keeping legacy-corpus
         reports byte-identical to pre-extension builds. *)
      if n > 0 || List.mem f Core.Scanner.legacy_flags then
        Buffer.add_string b
          (Printf.sprintf "  %-14s %d\n" (Core.Scanner.string_of_flag f) n))
    (flag_counts r);
  let st = solver_totals r in
  Buffer.add_string b
    (Printf.sprintf "solver: quick=%d blasted=%d unknown=%d\n"
       st.Solver.st_quick st.Solver.st_blasted st.Solver.st_unknown);
  if r.cr_corpus_preloaded > 0 || r.cr_corpus_added > 0 then
    Buffer.add_string b
      (Printf.sprintf "corpus: %d seeds preloaded, %d new seeds recorded\n"
         r.cr_corpus_preloaded r.cr_corpus_added);
  Buffer.add_string b (Metrics.Histogram.to_string (latency_histogram r));
  Buffer.add_char b '\n';
  Buffer.add_string b (verdicts_text r);
  let ev = evidence_text r in
  if ev <> "" then begin
    Buffer.add_string b "exploit evidence (replayable):\n";
    Buffer.add_string b ev
  end;
  Buffer.contents b
