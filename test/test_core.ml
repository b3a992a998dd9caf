(* Tests for the WASAI core: seed pool, DBG, the full detection matrix
   of the engine against ground-truth contracts, and per-class detection
   against the baselines. *)

module Core = Wasai_core
module BG = Wasai_benchgen
module BL = Wasai_baselines
module Metrics = Wasai_support.Metrics
open Wasai_eosio

let n = Name.of_string

(* ------------------------------------------------------------------ *)
(* Seed pool                                                            *)
(* ------------------------------------------------------------------ *)

let mk_seed ?(prov = Core.Seed.Random_seed) action v =
  { Core.Seed.sd_action = action; sd_args = [ Abi.V_u64 v ]; sd_provenance = prov }

let seed_val (s : Core.Seed.t) =
  match s.Core.Seed.sd_args with [ Abi.V_u64 v ] -> v | _ -> -1L

let test_pool_circular () =
  let pool = Core.Seed.create_pool () in
  let a = n "act" in
  List.iter (fun v -> Core.Seed.add pool (mk_seed a v)) [ 1L; 2L; 3L ];
  let got = List.init 5 (fun _ -> seed_val (Option.get (Core.Seed.next pool a))) in
  (* Head popped, pushed back to the tail: 1 2 3 1 2. *)
  Alcotest.(check (list int64)) "circular order" [ 1L; 2L; 3L; 1L; 2L ] got

let test_pool_fresh_priority () =
  let pool = Core.Seed.create_pool () in
  let a = n "act" in
  Core.Seed.add pool (mk_seed a 1L);
  Core.Seed.add pool (mk_seed ~prov:(Core.Seed.Adaptive 9) a 100L);
  Alcotest.(check int64) "adaptive seed jumps the queue" 100L
    (seed_val (Option.get (Core.Seed.next pool a)));
  Alcotest.(check int64) "then the queue resumes" 1L
    (seed_val (Option.get (Core.Seed.next pool a)))

let test_pool_take_fresh () =
  let pool = Core.Seed.create_pool () in
  let a = n "act" in
  Core.Seed.add pool (mk_seed a 1L);
  Alcotest.(check bool) "no fresh yet" true (Core.Seed.take_fresh pool a = None);
  Core.Seed.add pool (mk_seed ~prov:(Core.Seed.Adaptive 3) a 42L);
  (match Core.Seed.take_fresh pool a with
   | Some s -> Alcotest.(check int64) "fresh taken" 42L (seed_val s)
   | None -> Alcotest.fail "fresh seed missing");
  Alcotest.(check bool) "fresh drained" true (Core.Seed.take_fresh pool a = None)

(* ------------------------------------------------------------------ *)
(* DBG                                                                  *)
(* ------------------------------------------------------------------ *)

let test_dbg_dependency () =
  let g = Core.Dbg.create () in
  let write_acc table =
    { Database.acc_kind = Database.Write; acc_code = n "c"; acc_table = table }
  in
  Core.Dbg.record_access g ~action:(n "deposit") (write_acc (n "players"));
  Core.Dbg.record_read_miss g ~action:(n "transfer") (n "players");
  Alcotest.(check (option int64)) "writer found" (Some (n "deposit"))
    (Core.Dbg.dependency_for g (n "transfer"));
  Core.Dbg.clear_read_miss g ~action:(n "transfer");
  Alcotest.(check (option int64)) "cleared" None
    (Core.Dbg.dependency_for g (n "transfer"))

let test_dbg_no_self_dependency () =
  let g = Core.Dbg.create () in
  let acc k table =
    { Database.acc_kind = k; acc_code = n "c"; acc_table = table }
  in
  (* The blocked action itself also writes the table; it must not be its
     own resolution. *)
  Core.Dbg.record_access g ~action:(n "transfer") (acc Database.Write (n "t"));
  Core.Dbg.record_read_miss g ~action:(n "transfer") (n "t");
  Alcotest.(check (option int64)) "no self-writer" None
    (Core.Dbg.dependency_for g (n "transfer"))

(* ------------------------------------------------------------------ *)
(* Detection matrix                                                     *)
(* ------------------------------------------------------------------ *)

let fuzz ?(rounds = 40) spec =
  let m, abi = BG.Contracts.build spec in
  Core.Engine.fuzz
    ~cfg:(Core.Engine.make_config ~rounds:(rounds) ())
    {
      Core.Engine.tgt_account = spec.BG.Contracts.sp_account;
      tgt_module = m;
      tgt_abi = abi;
    }

let base = BG.Contracts.default_spec (n "victim")

let check_matrix name spec =
  let o = fuzz spec in
  List.iter
    (fun (cls, flag) ->
      let expected = BG.Contracts.ground_truth spec cls in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s" name (BG.Contracts.string_of_vuln cls))
        expected
        (Core.Engine.flagged o flag))
    [
      (BG.Contracts.Fake_eos, Core.Scanner.Fake_eos);
      (BG.Contracts.Fake_notif, Core.Scanner.Fake_notif);
      (BG.Contracts.Miss_auth, Core.Scanner.Miss_auth);
      (BG.Contracts.Blockinfo_dep, Core.Scanner.Blockinfo_dep);
      (BG.Contracts.Rollback, Core.Scanner.Rollback);
    ]

let test_matrix_safe () = check_matrix "safe" base

let test_matrix_fake_eos () =
  check_matrix "fake-eos" { base with BG.Contracts.sp_fake_eos_guard = false }

let test_matrix_fake_notif () =
  check_matrix "fake-notif" { base with BG.Contracts.sp_fake_notif_guard = false }

let test_matrix_miss_auth () =
  check_matrix "miss-auth" { base with BG.Contracts.sp_auth_check = false }

let test_matrix_blockinfo () =
  check_matrix "blockinfo" { base with BG.Contracts.sp_blockinfo = true }

let test_matrix_rollback () =
  check_matrix "rollback" { base with BG.Contracts.sp_payout_inline = true }

let test_matrix_all_with_gates () =
  check_matrix "all+gates"
    {
      base with
      BG.Contracts.sp_fake_eos_guard = false;
      sp_fake_notif_guard = false;
      sp_auth_check = false;
      sp_blockinfo = true;
      sp_payout_inline = true;
      sp_db_gate = true;
      sp_min_bet = Some 10L;
    }

let test_matrix_dead_template () =
  (* Inaccessible-branch negatives must not be flagged (no FPs from
     syntactic presence of the template). *)
  check_matrix "dead-template"
    {
      base with
      BG.Contracts.sp_blockinfo = true;
      sp_payout_inline = true;
      sp_dead_template = true;
    }

let target_of_sample (s : BG.Corpus.sample) =
  {
    Core.Engine.tgt_account = s.BG.Corpus.smp_spec.BG.Contracts.sp_account;
    tgt_module = s.BG.Corpus.smp_module;
    tgt_abi = s.BG.Corpus.smp_abi;
  }

(* Over small slices of the ground-truth and extension corpora, on every
   class WASAI's precision and recall are at least each baseline's that
   supports the class; the three extension classes (WACANA state I/O,
   EVulHunter fake transfer, asset overflow) are exact on their planted
   bugs and safe variants; and no extension flag fires on a legacy
   sample.  The seeds are the ones the bench tables use. *)
let test_detection_vs_baselines () =
  let rounds = 24 in
  let flag_of_class = function
    | BG.Contracts.Fake_eos -> Core.Scanner.Fake_eos
    | BG.Contracts.Fake_notif -> Core.Scanner.Fake_notif
    | BG.Contracts.Miss_auth -> Core.Scanner.Miss_auth
    | BG.Contracts.Blockinfo_dep -> Core.Scanner.Blockinfo_dep
    | BG.Contracts.Rollback -> Core.Scanner.Rollback
    | BG.Contracts.State_io -> Core.Scanner.State_io
    | BG.Contracts.Fake_transfer -> Core.Scanner.Fake_transfer
    | BG.Contracts.Asset_overflow -> Core.Scanner.Asset_overflow
  in
  let conf = Hashtbl.create 32 in
  let record tool (s : BG.Corpus.sample) = function
    | None -> ()
    | Some predicted ->
        let key = (tool, s.BG.Corpus.smp_class) in
        if not (Hashtbl.mem conf key) then Hashtbl.add conf key (Metrics.empty ());
        Metrics.record (Hashtbl.find conf key) ~truth:s.BG.Corpus.smp_truth
          ~predicted
  in
  let evaluate ~legacy (s : BG.Corpus.sample) =
    let tgt = target_of_sample s in
    let flag = flag_of_class s.BG.Corpus.smp_class in
    let o =
      Core.Engine.fuzz
        ~cfg:
          (Core.Engine.make_config ~rounds
             ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id) ())
        tgt
    in
    record "WASAI" s (Some (Core.Engine.flagged o flag));
    record "EOSFuzzer" s
      (BL.Eosfuzzer.flagged
         (BL.Eosfuzzer.fuzz ~rounds
            ~rng_seed:(Int64.of_int ((s.BG.Corpus.smp_id * 31) + 7))
            tgt)
         flag);
    record "EOSAFE" s
      (Option.join
         (List.assoc_opt flag
            (BL.Eosafe.flags (BL.Eosafe.analyze s.BG.Corpus.smp_module))));
    if legacy then
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s silent on legacy sample %d"
               (Core.Scanner.string_of_flag f) s.BG.Corpus.smp_id)
            false (Core.Engine.flagged o f))
        Core.Scanner.extension_flags
  in
  List.iter (evaluate ~legacy:true) (BG.Corpus.ground_truth ~scale:100 ());
  List.iter (evaluate ~legacy:false) (BG.Corpus.extension ~scale:10 ());
  List.iter
    (fun (cls, _) ->
      let name = BG.Contracts.string_of_vuln cls in
      match Hashtbl.find_opt conf ("WASAI", cls) with
      | None -> Alcotest.fail (name ^ ": no samples")
      | Some w ->
          List.iter
            (fun tool ->
              match Hashtbl.find_opt conf (tool, cls) with
              | None -> ()
              | Some b ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: WASAI precision >= %s" name tool)
                    true
                    (Metrics.precision w >= Metrics.precision b);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: WASAI recall >= %s" name tool)
                    true
                    (Metrics.recall w >= Metrics.recall b))
            [ "EOSFuzzer"; "EOSAFE" ];
          if List.mem_assoc cls BG.Corpus.extension_counts then (
            Alcotest.(check bool) (name ^ ": TP > 0 and TN > 0") true
              (w.Metrics.tp > 0 && w.Metrics.tn > 0);
            Alcotest.(check (pair int int)) (name ^ ": FP and FN") (0, 0)
              (w.Metrics.fp, w.Metrics.fn)))
    (BG.Corpus.paper_counts @ BG.Corpus.extension_counts)

let test_admin_reveal_is_fn () =
  (* The paper's documented FN: the only inline payout sits behind an
     admin-only action whose authority is not in the identity pool. *)
  let spec =
    {
      base with
      BG.Contracts.sp_has_payout = false;
      sp_admin_reveal = true;
      sp_payout_inline = true;
    }
  in
  Alcotest.(check bool) "ground truth vulnerable" true
    (BG.Contracts.ground_truth spec BG.Contracts.Rollback);
  let o = fuzz spec in
  Alcotest.(check bool) "engine misses it (no address pool)" false
    (Core.Engine.flagged o Core.Scanner.Rollback)

let test_deep_gates_need_feedback () =
  let spec =
    {
      base with
      BG.Contracts.sp_payout_inline = true;
      sp_memo_gate = Some "action:buy";
      sp_checks =
        [
          { BG.Contracts.chk_target = BG.Contracts.Chk_amount; chk_value = 123456789L };
          {
            BG.Contracts.chk_target = BG.Contracts.Chk_symbol;
            chk_value = Asset.Symbol.eos;
          };
        ];
    }
  in
  let m, abi = BG.Contracts.build spec in
  let target =
    {
      Core.Engine.tgt_account = n "victim";
      tgt_module = m;
      tgt_abi = abi;
    }
  in
  let with_fb =
    Core.Engine.fuzz
      ~cfg:(Core.Engine.make_config ~rounds:(40) ())
      target
  in
  let without_fb =
    Core.Engine.fuzz
      ~cfg:
        (Core.Engine.make_config ~rounds:(40) ~feedback:false ())
      target
  in
  Alcotest.(check bool) "feedback finds the gated payout" true
    (Core.Engine.flagged with_fb Core.Scanner.Rollback);
  Alcotest.(check bool) "random fuzzing misses it" false
    (Core.Engine.flagged without_fb Core.Scanner.Rollback);
  Alcotest.(check bool) "feedback covers more branches" true
    (with_fb.Core.Engine.out_branches > without_fb.Core.Engine.out_branches)

let test_db_gate_resolved_by_dbg () =
  (* The players-table gate requires a prior deposit; the DBG-driven seed
     selector must sequence it. *)
  let spec =
    { base with BG.Contracts.sp_db_gate = true; sp_payout_inline = true }
  in
  let o = fuzz spec in
  Alcotest.(check bool) "payout behind DB gate reached" true
    (Core.Engine.flagged o Core.Scanner.Rollback)

let test_multi_table_fn () =
  (* Table-level DBG granularity cannot correlate the setup parameter
     with the transfer payer: the paper's documented FN. *)
  let spec =
    {
      base with
      BG.Contracts.sp_auth_check = false;
      sp_deposit_auth = Some true;
      sp_db_gate = true;
      sp_multi_table = true;
    }
  in
  Alcotest.(check bool) "ground truth vulnerable" true
    (BG.Contracts.ground_truth spec BG.Contracts.Miss_auth);
  let o = fuzz spec in
  Alcotest.(check bool) "engine cannot satisfy the meta gate" false
    (Core.Engine.flagged o Core.Scanner.Miss_auth)

let test_obfuscated_detection_stable () =
  let spec =
    {
      base with
      BG.Contracts.sp_fake_eos_guard = false;
      sp_auth_check = false;
      sp_payout_inline = true;
    }
  in
  let m, abi = BG.Contracts.build spec in
  let obf = BG.Obfuscate.obfuscate m in
  let run module_ =
    Core.Engine.fuzz
      ~cfg:(Core.Engine.make_config ~rounds:(24) ())
      { Core.Engine.tgt_account = n "victim"; tgt_module = module_; tgt_abi = abi }
  in
  let o1 = run m and o2 = run obf in
  Alcotest.(check bool) "same verdicts plain/obfuscated" true
    (o1.Core.Engine.out_flags = o2.Core.Engine.out_flags)

let test_exploit_payloads () =
  (* Every positive verdict comes with a concrete exploit payload (the
     paper's "WASAI can produce exploit payloads"). *)
  let spec =
    {
      base with
      BG.Contracts.sp_fake_eos_guard = false;
      sp_payout_inline = true;
      sp_checks =
        [ { BG.Contracts.chk_target = BG.Contracts.Chk_amount; chk_value = 55555L } ];
    }
  in
  let m, abi = BG.Contracts.build spec in
  let o =
    Core.Engine.fuzz
      ~cfg:(Core.Engine.make_config ~rounds:(40) ())
      { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
  in
  List.iter
    (fun (f, fired) ->
      if fired then
        Alcotest.(check bool)
          (Core.Scanner.string_of_flag f ^ " has evidence")
          true
          (List.mem_assoc f o.Core.Engine.out_exploits))
    o.Core.Engine.out_flags;
  (* The Rollback payload must itself satisfy the amount gate: replaying
     it verbatim reaches send_inline. *)
  match List.assoc_opt Core.Scanner.Rollback o.Core.Engine.out_exploits with
  | None -> Alcotest.fail "rollback evidence missing"
  | Some e ->
      let rendered = Core.Scanner.string_of_evidence ~abi e in
      Alcotest.(check bool) "payload decodes with the ABI" true
        (String.length rendered > 0
        &&
        let sub = "5.5555 EOS" in
        let rec contains i =
          i + String.length sub <= String.length rendered
          && (String.sub rendered i (String.length sub) = sub || contains (i + 1))
        in
        contains 0)

let test_time_limit () =
  (* A zero wall-clock budget stops the loop immediately.  Built as a raw
     record on purpose: [make_config] rejects [time_limit <= 0], and this
     test exercises exactly the degenerate engine behaviour the
     validation exists to keep out of real runs. *)
  let m, abi = BG.Contracts.build base in
  let o =
    Core.Engine.fuzz
      ~cfg:
        {
          Core.Engine.default_config with
          Core.Engine.cfg_rounds = 1000;
          cfg_time_limit = Some 0.0;
        }
      { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
  in
  Alcotest.(check int) "no rounds under a zero budget" 0 o.Core.Engine.out_rounds

let test_outcome_accounting () =
  let o = fuzz { base with BG.Contracts.sp_fake_eos_guard = false } in
  Alcotest.(check bool) "transactions ran" true (o.Core.Engine.out_transactions > 0);
  Alcotest.(check bool) "branches found" true (o.Core.Engine.out_branches > 0);
  Alcotest.(check int) "timeline covers rounds" o.Core.Engine.out_rounds
    (List.length o.Core.Engine.out_timeline);
  (* Timeline is monotone. *)
  let rec mono = function
    | (_, _, a) :: ((_, _, b) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "coverage monotone" true (mono o.Core.Engine.out_timeline)

(* A healthy target never hits the collector limit; when a truncated
   trace is reported the text warns that verdicts are best-effort. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_truncation_warning () =
  let o = fuzz { base with BG.Contracts.sp_fake_eos_guard = false } in
  Alcotest.(check int) "healthy target: no truncation" 0
    o.Core.Engine.out_truncated;
  let text_of o = Core.Report.to_text (Core.Report.make ~target:"victim" o) in
  Alcotest.(check bool) "no warning when clean" false
    (contains (text_of o) "WARNING");
  let text = text_of { o with Core.Engine.out_truncated = 2 } in
  Alcotest.(check bool) "warning present" true (contains text "WARNING");
  Alcotest.(check bool) "counts payloads" true
    (contains text "2 payload traces truncated at the collector limit")

(* Corpus preload: a warm run fed the cold run's interesting seeds must
   reproduce the cold verdicts with no more solver work (the replays
   re-open the branches the solver would otherwise have to re-derive),
   and stale vectors — unknown actions, wrong signatures — are skipped,
   not fatal. *)
let warm_cold cfg tgt =
  let cold = Core.Engine.fuzz ~cfg tgt in
  let preload =
    List.map
      (fun (i : Core.Engine.interesting) ->
        (i.Core.Engine.is_action, i.Core.Engine.is_args))
      cold.Core.Engine.out_interesting
  in
  (cold, Core.Engine.fuzz ~cfg:{ cfg with Core.Engine.cfg_preload = preload } tgt)

let fired o = List.filter snd o.Core.Engine.out_flags

let solver_runs o =
  o.Core.Engine.out_solver.Wasai_smt.Solver.st_quick
  + o.Core.Engine.out_solver.Wasai_smt.Solver.st_blasted

let test_preload_warm_run () =
  let spec = { base with BG.Contracts.sp_fake_eos_guard = false } in
  let m, abi = BG.Contracts.build spec in
  let tgt =
    { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
  in
  let cold, warm = warm_cold (Core.Engine.make_config ~rounds:12 ()) tgt in
  Alcotest.(check bool) "verdict parity" true (fired cold = fired warm);
  Alcotest.(check bool) "solver work does not grow" true
    (solver_runs warm <= solver_runs cold);
  Alcotest.(check bool) "warm run still covers branches" true
    (warm.Core.Engine.out_branches > 0);
  (* Over six branch-rich Figure 3 contracts the saving is large: warm
     runs reach the cold fired flags with at most half the solver runs
     in aggregate, and no payload trace hits the collector limit. *)
  let cold_sum, warm_sum =
    List.fold_left
      (fun (c, w) (s : BG.Corpus.sample) ->
        let tgt = target_of_sample s in
        let cold, warm =
          warm_cold
            (Core.Engine.make_config ~rounds:8
               ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id) ())
            tgt
        in
        let name = Name.to_string tgt.Core.Engine.tgt_account in
        Alcotest.(check bool) (name ^ ": verdict parity") true
          (fired cold = fired warm);
        Alcotest.(check (pair int int)) (name ^ ": no truncated trace") (0, 0)
          (cold.Core.Engine.out_truncated, warm.Core.Engine.out_truncated);
        (c + solver_runs cold, w + solver_runs warm))
      (0, 0)
      (BG.Corpus.coverage_set ~count:6 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm solver runs (%d) at most half of cold (%d)" warm_sum
       cold_sum)
    true
    (2 * warm_sum <= cold_sum)

let test_preload_skips_stale_vectors () =
  let m, abi = BG.Contracts.build base in
  let tgt =
    { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
  in
  let stale =
    [
      (n "nosuchact", []);  (* action the ABI does not have *)
      (n "transfer", [ Wasai_eosio.Abi.V_u32 1l ]);  (* wrong signature *)
    ]
  in
  let o =
    Core.Engine.fuzz
      ~cfg:
        (Core.Engine.make_config ~rounds:(4) ~preload:(stale) ())
      tgt
  in
  Alcotest.(check int) "stale vectors ignored, run completes" 4
    o.Core.Engine.out_rounds

(* ------------------------------------------------------------------ *)
(* Flag / channel codecs                                               *)
(* ------------------------------------------------------------------ *)

(* The journal and serve wire formats both lean on these codecs being
   strict inverses: every canonical rendering parses back to the same
   value, and nothing else parses at all. *)
let test_flag_codec () =
  Alcotest.(check int) "eight classes" 8 (List.length Core.Scanner.all_flags);
  Alcotest.(check bool) "all = legacy @ extension" true
    (Core.Scanner.all_flags
    = Core.Scanner.legacy_flags @ Core.Scanner.extension_flags);
  List.iter
    (fun f ->
      let s = Core.Scanner.string_of_flag f in
      Alcotest.(check bool) (s ^ " roundtrips") true
        (Core.Scanner.flag_of_string s = Some f))
    Core.Scanner.all_flags;
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Core.Scanner.flag_of_string s = None))
    [
      ""; "fakeeos"; "FakeEos"; "FakeEOS "; " FakeEOS"; "StateIO"; "stateio";
      "Asset_overflow"; "FakeEOS=1"; "FakeTransfer\n";
    ]

let test_channel_codec () =
  List.iter
    (fun c ->
      let s = Core.Scanner.string_of_channel c in
      Alcotest.(check bool) (s ^ " roundtrips") true
        (Core.Scanner.channel_of_string s = Some c))
    [
      Core.Scanner.Ch_genuine; Core.Scanner.Ch_direct;
      Core.Scanner.Ch_fake_token; Core.Scanner.Ch_fake_notif;
      Core.Scanner.Ch_action (n "deposit");
      Core.Scanner.Ch_action (n "a.b.c");
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Core.Scanner.channel_of_string s = None))
    [
      ""; "Genuine"; "fake_token"; "fake-token "; "direct\n"; "action:";
      "action:BAD"; "action:0digit"; "action:waytoolongname";
    ]

(* ------------------------------------------------------------------ *)
(* Fused trace scan vs reference list passes                            *)
(* ------------------------------------------------------------------ *)

module Wasabi = Wasai_wasabi
module Wasm = Wasai_wasm

(* The three historical list passes the fused [Engine.scan_trace]
   replaced, reimplemented over the compat record view as the oracle. *)
let ref_edges (meta : Wasabi.Trace.meta) records =
  List.filter_map
    (fun r ->
      match r with
      | Wasabi.Trace.R_instr { site; ops = [ Wasm.Values.I32 c ] } -> (
          match (Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr with
          | Wasm.Ast.Br_if _ | Wasm.Ast.If _ ->
              Some (site, if c = 0l then 0l else 1l)
          | Wasm.Ast.Br_table _ -> Some (site, c)
          | _ -> None)
      | _ -> None)
    records

let ref_executed records =
  List.filter_map
    (function Wasabi.Trace.R_func_begin f -> Some f | _ -> None)
    records

let ref_read_miss (meta : Wasabi.Trace.meta) db_find records =
  match db_find with
  | None -> (None, None)
  | Some fi ->
      let missed = ref None and hit = ref None in
      let pending = ref None in
      List.iter
        (fun r ->
          match r with
          | Wasabi.Trace.R_call_pre { site; args } -> (
              match (Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr with
              | Wasm.Ast.Call f when f = fi -> pending := Some args
              | _ -> pending := None)
          | Wasabi.Trace.R_call_post { results; _ } ->
              (match (!pending, results) with
               | ( Some [ _code; _scope; Wasm.Values.I64 table; _id ],
                   [ Wasm.Values.I32 itr ] ) ->
                   if itr = -1l then missed := Some table else hit := Some table
               | _ -> ());
              pending := None
          | _ -> ())
        records;
      (!missed, !hit)

(* Real executions (all adversary channels, DB-gated contract so the
   read-miss machine is exercised both ways): the single streaming pass
   must agree with the reference passes on every payload. *)
let qcheck_fused_scan_equivalence =
  QCheck.Test.make ~name:"fused trace scan = reference list passes" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun rng_seed ->
      let spec =
        {
          base with
          BG.Contracts.sp_fake_eos_guard = false;
          sp_db_gate = true;
          sp_payout_inline = true;
          sp_blockinfo = true;
        }
      in
      let m, abi = BG.Contracts.build spec in
      let cfg =
        (Core.Engine.make_config ~rounds:(2) ~rng_seed:(Int64.of_int rng_seed) ())
      in
      let s =
        Core.Engine.setup cfg
          { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
      in
      let actions = Array.of_list abi.Abi.abi_actions in
      let ok = ref true in
      for round = 0 to 5 do
        let def = actions.(round mod Array.length actions) in
        let seed =
          Core.Seed.random s.Core.Engine.rng
            ~identities:s.Core.Engine.identities def
        in
        let channels =
          if Name.equal def.Abi.act_name Name.transfer then
            Core.Scanner.[ Ch_genuine; Ch_direct; Ch_fake_token; Ch_fake_notif ]
          else [ Core.Scanner.Ch_action def.Abi.act_name ]
        in
        List.iter
          (fun channel ->
            let ex = Core.Engine.run_one s seed channel in
            let records = Wasabi.Trace.Compat.to_list ex.Core.Engine.ex_trace in
            let meta = s.Core.Engine.meta in
            let sc = ex.Core.Engine.ex_scan in
            let missed, hit =
              ref_read_miss meta s.Core.Engine.db_find_import records
            in
            if
              sc.Core.Engine.sc_edges <> ref_edges meta records
              || sc.Core.Engine.sc_executed <> ref_executed records
              || sc.Core.Engine.sc_read_missed <> missed
              || sc.Core.Engine.sc_read_hit <> hit
            then ok := false)
          channels
      done;
      !ok)

(* The adaptive conflict budget never leaves [configured/16,
   configured*4], and a blind run (no feedback, hence no solving) never
   retunes at all. *)
let test_adaptive_budget_bounds () =
  let spec = { base with BG.Contracts.sp_fake_eos_guard = false } in
  let m, abi = BG.Contracts.build spec in
  let tgt =
    { Core.Engine.tgt_account = n "victim"; tgt_module = m; tgt_abi = abi }
  in
  let cfg =
    (Core.Engine.make_config ~rounds:(12) ())
  in
  let o = Core.Engine.fuzz ~cfg tgt in
  let b = cfg.Core.Engine.cfg_solver_budget in
  Alcotest.(check bool) "final budget within [b/16, 4b]" true
    (o.Core.Engine.out_final_budget >= max 1 (b / 16)
    && o.Core.Engine.out_final_budget <= 4 * b);
  let blind =
    Core.Engine.fuzz
      ~cfg:{ cfg with Core.Engine.cfg_feedback = false }
      tgt
  in
  Alcotest.(check int) "blind run never retunes" b
    blind.Core.Engine.out_final_budget

(* [Engine.fuzz] hands a target's pooled linear memory to its domain's
   spare when the run ends, and the next target on the domain takes the
   pages over.  They must come back zeroed: A fuzzed after B on one
   domain matches A fuzzed before B, and A fuzzed on a fresh domain.  A
   branches on a word it never writes; B writes that word. *)
let probe_target name ~poke =
  let open Wasm.Builder in
  let open Wasm.Builder.I in
  let b = create () in
  add_memory b 2;
  add_data b ~offset:16 "probe";
  let word = 0x8000 in
  let apply =
    add_func b ~name:"apply"
      (Wasm.Types.func_type Wasm.Types.[ I64; I64; I64 ])
      ((if poke then [ i32 word; i32 1; i32_store () ] else [])
      @ [ i32 word; i32_load (); if_ [ nop ] [] ])
  in
  export_func b "apply" apply;
  {
    Core.Engine.tgt_account = n name;
    tgt_module = build b;
    tgt_abi = { Abi.abi_actions = [ { Abi.act_name = n "go"; act_params = [] } ] };
  }

let test_spare_pages_between_targets () =
  let a = probe_target "reader" ~poke:false in
  let b = probe_target "poker" ~poke:true in
  let run t =
    let o = Core.Engine.fuzz ~cfg:(Core.Engine.make_config ~rounds:4 ()) t in
    { o with
      Core.Engine.out_timeline =
        List.map (fun (r, _, br) -> (r, 0., br)) o.Core.Engine.out_timeline }
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let fresh = on_fresh_domain (fun () -> run a) in
  let first, again =
    on_fresh_domain (fun () ->
        let first = run a in
        ignore (run b);
        (first, run a))
  in
  Alcotest.(check int) "A sees one branch edge" 1 fresh.Core.Engine.out_branches;
  Alcotest.(check bool) "A before B = A on a fresh domain" true (first = fresh);
  Alcotest.(check bool) "A after B = A on a fresh domain" true (again = fresh)

let () =
  Alcotest.run "wasai_core"
    [
      ( "seed-pool",
        [
          Alcotest.test_case "circular queue" `Quick test_pool_circular;
          Alcotest.test_case "adaptive priority" `Quick test_pool_fresh_priority;
          Alcotest.test_case "take_fresh" `Quick test_pool_take_fresh;
        ] );
      ( "dbg",
        [
          Alcotest.test_case "dependency resolution" `Quick test_dbg_dependency;
          Alcotest.test_case "no self dependency" `Quick test_dbg_no_self_dependency;
        ] );
      ( "detection-matrix",
        [
          Alcotest.test_case "all safe" `Quick test_matrix_safe;
          Alcotest.test_case "fake eos" `Quick test_matrix_fake_eos;
          Alcotest.test_case "fake notif" `Quick test_matrix_fake_notif;
          Alcotest.test_case "miss auth" `Quick test_matrix_miss_auth;
          Alcotest.test_case "blockinfo" `Quick test_matrix_blockinfo;
          Alcotest.test_case "rollback" `Quick test_matrix_rollback;
          Alcotest.test_case "everything + gates" `Quick test_matrix_all_with_gates;
          Alcotest.test_case "dead template stays clean" `Quick
            test_matrix_dead_template;
          Alcotest.test_case "8 classes vs baselines, extensions exact" `Quick
            test_detection_vs_baselines;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "flag strings are a strict inverse pair" `Quick
            test_flag_codec;
          Alcotest.test_case "channel strings are a strict inverse pair" `Quick
            test_channel_codec;
        ] );
      ( "engine",
        [
          Alcotest.test_case "admin-reveal FN (paper §4.2)" `Quick
            test_admin_reveal_is_fn;
          Alcotest.test_case "deep gates need feedback" `Quick
            test_deep_gates_need_feedback;
          Alcotest.test_case "DB gate via DBG" `Quick test_db_gate_resolved_by_dbg;
          Alcotest.test_case "multi-table FN (paper §5)" `Quick test_multi_table_fn;
          Alcotest.test_case "verdicts stable under obfuscation" `Quick
            test_obfuscated_detection_stable;
          Alcotest.test_case "exploit payloads produced" `Quick
            test_exploit_payloads;
          Alcotest.test_case "wall-clock budget" `Quick test_time_limit;
          Alcotest.test_case "outcome accounting" `Quick test_outcome_accounting;
          Alcotest.test_case "truncation warning" `Quick test_truncation_warning;
          Alcotest.test_case "preloaded warm run" `Quick test_preload_warm_run;
          Alcotest.test_case "stale preload vectors skipped" `Quick
            test_preload_skips_stale_vectors;
          Alcotest.test_case "adaptive budget bounds" `Quick
            test_adaptive_budget_bounds;
          Alcotest.test_case "spare pages between targets" `Quick
            test_spare_pages_between_targets;
          QCheck_alcotest.to_alcotest qcheck_fused_scan_equivalence;
        ] );
    ]
