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
  let b = Core.Engine.solver_budget in
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

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* [Engine.fuzz] with the timeline's elapsed seconds zeroed, the one
   part of an outcome the clock decides. *)
let fuzz_untimed ~rounds t =
  let o = Core.Engine.fuzz ~cfg:(Core.Engine.make_config ~rounds ()) t in
  { o with
    Core.Engine.out_timeline =
      List.map (fun (r, _, br) -> (r, 0., br)) o.Core.Engine.out_timeline }

let test_spare_pages_between_targets () =
  let a = probe_target "reader" ~poke:false in
  let b = probe_target "poker" ~poke:true in
  let run = fuzz_untimed ~rounds:4 in
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

(* The trace collector goes the same way: a target that grows the
   collector's arrays hands them to the next target, which must collect
   exactly what it would into fresh ones.  A released collector refuses
   every later event. *)
let test_spare_collector_between_targets () =
  let big =
    {
      base with
      BG.Contracts.sp_checks =
        BG.Verification.random_checks (Wasai_support.Rand.create 7L) ~depth:3;
      sp_milestones =
        BG.Verification.random_milestones (Wasai_support.Rand.create 9L)
          ~depth:4;
    }
  in
  let tgt spec account =
    let m, abi = BG.Contracts.build spec in
    { Core.Engine.tgt_account = n account; tgt_module = m; tgt_abi = abi }
  in
  let a = tgt base "victim" and b = tgt big "bigger" in
  let run = fuzz_untimed ~rounds:6 in
  let fresh = on_fresh_domain (fun () -> run a) in
  let after_b =
    on_fresh_domain (fun () ->
        ignore (run b);
        run a)
  in
  Alcotest.(check bool) "A after B = A on a fresh domain" true (after_b = fresh);
  let c = Wasabi.Trace.Buffer.create () in
  Wasabi.Trace.Buffer.begin_instr c 0;
  Wasabi.Trace.Buffer.release c;
  Wasabi.Trace.Buffer.begin_instr c 1;
  Wasabi.Trace.Buffer.operand c (Wasm.Values.I32 1l);
  Alcotest.(check int) "released collector holds nothing" 0
    (Wasabi.Trace.Buffer.length c);
  Alcotest.(check bool) "a stray append marks it truncated" true
    (Wasabi.Trace.Buffer.truncated c)

(* A domain's first [Engine.setup] raises its nursery (minor heap) to at
   least 1M words and never lowers it.  [Gc.set] resizes only the
   calling domain, and a domain spawned later starts at the runtime
   default whatever its parent set: the design raises the nursery per
   domain because of this, so a runtime that changes it fails here. *)
let minor_heap () = (Gc.get ()).Gc.minor_heap_size
let set_minor_heap words = Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }
let nursery = 1 lsl 20
let big_nursery = 4 lsl 20

let test_nursery_policy () =
  let setup () =
    ignore
      (Core.Engine.setup (Core.Engine.make_config ~rounds:1 ())
         (probe_target "reader" ~poke:false))
  in
  let first_setup () =
    let before = minor_heap () in
    setup ();
    (before, minor_heap ())
  in
  let default = on_fresh_domain minor_heap in
  let raised = max default nursery in
  Alcotest.(check (pair int int)) "a fresh domain's first setup raises it"
    (default, raised) (on_fresh_domain first_setup);
  Alcotest.(check int) "a larger nursery is kept" big_nursery
    (on_fresh_domain (fun () ->
         set_minor_heap big_nursery;
         setup ();
         minor_heap ()));
  let main = minor_heap () in
  let child, parent =
    on_fresh_domain (fun () ->
        set_minor_heap big_nursery;
        setup ();
        let child = on_fresh_domain first_setup in
        (child, minor_heap ()))
  in
  Alcotest.(check (pair int int))
    "a domain spawned later starts at the default until its first setup"
    (default, raised) child;
  Alcotest.(check int) "its parent keeps its own" big_nursery parent;
  Alcotest.(check int) "the main domain is untouched" main (minor_heap ())

(* Outcomes do not depend on the nursery: the same targets fuzzed on a
   domain preset to 4M words, on one left at the default (which its
   first setup raises), and on one whose nursery is cut to 32k words
   after its first setup, so that minor collections fall in mid-target. *)
let test_nursery_outcomes () =
  let targets =
    List.map target_of_sample
      (BG.Corpus.coverage_set ~count:3 ()
      @ [ List.hd (BG.Corpus.verification ~scale:400 ()) ])
  in
  let run = fuzz_untimed ~rounds:8 in
  let large =
    on_fresh_domain (fun () ->
        set_minor_heap big_nursery;
        List.map run targets)
  in
  let default = on_fresh_domain (fun () -> List.map run targets) in
  let small =
    on_fresh_domain (fun () ->
        ignore
          (Core.Engine.setup (Core.Engine.make_config ()) (List.hd targets));
        set_minor_heap (32 lsl 10);
        List.map run targets)
  in
  List.iteri
    (fun i (t : Core.Engine.target) ->
      let name = Name.to_string t.Core.Engine.tgt_account in
      let large = List.nth large i in
      Alcotest.(check bool) (name ^ ": explores branches") true
        (large.Core.Engine.out_branches > 0);
      Alcotest.(check bool) (name ^ ": 4M = default") true
        (large = List.nth default i);
      Alcotest.(check bool) (name ^ ": 4M = 32k") true (large = List.nth small i))
    targets

(* ------------------------------------------------------------------ *)
(* One-pass oracle facts vs per-detector walks                          *)
(* ------------------------------------------------------------------ *)

module Scanner = Core.Scanner

(* A hand-made instrumented module: the host APIs the detectors group,
   one import they ignore, and a site for every call and i64 operator
   the facts read, plus their non-i64 and non-import neighbours. *)
let facts_meta =
  let imports =
    [
      "require_auth"; "has_auth"; "db_store_i64"; "db_remove_i64";
      "send_inline"; "tapos_block_num"; "tapos_block_prefix"; "prints";
    ]
  in
  let m =
    {
      Wasm.Ast.empty_module with
      Wasm.Ast.types = [| Wasm.Types.func_type [] |];
      imports =
        List.map
          (fun name ->
            {
              Wasm.Ast.imp_module = "env";
              imp_name = name;
              idesc = Wasm.Ast.Func_import 0;
            })
          imports;
    }
  in
  let instrs =
    List.init (List.length imports + 1) (fun fi -> Wasm.Ast.Call fi)
    @ Wasm.Ast.
        [
          Call_indirect 0;
          Int_compare (Wasm.Types.I64, Eq);
          Int_compare (Wasm.Types.I64, Ne);
          Int_compare (Wasm.Types.I64, Lt_s);
          Int_compare (Wasm.Types.I32, Eq);
          Int_binary (Wasm.Types.I64, Xor);
          Int_binary (Wasm.Types.I64, Sub);
          Int_binary (Wasm.Types.I64, Mul);
          Int_binary (Wasm.Types.I64, Add);
          Int_binary (Wasm.Types.I32, Mul);
          Int_binary (Wasm.Types.I32, Sub);
          Nop;
        ]
  in
  {
    Wasabi.Trace.sites =
      Array.of_list
        (List.mapi
           (fun i instr ->
             { Wasabi.Trace.site_id = i; site_func = 0; site_instr = instr })
           instrs);
    instrumented = m;
    original = m;
    hook_base = List.length imports;
    hook_count = 0;
    orig_import_count = List.length imports;
  }

(* Small account values, so an i32 operand can carry a name's bits. *)
let facts_victim = 5L
let facts_agent = 7L
let facts_fake_token = 11L

let facts_env =
  Scanner.make_env ~meta:facts_meta ~victim:facts_victim
    ~fake_notif_agent:facts_agent ~fake_token:facts_fake_token ()

(* The per-detector walks the one pass replaced, over boxed records. *)
let ref_facts records : Scanner.facts =
  let meta = facts_meta in
  let func_imports = Wasm.Ast.num_func_imports meta.Wasabi.Trace.instrumented in
  let instr site = (Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr in
  let called_import = function
    | Wasabi.Trace.R_call_pre { site; _ } -> (
        match instr site with
        | Wasm.Ast.Call fi when fi < func_imports -> Some fi
        | _ -> None)
    | _ -> None
  in
  let calls ids =
    ids <> []
    && List.exists
         (fun r ->
           match called_import r with
           | Some fi -> List.mem fi ids
           | None -> false)
         records
  in
  let ids = Scanner.resolve_ids meta in
  let effects = ids.Scanner.hi_inline_send @ ids.Scanner.hi_state_writes in
  let unauthorised =
    let seen_auth = ref false and hit = ref false in
    List.iter
      (fun r ->
        match called_import r with
        | Some fi ->
            if List.mem fi ids.Scanner.hi_auth then seen_auth := true
            else if (not !seen_auth) && List.mem fi effects then
              hit := true
        | None -> ())
      records;
    !hit
  in
  let compared x y =
    List.exists
      (function
        | Wasabi.Trace.R_instr
            { site; ops = [ Wasm.Values.I64 a; Wasm.Values.I64 b ] } -> (
            match instr site with
            | Wasm.Ast.Int_compare (Wasm.Types.I64, (Wasm.Ast.Eq | Wasm.Ast.Ne))
            | Wasm.Ast.Int_binary (Wasm.Types.I64, (Wasm.Ast.Xor | Wasm.Ast.Sub))
              ->
                (a = x && b = y) || (a = y && b = x)
            | _ -> false)
        | _ -> false)
      records
  in
  {
    Scanner.fa_state_write = calls ids.Scanner.hi_state_writes;
    fa_inline_send = calls ids.Scanner.hi_inline_send;
    fa_blockinfo = calls ids.Scanner.hi_blockinfo;
    fa_unauthorised_effect = unauthorised;
    fa_agent_victim = compared facts_agent facts_victim;
    fa_victim_token = compared facts_victim Name.eosio_token;
    fa_fake_token_token = compared facts_fake_token Name.eosio_token;
    fa_mul_overflow =
      List.exists
        (function
          | Wasabi.Trace.R_instr
              { site; ops = [ Wasm.Values.I64 a; Wasm.Values.I64 b ] } -> (
              match instr site with
              | Wasm.Ast.Int_binary (Wasm.Types.I64, Wasm.Ast.Mul) ->
                  Scanner.i64_mul_overflows a b
              | _ -> false)
          | _ -> false)
        records;
  }

let gen_fact_records =
  let open QCheck.Gen in
  let names = [ facts_victim; facts_agent; facts_fake_token; Name.eosio_token ] in
  (* Values at the signed-overflow boundary of a 64-bit product. *)
  let boundary =
    [
      0L; 1L; -1L; 2L; -2L; Int64.max_int; Int64.min_int; 3037000499L;
      3037000500L; -3037000499L; -3037000500L; 0x1_0000_0000L; 0x8000_0000L;
      0x4000_0000_0000_0000L;
    ]
  in
  let value =
    frequency
      [ (3, oneofl names); (3, oneofl boundary); (1, map Int64.of_int int) ]
  in
  let operand =
    frequency
      [
        (6, map (fun v -> Wasm.Values.I64 v) value);
        (1, map (fun v -> Wasm.Values.I32 (Int64.to_int32 v)) value);
        (1, map (fun v -> Wasm.Values.F64 (Int64.float_of_bits v)) value);
        ( 1,
          map
            (fun v -> Wasm.Values.F32 (Int32.float_of_bits (Int64.to_int32 v)))
            value );
      ]
  in
  let site = int_bound (Array.length facts_meta.Wasabi.Trace.sites - 1) in
  let ops =
    frequency [ (6, list_repeat 2 operand); (1, list_size (int_bound 3) operand) ]
  in
  let record =
    frequency
      [
        (4, map2 (fun site ops -> Wasabi.Trace.R_instr { site; ops }) site ops);
        ( 3,
          map2 (fun site args -> Wasabi.Trace.R_call_pre { site; args }) site ops
        );
        ( 1,
          map2
            (fun site results -> Wasabi.Trace.R_call_post { site; results })
            site ops );
        (1, map (fun f -> Wasabi.Trace.R_func_begin f) (int_bound 9));
        (1, map (fun f -> Wasabi.Trace.R_func_end f) (int_bound 9));
      ]
  in
  list_size (int_bound 24) record

let qcheck_facts_vs_reference =
  QCheck.Test.make ~name:"one-pass facts = per-detector walks" ~count:500
    (QCheck.make
       ~print:(fun records ->
         String.concat "\n"
           (List.map (Wasabi.Trace.string_of_record facts_meta) records))
       gen_fact_records)
    (fun records ->
      let buf = Wasabi.Trace.Compat.of_records records in
      Scanner.facts facts_env buf = ref_facts records)

(* ------------------------------------------------------------------ *)
(* The session scanner over scripted traces                             *)
(* ------------------------------------------------------------------ *)

(* Sticky fires, first-fire evidence in flag order, FakeNotif's
   exculpatory guard on either side of its fire, and a custom oracle
   that stays fired, over hand-written traces of an instrumented
   generated contract. *)
let test_scanner_session () =
  let spec =
    { base with BG.Contracts.sp_blockinfo = true; sp_payout_inline = true }
  in
  let m, _ = BG.Contracts.build spec in
  let _, meta = Wasabi.Instrument.instrument m in
  let victim = spec.BG.Contracts.sp_account and agent = n "fake.notif" in
  let site_where p =
    match
      List.find_opt
        (fun (s : Wasabi.Trace.site) -> p s.Wasabi.Trace.site_instr)
        (Array.to_list meta.Wasabi.Trace.sites)
    with
    | Some s -> s.Wasabi.Trace.site_id
    | None -> Alcotest.fail "no such site in the instrumented contract"
  in
  let call name =
    let fi = Option.get (Wasabi.Trace.find_env_import meta name) in
    Wasabi.Trace.R_call_pre
      { site = site_where (( = ) (Wasm.Ast.Call fi)); args = [] }
  in
  let guard =
    Wasabi.Trace.R_instr
      {
        site =
          site_where
            (( = ) (Wasm.Ast.Int_compare (Wasm.Types.I64, Wasm.Ast.Eq)));
        ops = [ Wasm.Values.I64 agent; Wasm.Values.I64 victim ];
      }
  in
  let action =
    List.hd
      (Wasai_symbolic.Convention.find_action_functions
         meta.Wasabi.Trace.instrumented)
  in
  (* Every scripted payload enters the action function first. *)
  let trace records =
    Wasabi.Trace.Compat.of_records (Wasabi.Trace.R_func_begin action :: records)
  in
  let payload data =
    {
      Action.act_account = victim;
      act_name = n "transfer";
      act_data = data;
      act_auth = [ n "attacker" ];
    }
  in
  let observe sc ~channel data records =
    Scanner.observe ~payload:(payload data) ~executed:[ action ] sc ~channel
      (trace records)
  in
  let data_of sc f =
    Option.map
      (fun e -> e.Scanner.ev_payload.Action.act_data)
      (Scanner.evidence_for sc f)
  in
  let create () = Scanner.create ~meta ~victim ~fake_notif_agent:agent () in
  let sc = create () in
  Scanner.register_custom sc
    {
      Scanner.co_name = "tapos";
      co_detect =
        (fun _ buf -> Scanner.calls_env_import meta "tapos_block_num" buf);
    };
  (* One payload fires BlockinfoDep and Rollback: evidence in flag
     order, whatever order the trace called them in. *)
  observe sc ~channel:Scanner.Ch_genuine "one"
    [ call "require_auth"; call "send_inline"; call "tapos_block_num" ];
  Alcotest.(check (list string))
    "evidence in flag order" [ "BlockinfoDep"; "Rollback" ]
    (List.map (fun (f, _) -> Scanner.string_of_flag f) sc.Scanner.evidence);
  (* A later fire of the same flag keeps the first evidence. *)
  observe sc ~channel:(Scanner.Ch_action (n "deposit")) "two"
    [ call "require_auth"; call "send_inline" ];
  Alcotest.(check (option string)) "first evidence kept" (Some "one")
    (data_of sc Scanner.Rollback);
  Alcotest.(check bool) "fires are sticky" true
    (Scanner.verdict sc Scanner.Blockinfo_dep);
  Alcotest.(check (list (pair string bool)))
    "a custom oracle stays fired" [ ("tapos", true) ]
    (Scanner.custom_report sc);
  (* FakeNotif fires on a forwarded notification that ran the
     eosponser, until some payload compares the agent with the victim. *)
  observe sc ~channel:Scanner.Ch_fake_notif "three" [];
  Alcotest.(check bool) "FakeNotif fired" true
    (Scanner.verdict sc Scanner.Fake_notif);
  Alcotest.(check (option string)) "FakeNotif evidence" (Some "three")
    (data_of sc Scanner.Fake_notif);
  observe sc ~channel:Scanner.Ch_genuine "four" [ guard ];
  Alcotest.(check bool) "a later guard clears FakeNotif" false
    (Scanner.verdict sc Scanner.Fake_notif);
  let sc = create () in
  observe sc ~channel:Scanner.Ch_genuine "five" [ guard ];
  observe sc ~channel:Scanner.Ch_fake_notif "six" [];
  Alcotest.(check bool) "an earlier guard clears FakeNotif" false
    (Scanner.verdict sc Scanner.Fake_notif);
  Alcotest.(check (list (pair string bool)))
    "only the custom oracles registered" []
    (Scanner.custom_report sc)

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
          Alcotest.test_case "outcome accounting" `Quick test_outcome_accounting;
          Alcotest.test_case "truncation warning" `Quick test_truncation_warning;
          Alcotest.test_case "preloaded warm run" `Quick test_preload_warm_run;
          Alcotest.test_case "stale preload vectors skipped" `Quick
            test_preload_skips_stale_vectors;
          Alcotest.test_case "adaptive budget bounds" `Quick
            test_adaptive_budget_bounds;
          Alcotest.test_case "spare pages between targets" `Quick
            test_spare_pages_between_targets;
          Alcotest.test_case "spare collector between targets" `Quick
            test_spare_collector_between_targets;
          Alcotest.test_case "nursery raised at a domain's first setup" `Quick
            test_nursery_policy;
          Alcotest.test_case "outcomes independent of the nursery" `Quick
            test_nursery_outcomes;
          QCheck_alcotest.to_alcotest qcheck_facts_vs_reference;
          Alcotest.test_case "session scanner over scripted traces" `Quick
            test_scanner_session;
          QCheck_alcotest.to_alcotest qcheck_fused_scan_equivalence;
        ] );
    ]
