(* Tests for the persistent seed corpus: typed argument wire
   round-trips, record line round-trip, strict parse rejections,
   dedupe-on-insert, greedy set-cover minimisation, load/save
   round-trip and the store's append discipline. *)

module Corpus = Wasai_corpus.Corpus
module Trace = Wasai_wasabi.Trace
module Solver = Wasai_smt.Solver
open Wasai_eosio

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let stats =
  {
    Solver.st_quick = 3; st_blasted = 2; st_unknown = 1; st_cache_hits = 5;
    st_cache_misses = 4;
  }

let record ?(target = "vault") ?(action = "transfer")
    ?(args = [ Abi.V_u64 42L ]) ?(cover = [ (1, 0l); (1, 1l); (7, 0l) ]) () =
  {
    Corpus.rc_target = target;
    rc_action = Name.of_string action;
    rc_args = args;
    rc_sig = Trace.edge_signature cover;
    rc_cover = cover;
    rc_new_edges = List.length cover;
    rc_round = 3;
    rc_shard = (0, 2);
    rc_seed = 99L;
    rc_rounds = 24;
    rc_solver = stats;
    rc_solver_budget = 20000;
  }

(* ------------------------------------------------------------------ *)
(* Line round-trip                                                      *)
(* ------------------------------------------------------------------ *)

let roundtrip r =
  match Corpus.record_of_line (Corpus.line_of_record r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "round-trip rejected: %s" e

let test_line_roundtrip () =
  let r =
    record
      ~args:
        [
          Abi.V_name (Name.of_string "alice");
          Abi.V_u64 0xdeadbeefL;
          Abi.V_u32 7l;
          Abi.V_asset { Asset.amount = 10_000L; symbol = Asset.Symbol.eos };
          Abi.V_string "hi\tthere\n\x00\xff";
        ]
      ()
  in
  let r' = roundtrip r in
  Alcotest.(check bool) "identical record" true (r = r');
  Alcotest.(check bool) "single line" true
    (not (String.contains (Corpus.line_of_record r) '\n'))

let test_empty_args_roundtrip () =
  let r = record ~args:[] () in
  let r' = roundtrip r in
  Alcotest.(check bool) "empty args survive" true (r'.Corpus.rc_args = []);
  Alcotest.(check bool) "wire uses the - placeholder" true
    (contains ~sub:"args=-" (Corpus.line_of_record r))

let reject ~why line =
  match Corpus.record_of_line line with
  | Ok _ -> Alcotest.failf "accepted a line that should be rejected (%s)" why
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "reason mentions %s" why)
        true
        (contains ~sub:why e)

let swap_field line i value =
  let fields = String.split_on_char '\t' line in
  String.concat "\t" (List.mapi (fun j f -> if j = i then value else f) fields)

let test_strict_rejections () =
  let line = Corpus.line_of_record (record ()) in
  reject ~why:"magic" (swap_field line 0 "wasai-corpus-v0");
  reject ~why:"13" (line ^ "\textra=1");
  reject ~why:"13"
    (String.concat "\t"
       (List.filteri (fun i _ -> i < 12) (String.split_on_char '\t' line)));
  (* A signature that does not match the recomputed cover hash: a torn
     or hand-edited line must not be admitted under a stale index key. *)
  reject ~why:"signature" (swap_field line 3 "sig=0000000000000000");
  reject ~why:"sorted" (swap_field line 4 "cover=7:0,1:0");
  reject ~why:"edge" (swap_field line 4 "cover=");
  reject ~why:"target" (swap_field line 1 "NotAName!");
  reject ~why:"shard" (swap_field line 7 "shard=2/2");
  reject ~why:"counters" (swap_field line 10 "solver=q:1,b:2,u:3,h:4");
  reject ~why:"tag" (swap_field line 12 "args=z:boom");
  reject ~why:"hex" (swap_field line 12 "args=s:0g");
  reject ~why:"u64" (swap_field line 12 "args=u:")

(* A number or hex string is read only in the spelling the writer
   prints: every other spelling of the same value is rejected, so an
   accepted line always re-renders to its own bytes. *)
let test_one_spelling () =
  let r = record ~args:[ Abi.V_u64 42L; Abi.V_string "j" ] () in
  let line = Corpus.line_of_record r in
  Alcotest.(check string) "the written spelling re-renders to itself" line
    (Corpus.line_of_record (roundtrip r));
  let sig_field = List.nth (String.split_on_char '\t' line) 3 in
  let upper = "sig=" ^ String.uppercase_ascii (String.sub sig_field 4 16) in
  Alcotest.(check bool) "the signature has hex letters" true
    (upper <> sig_field);
  reject ~why:"sig" (swap_field line 3 upper);
  List.iter
    (fun cover -> reject ~why:"edge" (swap_field line 4 cover))
    [ "cover=1:00,1:1,7:0"; "cover=01:0,1:1,7:0"; "cover=1:+0,1:1,7:0";
      "cover=0x1:0,1:1,7:0" ];
  List.iter
    (fun (i, field, why) -> reject ~why (swap_field line i field))
    [
      (5, "new=03", "new"); (5, "new=0x3", "new"); (5, "new=+3", "new");
      (6, "round=3_0", "round"); (7, "shard=00/2", "shard");
      (8, "seed=0x63", "seed"); (8, "seed=099", "seed"); (8, "seed=+99", "seed");
      (9, "budget=024", "budget"); (9, "budget=-24", "budget");
      (10, "solver=q:03,b:2,u:1,h:5,m:4", "counters");
      (11, "sbudget=2_0000", "sbudget");
      (12, "args=u:2A,s:6a", "u64"); (12, "args=u:02a,s:6a", "u64");
      (12, "args=u:2a,s:6A", "hex"); (12, "args=w:07", "u32");
      (12, "args=a:2710:4F4345", "asset");
    ]

(* ------------------------------------------------------------------ *)
(* In-memory corpus: dedupe, canonical order                            *)
(* ------------------------------------------------------------------ *)

let test_dedupe_on_insert () =
  let c = Corpus.create () in
  let r = record () in
  Alcotest.(check bool) "first insert" true (Corpus.add c r);
  Alcotest.(check bool) "same (target, sig) rejected" false
    (Corpus.add c { r with rc_round = 9 });
  Alcotest.(check bool) "same sig, other target accepted" true
    (Corpus.add c { r with rc_target = "bank" });
  Alcotest.(check bool) "other cover accepted" true
    (Corpus.add c (record ~cover:[ (2, 1l) ] ()));
  Alcotest.(check int) "size counts distinct keys" 3 (Corpus.size c);
  Alcotest.(check bool) "mem sees stored sig" true
    (Corpus.mem c ~target:"vault" (record ()).Corpus.rc_sig);
  Alcotest.(check (list string)) "targets sorted" [ "bank"; "vault" ]
    (Corpus.targets c)

let test_preload_canonical_order () =
  let c = Corpus.create () in
  (* Inserted out of order; preload must come back canonically. *)
  let r1 = record ~action:"reveal" ~cover:[ (9, 1l) ] () in
  let r2 = record ~action:"deposit" ~cover:[ (5, 0l) ] () in
  let r3 = record ~action:"deposit" ~cover:[ (4, 1l) ] () in
  List.iter (fun r -> ignore (Corpus.add c r)) [ r1; r2; r3 ];
  let names =
    List.map (fun (a, _) -> Name.to_string a) (Corpus.preload c ~target:"vault")
  in
  Alcotest.(check int) "all seeds preloaded" 3 (List.length names);
  Alcotest.(check bool) "action-major order" true
    (match names with
     | [ "deposit"; "deposit"; "reveal" ] -> true
     | _ -> false);
  Alcotest.(check (list string)) "unknown target preloads nothing" []
    (List.map
       (fun (a, _) -> Name.to_string a)
       (Corpus.preload c ~target:"ghost"))

(* ------------------------------------------------------------------ *)
(* Minimisation                                                         *)
(* ------------------------------------------------------------------ *)

let test_minimize_set_cover () =
  let c = Corpus.create () in
  (* A seed covering everything, two partial seeds it subsumes, and a
     seed holding a unique edge: greedy cover keeps exactly two. *)
  let big = record ~cover:[ (1, 0l); (2, 0l); (3, 0l) ] () in
  let sub1 = record ~cover:[ (1, 0l); (2, 0l) ] () in
  let sub2 = record ~cover:[ (3, 0l) ] () in
  let unique = record ~cover:[ (8, 1l) ] () in
  List.iter (fun r -> ignore (Corpus.add c r)) [ sub1; sub2; big; unique ];
  let m = Corpus.minimize c in
  Alcotest.(check int) "redundant seeds dropped" 2 (Corpus.size m);
  Alcotest.(check int) "edge union preserved" 4
    (Corpus.edge_union (Corpus.records_for m ~target:"vault"));
  Alcotest.(check bool) "kept the dominating seed" true
    (Corpus.mem m ~target:"vault" big.Corpus.rc_sig);
  Alcotest.(check bool) "kept the unique edge" true
    (Corpus.mem m ~target:"vault" unique.Corpus.rc_sig);
  (* Minimisation is per target: another target's seeds are untouched. *)
  let c2 = Corpus.create () in
  ignore (Corpus.add c2 (record ~target:"bank" ~cover:[ (1, 0l) ] ()));
  ignore (Corpus.add c2 (record ~cover:[ (1, 0l) ] ()));
  Alcotest.(check int) "covers do not alias across targets" 2
    (Corpus.size (Corpus.minimize c2))

(* ------------------------------------------------------------------ *)
(* Persistence                                                          *)
(* ------------------------------------------------------------------ *)

let temp_path () =
  let p = Filename.temp_file "wasai-test-corpus" ".seeds" in
  Sys.remove p;
  p

let test_save_load_roundtrip () =
  let c = Corpus.create () in
  let rs =
    [
      record ();
      record ~target:"bank" ~cover:[ (2, 1l) ] ();
      record ~action:"deposit" ~args:[] ~cover:[ (5, 0l) ] ();
    ]
  in
  List.iter (fun r -> ignore (Corpus.add c r)) rs;
  let path = temp_path () in
  Corpus.save c path;
  let c' = Corpus.load path in
  Alcotest.(check int) "same size" (Corpus.size c) (Corpus.size c');
  Alcotest.(check bool) "same records in same order" true
    (Corpus.records c = Corpus.records c');
  (* Canonical save is idempotent: save(load(f)) is byte-identical. *)
  let path2 = temp_path () in
  Corpus.save c' path2;
  let read p =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic; s
  in
  Alcotest.(check string) "canonical form is a fixpoint" (read path)
    (read path2);
  Sys.remove path; Sys.remove path2

let test_load_rejects_corrupt_line () =
  let c = Corpus.create () in
  ignore (Corpus.add c (record ()));
  let path = temp_path () in
  let with_tail tail =
    Corpus.save c path;
    let oc = open_out_gen [ Open_append ] 0o644 path in
    output_string oc tail;
    close_out oc
  in
  with_tail "wasai-corpus-v1\ttorn\n";
  (match Corpus.load path with
   | _ -> Alcotest.fail "corrupt line admitted"
   | exception Corpus.Malformed msg ->
       Alcotest.(check bool) "error names the line" true
         (contains ~sub:":2: malformed" msg));
  (* Without its newline the same bytes were never acknowledged. *)
  with_tail "wasai-corpus-v1\ttorn";
  Alcotest.(check int) "unterminated final line ignored" 1
    (Corpus.size (Corpus.load path));
  Sys.remove path

module Campaign = Wasai_campaign
module Core = Wasai_core

(* A corpus-only store whose stamp is the provenance [record] carries. *)
let open_store path =
  Campaign.Store.open_ ~context:"t" ~resume:false
    ~header:
      { Campaign.Journal.jh_backend = Core.Exec_backend.Auto; jh_telemetry = false }
    ~stamp:
      {
        Campaign.Journal.js_shard = Campaign.Shard.make ~index:0 ~count:2;
        js_seed = 99L;
        js_rounds = 24;
      }
    ~corpus:path ()

(* Complete target "vault" with these interesting seeds; the number of
   seeds the store appended. *)
let commit store (records : Corpus.record list) =
  let interesting (r : Corpus.record) =
    {
      Core.Engine.is_round = r.Corpus.rc_round;
      is_action = r.Corpus.rc_action;
      is_args = r.Corpus.rc_args;
      is_cover = r.Corpus.rc_cover;
      is_signature = r.Corpus.rc_sig;
      is_new_edges = r.Corpus.rc_new_edges;
    }
  in
  let outcome =
    {
      Core.Engine.out_flags = []; out_custom = []; out_exploits = [];
      out_branches = 0; out_timeline = []; out_rounds = 0;
      out_seeds_total = 0; out_adaptive_seeds = 0; out_transactions = 0;
      out_solver_sat = 0; out_imprecise = 0; out_solver = stats;
      out_interesting = List.map interesting records; out_verdict_round = 0;
      out_final_budget = 20000; out_truncated = 0; out_first_truncated = None;
    }
  in
  snd (Campaign.Store.complete store ~name:"vault" ~elapsed:0. outcome)

let test_writer_appends_durably () =
  let path = temp_path () in
  let s = open_store path in
  let r1 = record () and r2 = record ~cover:[ (4, 0l) ] () in
  Alcotest.(check int) "repeat in one batch written once" 1 (commit s [ r1; r1 ]);
  (* Visible before close: each completion is fsync'd, not buffered. *)
  Alcotest.(check int) "first commit visible immediately" 1
    (Corpus.size (Corpus.load path));
  Alcotest.(check int) "known seed skipped" 1 (commit s [ r1; r2 ]);
  Campaign.Store.close s;
  let s2 = open_store path in
  Alcotest.(check int) "reopen dedupes against the file" 0 (commit s2 [ r1 ]);
  Campaign.Store.close s2;
  (* A re-appended duplicate line collapses on load. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (Corpus.line_of_record r1 ^ "\n");
  close_out oc;
  let c' = Corpus.load path in
  Alcotest.(check int) "load dedupes" 2 (Corpus.size c');
  Alcotest.(check bool) "the store stamps the run's provenance" true
    (List.sort compare (Corpus.records c') = List.sort compare [ r1; r2 ]);
  Sys.remove path

let test_stats_text () =
  let c = Corpus.create () in
  ignore (Corpus.add c (record ()));
  ignore (Corpus.add c (record ~cover:[ (2, 0l); (3, 1l) ] ()));
  ignore (Corpus.add c (record ~target:"bank" ~cover:[ (1, 1l) ] ()));
  let s = Corpus.stats_text c in
  Alcotest.(check bool) "header totals" true
    (contains ~sub:"3 seeds across 2 targets" s);
  Alcotest.(check bool) "per-target edge union" true
    (contains ~sub:"edges=5" s)

let () =
  Alcotest.run "wasai_corpus"
    [
      ( "line",
        [
          Alcotest.test_case "value wire + record round-trip" `Quick
            test_line_roundtrip;
          Alcotest.test_case "empty args" `Quick test_empty_args_roundtrip;
          Alcotest.test_case "strict rejections" `Quick test_strict_rejections;
          Alcotest.test_case "one spelling per number" `Quick test_one_spelling;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "dedupe on insert" `Quick test_dedupe_on_insert;
          Alcotest.test_case "canonical preload order" `Quick
            test_preload_canonical_order;
          Alcotest.test_case "minimize is a greedy set cover" `Quick
            test_minimize_set_cover;
          Alcotest.test_case "stats text" `Quick test_stats_text;
        ] );
      ( "disk",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "corrupt line rejected" `Quick
            test_load_rejects_corrupt_line;
          Alcotest.test_case "writer appends durably" `Quick
            test_writer_appends_durably;
        ] );
    ]
