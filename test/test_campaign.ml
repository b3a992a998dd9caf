(* Tests for the campaign orchestrator: latency histogram, work queue,
   shard assignment, journal round-trip and strictness,
   multi-domain/serial verdict parity, interrupt/resume equivalence, and
   distributed shard-merge identity. *)

module Core = Wasai_core
module BG = Wasai_benchgen
module Campaign = Wasai_campaign
module Metrics = Wasai_support.Metrics
open Wasai_eosio

(* ------------------------------------------------------------------ *)
(* Metrics.Histogram                                                    *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Run [f], then remove the files at [paths] however it ends, so a
   failing assertion leaves none behind; a path [f] never created is
   skipped. *)
let removing paths f =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) paths)
    f

let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_hist_basic () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check (float 0.0)) "empty percentile" 0.0
    (Metrics.Histogram.percentile h 99.0);
  for _ = 1 to 50 do Metrics.Histogram.add h 0.001 done;
  for _ = 1 to 50 do Metrics.Histogram.add h 0.1 done;
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  Alcotest.(check bool) "mean between modes" true
    (let m = Metrics.Histogram.mean h in
     m > 0.04 && m < 0.06);
  Alcotest.(check bool) "p50 in the low bucket" true
    (Metrics.Histogram.percentile h 50.0 <= 0.002);
  Alcotest.(check bool) "p90 bounds the high mode" true
    (let p = Metrics.Histogram.percentile h 90.0 in
     p >= 0.1 && p <= 0.11);
  Alcotest.(check bool) "p100 capped at max" true
    (Metrics.Histogram.percentile h 100.0 <= 0.1)

let test_hist_merge () =
  let a = Metrics.Histogram.create () and b = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.add a) [ 0.001; 0.002; 0.003 ];
  List.iter (Metrics.Histogram.add b) [ 0.2; 0.3 ];
  let m = Metrics.Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Metrics.Histogram.count m);
  Alcotest.(check bool) "merged p99 from b" true
    (Metrics.Histogram.percentile m 99.0 >= 0.2);
  Alcotest.(check bool) "merge leaves inputs alone" true
    (Metrics.Histogram.count a = 3 && Metrics.Histogram.count b = 2);
  Alcotest.(check bool) "to_string mentions count" true
    (let s = Metrics.Histogram.to_string m in
     String.length s > 0
     && contains ~sub:"n=5" s)

let test_hist_to_wire () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check bool) "empty renders n:0" true
    (contains ~sub:"n:0" (Metrics.Histogram.to_wire h));
  List.iter (Metrics.Histogram.add h) [ 0.001; 0.002; 0.2 ];
  let s = Metrics.Histogram.to_wire h in
  (* One token: embeddable in a tab-separated wire field. *)
  Alcotest.(check bool) "no whitespace" false
    (String.exists (function ' ' | '\t' | '\n' -> true | _ -> false) s);
  Alcotest.(check bool) "counts samples" true (contains ~sub:"n:3" s);
  Alcotest.(check bool) "all keys present" true
    (List.for_all
       (fun k -> contains ~sub:k s)
       [ "mean:"; "p50:"; "p90:"; "p99:"; "max:" ])

(* ------------------------------------------------------------------ *)
(* Work queue                                                           *)
(* ------------------------------------------------------------------ *)

let test_queue_fifo_and_close () =
  let q = Campaign.Work_queue.create () in
  List.iter (Campaign.Work_queue.push q) [ 1; 2; 3 ];
  Campaign.Work_queue.close q;
  Alcotest.(check (list int)) "fifo drain" [ 1; 2; 3 ]
    (List.filter_map (fun _ -> Campaign.Work_queue.take q) [ (); (); () ]);
  Alcotest.(check bool) "drained + closed" true (Campaign.Work_queue.take q = None);
  Alcotest.check_raises "push after close"
    (Invalid_argument "Work_queue.push: closed") (fun () ->
      Campaign.Work_queue.push q 4)

let test_queue_parallel_drain () =
  let q = Campaign.Work_queue.create () in
  let n = 200 in
  for i = 1 to n do Campaign.Work_queue.push q i done;
  Campaign.Work_queue.close q;
  let drain () =
    let rec go acc = match Campaign.Work_queue.take q with
      | Some x -> go (x + acc)
      | None -> acc
    in
    go 0
  in
  let others = List.init 3 (fun _ -> Domain.spawn drain) in
  let total = List.fold_left (fun acc d -> acc + Domain.join d) (drain ()) others in
  Alcotest.(check int) "every item taken exactly once" (n * (n + 1) / 2) total

(* Shutdown semantics under blocked consumers: closing the queue while
   workers sit in Condition.wait must wake every one of them — the serve
   daemon's graceful stop relies on it.  A missed broadcast deadlocks
   the join and hangs the test. *)
let test_queue_close_wakes_blocked () =
  List.iter
    (fun domains ->
      let q : int Campaign.Work_queue.t = Campaign.Work_queue.create () in
      let workers =
        List.init domains (fun _ ->
            Domain.spawn (fun () -> Campaign.Work_queue.take q))
      in
      (* Give every worker time to block in take on the empty queue, so
         close exercises the wake-from-Condition.wait path rather than a
         take-after-close fast path. *)
      Unix.sleepf 0.05;
      Campaign.Work_queue.close q;
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "worker woke with None (%d domains)" domains)
            true
            (Domain.join d = None))
        workers)
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Shard assignment                                                     *)
(* ------------------------------------------------------------------ *)

let test_shard_partition () =
  (* Every name lands in exactly one slice, for any shard count: the
     slices are disjoint and cover the fleet. *)
  let names =
    List.init 60 (fun i ->
        Printf.sprintf "acct%c%c"
          (Char.chr (Char.code 'a' + (i mod 26)))
          (Char.chr (Char.code 'a' + (i / 26))))
  in
  List.iter
    (fun count ->
      let shards =
        List.init count (fun index -> Campaign.Shard.make ~index ~count)
      in
      List.iter
        (fun name ->
          let homes =
            List.filter (fun s -> Campaign.Shard.member s name) shards
          in
          Alcotest.(check int)
            (Printf.sprintf "%S in exactly one of %d slices" name count)
            1 (List.length homes);
          let i = Campaign.Shard.assign ~count name in
          Alcotest.(check bool) "assign within range" true
            (0 <= i && i < count))
        names)
    [ 1; 2; 3; 5; 8 ]

let test_shard_hash_stable () =
  (* The journal stamp is only portable if the hash never changes: pin
     the FNV-1a 64 reference values. *)
  Alcotest.(check int64) "offset basis" 0xcbf29ce484222325L
    (Campaign.Shard.hash "");
  Alcotest.(check int64) "fnv-1a of \"a\"" 0xaf63dc4c8601ec8cL
    (Campaign.Shard.hash "a")

let test_shard_string () =
  List.iter
    (fun (index, count) ->
      let s = Campaign.Shard.make ~index ~count in
      match Campaign.Shard.of_string (Campaign.Shard.to_string s) with
      | Ok s' ->
          Alcotest.(check bool)
            (Campaign.Shard.to_string s ^ " round-trips")
            true
            (Campaign.Shard.equal s s')
      | Error e -> Alcotest.fail e)
    [ (0, 1); (0, 2); (1, 2); (7, 8) ];
  Alcotest.(check bool) "whole is unsharded" true
    (Campaign.Shard.is_whole Campaign.Shard.whole);
  List.iter
    (fun bad ->
      match Campaign.Shard.of_string bad with
      | Ok _ -> Alcotest.fail ("accepted bad shard " ^ bad)
      | Error _ -> ())
    [ ""; "1"; "a/2"; "1/"; "/2"; "2/2"; "-1/2"; "0/0"; "1/2/3"; " 1/2" ];
  match Campaign.Shard.make ~index:2 ~count:2 with
  | _ -> Alcotest.fail "make accepted index = count"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Journal                                                              *)
(* ------------------------------------------------------------------ *)

let sample_stamp =
  {
    Campaign.Journal.js_shard = Campaign.Shard.make ~index:1 ~count:4;
    js_seed = 0x1234_5678L;
    js_rounds = 12;
  }

let sample_entry =
  {
    Campaign.Journal.je_name = "alice";
    je_flags =
      List.map
        (fun f -> (f, f = Core.Scanner.Fake_eos || f = Core.Scanner.Rollback))
        Core.Scanner.all_flags;
    je_branches = 42;
    je_rounds = 12;
    je_seeds_total = 30;
    je_adaptive_seeds = 4;
    je_transactions = 99;
    je_solver_sat = 7;
    je_imprecise = 1;
    je_elapsed = 1.5;
    je_solver =
      {
        Wasai_smt.Solver.st_quick = 21;
        st_blasted = 6;
        st_unknown = 2;
        st_cache_hits = 15;
        st_cache_misses = 29;
      };
    je_stamp = sample_stamp;
    je_exploits = [];
    je_final_budget = 64;
  }

let sample_evidence channel data =
  {
    Core.Scanner.ev_channel = channel;
    ev_payload =
      Action.make
        ~account:(Name.of_string "victim")
        ~name:(Name.of_string "transfer")
        ~data
        ~auth:[ Name.of_string "attacker"; Name.of_string "proxy" ];
  }

let stamped_entry =
  {
    sample_entry with
    Campaign.Journal.je_exploits =
      [
        ( Core.Scanner.Fake_eos,
          sample_evidence Core.Scanner.Ch_fake_token "\x00\x01\xfftail" );
        ( Core.Scanner.Rollback,
          sample_evidence
            (Core.Scanner.Ch_action (Name.of_string "reveal"))
            "" );
      ];
  }

let test_journal_roundtrip () =
  let line = Campaign.Journal.line_of_entry sample_entry in
  match Campaign.Journal.entry_of_line line with
  | Ok e ->
      Alcotest.(check string) "name" "alice" e.Campaign.Journal.je_name;
      Alcotest.(check bool) "flags" true
        (e.Campaign.Journal.je_flags = sample_entry.Campaign.Journal.je_flags);
      Alcotest.(check int) "branches" 42 e.Campaign.Journal.je_branches;
      Alcotest.(check (float 1e-6)) "elapsed" 1.5 e.Campaign.Journal.je_elapsed;
      Alcotest.(check bool) "solver counters" true
        (e.Campaign.Journal.je_solver
         = sample_entry.Campaign.Journal.je_solver)
  | Error e -> Alcotest.fail ("roundtrip failed: " ^ e)

let test_journal_stamp_roundtrip () =
  let line = Campaign.Journal.line_of_entry stamped_entry in
  Alcotest.(check bool) "entries serialise as v4" true
    (String.length line > 16 && String.sub line 0 16 = "wasai-journal-v4");
  match Campaign.Journal.entry_of_line line with
  | Error e -> Alcotest.fail ("stamp roundtrip failed: " ^ e)
  | Ok e ->
      let st = e.Campaign.Journal.je_stamp in
      Alcotest.(check bool) "shard survives" true
        (Campaign.Shard.equal st.Campaign.Journal.js_shard
           sample_stamp.Campaign.Journal.js_shard);
      Alcotest.(check int64) "seed survives"
        sample_stamp.Campaign.Journal.js_seed st.Campaign.Journal.js_seed;
      Alcotest.(check int) "budget survives" 12 st.Campaign.Journal.js_rounds;
      Alcotest.(check bool)
        "exploit payloads round-trip byte-exactly (channel, action, raw data)"
        true
        (e.Campaign.Journal.je_exploits
         = stamped_entry.Campaign.Journal.je_exploits);
      Alcotest.(check int) "final adaptive budget survives" 64
        e.Campaign.Journal.je_final_budget

let reject line reason_fragment =
  match Campaign.Journal.entry_of_line line with
  | Ok _ -> Alcotest.fail ("accepted malformed line: " ^ line)
  | Error reason ->
      Alcotest.(check bool)
        (Printf.sprintf "reason %S mentions %S" reason reason_fragment)
        true
        (contains ~sub:reason_fragment reason)

(* The solver field without its final [fb:] counter. *)
let strip_fb field =
  if String.length field > 7 && String.sub field 0 7 = "solver=" then
    String.concat ","
      (List.filter
         (fun p -> String.length p < 3 || String.sub p 0 3 <> "fb:")
         (String.split_on_char ',' field))
  else field

let test_journal_strict () =
  reject "garbage" "bad magic";
  reject
    (Campaign.Journal.line_of_entry sample_entry ^ "\textra")
    "expected 16 tab-separated fields, got 17";
  (* A line torn mid-write by a crash. *)
  let full = Campaign.Journal.line_of_entry sample_entry in
  reject (String.sub full 0 (String.length full - 20)) "field";
  (* The retired v1 (11 fields) and v2 (12 fields) shapes: the v4 line
     cut before its stamp, under the v1 magic or the v4 one. *)
  let first n = List.filteri (fun i _ -> i < n) (String.split_on_char '\t' full) in
  let v2 = List.map strip_fb (first 12) in
  let old_magic fields = String.concat "\t" ("wasai-journal-v1" :: List.tl fields) in
  reject (old_magic (first 11)) "bad magic \"wasai-journal-v1\"";
  reject (old_magic v2) "bad magic \"wasai-journal-v1\"";
  reject (String.concat "\t" (first 11)) "expected 16 tab-separated fields, got 11";
  reject (String.concat "\t" v2) "expected 16 tab-separated fields, got 12";
  reject (String.concat "\t" (String.split_on_char '\t' full |> List.map (fun f ->
      if f = "tx=99" then "tx=banana" else f)))
    "tx";
  (* The solver field is parsed as strictly as the rest. *)
  let swap_solver replacement =
    String.concat "\t"
      (String.split_on_char '\t' full
      |> List.map (fun f ->
             if String.length f > 7 && String.sub f 0 7 = "solver=" then
               replacement
             else f))
  in
  reject (swap_solver "solver=q:21,b:6,u:2,h:15") "expected 6 counters, got 4";
  reject (swap_solver "solver=q:21,b:6,u:2,h:15,m:oops,fb:64") "bad counters";
  reject (swap_solver "solver=q:21,b:6,u:2,m:29,h:15,fb:64") "bad counters"

(* The stamp and exploit fields are parsed as strictly as the rest:
   any tampered or torn value is rejected, never read as "no stamp". *)
let test_journal_stamp_strict () =
  let full = Campaign.Journal.line_of_entry stamped_entry in
  let swap prefix replacement =
    String.concat "\t"
      (String.split_on_char '\t' full
      |> List.map (fun f ->
             if
               String.length f >= String.length prefix
               && String.sub f 0 (String.length prefix) = prefix
             then replacement
             else f))
  in
  reject (swap "shard=" "shard=4/4") "index 4 outside";
  reject (swap "shard=" "shard=1-4") "shard";
  reject (swap "seed=" "seed=banana") "seed";
  reject (swap "budget=" "budget=") "budget";
  (* A line missing its last field. *)
  (match List.rev (String.split_on_char '\t' full) with
   | _ :: rest ->
       reject
         (String.concat "\t" (List.rev rest))
         "expected 16 tab-separated fields, got 15"
   | [] -> assert false);
  (* Exploit records: flag, channel, names and hex are all validated. *)
  let wire =
    Core.Scanner.evidence_to_wire (sample_evidence Core.Scanner.Ch_direct "ab")
  in
  reject (swap "exploits=" "exploits=") "flag";
  reject (swap "exploits=" ("exploits=Bogus@" ^ wire)) "unknown flag";
  reject
    (swap "exploits="
       ("exploits=FakeEOS@" ^ wire ^ ";FakeEOS@" ^ wire))
    "duplicate flag";
  reject (swap "exploits=" "exploits=FakeEOS@direct@victim@transfer@@zz") "hex";
  reject
    (swap "exploits=" "exploits=FakeEOS@direct@VICTIM@transfer@@6162")
    "bad name";
  reject
    (swap "exploits=" "exploits=FakeEOS@carrier@victim@transfer@@6162")
    "channel"

(* Extension flags (StateIo / FakeTransfer / AssetOverflow) are appended
   to the flags field only when fired, in canonical order; quiet ones
   leave the line byte-identical to a pre-extension build's. *)
let test_journal_extension_flags () =
  let legacy_line = Campaign.Journal.line_of_entry sample_entry in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Core.Scanner.string_of_flag f ^ " absent when quiet")
        false
        (contains ~sub:(Core.Scanner.string_of_flag f) legacy_line))
    Core.Scanner.extension_flags;
  let fired =
    [ Core.Scanner.Fake_eos; Core.Scanner.State_io;
      Core.Scanner.Asset_overflow ]
  in
  let entry =
    {
      sample_entry with
      Campaign.Journal.je_flags =
        List.map (fun f -> (f, List.mem f fired)) Core.Scanner.all_flags;
    }
  in
  let line = Campaign.Journal.line_of_entry entry in
  Alcotest.(check bool) "fired extensions serialised in canonical order" true
    (contains ~sub:"StateIo=1,AssetOverflow=1" line);
  match Campaign.Journal.entry_of_line line with
  | Error e -> Alcotest.fail ("extension round-trip failed: " ^ e)
  | Ok e ->
      Alcotest.(check bool) "normalised over all eight flags" true
        (e.Campaign.Journal.je_flags
        = List.map (fun f -> (f, List.mem f fired)) Core.Scanner.all_flags)

(* The extension grammar is parsed as strictly as the rest: an explicit
   [=0], a duplicate, an out-of-order pair or an unknown name is a
   corrupt line, never a value to guess at. *)
let test_journal_extension_strict () =
  let base = Campaign.Journal.line_of_entry sample_entry in
  let app suffix =
    match String.split_on_char '\t' base with
    | magic :: name :: flags :: rest ->
        String.concat "\t" (magic :: name :: (flags ^ suffix) :: rest)
    | _ -> assert false
  in
  reject (app ",StateIo=0") "only journaled when fired";
  reject (app ",StateIo=1,StateIo=1") "unknown, duplicate or out-of-order";
  reject (app ",FakeTransfer=1,StateIo=1") "unknown, duplicate or out-of-order";
  reject (app ",Bogus=1") "unknown, duplicate or out-of-order";
  match
    Campaign.Journal.entry_of_line
      (app ",StateIo=1,FakeTransfer=1,AssetOverflow=1")
  with
  | Error e -> Alcotest.fail ("canonical extension suffix rejected: " ^ e)
  | Ok e ->
      Alcotest.(check bool) "all extensions fired" true
        (List.for_all
           (fun f -> List.assoc f e.Campaign.Journal.je_flags)
           Core.Scanner.extension_flags)

(* One grammar: the retired v3 magic is rejected even on an otherwise
   well-formed line, and a missing fb counter is a torn write, not a
   variant to guess at. *)
let test_journal_v4_strict () =
  let v4 = Campaign.Journal.line_of_entry stamped_entry in
  let swap f' =
    String.concat "\t" (String.split_on_char '\t' v4 |> List.map f')
  in
  reject
    (swap (fun f ->
         if f = "wasai-journal-v4" then "wasai-journal-v3" else f))
    "bad magic \"wasai-journal-v3\"";
  reject (swap strip_fb) "expected 6 counters, got 5";
  reject
    (swap (fun f ->
         if String.length f > 7 && String.sub f 0 7 = "solver=" then
           f ^ ",fb:banana"
         else f))
    "counters"

(* A number or hex string is read only in the spelling the writer
   prints: every other spelling of the same value is a corrupt line, so
   an accepted line always re-renders to its own bytes. *)
let test_journal_one_spelling () =
  let full = Campaign.Journal.line_of_entry stamped_entry in
  let swap prefix replacement =
    String.concat "\t"
      (String.split_on_char '\t' full
      |> List.map (fun f ->
             if String.starts_with ~prefix f then replacement else f))
  in
  (match Campaign.Journal.entry_of_line full with
   | Ok e ->
       Alcotest.(check string) "the written spelling re-renders to itself"
         full
         (Campaign.Journal.line_of_entry e)
   | Error e -> Alcotest.fail e);
  List.iter
    (fun tx -> reject (swap "tx=" tx) "tx")
    [ "tx=0x63"; "tx=0X63"; "tx=0o143"; "tx=9_9"; "tx=+99"; "tx=099"; "tx=-3" ];
  List.iter
    (fun elapsed -> reject (swap "elapsed=" elapsed) "elapsed")
    [ "elapsed=nan"; "elapsed=inf"; "elapsed=1.5"; "elapsed=0x1.8p0";
      "elapsed=+1.500000"; "elapsed=1_0.500000" ];
  List.iter
    (fun flags -> reject (swap "FakeEOS=" flags) "FakeEOS")
    [ "FakeEOS=0x1,FakeNotif=0,MissAuth=0,BlockinfoDep=0,Rollback=1";
      "FakeEOS=01,FakeNotif=0,MissAuth=0,BlockinfoDep=0,Rollback=1";
      "FakeEOS=+1,FakeNotif=0,MissAuth=0,BlockinfoDep=0,Rollback=1" ];
  reject
    (swap "FakeEOS="
       "FakeEOS=1,FakeNotif=0,MissAuth=0,BlockinfoDep=0,Rollback=1,StateIo=0x1")
    "unknown, duplicate or out-of-order";
  List.iter
    (fun seed -> reject (swap "seed=" seed) "seed")
    [ "seed=0x12345678"; "seed=+305419896"; "seed=0305419896"; "seed=-0" ];
  List.iter
    (fun shard -> reject (swap "shard=" shard) "shard")
    [ "shard=01/4"; "shard=1/04"; "shard=0x1/4"; "shard=+1/4" ];
  reject (swap "budget=" "budget=012") "budget";
  reject (swap "solver=" "solver=q:021,b:6,u:2,h:15,m:29,fb:64") "counters";
  reject (swap "solver=" "solver=q:0x15,b:6,u:2,h:15,m:29,fb:64") "counters";
  reject (swap "solver=" "solver=q:21,b:6,u:2,h:15,m:29,fb:-64") "counters";
  reject
    (swap "exploits=" "exploits=FakeEOS@direct@victim@transfer@@6A62")
    "hex"

let test_journal_load_malformed () =
  (* A well-formed 20-field v5 slice-fragment line: no grammar the
     journal reads accepts it any more, so it is as corrupt as garbage. *)
  let v5 =
    String.concat "\t"
      [
        "wasai-journal-v5"; "alice"; "slice=0/2";
        "FakeEOS=1,FakeNotif=0,MissAuth=0,BlockinfoDep=0,Rollback=1";
        "branches=0"; "rounds=3"; "seeds=12"; "adaptive=0"; "tx=12"; "sat=0";
        "imprecise=0"; "elapsed=0.010000"; "solver=q:0,b:0,u:0,h:0,m:0,fb:64";
        "shard=0/1"; "seed=42"; "budget=6"; "exploits=-"; "interesting=-";
        "vround=0"; "trunc=0";
      ]
  in
  List.iter
    (fun second ->
      let path = Filename.temp_file "wasai-test" ".journal" in
      removing [ path ] @@ fun () ->
      let oc = open_out path in
      output_string oc
        (Campaign.Journal.line_of_header
           { Campaign.Journal.jh_backend = Core.Exec_backend.Auto;
             jh_telemetry = false }
        ^ "\n");
      output_string oc (Campaign.Journal.line_of_entry sample_entry ^ "\n");
      output_string oc (second ^ "\n");
      close_out oc;
      match Campaign.Journal.load path with
      | _ -> Alcotest.fail (Printf.sprintf "corrupt journal accepted: %S" second)
      | exception Campaign.Journal.Malformed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error %S names the line" msg)
            true
            (contains ~sub:(path ^ ":3:") msg))
    [ "this is not a journal line"; v5 ]

(* ------------------------------------------------------------------ *)
(* Campaign runs over a generated corpus                                *)
(* ------------------------------------------------------------------ *)

let test_targets ~count =
  List.mapi
    (fun i (s : BG.Corpus.sample) ->
      let account =
        Name.of_string (Printf.sprintf "trgt%c" (Char.chr (Char.code 'a' + i)))
      in
      {
        Campaign.Campaign.sp_name = Name.to_string account;
        sp_size = 0;
        sp_load =
          (fun () ->
            {
              Core.Engine.tgt_account = account;
              tgt_module = s.BG.Corpus.smp_module;
              tgt_abi = s.BG.Corpus.smp_abi;
            });
      })
    (BG.Corpus.coverage_set ~count ())

let campaign_config ?journal ?resume ?shard ?corpus ?telemetry ~jobs () =
  Campaign.Campaign.make_config ~jobs ?journal ?resume ?shard ?corpus
    ?telemetry
    ~engine:(Core.Engine.make_config ~rounds:(6) ())
    ()

let temp_journal tag =
  let j = Filename.temp_file ("wasai-test-" ^ tag) ".journal" in
  Sys.remove j;
  j

let flag_sets (r : Campaign.Campaign.report) =
  List.map
    (fun (e : Campaign.Journal.entry) ->
      ( e.Campaign.Journal.je_name,
        List.filter_map (fun (f, b) -> if b then Some f else None)
          e.Campaign.Journal.je_flags ))
    r.Campaign.Campaign.cr_results

let test_make_config_validation () =
  (match campaign_config ~jobs:0 () with
   | _ -> Alcotest.fail "jobs = 0 accepted"
   | exception Invalid_argument _ -> ());
  match campaign_config ~resume:true ~jobs:1 () with
  | _ -> Alcotest.fail "resume without a journal accepted"
  | exception Invalid_argument _ -> ()

let test_parallel_parity () =
  let targets = test_targets ~count:8 in
  let serial = Campaign.Campaign.run (campaign_config ~jobs:1 ()) targets in
  let parallel = Campaign.Campaign.run (campaign_config ~jobs:4 ()) targets in
  Alcotest.(check int) "all targets fuzzed" 8
    (List.length parallel.Campaign.Campaign.cr_results);
  Alcotest.(check bool) "per-contract flag sets identical" true
    (flag_sets serial = flag_sets parallel);
  Alcotest.(check string) "canonical verdicts byte-identical"
    (Campaign.Campaign.verdicts_text serial)
    (Campaign.Campaign.verdicts_text parallel)

let test_resume () =
  let targets = test_targets ~count:8 in
  let uninterrupted =
    Campaign.Campaign.run (campaign_config ~jobs:2 ()) targets
  in
  let journal = temp_journal "resume" in
  removing [ journal ] @@ fun () ->
  (* "Kill" the campaign after 5 targets: journal a run over 5 of them,
     then resume over all 8. *)
  let interrupted =
    Campaign.Campaign.run
      (campaign_config ~journal ~jobs:2 ())
      (List.filteri (fun i _ -> i < 5) targets)
  in
  Alcotest.(check int) "interrupted at 5" 5
    (List.length interrupted.Campaign.Campaign.cr_results);
  let resumed =
    Campaign.Campaign.run
      (campaign_config ~journal ~resume:true ~jobs:2 ())
      targets
  in
  Alcotest.(check int) "resume skips the journaled 5" 5
    resumed.Campaign.Campaign.cr_skipped;
  Alcotest.(check int) "resume completes the remaining 3" 3
    (List.length resumed.Campaign.Campaign.cr_results
     - resumed.Campaign.Campaign.cr_skipped);
  Alcotest.(check string) "merged report equals the uninterrupted run"
    (Campaign.Campaign.verdicts_text uninterrupted)
    (Campaign.Campaign.verdicts_text resumed);
  (* A rerun without --resume would journal every target twice: it is
     refused, and the journal keeps its bytes. *)
  let before = read_file journal in
  (match Campaign.Campaign.run (campaign_config ~journal ~jobs:1 ()) targets with
   | _ -> Alcotest.fail "non-resume rerun onto a non-empty journal accepted"
   | exception Failure msg ->
       Alcotest.(check bool)
         (Printf.sprintf "refusal %S names --resume" msg)
         true
         (contains ~sub:"pass --resume" msg));
  Alcotest.(check string) "refused rerun wrote nothing" before
    (read_file journal);
  (* A journal holding a duplicate line per name (built by hand, or by a
     build that let reruns append) collapses on resume, not
     double-counts. *)
  let first_entry = List.nth (String.split_on_char '\n' before) 1 in
  Out_channel.with_open_gen [ Open_append ] 0o644 journal (fun oc ->
      output_string oc (first_entry ^ "\n"));
  let resumed_again =
    Campaign.Campaign.run
      (campaign_config ~journal ~resume:true ~jobs:1 ())
      targets
  in
  Alcotest.(check int) "duplicate journal lines collapse on resume" 8
    (List.length resumed_again.Campaign.Campaign.cr_results);
  Alcotest.(check string) "deduped resume still equals the uninterrupted run"
    (Campaign.Campaign.verdicts_text uninterrupted)
    (Campaign.Campaign.verdicts_text resumed_again)

let test_resume_rejects_corrupt_journal () =
  let targets = test_targets ~count:2 in
  let journal = Filename.temp_file "wasai-test" ".journal" in
  removing [ journal ] @@ fun () ->
  let oc = open_out journal in
  output_string oc "corrupted by a crash\n";
  close_out oc;
  match
    Campaign.Campaign.run
      (campaign_config ~journal ~resume:true ~jobs:1 ())
      targets
  with
  | _ -> Alcotest.fail "campaign resumed from a corrupt journal"
  | exception Campaign.Journal.Malformed _ -> ()

(* Resuming under a different engine configuration would silently mix
   verdicts computed under different budgets; the stamp catches it. *)
let test_resume_rejects_mismatched_stamp () =
  let targets = test_targets ~count:4 in
  let journal = temp_journal "mismatch" in
  removing [ journal ] @@ fun () ->
  let _ = Campaign.Campaign.run (campaign_config ~journal ~jobs:1 ()) targets in
  let other_budget =
    Campaign.Campaign.make_config ~jobs:1 ~journal ~resume:true
      ~engine:(Core.Engine.make_config ~rounds:(7) ())
      ()
  in
  match Campaign.Campaign.run other_budget targets with
  | _ -> Alcotest.fail "resumed a journal recorded under a different budget"
  | exception Failure msg ->
      Alcotest.(check bool) "refuses to mix configurations" true
        (contains ~sub:"refusing to mix configurations" msg)

let test_duplicate_names_rejected () =
  let t = List.hd (test_targets ~count:1) in
  match Campaign.Campaign.run (campaign_config ~jobs:1 ()) [ t; t ] with
  | _ -> Alcotest.fail "duplicate target names accepted"
  | exception Invalid_argument _ -> ()

module Telemetry = Wasai_telemetry.Telemetry

(* [elapsed=] is wall-clock and differs between any two runs: zero it
   through an entry round-trip, leaving every other byte as written. *)
let mask_elapsed line =
  match Campaign.Journal.entry_of_line line with
  | Ok e ->
      Campaign.Journal.line_of_entry { e with Campaign.Journal.je_elapsed = 0. }
  | Error e -> Alcotest.fail e

(* Zero interference: with telemetry on, a campaign writes the same
   journal entries and verdict report as with it off, at jobs 1 and 2;
   only the header gains its stamp.  Entries compare with [elapsed=]
   masked.  Worker completion order is not canonical, so entries at
   jobs 2 compare as multisets. *)
let test_telemetry_identity () =
  let targets = test_targets ~count:6 in
  let read_lines path =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let run ~jobs ~telemetry =
    let journal = temp_journal "telemetry" in
    removing [ journal ] @@ fun () ->
    let r =
      Campaign.Campaign.run (campaign_config ~journal ~telemetry ~jobs ()) targets
    in
    let lines = read_lines journal in
    ( List.hd lines,
      List.map mask_elapsed (List.tl lines),
      Campaign.Campaign.verdicts_text r )
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      let h_off1, e_off1, v_off1 = run ~jobs:1 ~telemetry:false in
      let h_on1, e_on1, v_on1 = run ~jobs:1 ~telemetry:true in
      let report = Telemetry.report_text (Telemetry.snapshot ()) in
      Telemetry.disable ();
      Telemetry.reset ();
      let h_off2, e_off2, v_off2 = run ~jobs:2 ~telemetry:false in
      let h_on2, e_on2, v_on2 = run ~jobs:2 ~telemetry:true in
      Alcotest.(check (list string)) "headers: off unstamped, on stamped"
        [
          "wasai-journal-hdr\tbackend=auto";
          "wasai-journal-hdr\tbackend=auto\ttelemetry=on";
          "wasai-journal-hdr\tbackend=auto";
          "wasai-journal-hdr\tbackend=auto\ttelemetry=on";
        ]
        [ h_off1; h_on1; h_off2; h_on2 ];
      Alcotest.(check int) "one entry per target" 6 (List.length e_off1);
      Alcotest.(check (list string)) "jobs 1: entries identical" e_off1 e_on1;
      let sorted = List.sort compare in
      Alcotest.(check (list string)) "jobs 2 off: same entry multiset"
        (sorted e_off1) (sorted e_off2);
      Alcotest.(check (list string)) "jobs 2 on: same entry multiset"
        (sorted e_off1) (sorted e_on2);
      List.iter
        (Alcotest.(check string) "verdict report identical" v_off1)
        [ v_on1; v_off2; v_on2 ];
      List.iter
        (fun stage ->
          Alcotest.(check bool) ("telemetry report names " ^ stage) true
            (contains ~sub:stage report))
        [ "exec_"; "solver_"; "oracle"; "journal_fsync" ])

(* ------------------------------------------------------------------ *)
(* Seed corpus: warm reruns, scheduling, dry-run plans                  *)
(* ------------------------------------------------------------------ *)

module SeedCorpus = Wasai_corpus.Corpus

let temp_corpus tag =
  let p = Filename.temp_file ("wasai-test-" ^ tag) ".seeds" in
  Sys.remove p;
  p

(* ------------------------------------------------------------------ *)
(* Crash states                                                         *)
(* ------------------------------------------------------------------ *)

(* The lines of [s], each with its newline; an unterminated tail is the
   last element. *)
let lines_of s =
  let rec go i acc =
    if i >= String.length s then List.rev acc
    else
      match String.index_from_opt s i '\n' with
      | Some j -> go (j + 1) (String.sub s i (j + 1 - i) :: acc)
      | None -> List.rev (String.sub s i (String.length s - i) :: acc)
  in
  go 0 []

(* The acknowledged part of a file: everything up to its last newline. *)
let acknowledged s =
  match String.rindex_opt s '\n' with
  | Some i -> String.sub s 0 (i + 1)
  | None -> ""

(* Every state a crash can leave a campaign's journal and corpus in.  A
   reference run writes, in order, the journal header and then per
   target its corpus lines and its journal line.  Each prefix of that
   sequence, and each prefix plus 1, half or all but one byte of the
   next line, must resume without raising, keep every acknowledged line
   and skip exactly the journaled targets; a second resume writes
   nothing.  At target boundaries the resumed files equal the
   reference.  Elsewhere the corpus holds seeds of a target not yet
   journaled, which re-fuzzes warm from them, so its line and seeds
   differ from the cold reference: no byte identity is asserted there.
   Every byte cut of each file's final line is checked at the store
   level: the prior entries and seeds are exactly the complete lines,
   and opening truncates the file to its last newline. *)
let test_crash_states () =
  let targets = test_targets ~count:4 in
  let journal = temp_journal "crash" and corpus = temp_corpus "crash" in
  removing [ journal; corpus ] @@ fun () ->
  (* The engine settings only shape the write sequence.  Two rounds
     without feedback keep two seeds per target, enough for a crash
     inside a corpus commit, and keep the sweep's ~50 resumes fast. *)
  let cfg ~resume =
    Campaign.Campaign.make_config ~journal ~corpus ~resume ~jobs:1
      ~engine:(Core.Engine.make_config ~rounds:2 ~feedback:false ())
      ()
  in
  ignore (Campaign.Campaign.run (cfg ~resume:false) targets);
  let ref_j = read_file journal and ref_c = read_file corpus in
  let target line = List.nth (String.split_on_char '\t' line) 1 in
  let events =
    match lines_of ref_j with
    | [] -> Alcotest.fail "empty reference journal"
    | header :: entries ->
        (`J, header)
        :: List.concat_map
             (fun entry ->
               List.filter_map
                 (fun l -> if target l = target entry then Some (`C, l) else None)
                 (lines_of ref_c)
               @ [ (`J, entry) ])
             entries
  in
  let state p tail =
    let j = Buffer.create 4096 and c = Buffer.create 4096 in
    let add (file, l) = Buffer.add_string (if file = `J then j else c) l in
    List.iteri (fun i ev -> if i < p then add ev) events;
    Option.iter add tail;
    (Buffer.contents j, Buffer.contents c)
  in
  Alcotest.(check bool) "the write sequence rebuilds both files" true
    (state (List.length events) None = (ref_j, ref_c));
  let masked s =
    match lines_of s with
    | header :: entries ->
        String.concat ""
          (header
          :: List.map
               (fun l -> mask_elapsed (String.sub l 0 (String.length l - 1)) ^ "\n")
               entries)
    | [] -> ""
  in
  let resume what ~boundary (j, c) =
    write_file journal j;
    write_file corpus c;
    let entries = max 0 (List.length (lines_of (acknowledged j)) - 1) in
    let r =
      try Campaign.Campaign.run (cfg ~resume:true) targets
      with e -> Alcotest.failf "%s: resume raised %s" what (Printexc.to_string e)
    in
    Alcotest.(check int) (what ^ ": skips the journaled targets") entries
      r.Campaign.Campaign.cr_skipped;
    let j1 = read_file journal and c1 = read_file corpus in
    Alcotest.(check bool) (what ^ ": acknowledged lines kept") true
      (String.starts_with ~prefix:(acknowledged j) j1
      && String.starts_with ~prefix:(acknowledged c) c1);
    ignore (Campaign.Campaign.run (cfg ~resume:true) targets);
    Alcotest.(check bool) (what ^ ": a second resume writes nothing") true
      (read_file journal = j1 && read_file corpus = c1);
    if boundary then begin
      Alcotest.(check string) (what ^ ": journal = reference") (masked ref_j)
        (masked j1);
      Alcotest.(check string) (what ^ ": corpus = reference") ref_c c1
    end
  in
  List.iteri
    (fun i (file, line) ->
      let boundary = i = 0 || fst (List.nth events (i - 1)) = `J in
      resume (Printf.sprintf "after %d writes" i) ~boundary (state i None);
      List.iter
        (fun k ->
          resume
            (Printf.sprintf "write %d cut at byte %d" (i + 1) k)
            ~boundary:false
            (state i (Some (file, String.sub line 0 k))))
        [ 1; String.length line / 2; String.length line - 1 ])
    events;
  resume "all writes" ~boundary:true (ref_j, ref_c);
  (* Byte cuts at the store level, one file at a time. *)
  let cfg = cfg ~resume:true in
  let open_store ?journal ?corpus () =
    Campaign.Store.open_ ~context:"crash" ~resume:true
      ~header:
        {
          Campaign.Journal.jh_backend = cfg.Campaign.Campaign.cc_engine.Core.Engine.cfg_backend;
          jh_telemetry = false;
        }
      ~stamp:(Campaign.Campaign.stamp_of_config cfg)
      ?journal ?corpus ()
  in
  let cut_final path full check =
    let kept = acknowledged (String.sub full 0 (String.length full - 1)) in
    let last = String.length full - String.length kept in
    for k = 1 to last - 1 do
      write_file path (kept ^ String.sub full (String.length kept) k);
      check (List.map (fun l -> String.sub l 0 (String.length l - 1)) (lines_of kept));
      Alcotest.(check string)
        (Printf.sprintf "%s cut at byte %d: truncated to its last newline"
           path k)
        kept (read_file path)
    done
  in
  cut_final journal ref_j (fun lines ->
      let s = open_store ~journal () in
      Campaign.Store.close s;
      Alcotest.(check (list string)) "prior entries = complete lines"
        (List.tl lines)
        (List.map Campaign.Journal.line_of_entry (Campaign.Store.entries s)));
  cut_final corpus ref_c (fun lines ->
      let s = open_store ~corpus () in
      Campaign.Store.close s;
      Alcotest.(check (list string)) "prior seeds = complete lines"
        (List.sort compare lines)
        (List.sort compare
           (List.map SeedCorpus.line_of_record
              (SeedCorpus.records (Campaign.Store.corpus s)))))

(* A failed durable write names its store and file: a completion on a
   store whose appenders are closed fails, and the message campaign and
   serve print carries the context and the path, with no OCaml
   constructor wrapped around it. *)
let test_failed_write_names_file () =
  let journal = temp_journal "closed" in
  removing [ journal ] @@ fun () ->
  let cfg = campaign_config ~journal ~jobs:1 () in
  let store =
    Campaign.Store.open_ ~context:"closed store" ~resume:false
      ~header:
        {
          Campaign.Journal.jh_backend =
            cfg.Campaign.Campaign.cc_engine.Core.Engine.cfg_backend;
          jh_telemetry = false;
        }
      ~stamp:(Campaign.Campaign.stamp_of_config cfg)
      ~journal ()
  in
  Campaign.Store.close store;
  let spec = List.hd (test_targets ~count:1) in
  let o =
    Core.Engine.fuzz ~cfg:(Core.Engine.make_config ~rounds:1 ())
      (spec.Campaign.Campaign.sp_load ())
  in
  let message () =
    match
      Campaign.Store.complete store ~name:spec.Campaign.Campaign.sp_name
        ~elapsed:0. o
    with
    | _ -> Alcotest.fail "a write through a closed appender succeeded"
    | exception e -> Campaign.Store.error_message e
  in
  let first = message () in
  Alcotest.(check bool)
    (Printf.sprintf "%S names the store and the file" first)
    true
    (String.starts_with ~prefix:("closed store: " ^ journal ^ ": ") first);
  List.iter
    (fun msg ->
      List.iter
        (fun bad ->
          Alcotest.(check bool)
            (Printf.sprintf "%S has no %S" msg bad)
            false (contains ~sub:bad msg))
        [ "Unix_error"; "Failure(" ])
    [ first; message () ]

(* The corpus acceptance bar: a cold campaign fills the corpus; warm
   reruns preload it, reproduce the cold flag verdicts byte-for-byte
   (on this fixed workload) and stay byte-identical across --jobs. *)
let test_corpus_warm_cold () =
  let targets = test_targets ~count:4 in
  let cold_file = temp_corpus "cold" in
  let w1 = temp_corpus "warm1" and w2 = temp_corpus "warm2" in
  removing [ cold_file; w1; w2 ] @@ fun () ->
  let cold =
    Campaign.Campaign.run (campaign_config ~corpus:cold_file ~jobs:2 ()) targets
  in
  Alcotest.(check bool) "cold run stored seeds" true
    (cold.Campaign.Campaign.cr_corpus_added > 0);
  Alcotest.(check int) "cold run preloaded nothing" 0
    cold.Campaign.Campaign.cr_corpus_preloaded;
  SeedCorpus.save (SeedCorpus.load cold_file) w1;
  SeedCorpus.save (SeedCorpus.load cold_file) w2;
  let warm1 =
    Campaign.Campaign.run (campaign_config ~corpus:w1 ~jobs:1 ()) targets
  in
  let warm2 =
    Campaign.Campaign.run (campaign_config ~corpus:w2 ~jobs:2 ()) targets
  in
  Alcotest.(check int) "warm run preloads every stored seed"
    cold.Campaign.Campaign.cr_corpus_added
    warm1.Campaign.Campaign.cr_corpus_preloaded;
  Alcotest.(check string) "warm flags reproduce cold flags"
    (Campaign.Campaign.flags_text cold)
    (Campaign.Campaign.flags_text warm1);
  Alcotest.(check string) "warm verdicts byte-identical across jobs"
    (Campaign.Campaign.verdicts_text warm1)
    (Campaign.Campaign.verdicts_text warm2);
  (* Minimizing the stored corpus keeps every target's edge union. *)
  let stored = SeedCorpus.load cold_file in
  let minimized = SeedCorpus.minimize stored in
  Alcotest.(check bool) "minimize does not grow the corpus" true
    (SeedCorpus.size minimized <= SeedCorpus.size stored);
  Alcotest.(check (list string)) "minimize keeps every target"
    (SeedCorpus.targets stored) (SeedCorpus.targets minimized);
  List.iter
    (fun target ->
      Alcotest.(check int)
        (target ^ ": edge union survives minimize")
        (SeedCorpus.edge_union (SeedCorpus.records_for stored ~target))
        (SeedCorpus.edge_union (SeedCorpus.records_for minimized ~target)))
    (SeedCorpus.targets stored)

let sized_targets sizes =
  List.map2
    (fun t size -> { t with Campaign.Campaign.sp_size = size })
    (test_targets ~count:(List.length sizes))
    sizes

(* jobs=1 drains the queue in order, so the journal's append order is
   the execution order: biggest module first (LPT), names as
   tie-break.  (The report's [cr_results] is name-sorted, so the
   journal file is the observable.) *)
let test_size_ordering () =
  let targets = sized_targets [ 10; 40; 20; 40 ] in
  let journal = temp_journal "lpt" in
  removing [ journal ] @@ fun () ->
  ignore (Campaign.Campaign.run (campaign_config ~journal ~jobs:1 ()) targets);
  let entries = Campaign.Journal.load journal in
  Alcotest.(check (list string)) "biggest-first, ties by name"
    [ "trgtb"; "trgtd"; "trgtc"; "trgta" ]
    (List.map
       (fun (e : Campaign.Journal.entry) -> e.Campaign.Journal.je_name)
       entries)

let test_plan_dry_run () =
  let targets = sized_targets [ 10; 40; 20 ] in
  (* Seed a corpus with one target's worth of seeds. *)
  let corpus_file = temp_corpus "plan" in
  removing [ corpus_file ] @@ fun () ->
  let c = SeedCorpus.create () in
  let seed_record cover =
    {
      SeedCorpus.rc_target = "trgtc";
      rc_action = Name.of_string "transfer";
      rc_args = [];
      rc_sig = Wasai_wasabi.Trace.edge_signature cover;
      rc_cover = cover;
      rc_new_edges = 1;
      rc_round = 0;
      rc_shard = (0, 1);
      rc_seed = 7L;
      rc_rounds = 6;
      rc_solver = Wasai_smt.Solver.stats_zero;
      rc_solver_budget = 0;
    }
  in
  ignore (SeedCorpus.add c (seed_record [ (1, 0l) ]));
  ignore (SeedCorpus.add c (seed_record [ (2, 1l) ]));
  SeedCorpus.save c corpus_file;
  let plan =
    Campaign.Campaign.plan
      (campaign_config ~corpus:corpus_file ~jobs:2 ())
      targets
  in
  let row name =
    List.find
      (fun (r : Campaign.Campaign.plan_row) -> r.pr_name = name)
      plan.Campaign.Campaign.pl_rows
  in
  Alcotest.(check (option int)) "biggest target runs first" (Some 1)
    (row "trgtb").Campaign.Campaign.pr_order;
  Alcotest.(check (option int)) "second-biggest runs second" (Some 2)
    (row "trgtc").Campaign.Campaign.pr_order;
  Alcotest.(check (option int)) "smallest runs last" (Some 3)
    (row "trgta").Campaign.Campaign.pr_order;
  Alcotest.(check int) "corpus preload counted" 2
    (row "trgtc").Campaign.Campaign.pr_preload;
  Alcotest.(check int) "no seeds for other targets" 0
    (row "trgtb").Campaign.Campaign.pr_preload;
  let text = Campaign.Campaign.plan_text plan in
  Alcotest.(check bool) "text totals the preload" true
    (contains ~sub:"corpus preload: 2 seeds" text);
  (* Planning must not fuzz: nothing was loaded, no journal written. *)
  Alcotest.(check int) "plan covers every target" 3
    (List.length plan.Campaign.Campaign.pl_rows)

(* ------------------------------------------------------------------ *)
(* Distributed sharding and journal merge                               *)
(* ------------------------------------------------------------------ *)

let run_shard ~count ~index ~journal targets =
  Campaign.Campaign.run
    (campaign_config ~journal
       ~shard:(Campaign.Shard.make ~index ~count)
       ~jobs:2 ())
    targets

(* The acceptance bar of the sharding redesign: fuzzing shard 0/2 and
   1/2 on "separate machines" (separate journals) and merging must
   reproduce the unsharded run's canonical verdict AND exploit-evidence
   sections byte-for-byte — evidence having round-tripped through the
   journal line on the way. *)
let test_shard_merge_identity () =
  let targets = test_targets ~count:8 in
  let unsharded = Campaign.Campaign.run (campaign_config ~jobs:2 ()) targets in
  let j0 = temp_journal "shard0" and j1 = temp_journal "shard1" in
  removing [ j0; j1 ] @@ fun () ->
  let r0 = run_shard ~count:2 ~index:0 ~journal:j0 targets in
  let r1 = run_shard ~count:2 ~index:1 ~journal:j1 targets in
  Alcotest.(check int) "slices cover the fleet" 8
    (r0.Campaign.Campaign.cr_requested + r1.Campaign.Campaign.cr_requested);
  Alcotest.(check bool) "both slices non-empty" true
    (r0.Campaign.Campaign.cr_requested > 0
     && r1.Campaign.Campaign.cr_requested > 0);
  (* Order of the journal arguments must not matter. *)
  let merged = Campaign.Campaign.merge [ j1; j0 ] in
  Alcotest.(check string) "verdicts byte-identical to the unsharded run"
    (Campaign.Campaign.verdicts_text unsharded)
    (Campaign.Campaign.verdicts_text merged);
  Alcotest.(check string) "exploit evidence byte-identical too"
    (Campaign.Campaign.evidence_text unsharded)
    (Campaign.Campaign.evidence_text merged);
  Alcotest.(check bool) "evidence section non-empty" true
    (String.length (Campaign.Campaign.evidence_text merged) > 0);
  Alcotest.(check bool) "every vulnerable target carries a payload" true
    (List.for_all
       (fun (e : Campaign.Journal.entry) ->
         (not (List.exists snd e.Campaign.Journal.je_flags))
         || e.Campaign.Journal.je_exploits <> [])
       merged.Campaign.Campaign.cr_results)

let expect_merge_failure name journals frag =
  match Campaign.Campaign.merge journals with
  | _ -> Alcotest.fail (name ^ ": merge accepted an inconsistent fleet")
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" name msg frag)
        true (contains ~sub:frag msg)

let test_merge_validation () =
  let targets = test_targets ~count:8 in
  let j0 = temp_journal "val0" and j1 = temp_journal "val1" in
  let j2 = temp_journal "val2" in
  removing [ j0; j1; j2 ] @@ fun () ->
  let _ = run_shard ~count:2 ~index:0 ~journal:j0 targets in
  let _ = run_shard ~count:2 ~index:1 ~journal:j1 targets in
  expect_merge_failure "same slice twice" [ j0; j0 ] "overlapping";
  expect_merge_failure "missing slice" [ j0 ] "missing";
  (* A shard fuzzed under a different seed is a different fleet. *)
  let other_seed =
    Campaign.Campaign.make_config ~jobs:1 ~journal:j2
      ~shard:(Campaign.Shard.make ~index:1 ~count:2)
      ~engine:
        (Core.Engine.make_config ~rounds:(6) ~rng_seed:(99L) ())
      ()
  in
  let _ = Campaign.Campaign.run other_seed targets in
  expect_merge_failure "seed mismatch" [ j0; j2 ]
    "different fleet configurations"

(* ------------------------------------------------------------------ *)
(* Discovery                                                            *)
(* ------------------------------------------------------------------ *)

let test_account_of_filename () =
  let n s = Name.to_string (Campaign.Discover.account_of_filename s) in
  Alcotest.(check string) "plain" "lottery" (n "lottery.wasm");
  Alcotest.(check string) "digits and underscores map deterministically"
    (n "Contract_07.wasm") (n "contract.og.wat");
  Alcotest.(check bool) "truncated to 12" true
    (String.length (n "averyveryverylongcontractname.wasm") = 12)

(* Service-grade directory hardening: one bad upload must be skipped
   with a warning, never abort the scan. *)
let test_contract_files_skips_bad_entries () =
  let dir = Filename.temp_file "wasai-test-discover" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let files = [ "good.wasm"; "good.wasm.abi"; "empty.wasm"; "notes.txt" ] in
  Fun.protect ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
      Sys.rmdir (Filename.concat dir "subdir.wasm");
      Sys.rmdir dir)
  @@ fun () ->
  let write name contents =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "good.wasm" "\x00asm\x01\x00\x00\x00";
  write "good.wasm.abi" "transfer(from:name)";
  write "empty.wasm" "";
  write "notes.txt" "not a contract";
  Unix.mkdir (Filename.concat dir "subdir.wasm") 0o755;
  Alcotest.(check (list string))
    "only the usable contract survives" [ "good.wasm" ]
    (Campaign.Discover.contract_files dir);
  (* dir still discovers campaign targets from the survivors *)
  Alcotest.(check (list string))
    "dir targets match" [ "good" ]
    (List.map
       (fun (t : Campaign.Campaign.target_spec) -> t.Campaign.Campaign.sp_name)
       (Campaign.Discover.dir dir))

(* Two files deriving one account would share a journal key: discovery
   refuses the directory and names both files, so the user knows which
   one to rename. *)
let test_dir_rejects_duplicate_accounts () =
  let dir = Filename.temp_file "wasai-test-discover" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let files = [ "abc.wasm"; "ABC.wasm" ] in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun name ->
          let p = Filename.concat dir name in
          if Sys.file_exists p then Sys.remove p)
        files;
      Unix.rmdir dir)
  @@ fun () ->
  List.iter
    (fun name ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc "\x00asm\x01\x00\x00\x00";
      close_out oc)
    files;
  match Campaign.Discover.dir dir with
  | _ -> Alcotest.fail "two files mapping to one account accepted"
  | exception Failure msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("message names " ^ sub) true (contains ~sub msg))
        [ "abc.wasm"; "ABC.wasm"; "\"abc\"" ]


let () =
  Alcotest.run "wasai_campaign"
    [
      ( "histogram",
        [
          Alcotest.test_case "basic percentiles" `Quick test_hist_basic;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "wire rendering" `Quick test_hist_to_wire;
        ] );
      ( "work_queue",
        [
          Alcotest.test_case "fifo and close" `Quick test_queue_fifo_and_close;
          Alcotest.test_case "parallel drain" `Quick test_queue_parallel_drain;
          Alcotest.test_case "close wakes blocked takers (1/2/8 domains)"
            `Quick test_queue_close_wakes_blocked;
        ] );
      ( "shard",
        [
          Alcotest.test_case "partition for any N" `Quick test_shard_partition;
          Alcotest.test_case "hash pinned to FNV-1a 64" `Quick
            test_shard_hash_stable;
          Alcotest.test_case "i/N notation" `Quick test_shard_string;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "stamp and exploits roundtrip" `Quick
            test_journal_stamp_roundtrip;
          Alcotest.test_case "strict parse" `Quick test_journal_strict;
          Alcotest.test_case "strict stamp and exploits parse" `Quick
            test_journal_stamp_strict;
          Alcotest.test_case "strict v4 parse" `Quick test_journal_v4_strict;
          Alcotest.test_case "one spelling per number" `Quick
            test_journal_one_spelling;
          Alcotest.test_case "extension flags round-trip" `Quick
            test_journal_extension_flags;
          Alcotest.test_case "strict extension grammar" `Quick
            test_journal_extension_strict;
          Alcotest.test_case "load rejects malformed" `Quick
            test_journal_load_malformed;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "config validation" `Quick
            test_make_config_validation;
          Alcotest.test_case "parallel/serial parity" `Quick test_parallel_parity;
          Alcotest.test_case "interrupt and resume" `Quick test_resume;
          Alcotest.test_case "corrupt journal rejected" `Quick
            test_resume_rejects_corrupt_journal;
          Alcotest.test_case "mismatched stamp rejected" `Quick
            test_resume_rejects_mismatched_stamp;
          Alcotest.test_case "duplicate names rejected" `Quick
            test_duplicate_names_rejected;
          Alcotest.test_case "every crash state resumes" `Quick
            test_crash_states;
          Alcotest.test_case "a failed write names its file" `Quick
            test_failed_write_names_file;
          Alcotest.test_case "telemetry off/on byte identity" `Quick
            test_telemetry_identity;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "warm rerun reproduces cold verdicts" `Quick
            test_corpus_warm_cold;
          Alcotest.test_case "biggest-first scheduling" `Quick
            test_size_ordering;
          Alcotest.test_case "dry-run plan" `Quick test_plan_dry_run;
        ] );
      ( "merge",
        [
          Alcotest.test_case "2-shard merge is byte-identical" `Quick
            test_shard_merge_identity;
          Alcotest.test_case "inconsistent fleets rejected" `Quick
            test_merge_validation;
        ] );
      ( "discover",
        [
          Alcotest.test_case "account derivation" `Quick test_account_of_filename;
          Alcotest.test_case "bad entries skipped, not fatal" `Quick
            test_contract_files_skips_bad_entries;
          Alcotest.test_case "duplicate accounts rejected" `Quick
            test_dir_rejects_duplicate_accounts;
        ] );
    ]
