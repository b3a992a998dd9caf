(* Tests for the serve subsystem: wire grammar round-trip and
   strictness, admission control (explicit BUSY backpressure), streamed
   verdict parity with a batch campaign for two concurrent tenants,
   cached replay, and the headline restart-safety property — kill -9
   (simulated in-process and real, via fork + SIGKILL) followed by
   --resume yields per-tenant reports byte-identical to an uninterrupted
   run. *)

module Core = Wasai_core
module Wasm = Wasai_wasm
module BG = Wasai_benchgen
module Campaign = Wasai_campaign
module Serve = Wasai_serve
open Wasai_eosio

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Unix-domain socket paths are capped around 104 bytes, so anchor
   everything under a short /tmp directory instead of TMPDIR, and remove
   it (roots, journals, corpora, sockets) when the test ends. *)
let with_scratch tag f =
  let dir =
    Printf.sprintf "/tmp/wasai-serve-%d-%s-%d" (Unix.getpid ()) tag
      (int_of_float (Unix.gettimeofday () *. 1000.) mod 1_000_000)
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let engine rounds =
  (Core.Engine.make_config ~rounds:(rounds) ())

(* The same coverage-set samples the campaign tests fuzz, as wire-ready
   contracts: both the serve submission and the batch campaign decode
   identical bytes, so their verdicts must match bit-for-bit. *)
let sample_contracts ~count =
  List.mapi
    (fun i (s : BG.Corpus.sample) ->
      let name =
        Printf.sprintf "trgt%c" (Char.chr (Char.code 'a' + i))
      in
      ( name,
        Wasm.Encode.encode s.BG.Corpus.smp_module,
        Abi.to_text s.BG.Corpus.smp_abi ))
    (BG.Corpus.coverage_set ~count ())

let client_contracts contracts =
  List.map
    (fun (name, wasm, abi) ->
      { Serve.Client.ct_name = name; ct_wasm = wasm; ct_abi = Some abi })
    contracts

let batch_campaign_report ~rounds contracts =
  let targets =
    List.map
      (fun (name, wasm, abi) ->
        {
          Campaign.Campaign.sp_name = name;
          sp_size = String.length wasm;
          sp_load =
            (fun () ->
              {
                Core.Engine.tgt_account = Name.of_string name;
                tgt_module = Wasm.Decode.decode wasm;
                tgt_abi = Abi.of_text abi;
              });
        })
      contracts
  in
  Campaign.Campaign.run
    (Campaign.Campaign.make_config ~jobs:2 ~engine:(engine rounds) ())
    targets

(* ------------------------------------------------------------------ *)
(* Wire grammar                                                        *)
(* ------------------------------------------------------------------ *)

(* The one hex codec the wire shares with the journal and the corpus. *)
let test_wire_hex () =
  let module Canonical = Wasai_support.Canonical in
  let all = String.init 256 Char.chr in
  (match Canonical.string_of_hex (Canonical.hex_of_string all) with
   | Ok s -> Alcotest.(check string) "all bytes round-trip" all s
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "odd length rejected" true
    (Result.is_error (Canonical.string_of_hex "abc"));
  Alcotest.(check bool) "bad digit rejected" true
    (Result.is_error (Canonical.string_of_hex "zz"));
  Alcotest.(check bool) "uppercase rejected (canonical form only)" true
    (Result.is_error (Canonical.string_of_hex "AB"))

let test_wire_names () =
  Alcotest.(check bool) "tenant ok" true (Serve.Wire.valid_tenant "alice-02");
  Alcotest.(check bool) "tenant dot-dot refused" false
    (Serve.Wire.valid_tenant "..");
  Alcotest.(check bool) "tenant slash refused" false
    (Serve.Wire.valid_tenant "a/b");
  Alcotest.(check bool) "tenant uppercase refused" false
    (Serve.Wire.valid_tenant "Alice");
  Alcotest.(check bool) "tenant >32 refused" false
    (Serve.Wire.valid_tenant (String.make 33 'a'));
  Alcotest.(check bool) "target ok" true (Serve.Wire.valid_target "lottery.one");
  Alcotest.(check bool) "target digit 0 refused" false
    (Serve.Wire.valid_target "acc0unt");
  Alcotest.(check bool) "target >12 refused" false
    (Serve.Wire.valid_target "averylongname")

let test_wire_request_roundtrip () =
  let reqs =
    [
      Serve.Wire.Submit
        {
          rq_tenant = "alice";
          rq_name = "lottery";
          rq_wasm = "\x00asm\x01\x00\x00\x00";
          rq_abi = Some "transfer(from:name)";
          rq_slices = 1;
        };
      Serve.Wire.Submit
        {
          rq_tenant = "bob";
          rq_name = "dice";
          rq_wasm = "\xff";
          rq_abi = None;
          rq_slices = 1;
        };
      Serve.Wire.Ping;
      Serve.Wire.Stats "alice";
      Serve.Wire.Metrics;
      Serve.Wire.Shutdown;
    ]
  in
  List.iter
    (fun rq ->
      match Serve.Wire.request_of_line (Serve.Wire.line_of_request rq) with
      | Ok rq' -> Alcotest.(check bool) "request round-trips" true (rq = rq')
      | Error e -> Alcotest.fail ("round-trip rejected: " ^ e))
    reqs;
  (* Every submission is one whole-target loop: a producer asking for
     anything else fails before the wire. *)
  Alcotest.check_raises "producer rejects slices other than 1"
    (Invalid_argument "Wire.line_of_request: slices must be 1") (fun () ->
      ignore
        (Serve.Wire.line_of_request
           (Serve.Wire.Submit
              {
                rq_tenant = "alice";
                rq_name = "lottery";
                rq_wasm = "\x00asm\x01\x00\x00\x00";
                rq_abi = None;
                rq_slices = 4;
              })))

let test_wire_request_strict () =
  let bad =
    [
      ("empty", "");
      ("bad magic", "wasai-serve-v0\tPING");
      ("unknown verb", "wasai-serve-v1\tNOPE");
      ("submit missing fields", "wasai-serve-v1\tSUBMIT\talice\tdice");
      ( "submit bad tenant",
        "wasai-serve-v1\tSUBMIT\tAlice\tdice\t00\t-" );
      ( "submit traversal tenant",
        "wasai-serve-v1\tSUBMIT\t..\tdice\t00\t-" );
      ("submit bad name", "wasai-serve-v1\tSUBMIT\talice\tD1CE\t00\t-");
      ("submit odd hex", "wasai-serve-v1\tSUBMIT\talice\tdice\t0\t-");
      ("submit empty module", "wasai-serve-v1\tSUBMIT\talice\tdice\t\t-");
      ("submit zero slices", "wasai-serve-v1\tSUBMIT\talice\tdice\t00\t-\tslices=0");
      ("submit junk slices", "wasai-serve-v1\tSUBMIT\talice\tdice\t00\t-\tslices=x");
      ("submit slices=4", "wasai-serve-v1\tSUBMIT\talice\tdice\t00\t-\tslices=4");
      ("submit wrong trailing key", "wasai-serve-v1\tSUBMIT\talice\tdice\t00\t-\tshards=2");
      ("ping with junk", "wasai-serve-v1\tPING\textra");
      ("metrics with junk", "wasai-serve-v1\tMETRICS\textra");
      ("stats bad tenant", "wasai-serve-v1\tSTATS\ta b");
    ]
  in
  List.iter
    (fun (what, line) ->
      match Serve.Wire.request_of_line line with
      | Ok _ -> Alcotest.fail ("accepted " ^ what)
      | Error _ -> ())
    bad;
  Alcotest.check_raises "producer rejects empty module"
    (Invalid_argument "Wire.line_of_request: empty module bytes") (fun () ->
      ignore
        (Serve.Wire.line_of_request
           (Serve.Wire.Submit
              { rq_tenant = "a"; rq_name = "b"; rq_wasm = ""; rq_abi = None; rq_slices = 1 })))

(* A real journal entry — stamp, solver counters, exploit evidence — to
   embed in VERDICT lines: fuzz one vulnerable sample. *)
let sample_entry =
  lazy
    (let s = List.hd (BG.Corpus.coverage_set ~count:1 ()) in
     let outcome =
       Core.Engine.fuzz ~cfg:(engine 12)
         {
           Core.Engine.tgt_account = Name.of_string "trgta";
           tgt_module = s.BG.Corpus.smp_module;
           tgt_abi = s.BG.Corpus.smp_abi;
         }
     in
     Campaign.Journal.of_outcome ~name:"trgta" ~elapsed:0.25
       ~stamp:
         {
           Campaign.Journal.js_shard = Campaign.Shard.whole;
           js_seed = Core.Engine.default_config.Core.Engine.cfg_rng_seed;
           js_rounds = 12;
         }
       outcome)

let test_wire_response_roundtrip () =
  let entry = Lazy.force sample_entry in
  let resps =
    [
      Serve.Wire.Queued { rp_tenant = "alice"; rp_name = "dice"; rp_depth = 3 };
      Serve.Wire.Busy
        { rp_tenant = "alice"; rp_name = "dice"; rp_retry_ms = 450; rp_depth = 16 };
      Serve.Wire.Verdict
        { rp_tenant = "alice"; rp_kind = Serve.Wire.Fresh; rp_wait_ms = 1200; rp_entry = entry };
      Serve.Wire.Verdict
        { rp_tenant = "bob"; rp_kind = Serve.Wire.Cached; rp_wait_ms = 0; rp_entry = entry };
      Serve.Wire.Err { rp_name = Some "dice"; rp_reason = "decode failed" };
      Serve.Wire.Err { rp_name = None; rp_reason = "tab\there newline\nthere" };
      Serve.Wire.Pong { rp_jobs = 4; rp_tenants = 2 };
      Serve.Wire.StatsReply
        {
          rp_tenant = "alice";
          rp_submitted = 10;
          rp_completed = 7;
          rp_rejected = 2;
          rp_qwait = "n:7,mean:0.010000,p50:0.010000,p90:0.020000,p99:0.020000,max:0.020000";
          rp_latency = "n:7,mean:0.100000,p50:0.100000,p90:0.200000,p99:0.200000,max:0.200000";
          rp_uptime_ms = 481200;
          rp_backend = "interp";
        };
      Serve.Wire.MetricsReply
        {
          rp_body =
            "# TYPE wasai_jobs gauge\nwasai_jobs 2\n\
             wasai_tenant_submitted_total{tenant=\"alice\"} 10\n";
        };
      Serve.Wire.Bye { rp_completed = 7 };
    ]
  in
  List.iter
    (fun rp ->
      let line = Serve.Wire.line_of_response rp in
      match Serve.Wire.response_of_line line with
      | Error e -> Alcotest.fail ("round-trip rejected: " ^ e)
      | Ok rp' -> (
          match (rp, rp') with
          | ( Serve.Wire.Err { rp_reason = "tab\there newline\nthere"; _ },
              Serve.Wire.Err { rp_reason; rp_name = None } ) ->
              (* the only lossy field: reasons are flattened to one line *)
              Alcotest.(check string) "reason flattened" "tab here newline there"
                rp_reason
          | ( Serve.Wire.Verdict { rp_entry = a; rp_kind = ka; _ },
              Serve.Wire.Verdict { rp_entry = b; rp_kind = kb; _ } ) ->
              Alcotest.(check bool) "verdict kind survives" true (ka = kb);
              (* entry equality via the canonical line rendering *)
              Alcotest.(check string) "embedded journal line survives"
                (Campaign.Journal.line_of_entry a)
                (Campaign.Journal.line_of_entry b)
          | _ -> Alcotest.(check bool) "response round-trips" true (rp = rp')))
    resps;
  (* the embedded entry really carries evidence: the VERDICT stream
     pushes wire-encoded exploits, not just flags *)
  Alcotest.(check bool) "sample entry has exploits" true
    (entry.Campaign.Journal.je_exploits <> [])

let test_wire_response_strict () =
  let bad =
    [
      ("bad magic", "nope\tPONG\tjobs=1\ttenants=0");
      ("bad kind", "wasai-serve-v1\tVERDICT\talice\tstale\twait=3\tx");
      ("verdict without journal line", "wasai-serve-v1\tVERDICT\talice\tfresh\twait=3");
      ("bad depth", "wasai-serve-v1\tQUEUED\talice\tdice\tdepth=-1");
      ("missing key", "wasai-serve-v1\tQUEUED\talice\tdice\t7");
      ("junk in int", "wasai-serve-v1\tBYE\tcompleted=7x");
      ("stats histogram with space", "wasai-serve-v1\tSTATS\ta\tsubmitted=1\tcompleted=1\trejected=0\tqwait=n 1\tlatency=n:1\tuptime=5\tbackend=auto");
      ("stats without uptime/backend", "wasai-serve-v1\tSTATS\ta\tsubmitted=1\tcompleted=1\trejected=0\tqwait=n:1\tlatency=n:1");
      ("metrics with odd-length hex", "wasai-serve-v1\tMETRICS\tabc");
      ("metrics with non-hex body", "wasai-serve-v1\tMETRICS\tzz");
      ("metrics with uppercase hex", "wasai-serve-v1\tMETRICS\tAB");
      (* a count is read only as [%d] writes it *)
      ("leading zero", "wasai-serve-v1\tBYE\tcompleted=07");
      ("hex count", "wasai-serve-v1\tBYE\tcompleted=0x10");
      ("underscore in count", "wasai-serve-v1\tBYE\tcompleted=1_000");
      ("plus sign", "wasai-serve-v1\tPONG\tjobs=+5\ttenants=0");
      ("negative count", "wasai-serve-v1\tPONG\tjobs=-3\ttenants=0");
    ]
  in
  List.iter
    (fun (what, line) ->
      match Serve.Wire.response_of_line line with
      | Ok _ -> Alcotest.fail ("accepted " ^ what)
      | Error _ -> ())
    bad;
  (* a verdict embedding a corrupt journal line is rejected by the
     journal parser, not silently accepted *)
  let entry = Lazy.force sample_entry in
  let good =
    Serve.Wire.line_of_response
      (Serve.Wire.Verdict
         { rp_tenant = "a"; rp_kind = Serve.Wire.Fresh; rp_wait_ms = 1; rp_entry = entry })
  in
  (* tear off the journal line's last field: the strict field-count
     check must reject it (truncating mid-payload can leave a shorter
     but still well-formed value, so cut at a field boundary) *)
  let corrupt = String.sub good 0 (String.rindex good '\t') in
  Alcotest.(check bool) "torn verdict payload rejected" true
    (Result.is_error (Serve.Wire.response_of_line corrupt));
  let extra = good ^ "\tsurplus" in
  Alcotest.(check bool) "surplus field rejected" true
    (Result.is_error (Serve.Wire.response_of_line extra))

(* ------------------------------------------------------------------ *)
(* Daemon harness                                                      *)
(* ------------------------------------------------------------------ *)

let with_daemon cfg f =
  let t = Serve.Serve.create cfg in
  let d = Domain.spawn (fun () -> Serve.Serve.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Serve.request_stop t;
      Domain.join d)
    (fun () -> f t)

let connect_retry path =
  let rec go n =
    match Serve.Client.connect path with
    | c -> c
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.sleepf 0.05;
        go (n - 1)
  in
  go 100

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let test_serve_parity_and_cache () =
  with_scratch "parity" @@ fun dir ->
  let rounds = 6 in
  let all = sample_contracts ~count:8 in
  let contracts = List.filteri (fun i _ -> i < 4) all in
  let bob = List.filteri (fun i _ -> i >= 4) all in
  let cfg =
    Serve.Serve.make_config ~root:(Filename.concat dir "root")
      ~socket:(Filename.concat dir "s.sock") ~jobs:2 ~depth:16
      ~engine:(engine rounds) ()
  in
  (* streamed verdicts == batch campaign over the same bytes *)
  let check_parity tenant contracts (batch : Serve.Client.batch) =
    let serve_report =
      Campaign.Campaign.of_entries
        (List.map (fun (_, _, e) -> e) batch.Serve.Client.bt_verdicts)
    in
    let campaign_report = batch_campaign_report ~rounds contracts in
    Alcotest.(check string)
      (tenant ^ ": verdict parity with batch campaign")
      (Campaign.Campaign.verdicts_text campaign_report)
      (Campaign.Campaign.verdicts_text serve_report);
    Alcotest.(check string)
      (tenant ^ ": evidence parity with batch campaign")
      (Campaign.Campaign.evidence_text campaign_report)
      (Campaign.Campaign.evidence_text serve_report)
  in
  with_daemon cfg (fun _ ->
      (* a second tenant submits from its own domain while alice's batch
         runs *)
      let bob_batch =
        Domain.spawn (fun () ->
            let c = connect_retry cfg.Serve.Serve.sv_socket in
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                Serve.Client.submit_batch c ~tenant:"bob"
                  (client_contracts bob)))
      in
      let c = connect_retry cfg.Serve.Serve.sv_socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* liveness *)
          Serve.Client.send c Serve.Wire.Ping;
          (match Serve.Client.next c with
           | Serve.Wire.Pong { rp_jobs; _ } ->
               Alcotest.(check int) "pong jobs" 2 rp_jobs
           | _ -> Alcotest.fail "expected PONG");
          let batch =
            Serve.Client.submit_batch c ~tenant:"alice"
              (client_contracts contracts)
          in
          Alcotest.(check int) "all verdicts arrived" (List.length contracts)
            (List.length batch.Serve.Client.bt_verdicts);
          Alcotest.(check (list string)) "no errors" []
            (List.map fst batch.Serve.Client.bt_errors);
          List.iter
            (fun (_, kind, _) ->
              Alcotest.(check bool) "first run is fresh" true
                (kind = Serve.Wire.Fresh))
            batch.Serve.Client.bt_verdicts;
          check_parity "alice" contracts batch;
          check_parity "bob" bob (Domain.join bob_batch);
          (* resubmission replays from the journal without re-fuzzing *)
          let again =
            Serve.Client.submit_batch c ~tenant:"alice"
              (client_contracts contracts)
          in
          List.iter
            (fun (_, kind, _) ->
              Alcotest.(check bool) "second run is cached" true
                (kind = Serve.Wire.Cached))
            again.Serve.Client.bt_verdicts;
          (* per-tenant stats expose the latency histograms *)
          Serve.Client.send c (Serve.Wire.Stats "alice");
          (match Serve.Client.next c with
           | Serve.Wire.StatsReply
               {
                 rp_completed;
                 rp_submitted;
                 rp_latency;
                 rp_uptime_ms;
                 rp_backend;
                 _;
               } ->
               Alcotest.(check int) "stats completed" (List.length contracts)
                 rp_completed;
               Alcotest.(check int) "stats submitted counts cached replays"
                 (2 * List.length contracts)
                 rp_submitted;
               Alcotest.(check bool) "latency histogram populated" true
                 (contains ~sub:(Printf.sprintf "n:%d" (List.length contracts))
                    rp_latency);
               Alcotest.(check bool) "uptime is non-negative" true
                 (rp_uptime_ms >= 0);
               Alcotest.(check string) "backend is the configured one"
                 (Core.Exec_backend.to_string
                    cfg.Serve.Serve.sv_engine.Core.Engine.cfg_backend)
                 rp_backend
           | _ -> Alcotest.fail "expected STATS reply");
          (* METRICS returns a Prometheus exposition covering this tenant *)
          Serve.Client.send c Serve.Wire.Metrics;
          match Serve.Client.next c with
          | Serve.Wire.MetricsReply { rp_body } ->
              Alcotest.(check bool) "exposition counts the tenant's verdicts"
                true
                (contains
                   ~sub:
                     (Printf.sprintf
                        "wasai_tenant_completed_total{tenant=\"alice\"} %d\n"
                        (List.length contracts))
                   rp_body);
              Alcotest.(check bool) "exposition covers telemetry stages" true
                (contains ~sub:"wasai_stage_seconds_total{stage=" rp_body);
              (* every non-comment line is `name[{labels}] value` *)
              List.iter
                (fun line ->
                  if line <> "" && line.[0] <> '#' then
                    match String.rindex_opt line ' ' with
                    | None ->
                        Alcotest.fail ("metric line without value: " ^ line)
                    | Some i -> (
                        let v =
                          String.sub line (i + 1) (String.length line - i - 1)
                        in
                        match float_of_string_opt v with
                        | Some f ->
                            Alcotest.(check bool) "metric value is finite" true
                              (Float.is_finite f)
                        | None ->
                            Alcotest.fail ("unparsable metric value: " ^ line)))
                (String.split_on_char '\n' rp_body)
          | _ -> Alcotest.fail "expected METRICS reply"))

let test_serve_backpressure () =
  with_scratch "busy" @@ fun dir ->
  let contracts = sample_contracts ~count:4 in
  let cfg =
    Serve.Serve.make_config ~root:(Filename.concat dir "root")
      ~socket:(Filename.concat dir "s.sock") ~jobs:1 ~depth:1
      ~engine:(engine 6) ()
  in
  with_daemon cfg (fun _ ->
      let c = connect_retry cfg.Serve.Serve.sv_socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* Fire every submission before reading a single reply: with
             depth=1 the first is queued and at least one later one must
             be refused with an explicit BUSY (admission is serialised
             in the I/O loop; fuzzing takes milliseconds, the
             submissions arrive microseconds apart). *)
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
            contracts;
          (* one admission reply per submission (verdicts may
             interleave; count only admission replies) *)
          let queued = ref 0 and busy = ref 0 in
          let admissions = ref 0 in
          while !admissions < List.length contracts do
            match Serve.Client.next c with
            | Serve.Wire.Queued { rp_depth; _ } ->
                incr queued;
                incr admissions;
                Alcotest.(check bool) "depth bounded" true (rp_depth <= 1)
            | Serve.Wire.Busy { rp_retry_ms; _ } ->
                incr busy;
                incr admissions;
                Alcotest.(check bool) "retry hint positive" true
                  (rp_retry_ms >= 100)
            | Serve.Wire.Verdict _ -> ()
            | other ->
                Alcotest.fail
                  ("unexpected reply: " ^ Serve.Wire.line_of_response other)
          done;
          Alcotest.(check bool) "some submission admitted" true (!queued >= 1);
          Alcotest.(check bool) "saturated queue answered BUSY" true (!busy >= 1);
          (* the admitted raw submissions still stream their verdicts —
             drain them so they are not mistaken for batch replies *)
          for _ = 1 to !queued do
            match Serve.Client.next c with
            | Serve.Wire.Verdict _ -> ()
            | other ->
                Alcotest.fail
                  ("expected raw verdict, got "
                  ^ Serve.Wire.line_of_response other)
          done;
          (* the client-side retry loop eventually lands every target *)
          let batch =
            Serve.Client.submit_batch c ~tenant:"alice"
              (client_contracts contracts)
          in
          Alcotest.(check int) "retry loop completes the batch"
            (List.length contracts)
            (List.length batch.Serve.Client.bt_verdicts)))

(* One malformed 16 MiB line: the I/O loop must consume it in time
   linear in its length and answer with one short ERR, not echo the
   line back. *)
let test_serve_long_malformed_line () =
  with_scratch "long" @@ fun dir ->
  let cfg =
    Serve.Serve.make_config ~root:(Filename.concat dir "root")
      ~socket:(Filename.concat dir "s.sock") ~jobs:1 ~depth:4
      ~engine:(engine 6) ()
  in
  with_daemon cfg (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX cfg.Serve.Serve.sv_socket);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
          let line = String.make (16 * 1024 * 1024) 'x' ^ "\n" in
          let t0 = Unix.gettimeofday () in
          let rec send off =
            if off < String.length line then
              send
                (off
                + Unix.write_substring fd line off (String.length line - off))
          in
          send 0;
          let buf = Bytes.create 65536 in
          let reply = Buffer.create 256 in
          let first = ref nan in
          let rec recv () =
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> ()
            | n ->
                if Float.is_nan !first then first := Unix.gettimeofday () -. t0;
                Buffer.add_subbytes reply buf 0 n;
                recv ()
          in
          recv ();
          let reply = Buffer.contents reply in
          Alcotest.(check bool)
            (Printf.sprintf "first reply byte within 2 s (took %.2f s)" !first)
            true (!first < 2.0);
          Alcotest.(check bool)
            (Printf.sprintf "reply under 1 KiB (%d bytes)" (String.length reply))
            true
            (String.length reply < 1024);
          match String.split_on_char '\n' reply with
          | [ err; "" ] -> (
              match Serve.Wire.response_of_line err with
              | Ok (Serve.Wire.Err { rp_name = None; _ }) -> ()
              | _ -> Alcotest.fail ("expected one protocol ERR, got " ^ err))
          | _ -> Alcotest.fail ("expected exactly one reply line: " ^ reply)))

(* A stop requested while, or after, the I/O loop shuts down (a signal
   handler, or a client thread racing a SHUTDOWN) finds the self-pipe
   closed: it must write nothing rather than raise EBADF, or write into
   whatever the closed descriptor's number now names. *)
let test_serve_stop_after_shutdown () =
  with_scratch "stop" @@ fun dir ->
  let cfg =
    Serve.Serve.make_config ~root:(Filename.concat dir "root")
      ~socket:(Filename.concat dir "s.sock") ~jobs:1 ~depth:4
      ~engine:(engine 6) ()
  in
  let t = Serve.Serve.create cfg in
  let d = Domain.spawn (fun () -> Serve.Serve.serve t) in
  Serve.Serve.request_stop t;
  Domain.join d;
  let reused = Filename.concat dir "reused" in
  let fd = Unix.openfile reused [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Serve.Serve.request_stop t;
      Serve.Serve.request_abort t);
  Alcotest.(check int) "nothing written to a reused descriptor" 0
    (Unix.stat reused).Unix.st_size

(* Hostile module bytes in a SUBMIT: the worker refuses each before it
   allocates (a memory past the spec's 65,536 pages, one past Nodeos'
   528, 2^32 - 1 declared locals), answers ERR with the reason, and
   keeps serving. *)
let test_serve_hostile_modules () =
  with_scratch "hostile" @@ fun dir ->
  let cfg =
    Serve.Serve.make_config ~root:(Filename.concat dir "root")
      ~socket:(Filename.concat dir "s.sock") ~jobs:1 ~depth:4
      ~engine:(engine 6) ()
  in
  let header = "\x00asm\x01\x00\x00\x00" in
  let hostile =
    [
      ("hugemem", header ^ "\x05\x05\x01\x00\x81\x80\x04", "65536");
      ("bigmem", header ^ "\x05\x04\x01\x00\x91\x04", "528-page");
      ( "locals",
        header ^ "\x01\x04\x01\x60\x00\x00\x03\x02\x01\x00"
        ^ "\x0a\x0a\x01\x08\x01\xff\xff\xff\xff\x0f\x7f\x0b",
        "50000 locals" );
    ]
  in
  with_daemon cfg (fun _ ->
      let c = connect_retry cfg.Serve.Serve.sv_socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let batch =
            Serve.Client.submit_batch c ~tenant:"eve"
              (List.map
                 (fun (name, wasm, _) ->
                   {
                     Serve.Client.ct_name = name;
                     ct_wasm = wasm;
                     ct_abi = None;
                   })
                 hostile)
          in
          Alcotest.(check int) "no verdicts" 0
            (List.length batch.Serve.Client.bt_verdicts);
          List.iter
            (fun (name, _, reason) ->
              match List.assoc_opt name batch.Serve.Client.bt_errors with
              | Some got ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %S names %S" name got reason)
                    true (contains ~sub:reason got)
              | None -> Alcotest.failf "%s: no ERR" name)
            hostile;
          Serve.Client.send c Serve.Wire.Ping;
          match Serve.Client.next c with
          | Serve.Wire.Pong _ -> ()
          | _ -> Alcotest.fail "expected PONG after the refusals"))

(* ------------------------------------------------------------------ *)
(* Restart safety                                                      *)
(* ------------------------------------------------------------------ *)

let run_uninterrupted ~dir ~rounds contracts =
  let cfg =
    Serve.Serve.make_config ~root:(Filename.concat dir "root-uninterrupted")
      ~socket:(Filename.concat dir "u.sock") ~jobs:2 ~depth:16
      ~engine:(engine rounds) ()
  in
  with_daemon cfg (fun _ ->
      let c = connect_retry cfg.Serve.Serve.sv_socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          ignore
            (Serve.Client.submit_batch c ~tenant:"alice"
               (client_contracts contracts))));
  Serve.Serve.tenant_report ~root:cfg.Serve.Serve.sv_root
    ~engine:(engine rounds) "alice"

(* In-process kill -9: abort drops the queued backlog un-journaled, the
   resumed daemon replays the journal and re-fuzzes only the rest. *)
let test_abort_resume_identity () =
  with_scratch "abort" @@ fun dir ->
  let rounds = 6 in
  let contracts = sample_contracts ~count:6 in
  let reference = run_uninterrupted ~dir ~rounds contracts in
  let root = Filename.concat dir "root" in
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    Serve.Serve.make_config ~root ~socket ~jobs:1 ~depth:16
      ~engine:(engine rounds) ()
  in
  (* phase 1: submit everything, abort after the first verdict *)
  let t = Serve.Serve.create cfg in
  let d = Domain.spawn (fun () -> Serve.Serve.serve t) in
  let c = connect_retry socket in
  List.iter
    (fun (name, wasm, abi) ->
      Serve.Client.send c
        (Serve.Wire.Submit
           { rq_tenant = "alice"; rq_name = name; rq_wasm = wasm; rq_abi = Some abi; rq_slices = 1 }))
    contracts;
  let rec await_first_verdict () =
    match Serve.Client.next c with
    | Serve.Wire.Verdict _ -> ()
    | _ -> await_first_verdict ()
  in
  await_first_verdict ();
  Serve.Serve.request_abort t;
  Domain.join d;
  Serve.Client.close c;
  let journaled =
    List.length
      (Serve.Serve.tenant_entries ~root ~engine:(engine rounds) "alice")
  in
  Alcotest.(check bool) "aborted mid-queue" true
    (journaled >= 1 && journaled < List.length contracts);
  (* phase 2: restart with resume, resubmit everything *)
  let cfg2 =
    Serve.Serve.make_config ~root ~socket ~jobs:2 ~depth:16 ~resume:true
      ~engine:(engine rounds) ()
  in
  with_daemon cfg2 (fun _ ->
      let c = connect_retry socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let batch =
            Serve.Client.submit_batch c ~tenant:"alice"
              (client_contracts contracts)
          in
          let cached =
            List.length
              (List.filter
                 (fun (_, k, _) -> k = Serve.Wire.Cached)
                 batch.Serve.Client.bt_verdicts)
          in
          Alcotest.(check int) "journaled targets replay from cache" journaled
            cached));
  let resumed =
    Serve.Serve.tenant_report ~root ~engine:(engine rounds) "alice"
  in
  Alcotest.(check string)
    "resumed report byte-identical to uninterrupted run" reference resumed

(* The real fork + SIGKILL variant lives in test_serve_kill.ml: OCaml 5
   forbids Unix.fork once any domain has been spawned, and the daemon
   tests above spawn domains in this process, so the kill test needs a
   process where the fork happens first. *)

(* A resumed daemon must reject journals stamped under a different
   engine configuration — Campaign.merge's validation discipline. *)
let test_resume_rejects_mismatched_stamp () =
  with_scratch "stamp" @@ fun dir ->
  let rounds = 6 in
  let contracts = sample_contracts ~count:1 in
  let root = Filename.concat dir "root" in
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    Serve.Serve.make_config ~root ~socket ~jobs:1 ~depth:4
      ~engine:(engine rounds) ()
  in
  with_daemon cfg (fun _ ->
      let c = connect_retry socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          ignore
            (Serve.Client.submit_batch c ~tenant:"alice"
               (client_contracts contracts))));
  match
    Serve.Serve.create
      (Serve.Serve.make_config ~root ~socket ~jobs:1 ~depth:4 ~resume:true
         ~engine:(engine (rounds + 1)) ())
  with
  | _ -> Alcotest.fail "resume accepted a journal from a different budget"
  | exception Failure msg ->
      Alcotest.(check bool) "refuses to mix configurations" true
        (contains ~sub:"refusing to mix configurations" msg)

let () =
  Alcotest.run "wasai_serve"
    [
      ( "wire",
        [
          Alcotest.test_case "hex codec" `Quick test_wire_hex;
          Alcotest.test_case "tenant/target alphabets" `Quick test_wire_names;
          Alcotest.test_case "request roundtrip" `Quick
            test_wire_request_roundtrip;
          Alcotest.test_case "request strictness" `Quick
            test_wire_request_strict;
          Alcotest.test_case "response roundtrip (incl. verdict payload)"
            `Quick test_wire_response_roundtrip;
          Alcotest.test_case "response strictness" `Quick
            test_wire_response_strict;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "streamed verdicts = batch campaign; cache"
            `Quick test_serve_parity_and_cache;
          Alcotest.test_case "saturated queue answers BUSY" `Quick
            test_serve_backpressure;
          Alcotest.test_case "16 MiB malformed line answered promptly" `Quick
            test_serve_long_malformed_line;
          Alcotest.test_case "hostile modules answered ERR" `Quick
            test_serve_hostile_modules;
          Alcotest.test_case "stop after shutdown writes nothing" `Quick
            test_serve_stop_after_shutdown;
        ] );
      ( "restart",
        [
          Alcotest.test_case "abort + resume byte-identity" `Quick
            test_abort_resume_identity;
          Alcotest.test_case "mismatched stamp rejected on resume" `Quick
            test_resume_rejects_mismatched_stamp;
        ] );
    ]
