(** One trial of one benchmark workload.

    [wbench gen WORKLOAD SEED DIR] writes the workload's inputs into
    [DIR]: contract files with ABI sidecars, the planted labels, the
    seeded open-loop schedule and, for [serve-mixed], a tenant root that
    already journals a few hundred contracts.  Input generation is the
    only place the seed is used; the program under test sees only files
    and wire bytes.

    [wbench trial WORKLOAD DIR INDEX TRACE] runs trial [INDEX] of the
    workload in the current directory over the inputs in [DIR] (the
    index picks the arrival schedule) and prints one JSON
    line: end-to-end measurements, count guards (values that must repeat
    exactly for a fixed seed), a verdict digest, the raw timing samples
    and, with [TRACE] = 1, the per-layer ledger.  [perfbench/run.py]
    repeats trials and reports medians and pooled percentiles. *)

module BG = Wasai_benchgen
module Core = Wasai_core
module Campaign = Wasai_campaign.Campaign
module Journal = Wasai_campaign.Journal
module Discover = Wasai_campaign.Discover
module Corpus = Wasai_corpus.Corpus
module Serve = Wasai_serve.Serve
module Wire = Wasai_serve.Wire
module Telemetry = Wasai_telemetry.Telemetry
module Solver = Wasai_smt.Solver
module Rand = Wasai_support.Rand
module Metrics = Wasai_support.Metrics
module Fsutil = Wasai_support.Fsutil
module Abi = Wasai_eosio.Abi

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type fleet =
  | Mainnet of int  (** RQ4 population, this many contracts *)
  | Verification of int  (** Table 6 corpus at this scale divisor *)
  | Ground_truth of int  (** Table 4 corpus at this scale divisor *)

type workload = {
  w_name : string;
  w_fleet : fleet;  (** batch: the fleet; serve: the fresh submissions *)
  w_rounds : int;  (** fixed round budget, no wall-clock cap *)
  w_journaled : int;  (** serve: contracts the tenant journal holds *)
  w_cached : int;
      (** resubmissions: serve, of journaled contracts; batch, at most
          this many of the fleet *)
  w_rate : float;  (** open-loop arrivals per second *)
}

(* Batch workloads end with a resubmission sweep of up to [w_cached]
   fleet targets to a daemon resumed over the campaign's journal (every
   request cached), at [w_rate]; serve-mixed draws fresh and cached
   requests into one Poisson stream at [w_rate].  Its rate keeps the
   worker under a third busy: on a shared two-core host, queueing at
   higher load turns small slowdowns of the host into large swings of
   the latency percentiles. *)
let workloads =
  [
    {
      w_name = "audit-fleet";
      w_fleet = Mainnet 480;
      w_rounds = 12;
      w_journaled = 0;
      w_cached = 240;
      w_rate = 500.;
    };
    {
      w_name = "deep-verify";
      w_fleet = Verification 20;
      w_rounds = 24;
      w_journaled = 0;
      w_cached = 240;
      w_rate = 500.;
    };
    {
      w_name = "serve-mixed";
      w_fleet = Ground_truth 16;
      w_rounds = 8;
      w_journaled = 300;
      w_cached = 60;
      w_rate = 22.;
    };
  ]

let is_serve w = w.w_journaled > 0
let tenant = "audit"
let socket = "s.sock"
let engine_of w = Core.Engine.make_config ~rounds:w.w_rounds ()
let batch_setup_reps = 15
let serve_setup_reps = 9
let drain_timeout = 60.

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

(* CPU seconds this process has used, from getrusage.  Time the host
   gives to other processes or vCPUs does not count, so batch figures
   built on it move with the program, not with the neighbours. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let journal_in root = Filename.concat (Filename.concat root tenant) "journal"
let corpus_in root = Filename.concat (Filename.concat root tenant) "corpus"

(* Target names: a two-letter prefix plus three base-26 digits — valid
   EOSIO accounts that {!Discover.account_of_filename} maps to
   themselves. *)
let name_of prefix i =
  let b = Buffer.create 8 in
  Buffer.add_string b prefix;
  let rec digits i k =
    if k > 0 then begin
      digits (i / 26) (k - 1);
      Buffer.add_char b (Char.chr (Char.code 'a' + (i mod 26)))
    end
  in
  digits i 3;
  Buffer.contents b

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Arr xs -> "[" ^ String.concat ", " (List.map json_to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v))
             kvs)
      ^ "}"

(* ------------------------------------------------------------------ *)
(* Input generation                                                    *)
(* ------------------------------------------------------------------ *)

type contract = {
  c_module : Wasai_wasm.Ast.module_;
  c_abi : Abi.t;
  c_truth : bool;
  c_flag : Core.Scanner.flag option;
      (** the class's flag; [None] scores any flag against [c_truth] *)
}

let flag_of_vuln = function
  | BG.Contracts.Fake_eos -> Core.Scanner.Fake_eos
  | BG.Contracts.Fake_notif -> Core.Scanner.Fake_notif
  | BG.Contracts.Miss_auth -> Core.Scanner.Miss_auth
  | BG.Contracts.Blockinfo_dep -> Core.Scanner.Blockinfo_dep
  | BG.Contracts.Rollback -> Core.Scanner.Rollback
  | BG.Contracts.State_io -> Core.Scanner.State_io
  | BG.Contracts.Fake_transfer -> Core.Scanner.Fake_transfer
  | BG.Contracts.Asset_overflow -> Core.Scanner.Asset_overflow

let gen_seed salt seed = Rand.mix (Int64.of_int salt) (Int64.of_int seed)

let of_sample (s : BG.Corpus.sample) =
  {
    c_module = s.BG.Corpus.smp_module;
    c_abi = s.BG.Corpus.smp_abi;
    c_truth = s.BG.Corpus.smp_truth;
    c_flag = Some (flag_of_vuln s.BG.Corpus.smp_class);
  }

let contracts_of_fleet ~salt seed = function
  | Mainnet count ->
      List.map
        (fun (d : BG.Mainnet.deployed) ->
          {
            c_module = d.BG.Mainnet.dep_module;
            c_abi = d.BG.Mainnet.dep_abi;
            c_truth = BG.Mainnet.truth_any d;
            c_flag = None;
          })
        (BG.Mainnet.generate ~seed:(gen_seed salt seed) ~count ())
  | Verification scale ->
      List.map of_sample
        (BG.Corpus.verification ~seed:(gen_seed salt seed) ~scale ())
  | Ground_truth scale ->
      List.map of_sample
        (BG.Corpus.ground_truth ~seed:(gen_seed salt seed) ~scale ())

let write_fleet dir prefix contracts =
  Fsutil.mkdir_p dir;
  List.mapi
    (fun i c ->
      let name = name_of prefix i in
      let base = Filename.concat dir (name ^ ".wasm") in
      write_file base (Wasai_wasm.Encode.encode c.c_module);
      write_file (base ^ ".abi") (Abi.to_text c.c_abi);
      (name, c))
    contracts

let write_labels path named =
  write_file path
    (String.concat ""
       (List.map
          (fun (name, c) ->
            Printf.sprintf "%s\t%d\t%s\n" name
              (if c.c_truth then 1 else 0)
              (match c.c_flag with
              | Some f -> Core.Scanner.string_of_flag f
              | None -> "-"))
          named))

(* The open-loop schedules, drawn before any run: [schedules] seeded
   shuffles of the requests, each with its own exponential inter-arrival
   gaps at [rate].  Trial [i] of a run replays schedule [i mod
   schedules], so a run's pooled latencies cover several arrival
   patterns, not one seed's bursts. *)
let schedules = 4
let schedule_in gen i = Filename.concat gen (Printf.sprintf "schedule-%d.tsv" i)

let write_schedules dir ~seed ~rate items =
  for i = 0 to schedules - 1 do
    let rng = Rand.create (Rand.mix (gen_seed 9 seed) (Int64.of_int i)) in
    let items = Rand.shuffle rng (Array.of_list items) in
    let due = ref 0. in
    let b = Buffer.create 4096 in
    Array.iter
      (fun (kind, dir, name) ->
        let u = (float_of_int (Rand.int rng 1_000_000) +. 0.5) /. 1e6 in
        due := !due -. (log u /. rate);
        Printf.bprintf b "%.6f\t%s\t%s\t%s\n" !due kind dir name)
      items;
    write_file (schedule_in dir i) (Buffer.contents b)
  done

let gen w seed dir =
  Fsutil.mkdir_p dir;
  let named =
    write_fleet
      (Filename.concat dir (if is_serve w then "fresh" else "fleet"))
      (if is_serve w then "fr" else "af")
      (contracts_of_fleet ~salt:1 seed w.w_fleet)
  in
  write_labels (Filename.concat dir "labels.tsv") named;
  if is_serve w then begin
    let jdir = Filename.concat dir "journaled" in
    let journaled =
      write_fleet jdir "jn"
        (contracts_of_fleet ~salt:2 seed (Mainnet w.w_journaled))
    in
    let root = Filename.concat dir "root" in
    Fsutil.mkdir_p (Filename.concat root tenant);
    ignore
      (Campaign.run
         (Campaign.make_config ~jobs:1 ~journal:(journal_in root)
            ~corpus:(corpus_in root) ~engine:(engine_of w) ())
         (Discover.dir jdir));
    let rng = Rand.create (gen_seed 3 seed) in
    let cached =
      Rand.shuffle rng (Array.of_list (List.map fst journaled))
      |> Array.to_list
      |> List.filteri (fun i _ -> i < w.w_cached)
    in
    write_schedules dir ~seed ~rate:w.w_rate
      (List.map (fun (n, _) -> ("fresh", "fresh", n)) named
      @ List.map (fun n -> ("cached", "journaled", n)) cached)
  end
  else
    write_schedules dir ~seed ~rate:w.w_rate
      (List.filteri
         (fun i _ -> i < w.w_cached)
         (List.map (fun (n, _) -> ("cached", "fleet", n)) named))

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let load_labels gen =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ name; truth; flag ] ->
          let flag =
            List.find_opt
              (fun f -> Core.Scanner.string_of_flag f = flag)
              Core.Scanner.all_flags
          in
          Hashtbl.replace tbl name (truth = "1", flag)
      | _ -> failwith ("bad label line: " ^ line))
    (read_lines (Filename.concat gen "labels.tsv"));
  tbl

(* Verdicts scored against the planted labels: the class's flag when the
   contract has a class, any flag otherwise. *)
let detection_f1 labels (entries : Journal.entry list) =
  let conf = Metrics.empty () in
  List.iter
    (fun (e : Journal.entry) ->
      match Hashtbl.find_opt labels e.Journal.je_name with
      | None -> ()
      | Some (truth, flag) ->
          let predicted =
            match flag with
            | Some f -> List.assoc_opt f e.Journal.je_flags = Some true
            | None -> List.exists snd e.Journal.je_flags
          in
          Metrics.record conf ~truth ~predicted)
    entries;
  (Metrics.f1 conf, Metrics.total conf)

let digest_of (entries : Journal.entry list) =
  let r = Campaign.of_entries entries in
  Digest.to_hex
    (Digest.string (Campaign.verdicts_text r ^ Campaign.evidence_text r))

(* Counters that are a pure function of (seed, workload) at one worker
   domain — the determinism contract of {!Core.Engine.fuzz}. *)
let count_guards (entries : Journal.entry list) =
  let sum f = List.fold_left (fun a e -> a + f e) 0 entries in
  let st =
    List.fold_left
      (fun a (e : Journal.entry) -> Solver.stats_add a e.Journal.je_solver)
      Solver.stats_zero entries
  in
  [
    ("targets", List.length entries);
    ("payloads", sum (fun e -> e.Journal.je_transactions));
    ("rounds", sum (fun e -> e.Journal.je_rounds));
    ("branches", sum (fun e -> e.Journal.je_branches));
    ("seeds", sum (fun e -> e.Journal.je_seeds_total));
    ("adaptive_seeds", sum (fun e -> e.Journal.je_adaptive_seeds));
    ("flips_solved", sum (fun e -> e.Journal.je_solver_sat));
    ("imprecise", sum (fun e -> e.Journal.je_imprecise));
    ("solver_quick", st.Solver.st_quick);
    ("solver_blasted", st.Solver.st_blasted);
    ("solver_unknown", st.Solver.st_unknown);
    ("cache_hits", st.Solver.st_cache_hits);
    ("cache_misses", st.Solver.st_cache_misses);
  ]

(* ------------------------------------------------------------------ *)
(* Open-loop client                                                    *)
(* ------------------------------------------------------------------ *)

type request = {
  rq_due : float;  (** seconds after the session start *)
  rq_fresh : bool;
  rq_name : string;
  rq_line : string;  (** the complete SUBMIT line, built before the run *)
}

type reply = {
  mutable rp_done : float;  (** nan until settled *)
  mutable rp_entry : Journal.entry option;
  mutable rp_kind : Wire.verdict_kind option;
  mutable rp_error : string option;
}

type conn = { fd : Unix.file_descr; mutable pending : string }

let write_all c s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring c.fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let chunk = Bytes.create 65536

(* The complete response lines that arrive within [timeout] seconds. *)
let read_lines_within c timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> []
  | _ ->
      let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith "daemon closed the connection";
      let parts =
        String.split_on_char '\n' (c.pending ^ Bytes.sub_string chunk 0 n)
      in
      let rec split = function
        | [ last ] ->
            c.pending <- last;
            []
        | line :: rest -> line :: split rest
        | [] -> []
      in
      split parts
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let parse_response line =
  match Wire.response_of_line line with
  | Ok r -> r
  | Error reason -> failwith ("malformed response: " ^ reason)

(* Send one request and wait for the reply [pick] accepts. *)
let request c req pick =
  write_all c (Wire.line_of_request req ^ "\n");
  let deadline = now () +. 30. in
  let rec await () =
    if now () > deadline then failwith "no reply from the daemon";
    match
      List.find_map
        (fun l -> pick (parse_response l))
        (read_lines_within c 1.)
    with
    | Some v -> v
    | None -> await ()
  in
  await ()

(* Send every request at its due time (or as soon after as the generator
   can), read verdicts as they stream back, and settle each request
   once: with a verdict, or with a failure (BUSY, ERR, or no verdict by
   the drain deadline).  Returns the session start and the generator's
   worst lateness. *)
let run_session c (reqs : request array) replies =
  let n = Array.length reqs in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i r -> Hashtbl.replace index r.rq_name i) reqs;
  let settled = ref 0 in
  let settle name f =
    match Hashtbl.find_opt index name with
    | Some i when Float.is_nan replies.(i).rp_done ->
        replies.(i).rp_done <- now ();
        f replies.(i);
        incr settled
    | _ -> ()
  in
  let handle line =
    match parse_response line with
    | Wire.Verdict { rp_kind; rp_entry; _ } ->
        settle rp_entry.Journal.je_name (fun r ->
            r.rp_entry <- Some rp_entry;
            r.rp_kind <- Some rp_kind)
    | Wire.Busy { rp_name; _ } ->
        settle rp_name (fun r -> r.rp_error <- Some "busy")
    | Wire.Err { rp_name = Some name; rp_reason } ->
        settle name (fun r -> r.rp_error <- Some rp_reason)
    | Wire.Err { rp_name = None; rp_reason } ->
        failwith ("daemon: " ^ rp_reason)
    | _ -> ()
  in
  let start = now () +. 0.02 in
  let last_due = if n = 0 then 0. else reqs.(n - 1).rq_due in
  let deadline = start +. last_due +. drain_timeout in
  let next = ref 0 in
  let lag = ref 0. in
  while !settled < n && now () < deadline do
    let t = now () in
    if !next < n && t >= start +. reqs.(!next).rq_due then begin
      lag := Float.max !lag (t -. (start +. reqs.(!next).rq_due));
      write_all c reqs.(!next).rq_line;
      incr next
    end
    else
      let wake =
        if !next < n then start +. reqs.(!next).rq_due else deadline
      in
      List.iter handle (read_lines_within c (wake -. t))
  done;
  Array.iter
    (fun r -> if Float.is_nan r.rp_done then r.rp_error <- Some "timeout")
    replies;
  (start, !lag)

let load_schedule gen index =
  List.map
    (fun line ->
      match String.split_on_char '\t' line with
      | [ due; kind; dir; name ] ->
          let path =
            Filename.concat (Filename.concat gen dir) (name ^ ".wasm")
          in
          let rq =
            Wire.Submit
              {
                rq_tenant = tenant;
                rq_name = name;
                rq_wasm = read_file path;
                rq_abi = Some (read_file (path ^ ".abi"));
                rq_slices = 1;
              }
          in
          {
            rq_due = float_of_string due;
            rq_fresh = kind = "fresh";
            rq_name = name;
            rq_line = Wire.line_of_request rq ^ "\n";
          }
      | _ -> failwith ("bad schedule line: " ^ line))
    (read_lines (schedule_in gen (index mod schedules)))
  |> Array.of_list

(* A daemon resumed over the configured root: the CPU time [Serve.create]
   took, and the CPU time until its first PONG.  Waiting for the host
   does not count; the worker domain's start-up does. *)
let start_daemon cfg =
  let t0 = cpu_now () in
  let t = Serve.create cfg in
  let created = cpu_now () -. t0 in
  (* The I/O loop runs on a thread of this domain, as the client does:
     only the daemon's worker is a second domain, so minor collections
     stop two domains, as in a standalone daemon. *)
  let d = Thread.create Serve.serve t in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX cfg.Serve.sv_socket);
  let c = { fd; pending = "" } in
  request c Wire.Ping (function Wire.Pong _ -> Some () | _ -> None);
  ((t, d, c), created, cpu_now () -. t0)

let stop_daemon (t, d, c) =
  Serve.request_stop t;
  Thread.join d;
  Unix.close c.fd

(* serve.qwait_p50_s from the METRICS exposition: the median of the
   tenant's queue-wait histogram, interpolated inside its bucket (0 when
   no submission was queued). *)
let qwait_p50 body =
  let prefix =
    Printf.sprintf "wasai_queue_wait_seconds_bucket{tenant=\"%s\",le=\"" tenant
  in
  let pl = String.length prefix in
  let buckets =
    List.filter_map
      (fun line ->
        if String.length line > pl && String.sub line 0 pl = prefix then
          match String.index_from_opt line pl '"' with
          | Some q ->
              let le = String.sub line pl (q - pl) in
              let count =
                String.sub line (q + 2) (String.length line - q - 2)
              in
              Some
                ( (if le = "+Inf" then Float.infinity else float_of_string le),
                  float_of_string (String.trim count) )
          | None -> None
        else None)
      (String.split_on_char '\n' body)
  in
  let total = List.fold_left (fun _ (_, c) -> c) 0. buckets in
  let target = 0.5 *. total in
  let rec go lo_bound lo_count = function
    | [] -> lo_bound
    | (le, cum) :: rest ->
        if cum < target then go le cum rest
        else if le = Float.infinity then lo_bound
        else
          lo_bound
          +. ((le -. lo_bound) *. (target -. lo_count) /. (cum -. lo_count))
  in
  if total = 0. then 0. else go 0. 0. buckets

(* ------------------------------------------------------------------ *)
(* Per-layer ledger                                                    *)
(* ------------------------------------------------------------------ *)

let stage_row (snap : Telemetry.snapshot) st =
  match List.find_opt (fun (s, _, _) -> s = st) snap.Telemetry.ts_stages with
  | Some (_, n, ns) -> (n, float_of_int ns /. 1e9)
  | None -> (0, 0.)

let stage_s snap st = snd (stage_row snap st)

type ledger_input = {
  li_snap : Telemetry.snapshot;
  li_entries : Journal.entry list;  (** the verdicts this trial fuzzed *)
  li_fuzz_wall : float;  (** wall time of the fuzzing *)
  li_fuzz_spans : Telemetry.stage list;  (** stages inside that time *)
  li_setup_total : float;  (** [Engine.setup] over the targets, from outside *)
  li_plan_s : float;
  li_journal_load_s : float;
  li_corpus_load_s : float;
  li_corpus_added : int;
  li_resume_s : float;
  li_qwait_p50 : float;
  li_busy : int;
  li_errors : int;
  li_lag : float;
  li_truncated : int;
  li_gc0 : Gc.stat;
  li_gc1 : Gc.stat;
}

let ledger li =
  let g = count_guards li.li_entries in
  let c k = List.assoc k g in
  let snap = li.li_snap in
  let queries = c "solver_quick" + c "solver_blasted" + c "cache_hits" in
  let blast_s = stage_s snap Telemetry.Solver_blast in
  let spanned =
    List.fold_left (fun a st -> a +. stage_s snap st) 0. li.li_fuzz_spans
  in
  (* Setup work outside the instrument and compile spans (chain boot,
     seeding) also sits inside the fuzz wall time. *)
  let setup_unspanned =
    Float.max 0.
      (li.li_setup_total
      -. stage_s snap Telemetry.Instrument
      -. stage_s snap Telemetry.Compile)
  in
  let exec_s =
    stage_s snap Telemetry.Exec_compiled +. stage_s snap Telemetry.Exec_interp
  in
  let journal_appends, journal_s = stage_row snap Telemetry.Journal_fsync in
  let minor = li.li_gc1.Gc.minor_words -. li.li_gc0.Gc.minor_words in
  let per_payload x = x /. float_of_int (max 1 (c "payloads")) in
  [
    ("smt.blast_s", Num blast_s);
    ( "smt.ms_per_blast",
      Num (1000. *. blast_s /. float_of_int (max 1 (c "solver_blasted"))) );
    ("smt.blasted", Int (c "solver_blasted"));
    ("smt.quick", Int (c "solver_quick"));
    ("smt.unknown", Int (c "solver_unknown"));
    ("smt.cache_hits", Int (c "cache_hits"));
    ("smt.cache_misses", Int (c "cache_misses"));
    ( "smt.quick_share",
      Num (ratio (c "solver_quick") (c "solver_quick" + c "solver_blasted")) );
    ( "smt.cache_hit_rate",
      Num (ratio (c "cache_hits") (c "cache_hits" + c "cache_misses")) );
    ("symbolic.flips_solved", Int (c "flips_solved"));
    ("symbolic.imprecise", Int (c "imprecise"));
    ("symbolic.solve_yield", Num (ratio (c "flips_solved") queries));
    ("engine.unspanned_s", Num (li.li_fuzz_wall -. spanned -. setup_unspanned));
    ( "engine.setup_ms_per_target",
      Num (1000. *. li.li_setup_total /. float_of_int (max 1 (c "targets"))) );
    ("engine.payloads", Int (c "payloads"));
    ("engine.rounds", Int (c "rounds"));
    ("engine.adaptive_seeds", Int (c "adaptive_seeds"));
    ("engine.adaptive_share", Num (ratio (c "adaptive_seeds") (c "seeds")));
    ("engine.oracle_s", Num (stage_s snap Telemetry.Oracle));
    ("engine.truncated", Int li.li_truncated);
    ("exec.compiled_s", Num (stage_s snap Telemetry.Exec_compiled));
    ("exec.us_per_payload", Num (1e6 *. per_payload exec_s));
    ("wasm.compile_s", Num (stage_s snap Telemetry.Compile));
    ("wasabi.instrument_s", Num (stage_s snap Telemetry.Instrument));
    ("wasabi.trace_scan_s", Num (stage_s snap Telemetry.Trace_scan));
    ("campaign.load_validate_s", Num (stage_s snap Telemetry.Load_validate));
    ("campaign.plan_s", Num li.li_plan_s);
    ("campaign.journal_append_s", Num journal_s);
    ("campaign.journal_appends", Int journal_appends);
    ("corpus.io_s", Num (stage_s snap Telemetry.Corpus_io));
    ("corpus.records_added", Int li.li_corpus_added);
    ("corpus.load_s", Num li.li_corpus_load_s);
    ("serve.resume_s", Num li.li_resume_s);
    ("serve.journal_load_s", Num li.li_journal_load_s);
    ("serve.qwait_p50_s", Num li.li_qwait_p50);
    ("serve.busy", Int li.li_busy);
    ("serve.errors", Int li.li_errors);
    ("serve.generator_lag_max_s", Num li.li_lag);
    ("gc.minor_words_per_payload", Num (per_payload minor));
    ( "gc.minor_collections",
      Int (li.li_gc1.Gc.minor_collections - li.li_gc0.Gc.minor_collections) );
    ( "gc.major_collections",
      Int (li.li_gc1.Gc.major_collections - li.li_gc0.Gc.major_collections) );
    ("gc.top_heap_words", Int li.li_gc1.Gc.top_heap_words);
  ]

(* [Engine.setup] over every target, timed from outside, with telemetry
   off so the outside pass leaves the span ledger alone. *)
let time_setups engine (specs : Campaign.target_spec list) =
  Telemetry.disable ();
  List.fold_left
    (fun acc (s : Campaign.target_spec) ->
      let target = s.Campaign.sp_load () in
      acc +. snd (time (fun () -> ignore (Core.Engine.setup engine target))))
    0. specs

let median_time k f = median (List.init k (fun _ -> snd (time f)))

(* ------------------------------------------------------------------ *)
(* Trial: the resubmission session both kinds of workload end with     *)
(* ------------------------------------------------------------------ *)

type session = {
  ss_reqs : request array;
  ss_replies : reply array;
  ss_start : float;
  ss_lag : float;
  ss_metrics : string;  (** METRICS body ("" when untraced) *)
}

(* Latency of each settled request of one kind, from its due time. *)
let latencies s ~fresh =
  List.concat
    (List.mapi
       (fun i (r : request) ->
         let rp = s.ss_replies.(i) in
         if r.rq_fresh = fresh && rp.rp_error = None then
           [ rp.rp_done -. (s.ss_start +. r.rq_due) ]
         else [])
       (Array.to_list s.ss_reqs))

(* A request fails when it got no verdict, a verdict of the wrong kind,
   or, when cached, a journal line other than the one the journal
   holds. *)
let session_failures s ~expected_cached =
  let failed = ref 0 and busy = ref 0 and errors = ref 0 in
  Array.iteri
    (fun i (r : request) ->
      let ok =
        match s.ss_replies.(i) with
        | { rp_error = Some "busy"; _ } ->
            incr busy;
            false
        | { rp_error = Some _; _ } ->
            incr errors;
            false
        | { rp_kind = Some Wire.Fresh; rp_entry = Some _; _ } -> r.rq_fresh
        | { rp_kind = Some Wire.Cached; rp_entry = Some e; _ } ->
            (not r.rq_fresh)
            && Hashtbl.find_opt expected_cached r.rq_name
               = Some (Journal.line_of_entry e)
        | _ -> false
      in
      if not ok then incr failed)
    s.ss_reqs;
  (!failed, !busy, !errors)

let entries_of s kind =
  List.filter_map
    (fun rp ->
      match (rp.rp_kind, rp.rp_entry) with
      | Some k, Some e when k = kind -> Some e
      | _ -> None)
    (Array.to_list s.ss_replies)

let cached_digest s = digest_of (entries_of s Wire.Cached)

let run_requests ~trace daemon reqs =
  let _, _, c = daemon in
  let replies =
    Array.map
      (fun _ ->
        { rp_done = Float.nan; rp_entry = None; rp_kind = None; rp_error = None })
      reqs
  in
  let start, lag = run_session c reqs replies in
  let body =
    if trace then
      request c Wire.Metrics (function
        | Wire.MetricsReply { rp_body } -> Some rp_body
        | _ -> None)
    else ""
  in
  stop_daemon daemon;
  {
    ss_reqs = reqs;
    ss_replies = replies;
    ss_start = start;
    ss_lag = lag;
    ss_metrics = body;
  }

let expected_lines path =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun (e : Journal.entry) ->
      Hashtbl.replace tbl e.Journal.je_name (Journal.line_of_entry e))
    (Journal.load path);
  tbl

let heap_mb (st : Gc.stat) =
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let serve_config w =
  Serve.make_config ~root:"root" ~socket ~jobs:1 ~depth:64 ~resume:true
    ~engine:(engine_of w) ()

(* [samples] are the raw set-up, fresh and cached timings: run.py pools
   them over a run's trials before it takes percentiles. *)
let print_result ~attempted ~failed ~e2e ~samples:(setup, fresh, cached)
    ~guards ~gc ~digest ~layer =
  let arr xs = Arr (List.map (fun x -> Num x) xs) in
  print_endline
    (json_to_string
       (Obj
          ([
             ("attempted", Int attempted);
             ("failed", Int failed);
             ("e2e", Obj (List.map (fun (k, v) -> (k, Num v)) e2e));
             ( "samples",
               Obj
                 [
                   ("setup", arr setup);
                   ("fresh", arr fresh);
                   ("cached", arr cached);
                 ] );
             ("guards", Obj (List.map (fun (k, v) -> (k, Int v)) guards));
             ("gc", Obj (List.map (fun (k, v) -> (k, Int v)) gc));
             ("digest", Str digest);
           ]
          @ match layer with Some l -> [ ("layer", Obj l) ] | None -> [])))

(* ------------------------------------------------------------------ *)
(* Trial: batch workloads                                              *)
(* ------------------------------------------------------------------ *)

let with_stderr_to path f =
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f

(* Payloads the campaign reported as truncated at the collector limit. *)
let truncated_in path =
  List.fold_left
    (fun acc line ->
      match
        Scanf.sscanf line "wasai: warning: %_s@: %d payload trace" Fun.id
      with
      | n -> acc + n
      | exception _ -> acc)
    0 (read_lines path)

(* A traced campaign stamps its journal [telemetry=on]; a daemon resumes
   only the untraced stamp, so the resubmission sweep gets the journal
   with the header an untraced campaign writes. *)
let untraced_header path engine =
  match read_lines path with
  | first :: rest when Result.is_ok (Journal.header_of_line first) ->
      write_file path
        (String.concat "\n"
           (Journal.line_of_header
              {
                Journal.jh_backend = engine.Core.Engine.cfg_backend;
                jh_telemetry = false;
              }
           :: rest)
        ^ "\n")
  | _ -> ()

let batch_trial w ~gen ~index ~trace =
  let engine = engine_of w in
  let fleet = Filename.concat gen "fleet" in
  let labels = load_labels gen in
  Fsutil.mkdir_p (Filename.concat "root" tenant);
  let journal = journal_in "root" and corpus = corpus_in "root" in
  let completed = ref 0 in
  (* Process CPU time at each target's completion.  At one job the
     campaign runs every target on this thread and calls [progress]
     right after journaling it, and no other thread exists yet, so the
     gaps are the targets' own CPU times. *)
  let marks = ref [] in
  let cfg =
    Campaign.make_config ~jobs:1 ~journal ~corpus ~telemetry:trace
      ~progress:(fun _ ->
        incr completed;
        marks := cpu_now () :: !marks)
      ~engine ()
  in
  (* Set-up: what [campaign run] does before it fuzzes anything, in CPU
     seconds like the fuzzing figures. *)
  let setups =
    List.init batch_setup_reps (fun _ ->
        let t0 = cpu_now () in
        let specs = Discover.dir fleet in
        let t1 = cpu_now () in
        ignore (Campaign.plan cfg specs);
        let t2 = cpu_now () in
        (t2 -. t0, t2 -. t1))
  in
  let specs = Discover.dir fleet in
  let gc0 = Gc.quick_stat () in
  let cpu0 = cpu_now () in
  let report =
    with_stderr_to "campaign.err" (fun () ->
        match Campaign.run cfg specs with
        | r -> Some r
        | exception Failure msg ->
            prerr_endline msg;
            None)
  in
  let cpu1 = cpu_now () in
  let gc1 = Gc.quick_stat () in
  prerr_string (read_file "campaign.err");
  (* Loaded only now: the schedules differ between trials, and the heap
     the campaign starts from must not, or its GC counts would. *)
  let reqs = load_schedule gen index in
  let target_cpu =
    snd
      (List.fold_left
         (fun (prev, acc) m -> (m, (m -. prev) :: acc))
         (cpu0, []) (List.rev !marks))
  in
  match report with
  | None ->
      print_result ~attempted:(List.length specs)
        ~failed:(List.length specs - !completed)
        ~e2e:[] ~samples:([], [], []) ~guards:[] ~gc:[] ~digest:""
        ~layer:None
  | Some report ->
      let entries = report.Campaign.cr_results in
      let truncated = truncated_in "campaign.err" in
      let guards =
        count_guards entries
        @ [
            ("truncated", truncated);
            ("corpus_added", report.Campaign.cr_corpus_added);
          ]
      in
      let snap = if trace then Some (Telemetry.snapshot ()) else None in
      let setup_total, journal_load_s, corpus_load_s =
        if trace then begin
          untraced_header journal engine;
          ( time_setups engine specs,
            median_time 3 (fun () -> ignore (Journal.load_full journal)),
            median_time 3 (fun () -> ignore (Corpus.load corpus)) )
        end
        else (0., 0., 0.)
      in
      let expected = expected_lines journal in
      let daemon, created, _ = start_daemon (serve_config w) in
      let s = run_requests ~trace daemon reqs in
      let failed, busy, errors = session_failures s ~expected_cached:expected in
      let f1, scored = detection_f1 labels entries in
      let elapsed = List.map (fun e -> e.Journal.je_elapsed) entries in
      let cached = latencies s ~fresh:false in
      let payloads = float_of_int (List.assoc "payloads" guards) in
      let e2e =
        [
          ("setup_s", median (List.map fst setups));
          ("payloads_per_s", payloads /. (cpu1 -. cpu0));
          ("branches", float_of_int (Campaign.total_branches report));
          ("detection_f1", f1);
          ("peak_heap_mb", heap_mb gc1);
          ("fresh_p50_s", quantile target_cpu 0.5);
          ("fresh_p90_s", quantile target_cpu 0.9);
          ("cached_p50_s", median cached);
          ("wall_payloads_per_s", payloads /. report.Campaign.cr_wall);
          ("wall_p50_s", quantile elapsed 0.5);
          ("wall_p90_s", quantile elapsed 0.9);
          ("fresh_samples", float_of_int (List.length target_cpu));
          ("cached_samples", float_of_int (List.length cached));
          ("scored", float_of_int scored);
        ]
      in
      let layer =
        Option.map
          (fun snap ->
            ledger
              {
                li_snap = snap;
                li_entries = entries;
                li_fuzz_wall = report.Campaign.cr_wall;
                li_fuzz_spans = Telemetry.stages;
                li_setup_total = setup_total;
                li_plan_s = median (List.map snd setups);
                li_journal_load_s = journal_load_s;
                li_corpus_load_s = corpus_load_s;
                li_corpus_added = report.Campaign.cr_corpus_added;
                li_resume_s = created;
                li_qwait_p50 = qwait_p50 s.ss_metrics;
                li_busy = busy;
                li_errors = errors;
                li_lag = s.ss_lag;
                li_truncated = truncated;
                li_gc0 = gc0;
                li_gc1 = gc1;
              })
          snap
      in
      print_result
        ~attempted:(List.length specs + Array.length reqs)
        ~failed:(failed + List.length specs - List.length entries)
        ~e2e ~samples:(List.map fst setups, target_cpu, cached)
        ~guards
        ~gc:
          [
            ( "minor_words",
              int_of_float (gc1.Gc.minor_words -. gc0.Gc.minor_words) );
            ("top_heap_words", gc1.Gc.top_heap_words);
          ]
        ~digest:(digest_of entries ^ "/" ^ cached_digest s)
        ~layer

(* ------------------------------------------------------------------ *)
(* Trial: serve-mixed                                                  *)
(* ------------------------------------------------------------------ *)

let serve_trial w ~gen ~index ~trace =
  let engine = engine_of w in
  let labels = load_labels gen in
  let groot = Filename.concat gen "root" in
  Fsutil.mkdir_p (Filename.concat "root" tenant);
  write_file (journal_in "root") (read_file (journal_in groot));
  write_file (corpus_in "root") (read_file (corpus_in groot));
  let expected = expected_lines (journal_in groot) in
  let reqs = load_schedule gen index in
  let gc0 = Gc.quick_stat () in
  (* Set-up: resume over the tenant root until the first PONG, several
     times; the last daemon serves the session. *)
  let rec cycles k acc =
    let daemon, created, ready = start_daemon (serve_config w) in
    if k <= 1 then (daemon, (created, ready) :: acc)
    else begin
      stop_daemon daemon;
      cycles (k - 1) ((created, ready) :: acc)
    end
  in
  let daemon, setups = cycles serve_setup_reps [] in
  Telemetry.reset ();
  let cpu0 = cpu_now () in
  let s = run_requests ~trace daemon reqs in
  let cpu1 = cpu_now () in
  let gc1 = Gc.quick_stat () in
  let failed, busy, errors = session_failures s ~expected_cached:expected in
  let fresh = entries_of s Wire.Fresh in
  let fresh_lat = latencies s ~fresh:true in
  let cached_lat = latencies s ~fresh:false in
  let sum f = List.fold_left (fun a e -> a +. f e) 0. fresh in
  let guards = count_guards fresh @ [ ("cached", List.length cached_lat) ] in
  let f1, scored = detection_f1 labels fresh in
  (* The worker's fuzzing time: the sum of the fresh verdicts' own
     elapsed fields, so the open-loop rate does not set the figure. *)
  let fuzz_s = sum (fun e -> e.Journal.je_elapsed) in
  let payloads = sum (fun e -> float_of_int e.Journal.je_transactions) in
  let e2e =
    [
      ("setup_s", median (List.map snd setups));
      (* Per CPU second of the whole session: the client and the I/O
         loop sleep between requests, so nearly all of it is the
         worker's fuzzing. *)
      ("payloads_per_s", payloads /. (cpu1 -. cpu0));
      ("branches", sum (fun e -> float_of_int e.Journal.je_branches));
      ("detection_f1", f1);
      ("peak_heap_mb", heap_mb gc1);
      ("fresh_p50_s", quantile fresh_lat 0.5);
      ("fresh_p90_s", quantile fresh_lat 0.9);
      ("cached_p50_s", quantile cached_lat 0.5);
      ("wall_payloads_per_s", payloads /. fuzz_s);
      ("fresh_samples", float_of_int (List.length fresh_lat));
      ("cached_samples", float_of_int (List.length cached_lat));
      ("scored", float_of_int scored);
    ]
  in
  let layer =
    if not trace then None
    else begin
      let snap = Telemetry.snapshot () in
      let fresh_specs = Discover.dir (Filename.concat gen "fresh") in
      let journal = journal_in "root" in
      let plan_cfg =
        Campaign.make_config ~jobs:1 ~journal ~resume:true ~engine ()
      in
      let plan_specs =
        fresh_specs @ Discover.dir (Filename.concat gen "journaled")
      in
      let plan_s =
        median_time 3 (fun () -> ignore (Campaign.plan plan_cfg plan_specs))
      in
      let setup_total = time_setups engine fresh_specs in
      (* Verdict lines do not carry truncation counts: replay the fresh
         submissions through the engine to count them. *)
      let truncated =
        List.fold_left
          (fun acc (sp : Campaign.target_spec) ->
            let o = Core.Engine.fuzz ~cfg:engine (sp.Campaign.sp_load ()) in
            acc + o.Core.Engine.out_truncated)
          0 fresh_specs
      in
      let lines path = List.length (read_lines path) in
      Some
        (ledger
           {
             li_snap = snap;
             li_entries = fresh;
             li_fuzz_wall = fuzz_s;
             li_fuzz_spans =
               Telemetry.
                 [
                   Instrument;
                   Compile;
                   Exec_interp;
                   Exec_compiled;
                   Trace_scan;
                   Oracle;
                   Solver_quick;
                   Solver_blast;
                   Solver_cache;
                 ];
             li_setup_total = setup_total;
             li_plan_s = plan_s;
             li_journal_load_s =
               median_time 3 (fun () -> ignore (Journal.load_full journal));
             li_corpus_load_s =
               median_time 3 (fun () -> ignore (Corpus.load (corpus_in "root")));
             li_corpus_added =
               lines (corpus_in "root") - lines (corpus_in groot);
             li_resume_s = median (List.map fst setups);
             li_qwait_p50 = qwait_p50 s.ss_metrics;
             li_busy = busy;
             li_errors = errors;
             li_lag = s.ss_lag;
             li_truncated = truncated;
             li_gc0 = gc0;
             li_gc1 = gc1;
           })
    end
  in
  print_result ~attempted:(Array.length reqs) ~failed ~e2e
    ~samples:(List.map snd setups, fresh_lat, cached_lat)
    ~guards ~gc:[]
    ~digest:(digest_of fresh ^ "/" ^ cached_digest s)
    ~layer

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload name =
    match List.find_opt (fun w -> w.w_name = name) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("wbench: unknown workload " ^ name);
        exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen"; name; seed; dir ] -> gen (workload name) (int_of_string seed) dir
  | [ "trial"; name; gen; index; trace ] ->
      let w = workload name in
      let index = int_of_string index and trace = trace = "1" in
      if is_serve w then serve_trial w ~gen ~index ~trace
      else batch_trial w ~gen ~index ~trace
  | _ ->
      prerr_endline
        "usage: wbench gen WORKLOAD SEED DIR\n\
        \       wbench trial WORKLOAD DIR INDEX 0|1";
      exit 2
