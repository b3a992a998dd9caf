(** The serve daemon — see serve.mli for the architecture overview. *)

module Core = Wasai_core
module Wasm = Wasai_wasm
module Campaign = Wasai_campaign.Campaign
module Journal = Wasai_campaign.Journal
module Shard = Wasai_campaign.Shard
module Store = Wasai_campaign.Store
module Work_queue = Wasai_campaign.Work_queue
module Discover = Wasai_campaign.Discover
module Metrics = Wasai_support.Metrics
module Fsutil = Wasai_support.Fsutil
module Telemetry = Wasai_telemetry.Telemetry
open Wasai_eosio

(* Longest accepted request line: a hex-encoded module rides in one
   line, so the cap bounds uploads at 32 MiB of wasm. *)
let max_line = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  sv_root : string;
  sv_socket : string;
  sv_jobs : int;
  sv_depth : int;
  sv_resume : bool;
  sv_engine : Core.Engine.config;
}

let make_config ~root ~socket ?(jobs = 1) ?(depth = 16) ?(resume = false)
    ~engine () =
  if jobs < 1 then invalid_arg "Serve.make_config: jobs must be >= 1";
  if depth < 1 then invalid_arg "Serve.make_config: depth must be >= 1";
  (* Cold runs only: the per-tenant corpus is write-only (see .mli). *)
  let engine = { engine with Core.Engine.cfg_preload = [] } in
  {
    sv_root = root;
    sv_socket = socket;
    sv_jobs = jobs;
    sv_depth = depth;
    sv_resume = resume;
    sv_engine = engine;
  }

(* Serve runs are unsharded: the tenant registry, not a shard hash,
   partitions the work. *)
let stamp_of_engine (engine : Core.Engine.config) : Journal.stamp =
  {
    Journal.js_shard = Shard.whole;
    js_seed = engine.Core.Engine.cfg_rng_seed;
    js_rounds = engine.Core.Engine.cfg_rounds;
  }

let tenant_dir ~root tenant = Filename.concat root tenant
let journal_path ~root tenant = Filename.concat (tenant_dir ~root tenant) "journal"
let corpus_path ~root tenant = Filename.concat (tenant_dir ~root tenant) "corpus"

(* ------------------------------------------------------------------ *)
(* Daemon state                                                        *)
(* ------------------------------------------------------------------ *)

type job = {
  jb_conn : int;
  jb_tenant : string;
  jb_name : string;
  jb_wasm : string;
  jb_abi : string option;
  jb_submitted : float;
}

type tenant_state = {
  tn_name : string;
  tn_store : Store.t;  (** journal + corpus; its [find] is the verdict cache *)
  tn_inflight : (string, unit) Hashtbl.t;
  tn_qwait : Metrics.Histogram.t;
  tn_latency : Metrics.Histogram.t;
  mutable tn_submitted : int;
  mutable tn_completed : int;
  mutable tn_rejected : int;
}

type conn = {
  cn_id : int;
  cn_fd : Unix.file_descr;
  cn_in : Buffer.t;  (** bytes read, not yet split into a line *)
  mutable cn_out : string;  (** bytes queued, not yet written *)
  mutable cn_closing : bool;  (** close once [cn_out] drains *)
}

type t = {
  cfg : config;
  started : float;  (** [Unix.gettimeofday] at {!create}, for uptime *)
  lock : Mutex.t;  (** guards tenants and completions (their one lock) *)
  tenants : (string, tenant_state) Hashtbl.t;
  queue : job Work_queue.t;
  completions : (int * Wire.response) Queue.t;
  outstanding : int Atomic.t;  (** admitted jobs not yet completed *)
  aborting : bool Atomic.t;
  stop_flag : bool Atomic.t;
      (** set by {!request_stop} (possibly from a signal handler, hence
          no lock); the I/O loop turns it into [Work_queue.close] *)
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (** self-pipe: workers nudge the select loop *)
  wake_w : Unix.file_descr;
  wakers : int Atomic.t;  (** {!wake} calls that may still write [wake_w] *)
  wake_closed : bool Atomic.t;  (** set before [wake_w] is closed *)
  conns : (int, conn) Hashtbl.t;
  read_buf : Bytes.t;
      (** every [read_conn] fills this; only the I/O loop reads *)
  mutable next_conn : int;
  mutable workers : unit Domain.t list;
}

(* Nonblocking and best-effort: one pending byte already guarantees a
   wakeup, so a full pipe can be ignored.  {!request_stop} may wake the
   loop from another thread or a signal handler while the loop shuts
   down and closes the pipe, so a wake counts itself in [wakers] before
   it looks at [wake_closed], and [close_wake] closes the write end only
   once no wake is in flight: a late wake writes nothing, and never into
   a descriptor the process has since reused. *)
let wake t =
  Atomic.incr t.wakers;
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.wakers)
    (fun () ->
      if not (Atomic.get t.wake_closed) then
        try ignore (Unix.write_substring t.wake_w "x" 0 1)
        with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
        -> ())

let close_wake t =
  Atomic.set t.wake_closed true;
  while Atomic.get t.wakers > 0 do
    Unix.sleepf 0.001
  done;
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Tenant registry                                                     *)
(* ------------------------------------------------------------------ *)

(* A tenant's store.  Tenant journals keep the backend-only header even
   though the daemon records telemetry: the [telemetry=] stamp exists so
   campaign resumes agree about their report's breakdown, and serve
   exposes its breakdown live over METRICS instead — journal bytes stay
   identical to every earlier daemon build. *)
let open_tenant ?write ~root ~resume (engine : Core.Engine.config) ?corpus
    tenant =
  Store.open_ ?write
    ~context:(Printf.sprintf "serve tenant %s" tenant)
    ~resume
    ~header:
      { Journal.jh_backend = engine.Core.Engine.cfg_backend; jh_telemetry = false }
    ~stamp:(stamp_of_engine engine) ~journal:(journal_path ~root tenant)
    ?corpus ()

let load_tenant (cfg : config) tenant : tenant_state =
  let root = cfg.sv_root in
  Fsutil.mkdir_p (tenant_dir ~root tenant);
  {
    tn_name = tenant;
    tn_store =
      open_tenant ~root ~resume:cfg.sv_resume cfg.sv_engine
        ~corpus:(corpus_path ~root tenant) tenant;
    tn_inflight = Hashtbl.create 16;
    tn_qwait = Metrics.Histogram.create ();
    tn_latency = Metrics.Histogram.create ();
    tn_submitted = 0;
    tn_completed = 0;
    tn_rejected = 0;
  }

let scan_root root =
  if not (Sys.file_exists root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort compare
    |> List.filter (fun d ->
           Sys.is_directory (tenant_dir ~root d)
           && Sys.file_exists (journal_path ~root d))

let total_completed t =
  Hashtbl.fold (fun _ tn acc -> acc + tn.tn_completed) t.tenants 0

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let target_of_job (jb : job) : Core.Engine.target =
  let account = Name.of_string jb.jb_name in
  let t_load = Telemetry.start () in
  let m =
    (* Clients send file bytes verbatim: binary modules carry the
       \x00asm magic, anything else is treated as .wat text. *)
    if String.length jb.jb_wasm >= 4 && String.sub jb.jb_wasm 0 4 = "\x00asm"
    then Wasm.Decode.decode jb.jb_wasm
    else Wasm.Text.parse jb.jb_wasm
  in
  let abi =
    match jb.jb_abi with
    | Some text -> Abi.of_text text
    | None -> Discover.default_abi
  in
  Telemetry.stop Telemetry.Load_validate t_load;
  { Core.Engine.tgt_account = account; tgt_module = m; tgt_abi = abi }

let run_job (t : t) (jb : job) : Core.Engine.outcome =
  (* Attribute this domain's spans to the submission until the next job. *)
  if Telemetry.enabled () then
    Telemetry.set_target (Telemetry.target_id (jb.jb_tenant ^ "/" ^ jb.jb_name));
  Core.Engine.fuzz ~cfg:t.cfg.sv_engine (target_of_job jb)

let drop_inflight t jb =
  match Hashtbl.find_opt t.tenants jb.jb_tenant with
  | Some tn -> Hashtbl.remove tn.tn_inflight jb.jb_name
  | None -> ()

(* A submission's verdict reached the journal: bump the tenant counters,
   record its latencies and stream the VERDICT line.  Caller holds
   t.lock. *)
let finish_submission t (jb : job) ~started (tn : tenant_state)
    (entry : Journal.entry) =
  tn.tn_completed <- tn.tn_completed + 1;
  let finished = Unix.gettimeofday () in
  Metrics.Histogram.add tn.tn_qwait (started -. jb.jb_submitted);
  Metrics.Histogram.add tn.tn_latency (finished -. jb.jb_submitted);
  Queue.add
    ( jb.jb_conn,
      Wire.Verdict
        {
          rp_tenant = jb.jb_tenant;
          rp_kind = Wire.Fresh;
          rp_wait_ms = int_of_float (1000. *. (finished -. jb.jb_submitted));
          rp_entry = entry;
        } )
    t.completions

let worker (t : t) () =
  let rec go () =
    match Work_queue.take t.queue with
    | None -> ()
    | Some jb ->
        (if Atomic.get t.aborting then
           (* Simulated kill -9: the job dies un-journaled, exactly as a
              queued submission would under a real SIGKILL. *)
           Mutex.protect t.lock (fun () -> drop_inflight t jb)
         else
           let started = Unix.gettimeofday () in
           let outcome = try Ok (run_job t jb) with e -> Error e in
           let elapsed = Unix.gettimeofday () -. started in
           Mutex.protect t.lock (fun () ->
               drop_inflight t jb;
               let tn = Hashtbl.find t.tenants jb.jb_tenant in
               (* A failed fuzz and a failed durable write both answer ERR
                  for this name alone: the worker lives on. *)
               match
                 Result.bind outcome (fun o ->
                     try Ok (Store.complete tn.tn_store ~name:jb.jb_name ~elapsed o)
                     with e -> Error e)
               with
               | Ok (entry, _) -> finish_submission t jb ~started tn entry
               | Error e ->
                   let reason = Store.error_message e in
                   Queue.add
                     (jb.jb_conn, Wire.Err { rp_name = Some jb.jb_name; rp_reason = reason })
                     t.completions));
        (* Completion is enqueued before the decrement, so once the loop
           observes outstanding = 0 every verdict is already visible. *)
        Atomic.decr t.outstanding;
        wake t;
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Admission control (runs in the I/O loop, under t.lock)              *)
(* ------------------------------------------------------------------ *)

let retry_hint t tn =
  (* Expected time for one queue slot to free up: mean end-to-end
     latency spread over the worker pool, floored at 100 ms.  A fresh
     tenant has no samples yet; assume half a second. *)
  let mean =
    if Metrics.Histogram.count tn.tn_latency > 0 then
      Metrics.Histogram.mean tn.tn_latency
    else 0.5
  in
  let inflight = float_of_int (Hashtbl.length tn.tn_inflight) in
  max 100
    (int_of_float (1000. *. mean *. inflight /. float_of_int t.cfg.sv_jobs))

let find_or_create_tenant t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some tn -> tn
  | None ->
      let tn = load_tenant t.cfg tenant in
      Hashtbl.replace t.tenants tenant tn;
      tn

let admit t conn_id now (tenant : string) (name : string) wasm abi :
    Wire.response =
  Mutex.protect t.lock (fun () ->
      if Atomic.get t.stop_flag then
        Wire.Err { rp_name = Some name; rp_reason = "daemon is shutting down" }
      else
        match find_or_create_tenant t tenant with
        | exception e ->
            Wire.Err { rp_name = Some name; rp_reason = Store.error_message e }
        | tn -> (
            match Store.find tn.tn_store name with
            | Some entry ->
                (* Same name, already journaled: replay the recorded
                   verdict instead of re-fuzzing (resume discipline). *)
                tn.tn_submitted <- tn.tn_submitted + 1;
                Wire.Verdict
                  {
                    rp_tenant = tenant;
                    rp_kind = Wire.Cached;
                    rp_wait_ms = 0;
                    rp_entry = entry;
                  }
            | None ->
                let depth = Hashtbl.length tn.tn_inflight in
                if Hashtbl.mem tn.tn_inflight name || depth >= t.cfg.sv_depth
                then begin
                  tn.tn_rejected <- tn.tn_rejected + 1;
                  Wire.Busy
                    {
                      rp_tenant = tenant;
                      rp_name = name;
                      rp_retry_ms = retry_hint t tn;
                      rp_depth = depth;
                    }
                end
                else begin
                  Hashtbl.replace tn.tn_inflight name ();
                  tn.tn_submitted <- tn.tn_submitted + 1;
                  Atomic.incr t.outstanding;
                  Work_queue.push t.queue
                    {
                      jb_conn = conn_id;
                      jb_tenant = tenant;
                      jb_name = name;
                      jb_wasm = wasm;
                      jb_abi = abi;
                      jb_submitted = now;
                    };
                  Wire.Queued
                    {
                      rp_tenant = tenant;
                      rp_name = name;
                      rp_depth = Hashtbl.length tn.tn_inflight;
                    }
                end))

let uptime_ms t = int_of_float (1000. *. (Unix.gettimeofday () -. t.started))

let stats_reply t tenant : Wire.response =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tenants tenant with
      | None ->
          Wire.Err { rp_name = Some tenant; rp_reason = "unknown tenant" }
      | Some tn ->
          Wire.StatsReply
            {
              rp_tenant = tenant;
              rp_submitted = tn.tn_submitted;
              rp_completed = tn.tn_completed;
              rp_rejected = tn.tn_rejected;
              rp_qwait = Metrics.Histogram.to_wire tn.tn_qwait;
              rp_latency = Metrics.Histogram.to_wire tn.tn_latency;
              rp_uptime_ms = uptime_ms t;
              rp_backend =
                Core.Exec_backend.to_string
                  t.cfg.sv_engine.Core.Engine.cfg_backend;
            })

(* The Prometheus text exposition behind the METRICS verb: per-tenant
   counters and queue histograms (read under the daemon lock — the same
   lock every worker bumps them under, so the merge across domains is
   exact), plus the telemetry per-stage aggregates (exact integer sums
   over every domain's recorder). *)
let metrics_body t : string =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  Mutex.protect t.lock (fun () ->
      line "# HELP wasai_uptime_seconds Daemon uptime.";
      line "# TYPE wasai_uptime_seconds gauge";
      line "wasai_uptime_seconds %.3f" (Unix.gettimeofday () -. t.started);
      line "# HELP wasai_backend_info Active execution backend (label).";
      line "# TYPE wasai_backend_info gauge";
      line "wasai_backend_info{backend=\"%s\"} 1"
        (Core.Exec_backend.to_string t.cfg.sv_engine.Core.Engine.cfg_backend);
      line "# HELP wasai_jobs Worker domains.";
      line "# TYPE wasai_jobs gauge";
      line "wasai_jobs %d" t.cfg.sv_jobs;
      let tenants =
        Hashtbl.fold (fun _ tn acc -> tn :: acc) t.tenants []
        |> List.sort (fun a b -> compare a.tn_name b.tn_name)
      in
      List.iter
        (fun (what, get) ->
          line "# HELP wasai_tenant_%s_total Per-tenant %s submissions." what
            what;
          line "# TYPE wasai_tenant_%s_total counter" what;
          List.iter
            (fun tn ->
              line "wasai_tenant_%s_total{tenant=\"%s\"} %d" what tn.tn_name
                (get tn))
            tenants)
        [
          ("submitted", fun tn -> tn.tn_submitted);
          ("completed", fun tn -> tn.tn_completed);
          ("rejected", fun tn -> tn.tn_rejected);
        ];
      List.iter
        (fun (what, get) ->
          line "# HELP wasai_%s_seconds Per-tenant %s histogram." what what;
          line "# TYPE wasai_%s_seconds histogram" what;
          List.iter
            (fun tn ->
              let h = get tn in
              let cum = ref 0 in
              List.iter
                (fun (bound, c) ->
                  cum := !cum + c;
                  let le =
                    if Float.is_integer bound && bound <> Float.infinity then
                      Printf.sprintf "%.1f" bound
                    else if bound = Float.infinity then "+Inf"
                    else Printf.sprintf "%.6f" bound
                  in
                  line "wasai_%s_seconds_bucket{tenant=\"%s\",le=\"%s\"} %d"
                    what tn.tn_name le !cum)
                (Metrics.Histogram.buckets h);
              line "wasai_%s_seconds_sum{tenant=\"%s\"} %.6f" what tn.tn_name
                (Metrics.Histogram.sum h);
              line "wasai_%s_seconds_count{tenant=\"%s\"} %d" what tn.tn_name
                (Metrics.Histogram.count h))
            tenants)
        [
          ("queue_wait", fun tn -> tn.tn_qwait);
          ("latency", fun tn -> tn.tn_latency);
        ]);
  (* The stage aggregates live outside t.lock: the telemetry registry
     has its own, and snapshot sums are exact per recorded span. *)
  Buffer.add_string b (Telemetry.prometheus (Telemetry.snapshot ()));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Only an atomic store and a pipe write: callable from a signal
   handler without risking a self-deadlock on t.lock.  The I/O loop
   performs the actual (idempotent) queue close. *)
let request_stop t =
  Atomic.set t.stop_flag true;
  wake t

let request_abort t =
  Atomic.set t.aborting true;
  request_stop t

let create cfg : t =
  Fsutil.mkdir_p cfg.sv_root;
  (* Without [sv_resume], the first tenant holding a non-empty journal
     refuses the start. *)
  let tenants = Hashtbl.create 8 in
  List.iter
    (fun tenant -> Hashtbl.replace tenants tenant (load_tenant cfg tenant))
    (scan_root cfg.sv_root);
  (* A singleton daemon owns the socket path: a leftover file from a
     killed daemon is stale by construction, so unlink and rebind. *)
  if Sys.file_exists cfg.sv_socket then (
    try Unix.unlink cfg.sv_socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.sv_socket);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (* Span recording is always on in the daemon: METRICS must answer
     with real stage data, and the zero-interference contract (plus the
     legacy tenant-journal header above) keeps every journal line and
     verdict byte-identical to a build without telemetry.  Enabled
     before the workers spawn so every domain sees one setting. *)
  Telemetry.enable ();
  let t =
    {
      cfg;
      started = Unix.gettimeofday ();
      lock = Mutex.create ();
      tenants;
      queue = Work_queue.create ();
      completions = Queue.create ();
      outstanding = Atomic.make 0;
      aborting = Atomic.make false;
      stop_flag = Atomic.make false;
      listen_fd;
      wake_r;
      wake_w;
      wakers = Atomic.make 0;
      wake_closed = Atomic.make false;
      conns = Hashtbl.create 16;
      read_buf = Bytes.create 65536;
      next_conn = 0;
      workers = [];
    }
  in
  t.workers <- List.init cfg.sv_jobs (fun _ -> Domain.spawn (worker t));
  t

(* ------------------------------------------------------------------ *)
(* I/O loop                                                            *)
(* ------------------------------------------------------------------ *)

let send_response conn resp =
  conn.cn_out <- conn.cn_out ^ Wire.line_of_response resp ^ "\n"

let close_conn t conn =
  Hashtbl.remove t.conns conn.cn_id;
  try Unix.close conn.cn_fd with Unix.Unix_error _ -> ()

let handle_request t conn (req : Wire.request) =
  match req with
  | Wire.Ping ->
      let tenants = Mutex.protect t.lock (fun () -> Hashtbl.length t.tenants) in
      send_response conn
        (Wire.Pong { rp_jobs = t.cfg.sv_jobs; rp_tenants = tenants })
  | Wire.Stats tenant -> send_response conn (stats_reply t tenant)
  | Wire.Metrics ->
      send_response conn (Wire.MetricsReply { rp_body = metrics_body t })
  | Wire.Submit { rq_tenant; rq_name; rq_wasm; rq_abi; _ } ->
      send_response conn
        (admit t conn.cn_id (Unix.gettimeofday ()) rq_tenant rq_name rq_wasm
           rq_abi)
  | Wire.Shutdown ->
      let completed = Mutex.protect t.lock (fun () -> total_completed t) in
      send_response conn (Wire.Bye { rp_completed = completed });
      conn.cn_closing <- true;
      request_stop t

let handle_line t conn line =
  match Wire.request_of_line line with
  | Ok req -> handle_request t conn req
  | Error reason ->
      (* Strict grammar: a malformed request gets one ERR line and the
         connection is dropped. *)
      send_response conn (Wire.Err { rp_name = None; rp_reason = reason });
      conn.cn_closing <- true

(* [n] fresh bytes of [t.read_buf] arrived on [conn].  Only the new
   bytes are scanned for newlines; a partial line waits in [cn_in], so
   each byte is copied and scanned a bounded number of times however
   long the line grows. *)
let feed_conn t conn n =
  let buf = t.read_buf in
  let rec newline i =
    if i >= n || Bytes.get buf i = '\n' then i else newline (i + 1)
  in
  let rec split start =
    let i = newline start in
    if i < n then begin
      let line =
        if Buffer.length conn.cn_in = 0 then
          Bytes.sub_string buf start (i - start)
        else begin
          Buffer.add_subbytes conn.cn_in buf start (i - start);
          let line = Buffer.contents conn.cn_in in
          Buffer.reset conn.cn_in;
          line
        end
      in
      if not conn.cn_closing then handle_line t conn line;
      split (i + 1)
    end
    else if not conn.cn_closing then begin
      Buffer.add_subbytes conn.cn_in buf start (n - start);
      if Buffer.length conn.cn_in > max_line then begin
        Buffer.reset conn.cn_in;
        send_response conn
          (Wire.Err { rp_name = None; rp_reason = "request line too long" });
        conn.cn_closing <- true
      end
    end
  in
  split 0

let accept_conns t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let id = t.next_conn in
        t.next_conn <- id + 1;
        Hashtbl.replace t.conns id
          {
            cn_id = id;
            cn_fd = fd;
            cn_in = Buffer.create 4096;
            cn_out = "";
            cn_closing = false;
          };
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Stream completed verdicts to their submitting connections; a client
   that disconnected early just loses its stream (the journal already
   has the result). *)
let flush_completions t =
  let pending =
    Mutex.protect t.lock (fun () ->
        let xs = List.of_seq (Queue.to_seq t.completions) in
        Queue.clear t.completions;
        xs)
  in
  List.iter
    (fun (conn_id, resp) ->
      match Hashtbl.find_opt t.conns conn_id with
      | Some conn when not conn.cn_closing -> send_response conn resp
      | _ -> ())
    pending

let read_conn t conn =
  match Unix.read conn.cn_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> close_conn t conn
  | n -> feed_conn t conn n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

let write_conn t conn =
  match
    Unix.write_substring conn.cn_fd conn.cn_out 0 (String.length conn.cn_out)
  with
  | n ->
      conn.cn_out <- String.sub conn.cn_out n (String.length conn.cn_out - n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

let serve t =
  (* A client hanging up mid-stream must not kill the daemon. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
      | None -> ())
    (fun () ->
      let finished = ref false in
      while not !finished do
        (* The stop flag may have been set asynchronously (signal
           handler, another domain); only the I/O loop closes the queue,
           so admission (also only in this loop) can never push after
           close. *)
        if Atomic.get t.stop_flag then Work_queue.close t.queue;
        flush_completions t;
        let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
        let reads =
          t.listen_fd :: t.wake_r
          :: List.filter_map
               (fun c -> if c.cn_closing then None else Some c.cn_fd)
               conns
        in
        let writes =
          List.filter_map
            (fun c -> if c.cn_out <> "" then Some c.cn_fd else None)
            conns
        in
        (match Unix.select reads writes [] 0.2 with
         | readable, writable, _ ->
             if List.mem t.wake_r readable then drain_wake t;
             if List.mem t.listen_fd readable then accept_conns t;
             List.iter
               (fun c ->
                 if Hashtbl.mem t.conns c.cn_id && List.mem c.cn_fd readable
                 then read_conn t c)
               conns;
             List.iter
               (fun c ->
                 if Hashtbl.mem t.conns c.cn_id && List.mem c.cn_fd writable
                 then write_conn t c)
               conns
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        (* Completed jobs may have landed during select. *)
        flush_completions t;
        (* Drop connections whose goodbye has fully drained. *)
        Hashtbl.iter
          (fun _ c -> if c.cn_closing && c.cn_out = "" then close_conn t c)
          (Hashtbl.copy t.conns);
        if Atomic.get t.stop_flag && Atomic.get t.outstanding = 0 then begin
          Work_queue.close t.queue;
          (* Workers are idle on a closed, drained queue: join them,
             then flush what their last completions queued. *)
          List.iter Domain.join t.workers;
          t.workers <- [];
          flush_completions t;
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec drain_out () =
            let pending =
              Hashtbl.fold
                (fun _ c acc -> if c.cn_out <> "" then c :: acc else acc)
                t.conns []
            in
            if pending <> [] && Unix.gettimeofday () < deadline then begin
              (match
                 Unix.select [] (List.map (fun c -> c.cn_fd) pending) [] 0.2
               with
               | _, writable, _ ->
                   List.iter
                     (fun c ->
                       if Hashtbl.mem t.conns c.cn_id
                          && List.mem c.cn_fd writable
                       then write_conn t c)
                     pending
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              drain_out ()
            end
          in
          drain_out ();
          Hashtbl.iter (fun _ c -> close_conn t c) (Hashtbl.copy t.conns);
          (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
          (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
          close_wake t;
          Mutex.protect t.lock (fun () ->
              Hashtbl.iter (fun _ tn -> Store.close tn.tn_store) t.tenants);
          (* A real kill -9 leaves the socket file behind; the simulated
             one does too, so resume tests exercise the stale-socket
             path. *)
          if not (Atomic.get t.aborting) then (
            try Unix.unlink t.cfg.sv_socket with Unix.Unix_error _ -> ());
          finished := true
        end
      done)

(* ------------------------------------------------------------------ *)
(* Offline tenant reports                                              *)
(* ------------------------------------------------------------------ *)

let tenants ~root = scan_root root

let tenant_entries ~root ~engine tenant =
  let store = open_tenant ~write:false ~root ~resume:true engine tenant in
  (* Collapse duplicates to the last entry per name, newest wins, then
     canonical name order — Campaign.of_entries does exactly this. *)
  (Campaign.of_entries (Store.entries store)).Campaign.cr_results

let tenant_report ~root ~engine tenant =
  let entries = tenant_entries ~root ~engine tenant in
  let report = Campaign.of_entries entries in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "tenant %s: targets=%d\n" tenant (List.length entries));
  Buffer.add_string b (Campaign.verdicts_text report);
  let evidence = Campaign.evidence_text report in
  if evidence <> "" then begin
    Buffer.add_string b "exploit evidence:\n";
    Buffer.add_string b evidence
  end;
  Buffer.contents b
