(** [wasai-serve-v1] — see wire.mli for the grammar.  The implementation
    follows the journal/corpus parsers: build lines by concatenation,
    parse by exact field-count match, validate every field, reject with
    a reason. *)

module Journal = Wasai_campaign.Journal
module Canonical = Wasai_support.Canonical

let magic = "wasai-serve-v1"

(* ------------------------------------------------------------------ *)
(* Alphabets                                                           *)
(* ------------------------------------------------------------------ *)

let valid_tenant s =
  let n = String.length s in
  n >= 1 && n <= 32 && s <> "." && s <> ".."
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       s

let valid_target s =
  let n = String.length s in
  n >= 1 && n <= 12
  && String.for_all (function 'a' .. 'z' | '1' .. '5' | '.' -> true | _ -> false) s

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type request =
  | Submit of {
      rq_tenant : string;
      rq_name : string;
      rq_wasm : string;
      rq_abi : string option;
      rq_slices : int;
    }
  | Ping
  | Stats of string
  | Metrics
  | Shutdown

type verdict_kind = Fresh | Cached

type response =
  | Queued of { rp_tenant : string; rp_name : string; rp_depth : int }
  | Busy of {
      rp_tenant : string;
      rp_name : string;
      rp_retry_ms : int;
      rp_depth : int;
    }
  | Verdict of {
      rp_tenant : string;
      rp_kind : verdict_kind;
      rp_wait_ms : int;
      rp_entry : Journal.entry;
    }
  | Err of { rp_name : string option; rp_reason : string }
  | Pong of { rp_jobs : int; rp_tenants : int }
  | StatsReply of {
      rp_tenant : string;
      rp_submitted : int;
      rp_completed : int;
      rp_rejected : int;
      rp_qwait : string;
      rp_latency : string;
      rp_uptime_ms : int;
      rp_backend : string;
    }
  | MetricsReply of { rp_body : string }
  | Bye of { rp_completed : int }

(* ------------------------------------------------------------------ *)
(* Field helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* "key=1234": a non-negative count, read only as [%d] writes it. *)
let keyed key n = Printf.sprintf "%s=%d" key n
let parse_keyed key = Canonical.keyed key Canonical.count

(* "key=token" where the token is opaque but must be tab/space-free and
   non-empty (the histogram wire rendering). *)
let keyed_str key s = key ^ "=" ^ s

let parse_keyed_str key s =
  let prefix = key ^ "=" in
  let pn = String.length prefix in
  if String.length s <= pn || not (String.starts_with ~prefix s) then
    Error (Printf.sprintf "expected %s=<token>, got %S" key s)
  else
    let v = String.sub s pn (String.length s - pn) in
    if String.exists (function ' ' | '\t' -> true | _ -> false) v then
      Error (Printf.sprintf "%s token contains whitespace" key)
    else Ok v

(* Reasons quote the offending input, which can be a whole request line
   of up to [Serve.max_line] bytes; cutting them here bounds every ERR
   reply whatever the client sent. *)
let max_reason = 256

let sanitize_reason reason =
  let cut =
    if String.length reason <= max_reason then reason
    else String.sub reason 0 max_reason ^ "..."
  in
  let flat = String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) cut in
  if flat = "" then "error" else flat

let check_tenant t =
  if valid_tenant t then Ok t else Error (Printf.sprintf "invalid tenant %S" t)

let check_target n =
  if valid_target n then Ok n
  else Error (Printf.sprintf "invalid target name %S" n)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let line_of_request = function
  | Ping -> magic ^ "\tPING"
  | Metrics -> magic ^ "\tMETRICS"
  | Shutdown -> magic ^ "\tSHUTDOWN"
  | Stats tenant ->
      if not (valid_tenant tenant) then
        invalid_arg (Printf.sprintf "Wire.line_of_request: invalid tenant %S" tenant);
      String.concat "\t" [ magic; "STATS"; tenant ]
  | Submit { rq_tenant; rq_name; rq_wasm; rq_abi; rq_slices } ->
      if not (valid_tenant rq_tenant) then
        invalid_arg
          (Printf.sprintf "Wire.line_of_request: invalid tenant %S" rq_tenant);
      if not (valid_target rq_name) then
        invalid_arg
          (Printf.sprintf "Wire.line_of_request: invalid target name %S" rq_name);
      if rq_wasm = "" then
        invalid_arg "Wire.line_of_request: empty module bytes";
      if rq_slices <> 1 then
        invalid_arg "Wire.line_of_request: slices must be 1";
      String.concat "\t"
        [
          magic;
          "SUBMIT";
          rq_tenant;
          rq_name;
          Canonical.hex_of_string rq_wasm;
          (match rq_abi with
           | Some abi -> Canonical.hex_of_string abi
           | None -> "-");
        ]

let request_of_line line =
  match String.split_on_char '\t' line with
  | m :: _ when m <> magic -> Error (Printf.sprintf "bad magic %S" m)
  | [ _; "PING" ] -> Ok Ping
  | [ _; "METRICS" ] -> Ok Metrics
  | [ _; "SHUTDOWN" ] -> Ok Shutdown
  | [ _; "STATS"; tenant ] ->
      let* tenant = check_tenant tenant in
      Ok (Stats tenant)
  | [ _; "SUBMIT"; tenant; name; wasmhex; abihex ] -> (
      let* tenant = check_tenant tenant in
      let* name = check_target name in
      let* wasm = Canonical.string_of_hex wasmhex in
      if wasm = "" then Error "empty module bytes"
      else
        let* abi =
          if abihex = "-" then Ok None
          else
            let* abi = Canonical.string_of_hex abihex in
            Ok (Some abi)
        in
        Ok
          (Submit
             {
               rq_tenant = tenant;
               rq_name = name;
               rq_wasm = wasm;
               rq_abi = abi;
               rq_slices = 1;
             }))
  | _ :: verb :: _ ->
      Error (Printf.sprintf "unknown or malformed request %S" verb)
  | _ -> Error "empty request"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let string_of_kind = function Fresh -> "fresh" | Cached -> "cached"

let kind_of_string = function
  | "fresh" -> Ok Fresh
  | "cached" -> Ok Cached
  | s -> Error (Printf.sprintf "unknown verdict kind %S" s)

let line_of_response = function
  | Queued { rp_tenant; rp_name; rp_depth } ->
      String.concat "\t"
        [ magic; "QUEUED"; rp_tenant; rp_name; keyed "depth" rp_depth ]
  | Busy { rp_tenant; rp_name; rp_retry_ms; rp_depth } ->
      String.concat "\t"
        [
          magic;
          "BUSY";
          rp_tenant;
          rp_name;
          keyed "retry-after" rp_retry_ms;
          keyed "depth" rp_depth;
        ]
  | Verdict { rp_tenant; rp_kind; rp_wait_ms; rp_entry } ->
      String.concat "\t"
        [
          magic;
          "VERDICT";
          rp_tenant;
          string_of_kind rp_kind;
          keyed "wait" rp_wait_ms;
          (* the journal line carries tabs of its own; the parser rejoins
             every remaining field *)
          Journal.line_of_entry rp_entry;
        ]
  | Err { rp_name; rp_reason } ->
      String.concat "\t"
        [
          magic;
          "ERR";
          (match rp_name with Some n -> n | None -> "-");
          sanitize_reason rp_reason;
        ]
  | Pong { rp_jobs; rp_tenants } ->
      String.concat "\t"
        [ magic; "PONG"; keyed "jobs" rp_jobs; keyed "tenants" rp_tenants ]
  | StatsReply
      {
        rp_tenant;
        rp_submitted;
        rp_completed;
        rp_rejected;
        rp_qwait;
        rp_latency;
        rp_uptime_ms;
        rp_backend;
      } ->
      String.concat "\t"
        [
          magic;
          "STATS";
          rp_tenant;
          keyed "submitted" rp_submitted;
          keyed "completed" rp_completed;
          keyed "rejected" rp_rejected;
          keyed_str "qwait" rp_qwait;
          keyed_str "latency" rp_latency;
          keyed "uptime" rp_uptime_ms;
          keyed_str "backend" rp_backend;
        ]
  | MetricsReply { rp_body } ->
      (* The exposition is free multi-line text; the hex codec that
         carries module bytes on SUBMIT flattens it into one token. *)
      String.concat "\t" [ magic; "METRICS"; Canonical.hex_of_string rp_body ]
  | Bye { rp_completed } ->
      String.concat "\t" [ magic; "BYE"; keyed "completed" rp_completed ]

let response_of_line line =
  match String.split_on_char '\t' line with
  | m :: _ when m <> magic -> Error (Printf.sprintf "bad magic %S" m)
  | [ _; "QUEUED"; tenant; name; depth ] ->
      let* tenant = check_tenant tenant in
      let* name = check_target name in
      let* depth = parse_keyed "depth" depth in
      Ok (Queued { rp_tenant = tenant; rp_name = name; rp_depth = depth })
  | [ _; "BUSY"; tenant; name; retry; depth ] ->
      let* tenant = check_tenant tenant in
      let* name = check_target name in
      let* retry = parse_keyed "retry-after" retry in
      let* depth = parse_keyed "depth" depth in
      Ok
        (Busy
           { rp_tenant = tenant; rp_name = name; rp_retry_ms = retry; rp_depth = depth })
  | _ :: "VERDICT" :: tenant :: kind :: wait :: (_ :: _ as rest) ->
      let* tenant = check_tenant tenant in
      let* kind = kind_of_string kind in
      let* wait = parse_keyed "wait" wait in
      let* entry =
        (* the embedded journal line was split with the envelope *)
        Journal.entry_of_line (String.concat "\t" rest)
      in
      Ok
        (Verdict
           { rp_tenant = tenant; rp_kind = kind; rp_wait_ms = wait; rp_entry = entry })
  | [ _; "ERR"; name; reason ] ->
      let* name =
        (* the subject is a target name for submission failures and a
           tenant name for STATS failures *)
        if name = "-" then Ok None
        else if valid_target name || valid_tenant name then Ok (Some name)
        else Error (Printf.sprintf "invalid error subject %S" name)
      in
      Ok (Err { rp_name = name; rp_reason = reason })
  | [ _; "PONG"; jobs; tenants ] ->
      let* jobs = parse_keyed "jobs" jobs in
      let* tenants = parse_keyed "tenants" tenants in
      Ok (Pong { rp_jobs = jobs; rp_tenants = tenants })
  | [
      _; "STATS"; tenant; submitted; completed; rejected; qwait; latency;
      uptime; backend;
    ] ->
      let* tenant = check_tenant tenant in
      let* submitted = parse_keyed "submitted" submitted in
      let* completed = parse_keyed "completed" completed in
      let* rejected = parse_keyed "rejected" rejected in
      let* qwait = parse_keyed_str "qwait" qwait in
      let* latency = parse_keyed_str "latency" latency in
      let* uptime = parse_keyed "uptime" uptime in
      let* backend = parse_keyed_str "backend" backend in
      Ok
        (StatsReply
           {
             rp_tenant = tenant;
             rp_submitted = submitted;
             rp_completed = completed;
             rp_rejected = rejected;
             rp_qwait = qwait;
             rp_latency = latency;
             rp_uptime_ms = uptime;
             rp_backend = backend;
           })
  | [ _; "METRICS"; bodyhex ] ->
      let* body = Canonical.string_of_hex bodyhex in
      Ok (MetricsReply { rp_body = body })
  | [ _; "BYE"; completed ] ->
      let* completed = parse_keyed "completed" completed in
      Ok (Bye { rp_completed = completed })
  | _ :: verb :: _ ->
      Error (Printf.sprintf "unknown or malformed response %S" verb)
  | _ -> Error "empty response"
