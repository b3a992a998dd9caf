(** Serve protocol client — see client.mli. *)

module Core = Wasai_core
module Journal = Wasai_campaign.Journal
module Discover = Wasai_campaign.Discover
open Wasai_eosio

exception Protocol_error of string

type t = { cl_fd : Unix.file_descr; mutable cl_in : string }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
   | () -> ()
   | exception e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
  { cl_fd = fd; cl_in = "" }

let close t = try Unix.close t.cl_fd with Unix.Unix_error _ -> ()

let send t req =
  let line = Wire.line_of_request req ^ "\n" in
  let n = String.length line in
  let rec go off =
    if off < n then
      match Unix.write_substring t.cl_fd line off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_line t =
  let rec go () =
    match String.index_opt t.cl_in '\n' with
    | Some i ->
        let line = String.sub t.cl_in 0 i in
        t.cl_in <-
          String.sub t.cl_in (i + 1) (String.length t.cl_in - i - 1);
        line
    | None -> (
        let buf = Bytes.create 65536 in
        match Unix.read t.cl_fd buf 0 65536 with
        | 0 -> raise (Protocol_error "connection closed by daemon")
        | n ->
            t.cl_in <- t.cl_in ^ Bytes.sub_string buf 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let next t =
  match Wire.response_of_line (read_line t) with
  | Ok resp -> resp
  | Error reason -> raise (Protocol_error ("malformed response: " ^ reason))

(* ------------------------------------------------------------------ *)
(* Contract loading                                                    *)
(* ------------------------------------------------------------------ *)

type contract = { ct_name : string; ct_wasm : string; ct_abi : string option }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contract_of_file path =
  let name = Name.to_string (Discover.account_of_filename path) in
  let wasm = read_file path in
  let abi =
    let candidates =
      [ path ^ ".abi"; Filename.remove_extension path ^ ".abi" ]
    in
    Option.map read_file (List.find_opt Sys.file_exists candidates)
  in
  { ct_name = name; ct_wasm = wasm; ct_abi = abi }

let contracts_of_path path =
  if Sys.is_directory path then
    List.map
      (fun f -> contract_of_file (Filename.concat path f))
      (Discover.contract_files path)
  else [ contract_of_file path ]

(* ------------------------------------------------------------------ *)
(* Batch submission                                                    *)
(* ------------------------------------------------------------------ *)

type batch = {
  bt_verdicts : (string * Wire.verdict_kind * Journal.entry) list;
  bt_retries : int;
  bt_errors : (string * string) list;
}

let submit_batch ?(progress = fun (_ : Wire.response) -> ()) t ~tenant
    contracts =
  let awaiting = Hashtbl.create 16 in
  let verdicts = ref [] in
  let errors = ref [] in
  let retries = ref 0 in
  (* Classify one response, recording verdicts/errors as they stream
     in; admission replies bubble up to the submitting loop. *)
  let handle resp =
    progress resp;
    match resp with
    | Wire.Verdict { rp_entry; rp_kind; _ } ->
        let name = rp_entry.Journal.je_name in
        Hashtbl.remove awaiting name;
        verdicts := (name, rp_kind, rp_entry) :: !verdicts;
        `Settled name
    | Wire.Queued { rp_name; _ } -> `Queued rp_name
    | Wire.Busy { rp_name; rp_retry_ms; _ } ->
        incr retries;
        `Busy (rp_name, rp_retry_ms)
    | Wire.Err { rp_name = Some name; rp_reason } ->
        Hashtbl.remove awaiting name;
        errors := (name, rp_reason) :: !errors;
        `Settled name
    | Wire.Err { rp_name = None; rp_reason } ->
        raise (Protocol_error rp_reason)
    | Wire.Bye _ -> raise (Protocol_error "daemon said BYE mid-batch")
    | Wire.Pong _ | Wire.StatsReply _ | Wire.MetricsReply _ -> `Other
  in
  let rec submit c =
    send t
      (Wire.Submit
         {
           rq_tenant = tenant;
           rq_name = c.ct_name;
           rq_wasm = c.ct_wasm;
           rq_abi = c.ct_abi;
           rq_slices = 1;
         });
    (* Interleaving: verdicts for earlier submissions may stream in
       before this submission's admission reply. *)
    let rec wait_reply () =
      match handle (next t) with
      | `Queued name when name = c.ct_name -> Hashtbl.replace awaiting name ()
      | `Busy (name, retry_ms) when name = c.ct_name ->
          (* Explicit backpressure: honour the daemon's hint, retry. *)
          Unix.sleepf (float_of_int retry_ms /. 1000.);
          submit c
      | `Settled name when name = c.ct_name -> ()
      | _ -> wait_reply ()
    in
    wait_reply ()
  in
  List.iter submit contracts;
  while Hashtbl.length awaiting > 0 do
    ignore (handle (next t))
  done;
  {
    bt_verdicts = List.rev !verdicts;
    bt_retries = !retries;
    bt_errors = List.rev !errors;
  }
