type stage =
  | Load_validate
  | Instrument
  | Compile
  | Exec_interp
  | Exec_compiled
  | Trace_scan
  | Oracle
  | Solver_quick
  | Solver_blast
  | Solver_cache
  | Corpus_io
  | Journal_fsync

let stages =
  [
    Load_validate;
    Instrument;
    Compile;
    Exec_interp;
    Exec_compiled;
    Trace_scan;
    Oracle;
    Solver_quick;
    Solver_blast;
    Solver_cache;
    Corpus_io;
    Journal_fsync;
  ]

let n_stages = List.length stages

(* Constant constructors compile to their declaration index; the match
   keeps that mapping honest without a runtime cost. *)
let index = function
  | Load_validate -> 0
  | Instrument -> 1
  | Compile -> 2
  | Exec_interp -> 3
  | Exec_compiled -> 4
  | Trace_scan -> 5
  | Oracle -> 6
  | Solver_quick -> 7
  | Solver_blast -> 8
  | Solver_cache -> 9
  | Corpus_io -> 10
  | Journal_fsync -> 11

let stage_name = function
  | Load_validate -> "load_validate"
  | Instrument -> "instrument"
  | Compile -> "compile"
  | Exec_interp -> "exec_interp"
  | Exec_compiled -> "exec_compiled"
  | Trace_scan -> "trace_scan"
  | Oracle -> "oracle"
  | Solver_quick -> "solver_quick"
  | Solver_blast -> "solver_blast"
  | Solver_cache -> "solver_cache"
  | Corpus_io -> "corpus_io"
  | Journal_fsync -> "journal_fsync"

external now_ns : unit -> (int[@untagged])
  = "wasai_now_ns_byte" "wasai_now_ns_native"
[@@noalloc]

(* ------------------------------------------------------------------ *)
(* Per-domain recorders                                                *)
(* ------------------------------------------------------------------ *)

type recorder = {
  (* Exact running aggregates, bumped in place on every span. *)
  stage_count : int array; (* [n_stages] *)
  stage_ns : int array;
  mutable tgt_count : int array array; (* [n_stages][targets], grown cold *)
  mutable tgt_ns : int array array;
  mutable cur_target : int;
}

let fresh_recorder () =
  {
    stage_count = Array.make n_stages 0;
    stage_ns = Array.make n_stages 0;
    tgt_count = Array.init n_stages (fun _ -> Array.make 1 0);
    tgt_ns = Array.init n_stages (fun _ -> Array.make 1 0);
    cur_target = 0;
  }

(* Global state: the on/off switch, the recorder registry and the target
   intern table.  All cold-path mutations take [lock]; the hot path only
   reads [switched_on] and writes its own domain's recorder. *)

let switched_on = Atomic.make false
let lock = Mutex.create ()
let recorders : recorder list ref = ref []
let target_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let target_names : string list ref = ref [] (* reverse order, sans id 0 *)
let target_next = ref 1

let key =
  Domain.DLS.new_key (fun () ->
      let r = fresh_recorder () in
      Mutex.protect lock (fun () -> recorders := r :: !recorders);
      r)

let enable () = Atomic.set switched_on true
let disable () = Atomic.set switched_on false
let enabled () = Atomic.get switched_on

let reset () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun r ->
          Array.fill r.stage_count 0 n_stages 0;
          Array.fill r.stage_ns 0 n_stages 0;
          r.tgt_count <- Array.init n_stages (fun _ -> Array.make 1 0);
          r.tgt_ns <- Array.init n_stages (fun _ -> Array.make 1 0);
          r.cur_target <- 0)
        !recorders;
      Hashtbl.reset target_tbl;
      target_names := [];
      target_next := 1)

(* ------------------------------------------------------------------ *)
(* Hot path                                                            *)
(* ------------------------------------------------------------------ *)

let start () = if Atomic.get switched_on then now_ns () else 0

let stop st t0 =
  if t0 <> 0 then begin
    let dur = now_ns () - t0 in
    let dur = if dur < 0 then 0 else dur in
    let r = Domain.DLS.get key in
    let s = index st in
    r.stage_count.(s) <- r.stage_count.(s) + 1;
    r.stage_ns.(s) <- r.stage_ns.(s) + dur;
    let row = r.tgt_count.(s) in
    let t = r.cur_target in
    if t < Array.length row then begin
      row.(t) <- row.(t) + 1;
      r.tgt_ns.(s).(t) <- r.tgt_ns.(s).(t) + dur
    end
  end

(* ------------------------------------------------------------------ *)
(* Target attribution (cold path)                                      *)
(* ------------------------------------------------------------------ *)

let no_target = 0

let target_id name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt target_tbl name with
      | Some id -> id
      | None ->
          let id = !target_next in
          incr target_next;
          Hashtbl.replace target_tbl name id;
          target_names := name :: !target_names;
          id)

let grow rows want =
  Array.map
    (fun row ->
      let n = Array.length row in
      if want <= n then row
      else begin
        let bigger = Array.make (max want (2 * n)) 0 in
        Array.blit row 0 bigger 0 n;
        bigger
      end)
    rows

let set_target id =
  let r = Domain.DLS.get key in
  if id >= Array.length r.tgt_count.(0) then begin
    r.tgt_count <- grow r.tgt_count (id + 1);
    r.tgt_ns <- grow r.tgt_ns (id + 1)
  end;
  r.cur_target <- id

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  ts_spans : int;
  ts_stages : (stage * int * int) list;
  ts_targets : (string * (stage * int * int) list) list;
}

let snapshot () =
  Mutex.protect lock (fun () ->
      let rs = !recorders in
      let count = Array.make n_stages 0 and ns = Array.make n_stages 0 in
      List.iter
        (fun r ->
          for s = 0 to n_stages - 1 do
            count.(s) <- count.(s) + r.stage_count.(s);
            ns.(s) <- ns.(s) + r.stage_ns.(s)
          done)
        rs;
      let spans = Array.fold_left ( + ) 0 count in
      let names = List.rev !target_names in
      let per_target =
        List.mapi
          (fun i name ->
            let id = i + 1 in
            let rows =
              List.filter_map
                (fun st ->
                  let s = index st in
                  let c, n =
                    List.fold_left
                      (fun (c, n) r ->
                        if id < Array.length r.tgt_count.(s) then
                          (c + r.tgt_count.(s).(id), n + r.tgt_ns.(s).(id))
                        else (c, n))
                      (0, 0) rs
                  in
                  if c = 0 then None else Some (st, c, n))
                stages
            in
            (name, rows))
          names
      in
      {
        ts_spans = spans;
        ts_stages = List.map (fun st -> (st, count.(index st), ns.(index st))) stages;
        ts_targets = List.filter (fun (_, rows) -> rows <> []) per_target;
      })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let seconds ns = float_of_int ns /. 1e9

let report_text (s : snapshot) =
  let b = Buffer.create 1024 in
  let total_ns =
    List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 s.ts_stages
  in
  Buffer.add_string b
    (Printf.sprintf "telemetry: %d spans, %.3fs instrumented time\n" s.ts_spans
       (seconds total_ns));
  Buffer.add_string b "per-stage critical path:\n";
  let busy =
    List.filter (fun (_, c, _) -> c > 0) s.ts_stages
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  List.iter
    (fun (st, c, ns) ->
      let share =
        if total_ns = 0 then 0. else 100. *. float_of_int ns /. float_of_int total_ns
      in
      Buffer.add_string b
        (Printf.sprintf "  %-14s %8d spans  %9.3fs  %8.3fms/span  %5.1f%%\n"
           (stage_name st) c (seconds ns)
           (if c = 0 then 0. else seconds ns *. 1000. /. float_of_int c)
           share))
    busy;
  if s.ts_targets <> [] then begin
    Buffer.add_string b "per-target hotspots:\n";
    let tagged =
      List.map
        (fun (name, rows) ->
          let t = List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 rows in
          (name, rows, t))
        s.ts_targets
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    List.iter
      (fun (name, rows, t) ->
        let top =
          List.sort (fun (_, _, a) (_, _, b) -> compare b a) rows
          |> List.filteri (fun i _ -> i < 3)
          |> List.map (fun (st, _, ns) ->
                 Printf.sprintf "%s %.1f%%" (stage_name st)
                   (if t = 0 then 0.
                    else 100. *. float_of_int ns /. float_of_int t))
          |> String.concat ", "
        in
        Buffer.add_string b
          (Printf.sprintf "  %-13s %9.3fs  %s\n" name (seconds t) top))
      tagged
  end;
  Buffer.contents b

let prometheus (s : snapshot) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "# HELP wasai_stage_seconds_total Instrumented time per pipeline stage.\n";
  Buffer.add_string b "# TYPE wasai_stage_seconds_total counter\n";
  List.iter
    (fun (st, _, ns) ->
      Buffer.add_string b
        (Printf.sprintf "wasai_stage_seconds_total{stage=\"%s\"} %.6f\n"
           (stage_name st) (seconds ns)))
    s.ts_stages;
  Buffer.add_string b
    "# HELP wasai_stage_spans_total Recorded spans per pipeline stage.\n";
  Buffer.add_string b "# TYPE wasai_stage_spans_total counter\n";
  List.iter
    (fun (st, c, _) ->
      Buffer.add_string b
        (Printf.sprintf "wasai_stage_spans_total{stage=\"%s\"} %d\n"
           (stage_name st) c))
    s.ts_stages;
  Buffer.contents b
