(** The durable store of one fleet or one serve tenant — see store.mli. *)

module Core = Wasai_core
module Corpus = Wasai_corpus.Corpus
module Fsutil = Wasai_support.Fsutil
module Telemetry = Wasai_telemetry.Telemetry

type t = {
  context : string;
  stamp : Journal.stamp;
  entries : Journal.entry list;
  last : (string, Journal.entry) Hashtbl.t;  (** last entry per name *)
  corpus : Corpus.t;
  journal_w : Fsutil.appender option;
  corpus_w : Fsutil.appender option;
  mutable failed : bool;  (** a write raised: the files are a crash state *)
}

let refuse context fmt =
  Printf.ksprintf (fun s -> failwith (context ^ ": " ^ s)) fmt

(* A resumed journal must come from this run's execution tier, telemetry
   switch and (shard, seed, budget) stamp.  Verdicts are backend- and
   telemetry-invariant by contract, but a mixed tier would make that
   contract unauditable, a flipped switch would blend profiled and
   unprofiled targets in the report's breakdown, and a mixed stamp would
   blend verdicts no single run could produce. *)
let check_resume context (header : Journal.header) (stamp : Journal.stamp)
    (h : Journal.header) entries =
  let on_off b = if b then "on" else "off" in
  if h.Journal.jh_backend <> header.Journal.jh_backend then
    refuse context
      "journal was recorded under backend=%s, but this run uses backend=%s; \
       refusing to mix execution tiers"
      (Core.Exec_backend.to_string h.Journal.jh_backend)
      (Core.Exec_backend.to_string header.Journal.jh_backend);
  if h.Journal.jh_telemetry <> header.Journal.jh_telemetry then
    refuse context
      "journal was recorded with telemetry=%s, but this run uses \
       telemetry=%s; resumes must agree"
      (on_off h.Journal.jh_telemetry)
      (on_off header.Journal.jh_telemetry);
  List.iter
    (fun (e : Journal.entry) ->
      let st = e.Journal.je_stamp in
      if st <> stamp then
        refuse context
          "journal entry %S was recorded under shard=%s seed=%Ld budget=%d, \
           but this run uses shard=%s seed=%Ld budget=%d; refusing to mix \
           configurations"
          e.Journal.je_name
          (Shard.to_string st.Journal.js_shard)
          st.Journal.js_seed st.Journal.js_rounds
          (Shard.to_string stamp.Journal.js_shard)
          stamp.Journal.js_seed stamp.Journal.js_rounds)
    entries

let open_ ?(write = true) ~context ~resume ~header ~stamp ?journal ?corpus ()
    =
  let load read absent = function
    | Some path when Sys.file_exists path -> read path
    | _ -> absent
  in
  let prior_header, entries = load Journal.load_full (None, []) journal in
  (match (journal, prior_header) with
   | Some path, Some _ when not resume ->
       refuse context "journal %s is not empty; pass --resume to continue it"
         path
   | _, Some h -> check_resume context header stamp h entries
   | _, None -> ());
  let seeds = load Corpus.load (Corpus.create ()) corpus in
  let appender path =
    let w, dropped = Fsutil.open_appender path in
    if dropped > 0 then
      Printf.eprintf
        "%s: warning: %s: dropped %d bytes of an unterminated final line (a \
         write that was never acknowledged)\n\
         %!"
        context path dropped;
    w
  in
  let journal_w = if write then Option.map appender journal else None in
  if prior_header = None then
    Option.iter
      (fun w -> Fsutil.append_lines w [ Journal.line_of_header header ])
      journal_w;
  let corpus_w = if write then Option.map appender corpus else None in
  let last = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) -> Hashtbl.replace last e.Journal.je_name e)
    entries;
  { context; stamp; entries; last; corpus = seeds; journal_w; corpus_w;
    failed = false }

let entries t = t.entries
let find t name = Hashtbl.find_opt t.last name
let corpus t = t.corpus

(* A corpus record for an interesting seed, stamped with the run's
   provenance. *)
let record t ~name (o : Core.Engine.outcome) (i : Core.Engine.interesting) =
  let sh = t.stamp.Journal.js_shard in
  {
    Corpus.rc_target = name;
    rc_action = i.Core.Engine.is_action;
    rc_args = i.Core.Engine.is_args;
    rc_sig = i.Core.Engine.is_signature;
    rc_cover = i.Core.Engine.is_cover;
    rc_new_edges = i.Core.Engine.is_new_edges;
    rc_round = i.Core.Engine.is_round;
    rc_shard = (sh.Shard.sh_index, sh.Shard.sh_count);
    rc_seed = t.stamp.Journal.js_seed;
    rc_rounds = t.stamp.Journal.js_rounds;
    rc_solver = o.Core.Engine.out_solver;
    rc_solver_budget = o.Core.Engine.out_final_budget;
  }

let complete t ~name ~elapsed (o : Core.Engine.outcome) =
  if t.failed then
    refuse t.context
      "an earlier journal or corpus write failed; resume from what reached \
       disk";
  let entry = Journal.of_outcome ~name ~elapsed ~stamp:t.stamp o in
  (* Cleared once both writes have returned. *)
  t.failed <- true;
  let added =
    match t.corpus_w with
    | None -> 0
    | Some w ->
        let t0 = Telemetry.start () in
        (* [Corpus.add] dedupes against the file and earlier completions. *)
        let fresh =
          List.filter (Corpus.add t.corpus)
            (List.map (record t ~name o) o.Core.Engine.out_interesting)
        in
        if fresh <> [] then
          Fsutil.append_lines w (List.map Corpus.line_of_record fresh);
        Telemetry.stop Telemetry.Corpus_io t0;
        List.length fresh
  in
  Option.iter
    (fun w ->
      let line = Journal.line_of_entry entry in
      let t0 = Telemetry.start () in
      Fsutil.append_lines w [ line ];
      Telemetry.stop Telemetry.Journal_fsync t0)
    t.journal_w;
  t.failed <- false;
  Hashtbl.replace t.last name entry;
  (entry, added)

let close t =
  Option.iter Fsutil.close_appender t.journal_w;
  Option.iter Fsutil.close_appender t.corpus_w
