(** Crash-safe append-only journal of completed campaign targets.

    Four line formats share the file, all tab-separated with fixed field
    order:

    {v
    v1: wasai-journal-v1 <name> <flags> branches= rounds= seeds=
          adaptive= tx= sat= imprecise= elapsed=                (11 fields)
    v2: v1 + solver=q:N,b:N,u:N,h:N,m:N                         (12 fields)
    v3: wasai-journal-v3 <11 v1 fields> solver= shard=i/N seed=S
          budget=N exploits=<recs|->                            (16 fields)
    v4: v3 with magic wasai-journal-v4 and a sixth solver counter
          solver=q:N,b:N,u:N,h:N,m:N,fb:N                       (16 fields)
    v}

    where [<flags>] is [FakeEOS=0,FakeNotif=1,...] covering exactly
    {!Core.Scanner.legacy_flags} in order, followed by the fired subset
    of {!Core.Scanner.extension_flags} in canonical order (each as
    [Name=1]; quiet extension flags are omitted).  That split keeps every
    line written for a contract with no extension-class findings
    byte-identical to pre-extension builds, while new classes still
    round-trip strictly — an extension flag that is out of order,
    duplicated, unknown, or carries any verdict other than [1] rejects
    the line.  The v3 extension stamps each
    entry with its campaign provenance — the shard slice, the engine RNG
    root seed and the round budget — so a merge can validate that input
    journals came from one consistent fleet configuration, and persists
    the exploit payloads behind every positive verdict ([;]-separated
    [FLAG@channel@account@action@auth@hex] records, [-] when none) so a
    resumed or merged report replays evidence instead of only counting
    verdicts.  The v4 extension appends the engine's final adaptively
    retuned solver conflict budget as the [fb] counter of the [solver=]
    field (the field count stays 16, which is why the magic changes).

    Writers emit v4 whenever the entry carries a stamp (campaign runs
    always stamp) and legacy v2 otherwise; the parser accepts all four
    versions, reading absent counters as zero and absent stamps/exploits
    as none, so old journals still resume.  Parsing is otherwise strict:
    wrong magic, wrong field count, a [fb] counter on a v3 line or a
    missing one on a v4 line, unknown keys, out-of-order flags,
    duplicate exploit flags or unparseable numbers all reject the line
    (so a line torn by a crash is reported, not skipped). *)

module Core = Wasai_core
module Solver = Wasai_smt.Solver

(** Campaign provenance of an entry: which shard produced it, under which
    engine configuration.  Merge validation keys on all three fields. *)
type stamp = {
  js_shard : Shard.t;
  js_seed : int64;  (** engine [cfg_rng_seed] *)
  js_rounds : int;  (** engine [cfg_rounds] budget *)
}

type entry = {
  je_name : string;
  je_flags : (Core.Scanner.flag * bool) list;
  je_branches : int;
  je_rounds : int;
  je_seeds_total : int;
  je_adaptive_seeds : int;
  je_transactions : int;
  je_solver_sat : int;
  je_imprecise : int;
  je_elapsed : float;
  je_solver : Solver.stats;
  je_final_budget : int;
      (** the engine's final adaptive solver budget (0 on pre-v4 lines) *)
  je_stamp : stamp option;
  je_exploits : (Core.Scanner.flag * Core.Scanner.evidence) list;
}

let magic_v1 = "wasai-journal-v1"
let magic_v3 = "wasai-journal-v3"
let magic_v4 = "wasai-journal-v4"
let magic_hdr = "wasai-journal-hdr"

(** File-level provenance, stamped once as the first line of a fresh
    journal: the execution backend the fleet ran under.  Verdicts are
    backend-invariant by contract, but a resume mixing tiers would make
    that contract unauditable — so, like the per-entry (seed, budget)
    stamp, the header makes the configuration explicit and lets resume
    refuse a mismatch.  Entry lines are unchanged: a v4 line is
    byte-identical whichever backend produced it.

    [jh_telemetry] records whether the campaign ran with span profiling
    enabled.  Telemetry cannot change a verdict (that is its whole
    contract), but a resume silently flipping it would skew the
    per-stage breakdown the final report prints — so resumes must agree.
    The stamp is strictly additive: with telemetry off the header line
    is byte-identical to the two-field form every earlier build wrote,
    and the parser accepts both forms. *)
type header = {
  jh_backend : Wasai_core.Exec_backend.choice;
  jh_telemetry : bool;
}

let line_of_header (h : header) =
  Printf.sprintf "%s\tbackend=%s%s" magic_hdr
    (Core.Exec_backend.to_string h.jh_backend)
    (if h.jh_telemetry then "\ttelemetry=on" else "")

let of_outcome ~name ~elapsed ?stamp (o : Core.Engine.outcome) =
  {
    je_name = name;
    (* Normalise to the canonical flag order so journal lines and report
       text never depend on scanner-internal ordering. *)
    je_flags =
      List.map
        (fun f ->
          (f, match List.assoc_opt f o.Core.Engine.out_flags with
              | Some b -> b
              | None -> false))
        Core.Scanner.all_flags;
    je_branches = o.Core.Engine.out_branches;
    je_rounds = o.Core.Engine.out_rounds;
    je_seeds_total = o.Core.Engine.out_seeds_total;
    je_adaptive_seeds = o.Core.Engine.out_adaptive_seeds;
    je_transactions = o.Core.Engine.out_transactions;
    je_solver_sat = o.Core.Engine.out_solver_sat;
    je_imprecise = o.Core.Engine.out_imprecise;
    je_elapsed = elapsed;
    je_solver = o.Core.Engine.out_solver;
    je_final_budget = o.Core.Engine.out_final_budget;
    je_stamp = stamp;
    je_exploits =
      (* Keep the canonical flag order here too. *)
      List.filter_map
        (fun f ->
          Option.map (fun e -> (f, e))
            (List.assoc_opt f o.Core.Engine.out_exploits))
        Core.Scanner.all_flags;
  }

let exploits_field (exploits : (Core.Scanner.flag * Core.Scanner.evidence) list)
    =
  match exploits with
  | [] -> "-"
  | _ ->
      String.concat ";"
        (List.map
           (fun (f, e) ->
             Core.Scanner.string_of_flag f ^ "@"
             ^ Core.Scanner.evidence_to_wire e)
           exploits)

(* Legacy flags are always written in their fixed order; extension flags
   appear only when fired.  Lookups go through the canonical flag lists
   (not the record's order) so the field never depends on how the record
   was built. *)
let flags_field (value_flags : (Core.Scanner.flag * bool) list) =
  let value f =
    match List.assoc_opt f value_flags with Some b -> b | None -> false
  in
  let legacy =
    List.map
      (fun f ->
        Printf.sprintf "%s=%d" (Core.Scanner.string_of_flag f)
          (if value f then 1 else 0))
      Core.Scanner.legacy_flags
  in
  let fired_ext =
    List.filter_map
      (fun f ->
        if value f then Some (Core.Scanner.string_of_flag f ^ "=1") else None)
      Core.Scanner.extension_flags
  in
  String.concat "," (legacy @ fired_ext)

let line_of_entry (e : entry) =
  let flags = flags_field e.je_flags in
  let common ~with_budget =
    [
      e.je_name; flags;
      Printf.sprintf "branches=%d" e.je_branches;
      Printf.sprintf "rounds=%d" e.je_rounds;
      Printf.sprintf "seeds=%d" e.je_seeds_total;
      Printf.sprintf "adaptive=%d" e.je_adaptive_seeds;
      Printf.sprintf "tx=%d" e.je_transactions;
      Printf.sprintf "sat=%d" e.je_solver_sat;
      Printf.sprintf "imprecise=%d" e.je_imprecise;
      Printf.sprintf "elapsed=%.6f" e.je_elapsed;
      Printf.sprintf "solver=q:%d,b:%d,u:%d,h:%d,m:%d%s"
        e.je_solver.Solver.st_quick e.je_solver.Solver.st_blasted
        e.je_solver.Solver.st_unknown e.je_solver.Solver.st_cache_hits
        e.je_solver.Solver.st_cache_misses
        (if with_budget then Printf.sprintf ",fb:%d" e.je_final_budget else "");
    ]
  in
  match e.je_stamp with
  | None ->
      (* Unstamped entries (hand-built, or parsed from an old journal)
         keep the legacy v2 shape; exploits and the final-budget counter
         need a stamped v4 line. *)
      String.concat "\t" (magic_v1 :: common ~with_budget:false)
  | Some st ->
      String.concat "\t"
        ((magic_v4 :: common ~with_budget:true)
        @ [
            Printf.sprintf "shard=%s" (Shard.to_string st.js_shard);
            Printf.sprintf "seed=%Ld" st.js_seed;
            Printf.sprintf "budget=%d" st.js_rounds;
            "exploits=" ^ exploits_field e.je_exploits;
          ])

(* ------------------------------------------------------------------ *)
(* Strict parsing                                                      *)
(* ------------------------------------------------------------------ *)

let keyed key conv field =
  match String.index_opt field '=' with
  | Some i when String.sub field 0 i = key -> (
      let v = String.sub field (i + 1) (String.length field - i - 1) in
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: bad value %S" key v))
  | _ -> Error (Printf.sprintf "expected field %S, got %S" key field)

let header_of_line (line : string) : (header, string) result =
  let backend_of field k =
    match keyed "backend" Option.some field with
    | Error e -> Error e
    | Ok v -> (
        match Core.Exec_backend.of_string v with
        | Ok b -> k b
        | Error e -> Error e)
  in
  match String.split_on_char '\t' line with
  | [ m; backend ] when m = magic_hdr ->
      backend_of backend (fun jh_backend ->
          Ok { jh_backend; jh_telemetry = false })
  | [ m; backend; telemetry ] when m = magic_hdr ->
      backend_of backend (fun jh_backend ->
          match keyed "telemetry" Option.some telemetry with
          | Error e -> Error e
          | Ok "on" -> Ok { jh_backend; jh_telemetry = true }
          | Ok v -> Error (Printf.sprintf "field \"telemetry\": bad value %S" v))
  | m :: _ when m = magic_hdr ->
      Error "header line: expected 2 or 3 tab-separated fields"
  | _ -> Error (Printf.sprintf "bad magic %S" magic_hdr)

let parse_flags (field : string) =
  let ( let* ) = Result.bind in
  let parts = String.split_on_char ',' field in
  let legacy = Core.Scanner.legacy_flags in
  if List.length parts < List.length legacy then
    Error
      (Printf.sprintf "flag field %S: expected at least %d flags" field
         (List.length legacy))
  else
    (* The first five parts are the legacy flags, fixed order, 0 or 1. *)
    let rec take_legacy acc parts flags =
      match (parts, flags) with
      | parts, [] -> Ok (List.rev acc, parts)
      | p :: parts, f :: flags -> (
          let name = Core.Scanner.string_of_flag f in
          match keyed name int_of_string_opt p with
          | Ok 0 -> take_legacy ((f, false) :: acc) parts flags
          | Ok 1 -> take_legacy ((f, true) :: acc) parts flags
          | Ok n -> Error (Printf.sprintf "flag %s: bad verdict %d" name n)
          | Error e -> Error e)
      | [], _ :: _ -> assert false (* length checked above *)
    in
    let* legacy_verdicts, rest = take_legacy [] parts legacy in
    (* The remaining parts must be a subsequence of the extension flags
       in canonical order, each fired ([Name=1]): writers omit quiet
       extension flags, so an explicit [=0], a duplicate, an unknown
       name or an out-of-order flag is a corrupt line. *)
    let rec take_ext fired parts flags =
      match parts with
      | [] -> Ok fired
      | p :: parts' -> (
          match flags with
          | [] ->
              Error
                (Printf.sprintf
                   "flag field %S: unknown, duplicate or out-of-order flag %S"
                   field p)
          | f :: flags' -> (
              let name = Core.Scanner.string_of_flag f in
              match keyed name int_of_string_opt p with
              | Ok 1 -> take_ext (f :: fired) parts' flags'
              | Ok n ->
                  Error
                    (Printf.sprintf
                       "flag %s: bad verdict %d (extension flags are only \
                        journaled when fired)"
                       name n)
              | Error _ ->
                  (* Not this canonical flag; try the next one. *)
                  take_ext fired parts flags'))
    in
    let* fired_ext = take_ext [] rest Core.Scanner.extension_flags in
    Ok
      (legacy_verdicts
      @ List.map
          (fun f -> (f, List.mem f fired_ext))
          Core.Scanner.extension_flags)

(* The v2 solver extension: [solver=q:N,b:N,u:N,h:N,m:N], parsed as
   strictly as every other field — fixed counter order, no unknown keys.
   v4 lines append a sixth [fb:N] counter (the final adaptive budget);
   [with_budget] selects which shape is the only accepted one. *)
let parse_solver ~with_budget (field : string) :
    (Solver.stats * int, string) result =
  let ( let* ) = Result.bind in
  let* v = keyed "solver" Option.some field in
  let counter key part =
    match String.index_opt part ':' with
    | Some i when String.sub part 0 i = key ->
        int_of_string_opt (String.sub part (i + 1) (String.length part - i - 1))
    | _ -> None
  in
  let stats q b u h m =
    match
      (counter "q" q, counter "b" b, counter "u" u, counter "h" h,
       counter "m" m)
    with
    | ( Some st_quick, Some st_blasted, Some st_unknown, Some st_cache_hits,
        Some st_cache_misses ) ->
        Ok
          {
            Solver.st_quick; st_blasted; st_unknown; st_cache_hits;
            st_cache_misses;
          }
    | _ -> Error (Printf.sprintf "solver field %S: bad counters" v)
  in
  match (String.split_on_char ',' v, with_budget) with
  | [ q; b; u; h; m ], false ->
      let* st = stats q b u h m in
      Ok (st, 0)
  | [ q; b; u; h; m; fb ], true -> (
      let* st = stats q b u h m in
      match counter "fb" fb with
      | Some budget -> Ok (st, budget)
      | None -> Error (Printf.sprintf "solver field %S: bad fb counter" v))
  | parts, _ ->
      Error
        (Printf.sprintf "solver field %S: expected %d counters, got %d" v
           (if with_budget then 6 else 5)
           (List.length parts))

(* The v3 provenance stamp, three consecutive fields. *)
let parse_stamp shard seed budget : (stamp, string) result =
  let ( let* ) = Result.bind in
  let* js_shard =
    let* s = keyed "shard" Option.some shard in
    Shard.of_string s
  in
  let* js_seed = keyed "seed" Int64.of_string_opt seed in
  let* js_rounds = keyed "budget" int_of_string_opt budget in
  Ok { js_shard; js_seed; js_rounds }

(* The v3 exploit list: [-] for none, else [;]-separated
   [FLAG@<evidence wire>] records with distinct flags. *)
let parse_exploits (field : string) :
    ((Core.Scanner.flag * Core.Scanner.evidence) list, string) result =
  let ( let* ) = Result.bind in
  let* v = keyed "exploits" Option.some field in
  if v = "-" then Ok []
  else
    let parse_one rec_ =
      match String.index_opt rec_ '@' with
      | None -> Error (Printf.sprintf "exploit %S: missing flag" rec_)
      | Some i -> (
          let flag_s = String.sub rec_ 0 i in
          let rest = String.sub rec_ (i + 1) (String.length rec_ - i - 1) in
          match Core.Scanner.flag_of_string flag_s with
          | None -> Error (Printf.sprintf "exploit %S: unknown flag" rec_)
          | Some f ->
              Result.map (fun e -> (f, e)) (Core.Scanner.evidence_of_wire rest))
    in
    let* exploits =
      List.fold_left
        (fun acc rec_ ->
          let* acc = acc in
          let* x = parse_one rec_ in
          Ok (x :: acc))
        (Ok [])
        (String.split_on_char ';' v)
      |> Result.map List.rev
    in
    let flags = List.map fst exploits in
    if List.length (List.sort_uniq compare flags) <> List.length flags then
      Error (Printf.sprintf "exploits field %S: duplicate flag" v)
    else Ok exploits

let entry_of_line (line : string) : (entry, string) result =
  let ( let* ) = Result.bind in
  let parse ~expect_magic ~with_budget m name flags branches rounds seeds
      adaptive tx sat imprecise elapsed solver stamp exploits =
    if m <> expect_magic then Error (Printf.sprintf "bad magic %S" m)
    else if name = "" then Error "empty target name"
    else
      let* je_flags = parse_flags flags in
      let* je_branches = keyed "branches" int_of_string_opt branches in
      let* je_rounds = keyed "rounds" int_of_string_opt rounds in
      let* je_seeds_total = keyed "seeds" int_of_string_opt seeds in
      let* je_adaptive_seeds = keyed "adaptive" int_of_string_opt adaptive in
      let* je_transactions = keyed "tx" int_of_string_opt tx in
      let* je_solver_sat = keyed "sat" int_of_string_opt sat in
      let* je_imprecise = keyed "imprecise" int_of_string_opt imprecise in
      let* je_elapsed = keyed "elapsed" float_of_string_opt elapsed in
      let* je_solver, je_final_budget =
        match solver with
        (* v1 line: the run predates solver accounting — counters zero. *)
        | None -> Ok (Solver.stats_zero, 0)
        | Some s -> parse_solver ~with_budget s
      in
      let* je_stamp =
        match stamp with
        | None -> Ok None
        | Some (shard, seed, budget) ->
            Result.map Option.some (parse_stamp shard seed budget)
      in
      let* je_exploits =
        match exploits with None -> Ok [] | Some e -> parse_exploits e
      in
      Ok
        {
          je_name = name; je_flags; je_branches; je_rounds; je_seeds_total;
          je_adaptive_seeds; je_transactions; je_solver_sat; je_imprecise;
          je_elapsed; je_solver; je_final_budget; je_stamp; je_exploits;
        }
  in
  match String.split_on_char '\t' line with
  | [ m; name; flags; branches; rounds; seeds; adaptive; tx; sat; imprecise;
      elapsed ] ->
      parse ~expect_magic:magic_v1 ~with_budget:false m name flags branches
        rounds seeds adaptive tx sat imprecise elapsed None None None
  | [ m; name; flags; branches; rounds; seeds; adaptive; tx; sat; imprecise;
      elapsed; solver ] ->
      parse ~expect_magic:magic_v1 ~with_budget:false m name flags branches
        rounds seeds adaptive tx sat imprecise elapsed (Some solver) None None
  | [ m; name; flags; branches; rounds; seeds; adaptive; tx; sat; imprecise;
      elapsed; solver; shard; seed; budget; exploits ] ->
      (* 16 fields is v3 or v4; the magic picks the solver-field shape
         (5 counters vs 6), and [parse] still insists the magic matches
         the shape that was picked. *)
      let expect_magic, with_budget =
        if m = magic_v4 then (magic_v4, true) else (magic_v3, false)
      in
      parse ~expect_magic ~with_budget m name flags branches rounds seeds
        adaptive tx sat imprecise elapsed (Some solver)
        (Some (shard, seed, budget))
        (Some exploits)
  | fields ->
      Error
        (Printf.sprintf "expected 11, 12 or 16 tab-separated fields, got %d"
           (List.length fields))

exception Malformed of string

let has_prefix ~prefix line =
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

let load_full path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let bad line_no reason =
        raise
          (Malformed
             (Printf.sprintf
                "%s:%d: malformed journal line (%s); refusing to resume from \
                 a corrupt journal"
                path line_no reason))
      in
      let parse_line line_no line =
        if has_prefix ~prefix:magic_hdr line then
          (* The header is only valid as line 1, where it was consumed
             below; anywhere else it is a torn or spliced file. *)
          bad line_no "header line after line 1"
        else
          match entry_of_line line with
          | Ok e -> e
          | Error reason -> bad line_no reason
      in
      let rec go acc line_no =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> go (parse_line line_no line :: acc) (line_no + 1)
      in
      match input_line ic with
      | exception End_of_file -> (None, [])
      | first when has_prefix ~prefix:magic_hdr first -> (
          match header_of_line first with
          | Ok h -> (Some h, go [] 2)
          | Error reason -> bad 1 reason)
      | first -> (None, go [ parse_line 1 first ] 2))

let load path = snd (load_full path)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = { oc : out_channel; wlock : Mutex.t }

let open_writer ?header path =
  let fresh = not (Sys.file_exists path) in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  (* A crash right after creating the journal must not lose the file
     itself: the fsync-per-line discipline below only covers contents,
     not the new directory entry. *)
  if fresh then Wasai_support.Fsutil.fsync_dir (Filename.dirname path);
  (* The header goes on fresh files only: appending one mid-file would
     corrupt an existing journal, and resume validates the existing
     header against the run's configuration before reaching here. *)
  (match header with
  | Some h when fresh ->
      output_string oc (line_of_header h);
      output_char oc '\n';
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc)
  | _ -> ());
  { oc; wlock = Mutex.create () }

let append w e =
  let line = line_of_entry e in
  Mutex.protect w.wlock (fun () ->
      let t0 = Wasai_telemetry.Telemetry.start () in
      output_string w.oc line;
      output_char w.oc '\n';
      flush w.oc;
      (* The line must reach disk before the work counts as done:
         a resume must never skip work whose result a crash threw away. *)
      Unix.fsync (Unix.descr_of_out_channel w.oc);
      Wasai_telemetry.Telemetry.stop Wasai_telemetry.Telemetry.Journal_fsync t0)

let close_writer w = Mutex.protect w.wlock (fun () -> close_out_noerr w.oc)
