(** Crash-safe append-only journal of completed campaign targets.

    A non-empty journal is one header line followed by entry lines, all
    tab-separated with fixed field order:

    {v
    wasai-journal-hdr backend=<tier> [telemetry=on]
    wasai-journal-v4 <name> <flags> branches= rounds= seeds= adaptive=
      tx= sat= imprecise= elapsed= solver=q:N,b:N,u:N,h:N,m:N,fb:N
      shard=i/N seed=S budget=N exploits=<recs|->          (16 fields)
    v}

    where [<flags>] is [FakeEOS=0,FakeNotif=1,...] covering exactly
    {!Core.Scanner.legacy_flags} in order, followed by the fired subset
    of {!Core.Scanner.extension_flags} in canonical order (each as
    [Name=1]; quiet extension flags are omitted).  That split keeps every
    line written for a contract with no extension-class findings
    byte-identical to pre-extension builds, while new classes still
    round-trip strictly — an extension flag that is out of order,
    duplicated, unknown, or carries any verdict other than [1] rejects
    the line.  [fb] is the engine's final adaptive solver conflict
    budget; [exploits=] holds [;]-separated
    [FLAG@channel@account@action@auth@hex] records ([-] when none).

    Parsing is strict: a first line that is not a header, wrong magic,
    wrong field count, unknown keys, out-of-order flags, duplicate
    exploit flags, or a number or hex string in any spelling but the
    one written ({!Wasai_support.Canonical}) all reject the journal.  A
    final line without its newline was never acknowledged and is
    skipped ({!Wasai_support.Fsutil.fold_lines}); {!Store} owns the
    writing side. *)

module Core = Wasai_core
module Solver = Wasai_smt.Solver
module Canonical = Wasai_support.Canonical

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
  je_final_budget : int;  (** the engine's final adaptive solver budget *)
  je_stamp : stamp;
  je_exploits : (Core.Scanner.flag * Core.Scanner.evidence) list;
}

let magic = "wasai-journal-v4"
let magic_hdr = "wasai-journal-hdr"

(** File-level provenance, line 1 of every journal: the execution tier
    and whether span profiling was on, both of which resume must match. *)
type header = {
  jh_backend : Wasai_core.Exec_backend.choice;
  jh_telemetry : bool;
}

let line_of_header (h : header) =
  Printf.sprintf "%s\tbackend=%s%s" magic_hdr
    (Core.Exec_backend.to_string h.jh_backend)
    (if h.jh_telemetry then "\ttelemetry=on" else "")

let of_outcome ~name ~elapsed ~stamp (o : Core.Engine.outcome) =
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
  let st = e.je_solver in
  String.concat "\t"
    [
      magic; e.je_name; flags_field e.je_flags;
      Printf.sprintf "branches=%d" e.je_branches;
      Printf.sprintf "rounds=%d" e.je_rounds;
      Printf.sprintf "seeds=%d" e.je_seeds_total;
      Printf.sprintf "adaptive=%d" e.je_adaptive_seeds;
      Printf.sprintf "tx=%d" e.je_transactions;
      Printf.sprintf "sat=%d" e.je_solver_sat;
      Printf.sprintf "imprecise=%d" e.je_imprecise;
      Printf.sprintf "elapsed=%.6f" e.je_elapsed;
      Printf.sprintf "solver=q:%d,b:%d,u:%d,h:%d,m:%d,fb:%d" st.Solver.st_quick
        st.Solver.st_blasted st.Solver.st_unknown st.Solver.st_cache_hits
        st.Solver.st_cache_misses e.je_final_budget;
      Printf.sprintf "shard=%s" (Shard.to_string e.je_stamp.js_shard);
      Printf.sprintf "seed=%Ld" e.je_stamp.js_seed;
      Printf.sprintf "budget=%d" e.je_stamp.js_rounds;
      "exploits=" ^ exploits_field e.je_exploits;
    ]

(* ------------------------------------------------------------------ *)
(* Strict parsing                                                      *)
(* ------------------------------------------------------------------ *)

(* Every number is read in the one spelling [line_of_entry] writes. *)
let keyed = Canonical.keyed
let count = Canonical.count

(* [elapsed=] as [%.6f] writes it, finite. *)
let elapsed v =
  match
    Canonical.spelled ~parse:float_of_string_opt ~print:(Printf.sprintf "%.6f")
      v
  with
  | Some x when Float.is_finite x -> Some x
  | _ -> None

let header_of_line (line : string) : (header, string) result =
  let ( let* ) = Result.bind in
  let backend field =
    let* v = keyed "backend" Option.some field in
    Core.Exec_backend.of_string v
  in
  match String.split_on_char '\t' line with
  | [ m; b ] when m = magic_hdr ->
      let* jh_backend = backend b in
      Ok { jh_backend; jh_telemetry = false }
  | [ m; b; t ] when m = magic_hdr ->
      let* jh_backend = backend b in
      let* () = keyed "telemetry" (function "on" -> Some () | _ -> None) t in
      Ok { jh_backend; jh_telemetry = true }
  | m :: _ when m = magic_hdr ->
      Error "header line: expected 2 or 3 tab-separated fields"
  | fields ->
      Error
        (Printf.sprintf "expected a journal header (%s), got %S" magic_hdr
           (List.hd fields))

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
          match keyed name count p with
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
              match keyed name count p with
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

(* [solver=q:N,b:N,u:N,h:N,m:N,fb:N], parsed as strictly as every
   other field: fixed counter order, no unknown keys.  [fb] is the final
   adaptive budget. *)
let parse_solver (field : string) : (Solver.stats * int, string) result =
  let ( let* ) = Result.bind in
  let* v = keyed "solver" Option.some field in
  let counter key part =
    match String.index_opt part ':' with
    | Some i when String.sub part 0 i = key ->
        count (String.sub part (i + 1) (String.length part - i - 1))
    | _ -> None
  in
  match String.split_on_char ',' v with
  | [ q; b; u; h; m; fb ] -> (
      match
        (counter "q" q, counter "b" b, counter "u" u, counter "h" h,
         counter "m" m, counter "fb" fb)
      with
      | ( Some st_quick, Some st_blasted, Some st_unknown, Some st_cache_hits,
          Some st_cache_misses, Some budget ) ->
          Ok
            ( {
                Solver.st_quick; st_blasted; st_unknown; st_cache_hits;
                st_cache_misses;
              },
              budget )
      | _ -> Error (Printf.sprintf "solver field %S: bad counters" v))
  | parts ->
      Error
        (Printf.sprintf "solver field %S: expected 6 counters, got %d" v
           (List.length parts))

(* The provenance stamp, three consecutive fields. *)
let parse_stamp shard seed budget : (stamp, string) result =
  let ( let* ) = Result.bind in
  let* js_shard =
    let* s = keyed "shard" Option.some shard in
    Shard.of_string s
  in
  let* js_seed = keyed "seed" Canonical.int64 seed in
  let* js_rounds = keyed "budget" count budget in
  Ok { js_shard; js_seed; js_rounds }

(* The exploit list: [-] for none, else [;]-separated
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
  match String.split_on_char '\t' line with
  | m :: _ when m <> magic -> Error (Printf.sprintf "bad magic %S" m)
  | [ _; name; flags; branches; rounds; seeds; adaptive; tx; sat; imprecise;
      elapsed_field; solver; shard; seed; budget; exploits ] ->
      if name = "" then Error "empty target name"
      else
        let* je_flags = parse_flags flags in
        let* je_branches = keyed "branches" count branches in
        let* je_rounds = keyed "rounds" count rounds in
        let* je_seeds_total = keyed "seeds" count seeds in
        let* je_adaptive_seeds = keyed "adaptive" count adaptive in
        let* je_transactions = keyed "tx" count tx in
        let* je_solver_sat = keyed "sat" count sat in
        let* je_imprecise = keyed "imprecise" count imprecise in
        let* je_elapsed = keyed "elapsed" elapsed elapsed_field in
        let* je_solver, je_final_budget = parse_solver solver in
        let* je_stamp = parse_stamp shard seed budget in
        let* je_exploits = parse_exploits exploits in
        Ok
          {
            je_name = name; je_flags; je_branches; je_rounds; je_seeds_total;
            je_adaptive_seeds; je_transactions; je_solver_sat; je_imprecise;
            je_elapsed; je_solver; je_final_budget; je_stamp; je_exploits;
          }
  | fields ->
      Error
        (Printf.sprintf "expected 16 tab-separated fields, got %d"
           (List.length fields))

exception Malformed of string

let load_full path =
  let bad line_no reason =
    raise
      (Malformed
         (Printf.sprintf
            "%s:%d: malformed journal line (%s); refusing to resume from a \
             corrupt journal"
            path line_no reason))
  in
  (* A header anywhere but line 1 fails the entry magic check: it is a
     spliced file. *)
  let header, entries =
    Wasai_support.Fsutil.fold_lines path
      (fun (header, entries) line_no line ->
        if line_no = 1 then
          match header_of_line line with
          | Ok h -> (Some h, [])
          | Error reason -> bad 1 reason
        else
          match entry_of_line line with
          | Ok e -> (header, e :: entries)
          | Error reason -> bad line_no reason)
      (None, [])
  in
  (header, List.rev entries)

let load path = snd (load_full path)
