(** Persistent coverage-indexed seed corpus.

    One line per interesting seed (a seed whose executions opened at
    least one new branch edge), tab-separated with fixed field order:

    {v
    wasai-corpus-v1 <target> <action> sig=%016Lx cover=site:dir,...
      new=N round=N shard=i/N seed=S budget=R
      solver=q:N,b:N,u:N,h:N,m:N sbudget=N args=<wire|->   (13 fields)
    v}

    [sig] is {!Wasai_wasabi.Trace.edge_signature} of the [cover] edge
    set; the parser recomputes it, so a line whose cover was torn by a
    crash — or edited by hand — is rejected rather than silently
    admitted with a stale index key.  [cover] must be sorted strictly
    ascending (the canonical form the signature is defined over).
    [shard]/[seed]/[budget] carry the producing campaign's provenance
    stamp (same notation as the journal), [round] the engine round that
    executed the seed, [solver]/[sbudget] the producing run's solver
    counters and final adaptive conflict budget.

    [args] is a self-describing typed wire — [,]-separated
    [tag:payload] items ([n:] name, [u:] u64 hex, [w:] u32 hex,
    [a:amount-hex:symbol-hex] asset, [s:] hex-encoded string bytes), or
    [-] for an empty vector — so a corpus can be parsed, deduplicated
    and minimised without the target's ABI on hand.

    Writes follow the journal's crash-safety discipline: append full
    lines, fsync, and only then acknowledge (the campaign store owns the
    writing side).  A final line without its newline was never
    acknowledged and is skipped.  Parsing of every complete line is
    strict: wrong magic, wrong field count, unknown keys or tags,
    unsorted covers, signature mismatches, and numbers or hex strings in
    any spelling but the one written ({!Wasai_support.Canonical}) all
    reject the line with its reason. *)

module Trace = Wasai_wasabi.Trace
module Solver = Wasai_smt.Solver
module Canonical = Wasai_support.Canonical
open Wasai_eosio

type record = {
  rc_target : string;  (** campaign target name (an EOSIO account) *)
  rc_action : Name.t;
  rc_args : Abi.value list;
  rc_sig : int64;  (** {!Trace.edge_signature} of [rc_cover] *)
  rc_cover : (int * int32) list;  (** sorted strictly ascending, non-empty *)
  rc_new_edges : int;  (** edges of [rc_cover] that were new when recorded *)
  rc_round : int;  (** engine round that executed the seed *)
  rc_shard : int * int;  (** producing campaign's shard slice (i, N) *)
  rc_seed : int64;  (** producing campaign's engine root RNG seed *)
  rc_rounds : int;  (** producing campaign's engine round budget *)
  rc_solver : Solver.stats;  (** producing run's solver counters *)
  rc_solver_budget : int;  (** producing run's final adaptive budget *)
}

let magic = "wasai-corpus-v1"

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let wire_of_value (v : Abi.value) : string =
  match v with
  | Abi.V_name n -> "n:" ^ Name.to_string n
  | Abi.V_u64 x -> Printf.sprintf "u:%Lx" x
  | Abi.V_u32 x -> Printf.sprintf "w:%lx" x
  | Abi.V_asset a ->
      Printf.sprintf "a:%Lx:%Lx" a.Asset.amount (a.Asset.symbol : Asset.Symbol.t)
  | Abi.V_string s -> "s:" ^ Canonical.hex_of_string s

let value_of_wire (item : string) : (Abi.value, string) result =
  let ( let* ) = Result.bind in
  let payload tag =
    let p = String.length tag in
    if
      String.length item > p
      && String.sub item 0 p = tag
      && item.[p] = ':'
    then Some (String.sub item (p + 1) (String.length item - p - 1))
    else None
  in
  let int64_hex =
    Canonical.spelled
      ~parse:(fun s -> Int64.of_string_opt ("0x" ^ s))
      ~print:(Printf.sprintf "%Lx")
  in
  match (payload "n", payload "u", payload "w", payload "a", payload "s") with
  | Some n, _, _, _, _ -> (
      match Name.of_string n with
      | name -> Ok (Abi.V_name name)
      | exception Invalid_argument _ ->
          Error (Printf.sprintf "bad name %S" n))
  | _, Some u, _, _, _ -> (
      match int64_hex u with
      | Some x -> Ok (Abi.V_u64 x)
      | None -> Error (Printf.sprintf "bad u64 %S" u))
  | _, _, Some w, _, _ -> (
      match
        Canonical.spelled
          ~parse:(fun s -> Int32.of_string_opt ("0x" ^ s))
          ~print:(Printf.sprintf "%lx") w
      with
      | Some x -> Ok (Abi.V_u32 x)
      | None -> Error (Printf.sprintf "bad u32 %S" w))
  | _, _, _, Some a, _ -> (
      match String.split_on_char ':' a with
      | [ amount; symbol ] -> (
          match (int64_hex amount, int64_hex symbol) with
          | Some amount, Some symbol ->
              Ok (Abi.V_asset { Asset.amount; symbol })
          | _ -> Error (Printf.sprintf "bad asset %S" a))
      | _ -> Error (Printf.sprintf "bad asset %S" a))
  | _, _, _, _, Some s ->
      let* bytes = Canonical.string_of_hex s in
      if String.length bytes > 255 then
        Error (Printf.sprintf "string payload over 255 bytes (%d)" (String.length bytes))
      else Ok (Abi.V_string bytes)
  | _ -> Error (Printf.sprintf "unknown value tag in %S" item)

let wire_of_args (args : Abi.value list) : string =
  match args with
  | [] -> "-"
  | _ -> String.concat "," (List.map wire_of_value args)

let args_of_wire (s : string) : (Abi.value list, string) result =
  if s = "-" then Ok []
  else
    List.fold_left
      (fun acc item ->
        Result.bind acc (fun acc ->
            Result.map (fun v -> v :: acc) (value_of_wire item)))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

let line_of_record (r : record) : string =
  let cover =
    String.concat ","
      (List.map (fun (site, dir) -> Printf.sprintf "%d:%ld" site dir) r.rc_cover)
  in
  String.concat "\t"
    [
      magic;
      r.rc_target;
      Name.to_string r.rc_action;
      Printf.sprintf "sig=%016Lx" r.rc_sig;
      "cover=" ^ cover;
      Printf.sprintf "new=%d" r.rc_new_edges;
      Printf.sprintf "round=%d" r.rc_round;
      Printf.sprintf "shard=%d/%d" (fst r.rc_shard) (snd r.rc_shard);
      Printf.sprintf "seed=%Ld" r.rc_seed;
      Printf.sprintf "budget=%d" r.rc_rounds;
      Printf.sprintf "solver=q:%d,b:%d,u:%d,h:%d,m:%d" r.rc_solver.Solver.st_quick
        r.rc_solver.Solver.st_blasted r.rc_solver.Solver.st_unknown
        r.rc_solver.Solver.st_cache_hits r.rc_solver.Solver.st_cache_misses;
      Printf.sprintf "sbudget=%d" r.rc_solver_budget;
      "args=" ^ wire_of_args r.rc_args;
    ]

(* ------------------------------------------------------------------ *)
(* Strict parsing                                                      *)
(* ------------------------------------------------------------------ *)

(* Every number is read in the one spelling [line_of_record] writes. *)
let keyed = Canonical.keyed
let count = Canonical.count

let parse_cover (v : string) : ((int * int32) list, string) result =
  let ( let* ) = Result.bind in
  let edge item =
    match String.index_opt item ':' with
    | Some i -> (
        let site = String.sub item 0 i in
        let dir = String.sub item (i + 1) (String.length item - i - 1) in
        match
          ( count site,
            Canonical.spelled ~parse:Int32.of_string_opt ~print:Int32.to_string
              dir )
        with
        | Some site, Some dir -> Ok (site, dir)
        | _ -> Error (Printf.sprintf "bad edge %S" item))
    | None -> Error (Printf.sprintf "bad edge %S" item)
  in
  let* edges =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* e = edge item in
        Ok (e :: acc))
      (Ok [])
      (String.split_on_char ',' v)
    |> Result.map List.rev
  in
  if edges = [] then Error "empty cover"
  else
    let rec sorted = function
      | a :: (b :: _ as rest) ->
          if compare a b < 0 then sorted rest
          else Error (Printf.sprintf "cover not sorted strictly ascending at %d:%ld" (fst b) (snd b))
      | _ -> Ok edges
    in
    sorted edges

let parse_shard (v : string) : (int * int, string) result =
  match String.index_opt v '/' with
  | Some i -> (
      let idx = String.sub v 0 i in
      let n = String.sub v (i + 1) (String.length v - i - 1) in
      match (count idx, count n) with
      | Some idx, Some n when n >= 1 && idx < n -> Ok (idx, n)
      | _ -> Error (Printf.sprintf "bad shard %S" v))
  | None -> Error (Printf.sprintf "bad shard %S" v)

let parse_solver (v : string) : (Solver.stats, string) result =
  let counter key part =
    match String.index_opt part ':' with
    | Some i when String.sub part 0 i = key ->
        count (String.sub part (i + 1) (String.length part - i - 1))
    | _ -> None
  in
  match String.split_on_char ',' v with
  | [ q; b; u; h; m ] -> (
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
      | _ -> Error (Printf.sprintf "solver field %S: bad counters" v))
  | _ -> Error (Printf.sprintf "solver field %S: expected 5 counters" v)

let sig_hex =
  Canonical.spelled
    ~parse:(fun v -> Int64.of_string_opt ("0x" ^ v))
    ~print:(Printf.sprintf "%016Lx")

let record_of_line (line : string) : (record, string) result =
  let ( let* ) = Result.bind in
  match String.split_on_char '\t' line with
  | [ m; target; action; sg; cover; new_; round; shard; seed; budget; solver;
      sbudget; args ] ->
      if m <> magic then Error (Printf.sprintf "bad magic %S" m)
      else
        let* rc_target =
          match Name.of_string target with
          | _ -> Ok target
          | exception Invalid_argument _ ->
              Error (Printf.sprintf "target %S is not an EOSIO name" target)
        in
        let* rc_action =
          match Name.of_string action with
          | a -> Ok a
          | exception Invalid_argument _ ->
              Error (Printf.sprintf "action %S is not an EOSIO name" action)
        in
        let* rc_sig = keyed "sig" sig_hex sg in
        let* rc_cover = Result.bind (keyed "cover" Option.some cover) parse_cover in
        let* rc_new_edges = keyed "new" count new_ in
        let* rc_round = keyed "round" count round in
        let* rc_shard = Result.bind (keyed "shard" Option.some shard) parse_shard in
        let* rc_seed = keyed "seed" Canonical.int64 seed in
        let* rc_rounds = keyed "budget" count budget in
        let* rc_solver = Result.bind (keyed "solver" Option.some solver) parse_solver in
        let* rc_solver_budget = keyed "sbudget" count sbudget in
        let* rc_args = Result.bind (keyed "args" Option.some args) args_of_wire in
        if rc_new_edges < 1 || rc_new_edges > List.length rc_cover then
          Error
            (Printf.sprintf "new=%d outside 1..%d (the cover size)"
               rc_new_edges (List.length rc_cover))
        else
          let expect = Trace.edge_signature rc_cover in
          if expect <> rc_sig then
            Error
              (Printf.sprintf
                 "signature %016Lx does not match the cover (expected %016Lx) \
                  — torn or edited line"
                 rc_sig expect)
          else
            Ok
              {
                rc_target; rc_action; rc_args; rc_sig; rc_cover; rc_new_edges;
                rc_round; rc_shard; rc_seed; rc_rounds; rc_solver;
                rc_solver_budget;
              }
  | fields ->
      Error
        (Printf.sprintf "expected 13 tab-separated fields, got %d"
           (List.length fields))

exception Malformed of string

(* ------------------------------------------------------------------ *)
(* In-memory corpus with a signature index                             *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable items : record list;  (** newest first *)
  index : (string * int64, unit) Hashtbl.t;  (** (target, signature) *)
}

let create () = { items = []; index = Hashtbl.create 64 }
let size t = List.length t.items
let mem t ~target sg = Hashtbl.mem t.index (target, sg)

(** Dedupe-on-insert: a seed whose (target, coverage-signature) pair is
    already present adds nothing — its edge set is already replayable. *)
let add t (r : record) : bool =
  let key = (r.rc_target, r.rc_sig) in
  if Hashtbl.mem t.index key then false
  else begin
    Hashtbl.replace t.index key ();
    t.items <- r :: t.items;
    true
  end

(* Canonical record order — (target, action, signature) — so everything
   derived from a corpus (preload lists, minimised corpora, saved files,
   stats) is independent of the on-disk append order. *)
let record_compare (a : record) (b : record) =
  compare
    (a.rc_target, Name.to_string a.rc_action, a.rc_sig)
    (b.rc_target, Name.to_string b.rc_action, b.rc_sig)

let records t = List.sort record_compare t.items

let targets t =
  List.sort_uniq compare (List.map (fun r -> r.rc_target) t.items)

let records_for t ~target =
  List.filter (fun r -> r.rc_target = target) (records t)

let preload t ~target =
  List.map (fun r -> (r.rc_action, r.rc_args)) (records_for t ~target)

let load path : t =
  Wasai_support.Fsutil.fold_lines path
    (fun t line_no line ->
      match record_of_line line with
      | Ok r ->
          ignore (add t r);
          t
      | Error reason ->
          raise
            (Malformed
               (Printf.sprintf
                  "%s:%d: malformed corpus line (%s); refusing to load a \
                   corrupt corpus"
                  path line_no reason)))
    (create ())

let save t path =
  (* Atomic replace: write a sibling temp file, fsync, rename over. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (line_of_record r);
          output_char oc '\n')
        (records t);
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* Persist the rename itself, not just the file contents. *)
  Wasai_support.Fsutil.fsync_dir (Filename.dirname path)

(* ------------------------------------------------------------------ *)
(* Greedy set-cover minimisation                                       *)
(* ------------------------------------------------------------------ *)

(** Per target, keep a subset of seeds whose covers union to the same
    edge set, chosen greedily: repeatedly take the seed covering the
    most still-uncovered edges (ties broken by canonical record order,
    so the result is deterministic); stop when no seed adds an edge.
    The classic ln(n)-approximation — exact minimality is NP-hard, but
    the greedy pick is what corpus minimisers (afl-cmin et al.) ship. *)
let minimize t : t =
  let out = create () in
  List.iter
    (fun target ->
      let recs = records_for t ~target in
      let covered = Hashtbl.create 256 in
      let gain r =
        List.length
          (List.filter (fun e -> not (Hashtbl.mem covered e)) r.rc_cover)
      in
      let remaining = ref recs in
      let continue_ = ref true in
      while !continue_ do
        let best =
          List.fold_left
            (fun acc r ->
              let g = gain r in
              match acc with
              | Some (_, bg) when bg >= g -> acc
              | _ when g > 0 -> Some (r, g)
              | _ -> acc)
            None !remaining
        in
        match best with
        | None -> continue_ := false
        | Some (r, _) ->
            ignore (add out r);
            List.iter (fun e -> Hashtbl.replace covered e ()) r.rc_cover;
            remaining := List.filter (fun r' -> r' != r) !remaining
      done)
    (targets t);
  out

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let edge_union (recs : record list) =
  let edges = Hashtbl.create 256 in
  List.iter
    (fun r -> List.iter (fun e -> Hashtbl.replace edges e ()) r.rc_cover)
    recs;
  Hashtbl.length edges

let stats_text t : string =
  let b = Buffer.create 256 in
  let tgts = targets t in
  Buffer.add_string b
    (Printf.sprintf "corpus: %d seeds across %d targets\n" (size t)
       (List.length tgts));
  List.iter
    (fun target ->
      let recs = records_for t ~target in
      let actions =
        List.sort_uniq compare
          (List.map (fun r -> Name.to_string r.rc_action) recs)
      in
      Buffer.add_string b
        (Printf.sprintf "%-13s seeds=%d actions=%d edges=%d\n" target
           (List.length recs) (List.length actions) (edge_union recs)))
    tgts;
  Buffer.contents b
