(** Textual vulnerability reports for engine outcomes — the output format
    of the CLI and of batch scans. *)

type t = {
  rpt_target : string;  (** contract identifier (file or account) *)
  rpt_outcome : Engine.outcome;
  rpt_elapsed : float option;
  rpt_abi : Wasai_eosio.Abi.t option;  (** decodes exploit arguments *)
}

let make ?elapsed ?abi ~target (outcome : Engine.outcome) : t =
  {
    rpt_target = target;
    rpt_outcome = outcome;
    rpt_elapsed = elapsed;
    rpt_abi = abi;
  }

let vulnerable (r : t) = Engine.any_flagged r.rpt_outcome

let flags_found (r : t) : string list =
  List.filter_map
    (fun (f, b) -> if b then Some (Scanner.string_of_flag f) else None)
    r.rpt_outcome.Engine.out_flags
  @ List.filter_map
      (fun (name, b) -> if b then Some name else None)
      r.rpt_outcome.Engine.out_custom

(** One-line summary: "<target>: VULNERABLE [FakeEOS; Rollback]". *)
let summary (r : t) : string =
  if vulnerable r then
    Printf.sprintf "%s: VULNERABLE [%s]" r.rpt_target
      (String.concat "; " (flags_found r))
  else Printf.sprintf "%s: ok" r.rpt_target

(** Full multi-line report. *)
let to_text ?(verbose = false) (r : t) : string =
  let o = r.rpt_outcome in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "WASAI report for %s (%d fuzzing rounds%s)" r.rpt_target
    o.Engine.out_rounds
    (match r.rpt_elapsed with
     | Some s -> Printf.sprintf ", %.2fs" s
     | None -> "");
  line "  transactions executed : %d" o.Engine.out_transactions;
  line "  distinct branches     : %d" o.Engine.out_branches;
  line "  adaptive seeds solved : %d" o.Engine.out_adaptive_seeds;
  (* Solver accounting in the main body: Unknown-heavy targets (budget
     exhaustion masking bugs) must be visible without a campaign run. *)
  let st = o.Engine.out_solver in
  line "  solver: quick=%d blasted=%d unknown=%d"
    st.Wasai_smt.Solver.st_quick st.Wasai_smt.Solver.st_blasted
    st.Wasai_smt.Solver.st_unknown;
  if o.Engine.out_truncated > 0 then
    line "  WARNING: %d payload trace%s truncated at the collector limit; verdicts are best-effort"
      o.Engine.out_truncated
      (if o.Engine.out_truncated = 1 then "" else "s");
  line "  verdicts:";
  List.iter
    (fun (f, b) ->
      line "    %-14s %s"
        (Scanner.string_of_flag f)
        (if b then "VULNERABLE" else "ok"))
    o.Engine.out_flags;
  List.iter
    (fun (name, b) -> line "    %-14s %s" name (if b then "FIRED" else "quiet"))
    o.Engine.out_custom;
  if o.Engine.out_exploits <> [] then begin
    line "  exploit payloads:";
    List.iter
      (fun (f, e) ->
        line "    %-14s %s"
          (Scanner.string_of_flag f)
          (Scanner.string_of_evidence ?abi:r.rpt_abi e))
      o.Engine.out_exploits
  end;
  if verbose then begin
    line "  seeds generated       : %d" o.Engine.out_seeds_total;
    line "  SMT queries satisfied : %d" o.Engine.out_solver_sat;
    line "  replay imprecision    : %d" o.Engine.out_imprecise
  end;
  Buffer.contents buf
