(** Shared machinery for the evaluation harness: running the three tools
    over a corpus and printing paper-style P/R/F1 tables with the paper's
    reference numbers alongside. *)

open Wasai_support
module BG = Wasai_benchgen
module Core = Wasai_core
module BL = Wasai_baselines

type options = {
  opt_scale : int;  (** corpus divisor (1 = the full paper-sized corpus) *)
  opt_rounds : int;  (** fuzzing iterations per contract *)
  opt_fig3_contracts : int;
  opt_seed : int64;
}

let default_options =
  {
    opt_scale = 20;
    opt_rounds = 24;
    opt_fig3_contracts = 30;
    opt_seed = 42L;
  }

let flag_of_class = function
  | BG.Contracts.Fake_eos -> Core.Scanner.Fake_eos
  | BG.Contracts.Fake_notif -> Core.Scanner.Fake_notif
  | BG.Contracts.Miss_auth -> Core.Scanner.Miss_auth
  | BG.Contracts.Blockinfo_dep -> Core.Scanner.Blockinfo_dep
  | BG.Contracts.Rollback -> Core.Scanner.Rollback
  | BG.Contracts.State_io -> Core.Scanner.State_io
  | BG.Contracts.Fake_transfer -> Core.Scanner.Fake_transfer
  | BG.Contracts.Asset_overflow -> Core.Scanner.Asset_overflow

let target_of_sample (s : BG.Corpus.sample) : Core.Engine.target =
  {
    Core.Engine.tgt_account = s.BG.Corpus.smp_spec.BG.Contracts.sp_account;
    tgt_module = s.BG.Corpus.smp_module;
    tgt_abi = s.BG.Corpus.smp_abi;
  }

type tool_verdict = Core.Scanner.flag -> bool option

(* Run WASAI on one sample. *)
let run_wasai ~rounds (s : BG.Corpus.sample) : tool_verdict =
  let o =
    Core.Engine.fuzz
      ~cfg:
        (Core.Engine.make_config ~rounds
           ~rng_seed:(Int64.of_int s.BG.Corpus.smp_id)
           ())
      (target_of_sample s)
  in
  fun f -> Some (Core.Engine.flagged o f)

let run_eosfuzzer ~rounds (s : BG.Corpus.sample) : tool_verdict =
  let o =
    BL.Eosfuzzer.fuzz ~rounds
      ~rng_seed:(Int64.of_int ((s.BG.Corpus.smp_id * 31) + 7))
      (target_of_sample s)
  in
  fun f -> BL.Eosfuzzer.flagged o f

let run_eosafe (s : BG.Corpus.sample) : tool_verdict =
  let v = BL.Eosafe.analyze s.BG.Corpus.smp_module in
  let flags = BL.Eosafe.flags v in
  fun f -> Option.join (List.assoc_opt f flags)

(* ------------------------------------------------------------------ *)
(* Accuracy tables (Tables 4/5/6)                                      *)
(* ------------------------------------------------------------------ *)

type table_row = {
  row_class : BG.Contracts.vuln;
  row_count : int;
  row_cells : (string * Metrics.confusion option) list;  (** per tool *)
}

let tools = [ "WASAI"; "EOSFuzzer"; "EOSAFE" ]

let evaluate_corpus ~(rounds : int) (corpus : BG.Corpus.sample list) :
    table_row list =
  let conf : (string * BG.Contracts.vuln, Metrics.confusion) Hashtbl.t =
    Hashtbl.create 32
  in
  let get tool cls =
    match Hashtbl.find_opt conf (tool, cls) with
    | Some c -> c
    | None ->
        let c = Metrics.empty () in
        Hashtbl.replace conf (tool, cls) c;
        c
  in
  let n = List.length corpus in
  List.iteri
    (fun i (s : BG.Corpus.sample) ->
      if i mod 50 = 0 then
        Printf.eprintf "  [%d/%d] fuzzing %s...\n%!" i n
          (Wasai_eosio.Name.to_string s.BG.Corpus.smp_spec.BG.Contracts.sp_account);
      let flag = flag_of_class s.BG.Corpus.smp_class in
      let record tool verdict =
        match verdict flag with
        | Some predicted ->
            Metrics.record (get tool s.BG.Corpus.smp_class)
              ~truth:s.BG.Corpus.smp_truth ~predicted
        | None -> ()
      in
      record "WASAI" (run_wasai ~rounds s);
      record "EOSFuzzer" (run_eosfuzzer ~rounds s);
      record "EOSAFE" (run_eosafe s))
    corpus;
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (s : BG.Corpus.sample) ->
      Hashtbl.replace counts s.BG.Corpus.smp_class
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.BG.Corpus.smp_class)))
    corpus;
  List.filter_map
    (fun (cls, _) ->
      match Hashtbl.find_opt counts cls with
      | None -> None
      | Some count ->
          Some
            {
              row_class = cls;
              row_count = count;
              row_cells =
                List.map (fun tool -> (tool, Hashtbl.find_opt conf (tool, cls))) tools;
            })
    (BG.Corpus.paper_counts @ BG.Corpus.extension_counts)

(* Paper reference cells: (P, R, F1) as percentages; None = unsupported. *)
type paper_cell = (float * float * float) option

let print_table ~(title : string)
    ~(paper : (BG.Contracts.vuln * paper_cell list) list)
    (rows : table_row list) =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "%-14s %-7s" "Class" "#";
  List.iter (fun t -> Printf.printf "| %-26s " t) tools;
  Printf.printf "\n%-22s" "";
  List.iter (fun _ -> Printf.printf "| %-26s " "P      R      F1") tools;
  print_newline ();
  let totals = List.map (fun t -> (t, Metrics.empty ())) tools in
  List.iter
    (fun row ->
      Printf.printf "%-14s %-7d"
        (BG.Contracts.string_of_vuln row.row_class)
        row.row_count;
      List.iter
        (fun (tool, cell) ->
          match cell with
          | Some c ->
              Metrics.(
                Printf.printf "| %-8s %-6s %-9s "
                  (pct_string (precision c))
                  (pct_string (recall c))
                  (pct_string (f1 c)));
              let tc = List.assoc tool totals in
              tc.Metrics.tp <- tc.Metrics.tp + c.Metrics.tp;
              tc.Metrics.fp <- tc.Metrics.fp + c.Metrics.fp;
              tc.Metrics.tn <- tc.Metrics.tn + c.Metrics.tn;
              tc.Metrics.fn <- tc.Metrics.fn + c.Metrics.fn
          | None -> Printf.printf "| %-26s " "-")
        row.row_cells;
      (* paper reference line *)
      print_newline ();
      (match List.assoc_opt row.row_class paper with
       | Some cells ->
           Printf.printf "%-22s" "  (paper)";
           List.iter
             (function
               | Some (p, r, f) ->
                   Printf.printf "| %-8s %-6s %-9s "
                     (Printf.sprintf "%.1f%%" p) (Printf.sprintf "%.1f%%" r)
                     (Printf.sprintf "%.1f%%" f)
               | None -> Printf.printf "| %-26s " "-")
             cells
       | None -> ());
      print_newline ())
    rows;
  Printf.printf "%-22s" "Total";
  List.iter
    (fun (_, c) ->
      Metrics.(
        Printf.printf "| %-8s %-6s %-9s "
          (pct_string (precision c))
          (pct_string (recall c))
          (pct_string (f1 c))))
    totals;
  print_newline ()

(* Paper numbers, Tables 4, 5 and 6. *)
let paper_table4 : (BG.Contracts.vuln * paper_cell list) list =
  [
    (BG.Contracts.Fake_eos,
     [ Some (100., 100., 100.); Some (90.7, 84.3, 87.3); Some (98.3, 44.9, 61.6) ]);
    (BG.Contracts.Fake_notif,
     [ Some (100., 100., 100.); Some (94.9, 78.7, 86.0); Some (67.4, 98.3, 79.9) ]);
    (BG.Contracts.Miss_auth,
     [ Some (100., 96.0, 97.9); None; Some (100., 38.9, 56.0) ]);
    (BG.Contracts.Blockinfo_dep,
     [ Some (100., 100., 100.); Some (0., 0., 0.); None ]);
    (BG.Contracts.Rollback,
     [ Some (100., 95.7, 97.8); None; Some (50.5, 97.6, 66.6) ]);
  ]

let paper_table5 : (BG.Contracts.vuln * paper_cell list) list =
  [
    (BG.Contracts.Fake_eos,
     [ Some (100., 100., 100.); Some (91.4, 92.1, 91.8); Some (0., 0., 0.) ]);
    (BG.Contracts.Fake_notif,
     [ Some (92.4, 100., 96.0); Some (94.6, 78.1, 85.5); Some (67.5, 98.4, 80.0) ]);
    (BG.Contracts.Miss_auth,
     [ Some (100., 94.2, 97.0); None; Some (0., 0., 0.) ]);
    (BG.Contracts.Blockinfo_dep,
     [ Some (100., 100., 100.); Some (0., 0., 0.); None ]);
    (BG.Contracts.Rollback,
     [ Some (100., 95.7, 97.8); None; Some (50.4, 97.1, 66.3) ]);
  ]

let paper_table6 : (BG.Contracts.vuln * paper_cell list) list =
  [
    (BG.Contracts.Fake_eos,
     [ Some (100., 100., 100.); Some (50.0, 100., 66.7); Some (100., 43.2, 60.3) ]);
    (BG.Contracts.Fake_notif,
     [ Some (99.6, 83.0, 90.6); Some (0., 0., 0.); Some (68.1, 99.3, 80.8) ]);
    (BG.Contracts.Miss_auth,
     [ Some (100., 97.4, 98.7); None; Some (100., 40.5, 57.6) ]);
    (BG.Contracts.Blockinfo_dep,
     [ Some (100., 100., 100.); Some (0., 0., 0.); None ]);
    (BG.Contracts.Rollback,
     [ Some (100., 100., 100.); None; Some (50.0, 100., 66.7) ]);
  ]
