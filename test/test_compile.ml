(* Differential tests of the closure-compiled execution tier against the
   interpreter: the Exec_backend determinism contract says the backend
   choice must be invisible in every observable — verdicts, coverage,
   trace tapes, journal lines — and that fallback/fuel behaviour matches
   the interpreter exactly. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi
module Core = Wasai_core
module BG = Wasai_benchgen
module Campaign = Wasai_campaign
open Wasai_eosio

let target_of_sample (s : BG.Corpus.sample) : Core.Engine.target =
  {
    Core.Engine.tgt_account = s.BG.Corpus.smp_spec.BG.Contracts.sp_account;
    tgt_module = s.BG.Corpus.smp_module;
    tgt_abi = s.BG.Corpus.smp_abi;
  }

(* Every benchgen corpus contract, legacy ground truth plus the
   related-work extension classes, at suite-friendly scale. *)
let corpus_samples () =
  BG.Corpus.ground_truth ~scale:100 () @ BG.Corpus.extension ~scale:10 ()

let sample_name (s : BG.Corpus.sample) =
  Name.to_string s.BG.Corpus.smp_spec.BG.Contracts.sp_account

(* ------------------------------------------------------------------ *)
(* Outcome / journal-line parity over the full corpus                   *)
(* ------------------------------------------------------------------ *)

(* Everything deterministic the engine reports, flattened to text so a
   mismatch diffs legibly.  The stamped v4 journal line covers flags,
   counters, solver stats and exploit payloads; the rest (coverage
   signatures, timeline shape, custom verdicts) is appended. *)
let outcome_fingerprint ~name ~rounds ~seed (o : Core.Engine.outcome) =
  let open Core.Engine in
  let stamp =
    {
      Campaign.Journal.js_shard = Campaign.Shard.whole;
      js_seed = seed;
      js_rounds = rounds;
    }
  in
  let entry = Campaign.Journal.of_outcome ~name ~elapsed:0. ~stamp o in
  String.concat "\n"
    (Campaign.Journal.line_of_entry entry
     :: Printf.sprintf "verdict_round=%d truncated=%d" o.out_verdict_round
          o.out_truncated
     :: List.map
          (fun (nm, v) -> Printf.sprintf "custom %s=%b" nm v)
          o.out_custom
    @ List.map
        (fun (r, _, b) -> Printf.sprintf "timeline %d:%d" r b)
        o.out_timeline
    @ List.map
        (fun i ->
          Printf.sprintf "interesting r%d %s sig=%Lx new=%d cover=%s"
            i.is_round
            (Name.to_string i.is_action)
            i.is_signature i.is_new_edges
            (String.concat ","
               (List.map
                  (fun (site, dir) -> Printf.sprintf "%d.%ld" site dir)
                  i.is_cover)))
        o.out_interesting)

let test_corpus_outcome_parity () =
  let rounds = 6 in
  List.iter
    (fun s ->
      let name = sample_name s in
      let seed = Int64.of_int s.BG.Corpus.smp_id in
      let run backend =
        Core.Engine.fuzz
          ~cfg:(Core.Engine.make_config ~rounds ~rng_seed:seed ~backend ())
          (target_of_sample s)
      in
      let interp = run Core.Exec_backend.Interp in
      let compiled = run Core.Exec_backend.Auto in
      Alcotest.(check string)
        (Printf.sprintf "outcome parity %s" name)
        (outcome_fingerprint ~name ~rounds ~seed interp)
        (outcome_fingerprint ~name ~rounds ~seed compiled))
    (corpus_samples ())

(* ------------------------------------------------------------------ *)
(* Per-payload trace-tape parity                                        *)
(* ------------------------------------------------------------------ *)

let kind_char = function
  | Wasabi.Trace.Buffer.K_instr -> 'i'
  | K_call_pre -> 'c'
  | K_call_post -> 'p'
  | K_func_begin -> 'b'
  | K_func_end -> 'e'

let value_token v =
  let tag =
    match v with
    | Wasm.Values.I32 _ -> 'w'
    | I64 _ -> 'd'
    | F32 _ -> 'f'
    | F64 _ -> 'g'
  in
  Printf.sprintf "%c%Lx" tag (Wasm.Values.raw_bits v)

(* Snapshot of the event tape, rendered byte-comparably: kind, label and
   the raw bits plus width tag of every operand. *)
let tape (b : Wasabi.Trace.Buffer.t) =
  let events =
    List.init (Wasabi.Trace.Buffer.length b) (fun i ->
        Printf.sprintf "%c%d:%s"
          (kind_char (Wasabi.Trace.Buffer.kind b i))
          (Wasabi.Trace.Buffer.label b i)
          (String.concat ","
             (List.map value_token (Wasabi.Trace.Buffer.ops b i))))
  in
  Printf.sprintf "truncated=%b" (Wasabi.Trace.Buffer.truncated b) :: events

let result_string (r : Chain.tx_result) =
  Printf.sprintf "%b:%s:%s" r.Chain.tx_ok
    (Option.value ~default:"-" r.Chain.tx_error)
    (String.concat ","
       (List.map
          (fun (rcv, act) -> Name.to_string rcv ^ "/" ^ Name.to_string act)
          r.Chain.tx_actions_run))

let test_corpus_tape_parity () =
  let channels =
    Core.Scanner.[ Ch_genuine; Ch_direct; Ch_fake_token; Ch_fake_notif ]
  in
  List.iter
    (fun s ->
      let name = sample_name s in
      let mk backend =
        Core.Engine.setup
          (Core.Engine.make_config ~rounds:1 ~backend ())
          (target_of_sample s)
      in
      let si = mk Core.Exec_backend.Interp in
      let sc = mk Core.Exec_backend.Auto in
      (* Identical seed sequence for both sessions: the generator draws
         from its own RNG, not session state. *)
      let rng =
        Wasai_support.Rand.create (Int64.of_int (7919 + s.BG.Corpus.smp_id))
      in
      let seeds =
        List.map
          (Core.Seed.random rng ~identities:si.Core.Engine.identities)
          s.BG.Corpus.smp_abi.Abi.abi_actions
      in
      List.iter
        (fun seed ->
          List.iter
            (fun ch ->
              let label =
                Printf.sprintf "%s %s via %s" name
                  (Name.to_string seed.Core.Seed.sd_action)
                  (Core.Scanner.string_of_channel ch)
              in
              let exi = Core.Engine.run_one si seed ch in
              (* [ex_trace] aliases the collector: snapshot before the
                 session runs anything else. *)
              let ti = tape exi.Core.Engine.ex_trace in
              let ri = result_string exi.Core.Engine.ex_result in
              let exc = Core.Engine.run_one sc seed ch in
              Alcotest.(check string)
                (label ^ " result") ri
                (result_string exc.Core.Engine.ex_result);
              Alcotest.(check (list string))
                (label ^ " tape") ti
                (tape exc.Core.Engine.ex_trace))
            channels)
        seeds)
    (corpus_samples ())

(* ------------------------------------------------------------------ *)
(* Host imports linked once, context read per call                      *)
(* ------------------------------------------------------------------ *)

let no_action_running (chain : Chain.t) =
  Alcotest.(check bool) "no action running" true (chain.Chain.running = None)

(* The compiled executor links its pooled instance at the first action
   and never again, so its host functions must read each action's
   context when called.  Alternate direct actions with forwarded
   notifications, under different action data and auth, on one chain per
   backend: every result and tape must match the interpreter's, which
   links a fresh instance per action. *)
let test_context_parity_across_actions () =
  let s = List.nth (BG.Corpus.ground_truth ~scale:100 ()) 4 in
  let mk backend =
    Core.Engine.setup
      (Core.Engine.make_config ~rounds:1 ~backend ())
      (target_of_sample s)
  in
  let si = mk Core.Exec_backend.Interp and sc = mk Core.Exec_backend.Auto in
  let rng = Wasai_support.Rand.create 4242L in
  let seeds =
    List.concat_map
      (fun def ->
        List.init 2 (fun _ ->
            Core.Seed.random rng ~identities:si.Core.Engine.identities def))
      s.BG.Corpus.smp_abi.Abi.abi_actions
  in
  let run (sess : Core.Engine.session) i seed =
    let ch = if i mod 2 = 0 then Core.Scanner.Ch_direct else Ch_fake_notif in
    let ex = Core.Engine.run_one sess seed ch in
    no_action_running sess.Core.Engine.chain;
    ( result_string ex.Core.Engine.ex_result,
      tape ex.Core.Engine.ex_trace,
      Chain.console_output sess.Core.Engine.chain )
  in
  let outcomes = ref [] in
  List.iteri
    (fun i seed ->
      let ri, ti, ci = run si i seed in
      let rc, tc, cc = run sc i seed in
      let label = Printf.sprintf "action %d" i in
      outcomes := ri :: !outcomes;
      Alcotest.(check string) (label ^ " result") ri rc;
      Alcotest.(check (list string)) (label ^ " tape") ti tc;
      Alcotest.(check string) (label ^ " console") ci cc)
    seeds;
  Alcotest.(check bool)
    "both succeeding and failing actions" true
    (List.exists (fun r -> String.sub r 0 4 = "true") !outcomes
    && List.exists (fun r -> String.sub r 0 5 = "false") !outcomes)

(* apply(receiver, code, action): "boom" traps, "deny" fails
   [require_auth], anything else returns. *)
let guard_contract () =
  let open Wasm.Builder in
  let open Wasm.Builder.I in
  let b = create () in
  let i64t = Wasm.Types.I64 in
  let require_auth =
    import_func b ~module_:"env" ~name:"require_auth"
      (Wasm.Types.func_type [ i64t ])
  in
  let on name body =
    [ local_get 2; i64 (Name.of_string name); i64_eq; if_ body [] ]
  in
  let apply =
    add_func b ~name:"apply"
      (Wasm.Types.func_type [ i64t; i64t; i64t ])
      (on "boom" [ unreachable ]
      @ on "deny" [ i64 (Name.of_string "alice"); call require_auth ])
  in
  export_func b "apply" apply;
  build b

let test_running_cleared () =
  let chain = Host.create_chain () in
  let inst = Wasm.Interp.instantiate (fun _ _ -> None) Wasm.Ast.empty_module in
  List.iter
    (fun (h : Wasm.Interp.host_func) ->
      match h.Wasm.Interp.hf_fn inst [] with
      | _ -> Alcotest.failf "env.%s ran with no action" h.Wasm.Interp.hf_name
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            ("env." ^ h.Wasm.Interp.hf_name)
            "host function called with no action running" msg)
    (Host.env_functions chain);
  let guard = Name.of_string "guard" in
  let m = guard_contract () in
  List.iter
    (fun backend ->
      Chain.set_code chain guard m { Abi.abi_actions = [] };
      let release = Core.Exec_backend.install backend chain guard m in
      List.iter
        (fun (act, expect) ->
          let r =
            Chain.push_action chain
              (Action.make ~account:guard ~name:(Name.of_string act) ~data:""
                 ~auth:[])
          in
          Alcotest.(check string)
            (Core.Exec_backend.to_string backend ^ " " ^ act)
            expect
            (Option.value ~default:"ok" r.Chain.tx_error);
          no_action_running chain)
        [
          ("go", "ok");
          ("boom", "trap: unreachable executed");
          ("deny", "eosio_assert: missing authority of alice");
          ("go", "ok");
        ];
      release ())
    Core.Exec_backend.[ Interp; Auto ]

(* Steady-state cost of one payload transaction on a pooled target.
   Re-linking the env host table before every action cost about 10k
   minor words per [push_action]; linking once leaves about 1.3k. *)
let test_push_action_allocation () =
  let s = List.hd (BG.Corpus.ground_truth ~scale:100 ()) in
  let sess =
    Core.Engine.setup (Core.Engine.make_config ~rounds:1 ()) (target_of_sample s)
  in
  let rng = Wasai_support.Rand.create 77L in
  let seed =
    Core.Seed.random rng ~identities:sess.Core.Engine.identities
      (List.hd s.BG.Corpus.smp_abi.Abi.abi_actions)
  in
  let act, _ = Core.Engine.payload sess seed Core.Scanner.Ch_genuine in
  let push () =
    Wasabi.Trace.reset sess.Core.Engine.collector;
    ignore (Chain.push_action sess.Core.Engine.chain act)
  in
  for _ = 1 to 5 do
    push ()
  done;
  let n = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    push ()
  done;
  let per_push = (Gc.minor_words () -. before) /. float_of_int n in
  if per_push >= 4000. then
    Alcotest.failf "push_action allocates %.0f minor words (bound 4000)"
      per_push

(* ------------------------------------------------------------------ *)
(* Fallback-boundary and fuel-exhaustion parity                         *)
(* ------------------------------------------------------------------ *)

(* A module exercising the compiled tier's control shapes: recursion
   (calls across the fallback boundary when [exclude] splits the
   functions), a loop with br_if, and trapping division. *)
let boundary_module () =
  let open Wasm in
  let b = Builder.create () in
  let open Builder.I in
  let fact = Builder.declare_func b (Types.func_type [ I64 ] ~results:[ I64 ]) in
  Builder.set_body b fact
    [
      local_get 0;
      i64 2L;
      i64_lt_s;
      if_ ~result:Types.I64
        [ i64 1L ]
        [ local_get 0; local_get 0; i64 1L; i64_sub; call fact; i64_mul ];
    ];
  let spin =
    Builder.add_func b
      (Types.func_type [ I32 ] ~results:[ I32 ])
      ~locals:[ Types.I32 ]
      [
        block
          [
            loop
              [
                local_get 0;
                i32_eqz;
                br_if 1;
                local_get 0;
                i32 1;
                i32_sub;
                local_set 0;
                local_get 1;
                i32 3;
                i32_add;
                local_set 1;
                br 0;
              ];
          ];
        local_get 1;
      ]
  in
  let crash =
    Builder.add_func b
      (Types.func_type [ I32 ] ~results:[ I32 ])
      [ i32 7; local_get 0; i32_div_u ]
  in
  Builder.export_func b "fact" fact;
  Builder.export_func b "spin" spin;
  Builder.export_func b "crash" crash;
  let m = Builder.build b in
  Validate.check_module m;
  m

let no_imports : Wasm.Interp.resolver = fun _ _ -> None

(* Result-or-exception of one invocation, rendered comparably; the
   contract requires identical trap/exhaustion messages. *)
let invocation f =
  match f () with
  | vs -> "ok:" ^ String.concat "," (List.map value_token vs)
  | exception Wasm.Interp.Exhaustion m -> "exhaustion:" ^ m
  | exception Wasm.Values.Trap m -> "trap:" ^ m

let test_fallback_boundary () =
  let m = boundary_module () in
  let full = Wasm.Compile.prepare m in
  let split =
    (* Veto loops: [spin] falls back to the interpreter while [fact] and
       [crash] stay compiled — a genuine mixed-tier module. *)
    Wasm.Compile.prepare
      ~exclude:(fun i -> match i with Wasm.Ast.Loop _ -> true | _ -> false)
      m
  in
  let none = Wasm.Compile.prepare ~exclude:(fun _ -> true) m in
  Alcotest.(check (pair int int))
    "all compiled" (3, 0)
    (Wasm.Compile.function_counts full);
  Alcotest.(check (pair int int))
    "loop excluded" (2, 1)
    (Wasm.Compile.function_counts split);
  Alcotest.(check (pair int int))
    "all fallback" (0, 3)
    (Wasm.Compile.function_counts none);
  let check_export name args =
    let reference =
      let inst = Wasm.Interp.instantiate no_imports m in
      invocation (fun () -> Wasm.Interp.invoke_export inst name args)
    in
    List.iter
      (fun (tier, prepared) ->
        let s = Wasm.Compile.instantiate prepared no_imports in
        Alcotest.(check string)
          (Printf.sprintf "%s %s" name tier)
          reference
          (invocation (fun () -> Wasm.Compile.invoke_export s name args)))
      [ ("compiled", full); ("split", split); ("fallback", none) ]
  in
  List.iter
    (fun v -> check_export "fact" [ Wasm.Values.I64 v ])
    [ 0L; 1L; 5L; 12L ];
  List.iter
    (fun v -> check_export "spin" [ Wasm.Values.I32 v ])
    [ 0l; 1l; 17l ];
  List.iter
    (fun v -> check_export "crash" [ Wasm.Values.I32 v ])
    [ 3l; 0l ];
  check_export "missing" []

let test_fuel_parity () =
  let m = boundary_module () in
  let full = Wasm.Compile.prepare m in
  let split =
    Wasm.Compile.prepare
      ~exclude:(fun i -> match i with Wasm.Ast.Loop _ -> true | _ -> false)
      m
  in
  let calls = [ ("fact", Wasm.Values.I64 6L); ("spin", Wasm.Values.I32 9l) ] in
  for fuel = 0 to 80 do
    List.iter
      (fun (name, arg) ->
        let reference =
          let inst = Wasm.Interp.instantiate ~fuel no_imports m in
          invocation (fun () -> Wasm.Interp.invoke_export inst name [ arg ])
        in
        List.iter
          (fun (tier, prepared) ->
            let s = Wasm.Compile.instantiate ~fuel prepared no_imports in
            Alcotest.(check string)
              (Printf.sprintf "%s fuel=%d %s" name fuel tier)
              reference
              (invocation (fun () -> Wasm.Compile.invoke_export s name [ arg ])))
          [ ("compiled", full); ("split", split) ])
      calls
  done

(* ------------------------------------------------------------------ *)
(* Journal backend header                                               *)
(* ------------------------------------------------------------------ *)

let test_header_round_trip () =
  List.iter
    (fun backend ->
      List.iter
        (fun telemetry ->
          let h =
            { Campaign.Journal.jh_backend = backend; jh_telemetry = telemetry }
          in
          match Campaign.Journal.(header_of_line (line_of_header h)) with
          | Ok h' ->
              Alcotest.(check string)
                "round trip"
                (Core.Exec_backend.to_string backend)
                (Core.Exec_backend.to_string h'.Campaign.Journal.jh_backend);
              Alcotest.(check bool)
                "telemetry round trip" telemetry
                h'.Campaign.Journal.jh_telemetry
          | Error e -> Alcotest.failf "header rejected: %s" e)
        [ false; true ])
    Core.Exec_backend.[ Interp; Auto ];
  (* The off header is the two-field line every earlier build wrote. *)
  Alcotest.(check string)
    "off = two-field bytes" "wasai-journal-hdr\tbackend=auto"
    (Campaign.Journal.line_of_header
       { Campaign.Journal.jh_backend = Core.Exec_backend.Auto;
         jh_telemetry = false });
  List.iter
    (fun line ->
      match Campaign.Journal.header_of_line line with
      | Ok _ -> Alcotest.failf "accepted bad header %S" line
      | Error _ -> ())
    [
      "";
      "wasai-journal-hdr";
      "wasai-journal-hdr\tbackend=warp";
      "wasai-journal-hdr\tbackend=compiled";
      "wasai-journal-hdr\tbackend=interp\textra=1";
      "wasai-journal-hdr\tbackend=interp\ttelemetry=off";
      "wasai-journal-hdr\tbackend=interp\ttelemetry=on\textra=1";
      "wasai-journal\tbackend=interp";
    ]

let with_temp_file f =
  let path = Filename.temp_file "wasai_test_hdr" ".jnl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let auto_header =
  { Campaign.Journal.jh_backend = Core.Exec_backend.Auto; jh_telemetry = false }

let interp_header =
  { Campaign.Journal.jh_backend = Core.Exec_backend.Interp; jh_telemetry = false }

(* Write [lines] to [path], each with its newline. *)
let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* Open [path] as a resumed journal under [header], through the store. *)
let open_journal ?(write = false) ~header path =
  Campaign.Store.open_ ~write ~context:"t" ~resume:true ~header
    ~stamp:
      {
        Campaign.Journal.js_shard = Campaign.Shard.whole;
        js_seed = 0L;
        js_rounds = 1;
      }
    ~journal:path ()

let test_header_resume_discipline () =
  with_temp_file (fun path ->
      let resume ?(telemetry = false) backend =
        Campaign.Store.close
          (open_journal
             ~header:
               {
                 Campaign.Journal.jh_backend = backend;
                 jh_telemetry = telemetry;
               }
             path)
      in
      (* Same tier resumes; an empty journal (no header) resumes; a
         different tier refuses. *)
      resume Core.Exec_backend.Auto;
      write_lines path [ Campaign.Journal.line_of_header interp_header ];
      resume Core.Exec_backend.Interp;
      (match resume Core.Exec_backend.Auto with
      | () -> Alcotest.fail "mismatched backend accepted"
      | exception Failure msg ->
          Alcotest.(check string)
            "refusal names both tiers"
            "t: journal was recorded under backend=interp, but this run uses \
             backend=auto; refusing to mix execution tiers"
            msg);
      (* The telemetry stamp obeys the same discipline: matching runs
         resume, a flipped switch refuses in either direction. *)
      write_lines path
        [
          Campaign.Journal.line_of_header
            { auto_header with Campaign.Journal.jh_telemetry = true };
        ];
      resume ~telemetry:true Core.Exec_backend.Auto;
      (match resume Core.Exec_backend.Auto with
      | () -> Alcotest.fail "telemetry=on journal resumed without --telemetry"
      | exception Failure _ -> ());
      write_lines path [ Campaign.Journal.line_of_header auto_header ];
      match resume ~telemetry:true Core.Exec_backend.Auto with
      | () -> Alcotest.fail "telemetry=off journal resumed with --telemetry"
      | exception Failure _ -> ())

let test_header_only_line_one () =
  with_temp_file (fun path ->
      let hdr = Campaign.Journal.line_of_header auto_header in
      write_lines path [ hdr; hdr ];
      match Campaign.Journal.load_full path with
      | _ -> Alcotest.fail "duplicate header accepted"
      | exception Campaign.Journal.Malformed _ -> ())

(* A well-formed entry line is still a corrupt journal when it stands on
   line 1: every journal opens with its header. *)
let test_headerless_rejected () =
  let entry =
    "wasai-journal-v4\talice\t\
     FakeEOS=1,FakeNotif=0,MissAuth=0,BlockinfoDep=0,Rollback=1\tbranches=0\t\
     rounds=3\tseeds=12\tadaptive=0\ttx=12\tsat=0\timprecise=0\t\
     elapsed=0.010000\tsolver=q:0,b:0,u:0,h:0,m:0,fb:64\tshard=0/1\tseed=42\t\
     budget=6\texploits=-"
  in
  Alcotest.(check bool)
    "the line is a valid entry" true
    (Result.is_ok (Campaign.Journal.entry_of_line entry));
  with_temp_file (fun path ->
      write_lines path [ entry ];
      match Campaign.Journal.load_full path with
      | _ -> Alcotest.fail "headerless journal accepted"
      | exception Campaign.Journal.Malformed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names line 1 and the header" msg)
            true
            (String.starts_with
               ~prefix:
                 (path
                ^ ":1: malformed journal line (expected a journal header \
                   (wasai-journal-hdr), got \"wasai-journal-v4\")")
               msg))

(* The store stamps the header on a fresh path and on a path that
   exists but is empty (a [touch], or a crash before the first write), so
   a later resume under another tier is refused instead of trusted. *)
let test_empty_file_gets_header () =
  List.iter
    (fun fresh ->
      with_temp_file (fun path ->
          if fresh then Sys.remove path;
          Campaign.Store.close
            (open_journal ~write:true ~header:interp_header path);
          match Campaign.Journal.load_full path with
          | Some h, [] when h = interp_header -> ()
          | _ ->
              Alcotest.failf "%s journal not stamped with its header"
                (if fresh then "fresh" else "empty")))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* make_config validation                                               *)
(* ------------------------------------------------------------------ *)

let test_make_config () =
  let default = Core.Engine.default_config in
  Alcotest.(check bool)
    "defaults" true
    (Core.Engine.make_config () = default);
  Alcotest.(check bool)
    "backend defaults to auto" true
    (default.Core.Engine.cfg_backend = Core.Exec_backend.Auto);
  let rejects label build expect =
    match build () with
    | (_ : Core.Engine.config) -> Alcotest.failf "%s accepted" label
    | exception Core.Engine.Invalid_config e ->
        Alcotest.(check string)
          label
          (Core.Engine.string_of_config_error expect)
          (Core.Engine.string_of_config_error e)
  in
  rejects "rounds=0"
    (fun () -> Core.Engine.make_config ~rounds:0 ())
    (Core.Engine.Bad_rounds 0);
  rejects "time_limit=0"
    (fun () -> Core.Engine.make_config ~time_limit:0.0 ())
    (Core.Engine.Bad_time_limit 0.0);
  rejects "solver_budget=-1"
    (fun () -> Core.Engine.make_config ~solver_budget:(-1) ())
    (Core.Engine.Bad_solver_budget (-1));
  rejects "max_flips=0"
    (fun () -> Core.Engine.make_config ~max_flips:0 ())
    (Core.Engine.Bad_max_flips 0);
  rejects "fuel=0"
    (fun () -> Core.Engine.make_config ~fuel:0 ())
    (Core.Engine.Bad_fuel 0);
  rejects "empty preload"
    (fun () -> Core.Engine.make_config ~preload:[] ())
    Core.Engine.Bad_preload;
  (* of_string/to_string cover the CLI surface. *)
  List.iter
    (fun backend ->
      match Core.Exec_backend.(of_string (to_string backend)) with
      | Ok b ->
          Alcotest.(check bool) "choice round trip" true (b = backend)
      | Error e -> Alcotest.failf "choice rejected: %s" e)
    Core.Exec_backend.[ Interp; Auto ];
  List.iter
    (fun s ->
      match Core.Exec_backend.of_string s with
      | Ok _ -> Alcotest.failf "bad backend %S accepted" s
      | Error _ -> ())
    [ "jit"; "compiled" ]

let () =
  Alcotest.run "compile"
    [
      ( "backend-parity",
        [
          Alcotest.test_case "corpus outcomes and journal lines" `Quick
            test_corpus_outcome_parity;
          Alcotest.test_case "per-payload trace tapes" `Quick
            test_corpus_tape_parity;
        ] );
      ( "host-linking",
        [
          Alcotest.test_case "context parity across actions" `Quick
            test_context_parity_across_actions;
          Alcotest.test_case "running cleared on every exit" `Quick
            test_running_cleared;
          Alcotest.test_case "steady-state push_action allocation" `Quick
            test_push_action_allocation;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "boundary crossing" `Quick test_fallback_boundary;
          Alcotest.test_case "fuel exhaustion parity" `Quick test_fuel_parity;
        ] );
      ( "journal-header",
        [
          Alcotest.test_case "round trip and rejection" `Quick
            test_header_round_trip;
          Alcotest.test_case "resume discipline" `Quick
            test_header_resume_discipline;
          Alcotest.test_case "header only on line 1" `Quick
            test_header_only_line_one;
          Alcotest.test_case "headerless journal rejected" `Quick
            test_headerless_rejected;
          Alcotest.test_case "empty journal file gets its header" `Quick
            test_empty_file_gets_header;
        ] );
      ( "config",
        [ Alcotest.test_case "make_config validation" `Quick test_make_config ]
      );
    ]
