(* Tests for Symback: the memory model, calling-convention inference,
   trace replay and constraint flipping. *)

module Wasm = Wasai_wasm
module Sym = Wasai_symbolic
module Expr = Wasai_smt.Expr
module Solver = Wasai_smt.Solver
module Wasabi = Wasai_wasabi
module BG = Wasai_benchgen
open Wasai_eosio

let n = Name.of_string

(* ------------------------------------------------------------------ *)
(* Memory model (C2)                                                    *)
(* ------------------------------------------------------------------ *)

let test_memmodel_roundtrip () =
  let mem = Sym.Memmodel.create () in
  let v = Expr.var (Expr.fresh_var ~name:"v" 64) in
  Sym.Memmodel.store mem ~addr:100 ~width_bytes:8 v;
  let loaded = Sym.Memmodel.load mem ~addr:100 ~width_bytes:8 in
  (* Bytewise split and re-concatenation must be semantically the identity:
     check under an arbitrary assignment. *)
  let env = Hashtbl.create 1 in
  Expr.iter_vars (fun var -> Hashtbl.replace env var.Expr.vid 0x1122334455667788L) v;
  Alcotest.(check int64) "roundtrip value" 0x1122334455667788L (Expr.eval env loaded)

let test_memmodel_overlap () =
  (* The §3.2 example, with the concrete addresses the trace provides:
     writing 0x0000 at a and 0xffff at b with a = b leaves 0xffff. *)
  let mem = Sym.Memmodel.create () in
  Sym.Memmodel.store mem ~addr:64 ~width_bytes:2 (Expr.const 16 0x0000L);
  Sym.Memmodel.store mem ~addr:64 ~width_bytes:2 (Expr.const 16 0xFFFFL);
  Alcotest.(check bool) "overlap resolved" true
    (Sym.Memmodel.load mem ~addr:64 ~width_bytes:2 = Expr.const 16 0xFFFFL)

let test_memmodel_partial_overlap () =
  let mem = Sym.Memmodel.create () in
  Sym.Memmodel.store mem ~addr:0 ~width_bytes:4 (Expr.const 32 0xAABBCCDDL);
  Sym.Memmodel.store mem ~addr:2 ~width_bytes:1 (Expr.const 8 0x11L);
  Alcotest.(check bool) "partial overwrite" true
    (Sym.Memmodel.load mem ~addr:0 ~width_bytes:4 = Expr.const 32 0xAA11CCDDL)

let test_memmodel_symbolic_load_object () =
  let mem = Sym.Memmodel.create () in
  let l1 = Sym.Memmodel.load mem ~addr:500 ~width_bytes:1 in
  let l2 = Sym.Memmodel.load mem ~addr:500 ~width_bytes:1 in
  Alcotest.(check bool) "unsaved loads memoised" true (l1 = l2);
  Alcotest.(check int) "one symbolic load object" 1
    (Sym.Memmodel.symbolic_loads mem)

(* Differential property: with fully concrete contents, the symbolic
   memory model agrees byte-for-byte with a plain byte array under random
   interleaved stores, maps and loads (including overlaps of every
   width, and maps over bytes stored, mapped or loaded before). *)
let qcheck_memmodel_vs_bytes =
  QCheck.Test.make ~name:"memmodel matches a concrete byte array" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Wasai_support.Rand.create (Int64.of_int seed) in
      let mem = Sym.Memmodel.create () in
      let ref_bytes = Bytes.make 256 '\000' in
      let ok = ref true in
      for _ = 1 to 60 do
        let width = Wasai_support.Rand.choose rng [ 1; 2; 4; 8 ] in
        let addr = Wasai_support.Rand.int rng (256 - width) in
        if Wasai_support.Rand.int rng 4 = 0 then begin
          (* A range as [Convention.bind] maps a pointee. *)
          let bytes =
            Array.init (1 + Wasai_support.Rand.int rng 33) (fun _ ->
                Wasai_support.Rand.int rng 256)
          in
          let addr = Wasai_support.Rand.int rng (256 - Array.length bytes) in
          Sym.Memmodel.map mem ~addr
            (Array.map (fun b -> Expr.const 8 (Int64.of_int b)) bytes);
          Array.iteri (fun k b -> Bytes.set ref_bytes (addr + k) (Char.chr b)) bytes
        end
        else if Wasai_support.Rand.bool rng then begin
          let v = Wasai_support.Rand.next_u64 rng in
          Sym.Memmodel.store mem ~addr ~width_bytes:width
            (Expr.const (8 * width) v);
          for k = 0 to width - 1 do
            Bytes.set ref_bytes (addr + k)
              (Char.chr
                 (Int64.to_int
                    (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
          done
        end
        else begin
          let loaded = Sym.Memmodel.load mem ~addr ~width_bytes:width in
          (* Evaluate; untouched bytes are symbolic-load variables we bind
             to 0, matching the zero-initialised reference. *)
          let env = Hashtbl.create 8 in
          Expr.iter_vars (fun v -> Hashtbl.replace env v.Expr.vid 0L) loaded;
          let expected = ref 0L in
          for k = width - 1 downto 0 do
            expected :=
              Int64.logor
                (Int64.shift_left !expected 8)
                (Int64.of_int (Char.code (Bytes.get ref_bytes (addr + k))))
          done;
          if Expr.eval env loaded <> !expected then ok := false
        end
      done;
      !ok)

let test_eosafe_memory_semantics () =
  let mem = Sym.Eosafe_memory.create () in
  Sym.Eosafe_memory.store mem ~addr:(Expr.const 32 64L) ~width_bytes:2
    (Expr.const 16 0x0000L);
  Sym.Eosafe_memory.store mem ~addr:(Expr.const 32 64L) ~width_bytes:2
    (Expr.const 16 0xFFFFL);
  let loaded = Sym.Eosafe_memory.load mem ~addr:(Expr.const 32 64L) ~width_bytes:2 in
  let env = Hashtbl.create 1 in
  Expr.iter_vars (fun v -> Hashtbl.replace env v.Expr.vid 0L) loaded;
  Alcotest.(check int64) "newest store wins" 0xFFFFL (Expr.eval env loaded);
  Alcotest.(check bool) "merge cost grows with history" true
    (Sym.Eosafe_memory.work mem > 0)

(* ------------------------------------------------------------------ *)
(* Calling convention (C3)                                              *)
(* ------------------------------------------------------------------ *)

let entry_args_of =
  [
    Wasm.Values.I64 (n "victim");  (* self *)
    Wasm.Values.I64 (n "alice");  (* from *)
    Wasm.Values.I64 (n "victim");  (* to *)
    Wasm.Values.I32 1040l;  (* quantity ptr *)
    Wasm.Values.I32 1056l;  (* memo ptr *)
  ]

(* What the engine funds its adversary identities with: every payable
   amount lies below it. *)
let max_amount = 0x1000_0000_0000_0000L

let transfer_inputs () = Sym.Convention.inputs ~max_amount Abi.transfer_action

let test_convention_layout () =
  let inp = transfer_inputs () in
  Alcotest.(check int) "four params" 4 (List.length inp.Sym.Convention.in_params);
  Alcotest.(check int) "two sanity bounds on the amount" 2
    (List.length inp.Sym.Convention.in_sanity);
  (* Local 0 concrete (self), locals 1-2 symbolic names, 3-4 concrete ptrs. *)
  let locals = Sym.Convention.bind inp entry_args_of (Sym.Memmodel.create ()) in
  Alcotest.(check int) "five locals" 5 (Hashtbl.length locals);
  (match (Hashtbl.find locals 0).Expr.node with
   | Expr.Const (64, v) -> Alcotest.(check int64) "self concrete" (n "victim") v
   | _ -> Alcotest.failf "local 0 not concrete: %s" (Expr.to_string (Hashtbl.find locals 0)));
  (match (Hashtbl.find locals 1).Expr.node with
   | Expr.Var v ->
       Alcotest.(check bool) "local 1 is an input" true
         (Hashtbl.mem inp.Sym.Convention.in_vars v.Expr.vid)
   | _ -> Alcotest.failf "local 1 not symbolic: %s" (Expr.to_string (Hashtbl.find locals 1)));
  match (Hashtbl.find locals 3).Expr.node with
  | Expr.Const (32, 1040L) -> ()
  | _ -> Alcotest.failf "quantity ptr wrong: %s" (Expr.to_string (Hashtbl.find locals 3))

let test_convention_memory_init () =
  (* Table 2: the asset pointee holds the amount and symbol variables,
     the string pointee the length byte and then the content bytes.
     [bind] maps those bytes rather than storing them, so a load reads
     them and no load of them makes a symbolic load object. *)
  let inp = transfer_inputs () in
  let mem = Sym.Memmodel.create () in
  ignore (Sym.Convention.bind inp entry_args_of mem);
  let load addr width_bytes = Sym.Memmodel.load mem ~addr ~width_bytes in
  let is_var name (v : Expr.var) e =
    Alcotest.(check bool) name true (Expr.equal (Expr.var v) e)
  in
  (match inp.Sym.Convention.in_params with
   | [ _; _; (_, _, Sym.Convention.SP_asset { amount; symbol });
       (_, _, Sym.Convention.SP_string { len; content }) ] ->
       is_var "amount" amount (load 1040 8);
       is_var "symbol" symbol (load 1048 8);
       is_var "memo length" len (load 1056 1);
       Array.iteri
         (fun k v -> is_var (Printf.sprintf "memo[%d]" k) v (load (1057 + k) 1))
         content;
       (* One byte of the amount, and a store over a mapped byte. *)
       Alcotest.(check bool) "amount byte 2" true
         (Expr.equal (Expr.extract 23 16 (Expr.var amount)) (load 1042 1));
       Sym.Memmodel.store mem ~addr:1042 ~width_bytes:1 (Expr.const 8 7L);
       Alcotest.(check bool) "a store shadows the map" true
         (Expr.equal (Expr.const 8 7L) (load 1042 1))
   | _ -> Alcotest.fail "unexpected layout");
  Alcotest.(check int) "no symbolic load object inside the pointees" 0
    (Sym.Memmodel.symbolic_loads mem);
  ignore (load (1057 + 32) 1);
  Alcotest.(check int) "one past the memo is unmapped" 1
    (Sym.Memmodel.symbolic_loads mem)

let test_convention_concretize () =
  let inp = transfer_inputs () in
  let model : Solver.model = Hashtbl.create 4 in
  (* Assign only the amount; everything else keeps the current seed. *)
  (match inp.Sym.Convention.in_params with
   | _ :: _ :: (_, _, Sym.Convention.SP_asset { amount; _ }) :: _ ->
       Hashtbl.replace model amount.Expr.vid 777L
   | _ -> Alcotest.fail "unexpected layout");
  let current =
    [
      Abi.V_name (n "alice"); Abi.V_name (n "victim");
      Abi.V_asset (Asset.eos_of_units 5L); Abi.V_string "memo";
    ]
  in
  match Sym.Convention.concretize inp model ~current with
  | [ Abi.V_name f; Abi.V_name t; Abi.V_asset a; Abi.V_string m ] ->
      Alcotest.(check int64) "from kept" (n "alice") f;
      Alcotest.(check int64) "to kept" (n "victim") t;
      Alcotest.(check int64) "amount from model" 777L a.Asset.amount;
      Alcotest.(check string) "memo kept" "memo" m
  | _ -> Alcotest.fail "bad concretisation"

let test_concretize_string_extension () =
  let inp = transfer_inputs () in
  let model : Solver.model = Hashtbl.create 4 in
  (match inp.Sym.Convention.in_params with
   | [ _; _; _; (_, _, Sym.Convention.SP_string { content; _ }) ] ->
       (* Constrain byte 7 of the memo: the string must grow to carry it. *)
       Hashtbl.replace model content.(7).Expr.vid (Int64.of_int (Char.code 'Z'))
   | _ -> Alcotest.fail "unexpected layout");
  let current =
    [
      Abi.V_name 0L; Abi.V_name 0L;
      Abi.V_asset (Asset.eos_of_units 1L); Abi.V_string "ab";
    ]
  in
  match Sym.Convention.concretize inp model ~current with
  | [ _; _; _; Abi.V_string m ] ->
      Alcotest.(check int) "extended to 8" 8 (String.length m);
      Alcotest.(check char) "byte 7 assigned" 'Z' m.[7];
      Alcotest.(check char) "prefix kept" 'a' m.[0]
  | _ -> Alcotest.fail "bad concretisation"

let test_find_action_functions () =
  let m, _ = BG.Contracts.build (BG.Contracts.default_spec (n "victim")) in
  let cands = Sym.Convention.find_action_functions m in
  Alcotest.(check int) "four action functions" 4 (List.length cands);
  (* The obfuscator's opaque helper must not become a candidate. *)
  let obf = BG.Obfuscate.obfuscate m in
  let cands' = Sym.Convention.find_action_functions obf in
  Alcotest.(check int) "obfuscation adds no candidates" 4 (List.length cands')

(* ------------------------------------------------------------------ *)
(* Replay + flip end-to-end                                             *)
(* ------------------------------------------------------------------ *)

(* Shared harness: run one genuine transfer against a spec'd contract,
   capturing the trace; returns (buffer, meta, candidates). *)
let trace_of_spec ?(amount = 77L) ?(memo = "hi") spec =
  let m, abi = BG.Contracts.build spec in
  let chain = Host.create_chain () in
  Token.bootstrap chain ~treasury:(n "treasury") ~supply:1_000_000_0000L;
  ignore (Chain.create_account chain (n "attacker"));
  ignore (Chain.create_account chain (n "victim"));
  ignore
    (Chain.push_action chain
       (Token.transfer_action ~token:Name.eosio_token ~from:(n "treasury")
          ~to_:(n "attacker") ~quantity:(Asset.eos_of_units 500_000_0000L)
          ~memo:""));
  Token.set_balance chain ~token:Name.eosio_token ~owner:(n "victim")
    ~symbol:Asset.Symbol.eos 500_000_0000L;
  let _, meta = Wasabi.Instrument.instrument m in
  Chain.set_code chain (n "victim") meta.Wasabi.Trace.instrumented abi;
  let collector = Wasabi.Trace.Buffer.create () in
  Chain.register_extension chain
    (Wasabi.Instrument.runtime_extension collector ~target:(n "victim"));
  ignore
    (Chain.push_action chain
       (Token.transfer_action ~token:Name.eosio_token ~from:(n "attacker")
          ~to_:(n "victim") ~quantity:(Asset.eos_of_units amount) ~memo));
  let candidates =
    Sym.Convention.find_action_functions meta.Wasabi.Trace.instrumented
  in
  (collector, meta, candidates)

let replay_transfer ?(inputs = transfer_inputs ()) buf meta candidates =
  match Sym.Replay.run ~inputs ~meta ~target_funcs:candidates buf with
  | Some r -> r
  | None -> Alcotest.fail "no action-function entry in trace"

let gated_spec =
  {
    (BG.Contracts.default_spec (n "victim")) with
    BG.Contracts.sp_payout_inline = true;
    sp_checks =
      [ { BG.Contracts.chk_target = BG.Contracts.Chk_amount; chk_value = 123456789L } ];
  }

let test_replay_path () =
  let records, meta, candidates = trace_of_spec gated_spec in
  let res = replay_transfer records meta candidates in
  (* skip_self (taken=false), notif guard (taken=false), amount check
     (taken=true -> trap). *)
  Alcotest.(check int) "three conditionals" 3 (List.length res.Sym.Replay.r_path);
  Alcotest.(check int) "no imprecision" 0 res.Sym.Replay.r_imprecise;
  let last = List.nth res.Sym.Replay.r_path 2 in
  Alcotest.(check bool) "check condition is symbolic" true
    (Expr.has_any_var last.Sym.Replay.cs_cond);
  Alcotest.(check bool) "check taken (trap)" true last.Sym.Replay.cs_taken

let test_flip_solves_gate () =
  let records, meta, candidates = trace_of_spec gated_spec in
  let res = replay_transfer records meta candidates in
  let current =
    [
      Abi.V_name (n "attacker"); Abi.V_name (n "victim");
      Abi.V_asset (Asset.eos_of_units 77L); Abi.V_string "hi";
    ]
  in
  let solved = Sym.Flip.solve res ~current in
  let amounts =
    List.filter_map
      (fun (s : Sym.Flip.solved_seed) ->
        match s.Sym.Flip.seed_args with
        | [ _; _; Abi.V_asset a; _ ] -> Some a.Asset.amount
        | _ -> None)
      solved
  in
  Alcotest.(check bool) "some flip sets amount to the gate constant" true
    (List.mem 123456789L amounts)

let test_flip_pins_other_params () =
  let records, meta, candidates = trace_of_spec gated_spec in
  let res = replay_transfer records meta candidates in
  let current =
    [
      Abi.V_name (n "attacker"); Abi.V_name (n "victim");
      Abi.V_asset (Asset.eos_of_units 77L); Abi.V_string "hi";
    ]
  in
  let solved = Sym.Flip.solve res ~current in
  (* The amount-gate flip must not clobber from/to/memo (§3.4.4: mutate
     one parameter). *)
  let gate_seed =
    List.find_opt
      (fun (s : Sym.Flip.solved_seed) ->
        match s.Sym.Flip.seed_args with
        | [ _; _; Abi.V_asset a; _ ] -> a.Asset.amount = 123456789L
        | _ -> false)
      solved
  in
  match gate_seed with
  | Some { Sym.Flip.seed_args = [ Abi.V_name f; Abi.V_name t; _; Abi.V_string m ]; _ } ->
      Alcotest.(check int64) "from pinned" (n "attacker") f;
      Alcotest.(check int64) "to pinned" (n "victim") t;
      Alcotest.(check string) "memo pinned" "hi" m
  | _ -> Alcotest.fail "gate flip missing"

let test_flip_deepest_first () =
  let records, meta, candidates = trace_of_spec gated_spec in
  let res = replay_transfer records meta candidates in
  match Sym.Flip.candidates res with
  | first :: _ ->
      (* Deepest conditional (the amount check, index 2) comes first. *)
      Alcotest.(check int) "deepest candidate first" 2 first.Sym.Flip.cand_index
  | [] -> Alcotest.fail "no candidates"

let test_flip_respects_asserts () =
  (* Assert conditions (min_bet) are never offered for flipping. *)
  let spec =
    { (BG.Contracts.default_spec (n "victim")) with BG.Contracts.sp_min_bet = Some 10L }
  in
  let records, meta, candidates = trace_of_spec ~amount:50L spec in
  let res = replay_transfer records meta candidates in
  let cands = Sym.Flip.candidates res in
  List.iter
    (fun (c : Sym.Flip.candidate) ->
      let cs = List.nth res.Sym.Replay.r_path c.Sym.Flip.cand_index in
      Alcotest.(check bool) "no assert flips" true
        (cs.Sym.Replay.cs_kind <> Sym.Replay.K_assert))
    cands

let test_replay_obfuscated () =
  (* Popcount-encoded comparisons still produce solvable conditions. *)
  let m, abi = BG.Contracts.build gated_spec in
  let obf = BG.Obfuscate.obfuscate m in
  let chain = Host.create_chain () in
  Token.bootstrap chain ~treasury:(n "treasury") ~supply:1_000_000_0000L;
  ignore (Chain.create_account chain (n "attacker"));
  ignore (Chain.create_account chain (n "victim"));
  ignore
    (Chain.push_action chain
       (Token.transfer_action ~token:Name.eosio_token ~from:(n "treasury")
          ~to_:(n "attacker") ~quantity:(Asset.eos_of_units 500_000_0000L)
          ~memo:""));
  let _, meta = Wasabi.Instrument.instrument obf in
  Chain.set_code chain (n "victim") meta.Wasabi.Trace.instrumented abi;
  let collector = Wasabi.Trace.Buffer.create () in
  Chain.register_extension chain
    (Wasabi.Instrument.runtime_extension collector ~target:(n "victim"));
  ignore
    (Chain.push_action chain
       (Token.transfer_action ~token:Name.eosio_token ~from:(n "attacker")
          ~to_:(n "victim") ~quantity:(Asset.eos_of_units 77L) ~memo:"hi"));
  let records = collector in
  let candidates =
    Sym.Convention.find_action_functions meta.Wasabi.Trace.instrumented
  in
  let res = replay_transfer records meta candidates in
  let current =
    [
      Abi.V_name (n "attacker"); Abi.V_name (n "victim");
      Abi.V_asset (Asset.eos_of_units 77L); Abi.V_string "hi";
    ]
  in
  let solved = Sym.Flip.solve res ~current in
  let amounts =
    List.filter_map
      (fun (s : Sym.Flip.solved_seed) ->
        match s.Sym.Flip.seed_args with
        | [ _; _; Abi.V_asset a; _ ] -> Some a.Asset.amount
        | _ -> None)
      solved
  in
  Alcotest.(check bool) "gate solved through popcount encoding" true
    (List.mem 123456789L amounts)

(* A hand-built contract whose action function dispatches with br_table
   and uses select — replay paths the generator family never emits. *)
let build_brtable_contract () =
  let open Wasm.Builder in
  let open Wasm.Builder.I in
  let b = create () in
  let i64t = Wasm.Types.I64 and i32t = Wasm.Types.I32 in
  let ft = Wasm.Types.func_type in
  let read_action_data =
    import_func b ~module_:"env" ~name:"read_action_data"
      (ft [ i32t; i32t ] ~results:[ i32t ])
  in
  let action_data_size =
    import_func b ~module_:"env" ~name:"action_data_size" (ft [] ~results:[ i32t ])
  in
  let printi = import_func b ~module_:"env" ~name:"printi" (ft [ i64t ]) in
  add_memory b 2;
  (* (self, from, to, qptr, memoptr): dispatch on (amount & 3); case 2
     prints select(from, to, amount bit 2 set). *)
  let case2 =
    [ local_get 1; local_get 2;
      local_get 3; i64_load (); i64 4L; i64_and; i64_eqz;
      Wasm.Ast.Eqz Wasm.Types.I32;
      select; call printi; return ]
  in
  let dispatch =
    block
      [
        block
          [
            block
              [
                block
                  [
                    local_get 3; i64_load (); i64 3L; i64_and; i32_wrap_i64;
                    br_table [ 0; 1; 2 ] 3;
                  ];
                (* case 0 *)
                local_get 1; call printi; return;
              ];
            (* case 1 *)
            local_get 2; call printi; return;
          ];
      ]
  in
  let eosponser =
    add_func b ~name:"eosponser"
      (ft [ i64t; i64t; i64t; i32t; i32t ])
      ((match dispatch with
        | Wasm.Ast.Block (bt, inner) -> [ Wasm.Ast.Block (bt, inner @ case2) ]
        | _ -> assert false)
      (* default (case 3): fall through and do nothing *))
  in
  let apply =
    add_func b ~name:"apply" (ft [ i64t; i64t; i64t ])
      [
        local_get 2; i64 Name.transfer; i64_eq;
        if_
          [
            i32 1024; call action_data_size; call read_action_data; drop;
            local_get 0;
            i32 1024; i64_load ();
            i32 1024; i64_load ~offset:8 ();
            i32 1040; i32 1056;
            call eosponser;
          ]
          [];
      ]
  in
  export_func b "apply" apply;
  let m = build b in
  Wasm.Validate.check_module m;
  m

let test_brtable_and_select_replay () =
  let m = build_brtable_contract () in
  let abi = { Abi.abi_actions = [ Abi.transfer_action ] } in
  let chain = Host.create_chain () in
  Token.bootstrap chain ~treasury:(n "treasury") ~supply:1_000_000_0000L;
  ignore (Chain.create_account chain (n "attacker"));
  ignore (Chain.create_account chain (n "victim"));
  ignore
    (Chain.push_action chain
       (Token.transfer_action ~token:Name.eosio_token ~from:(n "treasury")
          ~to_:(n "attacker") ~quantity:(Asset.eos_of_units 500_000_0000L)
          ~memo:""));
  let _, meta = Wasabi.Instrument.instrument m in
  Chain.set_code chain (n "victim") meta.Wasabi.Trace.instrumented abi;
  let collector = Wasabi.Trace.Buffer.create () in
  Chain.register_extension chain
    (Wasabi.Instrument.runtime_extension collector ~target:(n "victim"));
  (* amount = 6: (6 & 3) = 2 -> the select case, bit 2 set -> from. *)
  let r =
    Chain.push_action chain
      (Token.transfer_action ~token:Name.eosio_token ~from:(n "attacker")
         ~to_:(n "victim") ~quantity:(Asset.eos_of_units 6L) ~memo:"m")
  in
  Alcotest.(check bool) "tx ok" true r.Chain.tx_ok;
  Alcotest.(check string) "select picked from" (Int64.to_string (n "attacker"))
    (Chain.console_output chain);
  let records = collector in
  let candidates =
    Sym.Convention.find_action_functions meta.Wasabi.Trace.instrumented
  in
  let res = replay_transfer records meta candidates in
  (* A br_table conditional on the symbolic amount is recorded... *)
  let brtables =
    List.filter
      (fun (cs : Sym.Replay.cond_state) -> cs.Sym.Replay.cs_kind = Sym.Replay.K_brtable)
      res.Sym.Replay.r_path
  in
  Alcotest.(check int) "one br_table conditional" 1 (List.length brtables);
  Alcotest.(check bool) "br_table condition is symbolic" true
    (Expr.has_any_var (List.hd brtables).Sym.Replay.cs_cond);
  (* ...and flipping it produces a seed taking a different case. *)
  let current =
    [
      Abi.V_name (n "attacker"); Abi.V_name (n "victim");
      Abi.V_asset (Asset.eos_of_units 6L); Abi.V_string "m";
    ]
  in
  let solved = Sym.Flip.solve res ~current in
  let other_case =
    List.exists
      (fun (s : Sym.Flip.solved_seed) ->
        match s.Sym.Flip.seed_args with
        | [ _; _; Abi.V_asset a; _ ] -> Int64.logand a.Asset.amount 3L <> 2L
        | _ -> false)
      solved
  in
  Alcotest.(check bool) "flip reaches a different br_table case" true other_case

(* ------------------------------------------------------------------ *)
(* Differential property: replay soundness                              *)
(* ------------------------------------------------------------------ *)

(* Every as-taken condition the replayer records must evaluate to true
   under the inputs the execution actually observed: the symbolic path
   condition characterises the concrete path. *)
let env_of_inputs (inp : Sym.Convention.inputs) ~from ~to_ ~(amount : int64)
    ~(symbol : int64) ~(memo : string) : (int, int64) Hashtbl.t =
  let env = Hashtbl.create 16 in
  List.iter
    (fun (pname, _, sp) ->
      match (sp : Sym.Convention.sym_param) with
      | Sym.Convention.SP_scalar v ->
          let value = if pname = "from" then from else to_ in
          Hashtbl.replace env v.Expr.vid value
      | Sym.Convention.SP_asset { amount = a; symbol = s } ->
          Hashtbl.replace env a.Expr.vid amount;
          Hashtbl.replace env s.Expr.vid symbol
      | Sym.Convention.SP_string { len; content } ->
          Hashtbl.replace env len.Expr.vid (Int64.of_int (String.length memo));
          Array.iteri
            (fun k v ->
              let b =
                if k < String.length memo then Int64.of_int (Char.code memo.[k])
                else 0L
              in
              Hashtbl.replace env v.Expr.vid b)
            content)
    inp.Sym.Convention.in_params;
  env

(* A random milestone/check contract and one genuine transfer payload
   into it. *)
let random_transfer_case (seed, amt_seed) =
  let rng = Wasai_support.Rand.create (Int64.of_int seed) in
  let base = BG.Contracts.default_spec (n "victim") in
  let spec =
    {
      base with
      BG.Contracts.sp_fake_notif_guard = Wasai_support.Rand.bool rng;
      sp_auth_check = false;
      sp_min_bet = (if Wasai_support.Rand.bool rng then Some 10L else None);
      sp_checks =
        BG.Verification.random_checks rng ~depth:(Wasai_support.Rand.int rng 3);
      sp_milestones =
        BG.Verification.random_milestones rng
          ~depth:(Wasai_support.Rand.int rng 5);
      sp_payout_inline = Wasai_support.Rand.bool rng;
    }
  in
  let amount = Int64.of_int (1 + (amt_seed mod 1_000_000)) in
  let memo = Wasai_support.Rand.ascii_string rng (Wasai_support.Rand.int rng 12) in
  (spec, amount, memo)

let qcheck_replay_soundness =
  QCheck.Test.make ~name:"as-taken path conditions hold concretely" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun case ->
      let spec, amount, memo = random_transfer_case case in
      let records, meta, candidates = trace_of_spec ~amount ~memo spec in
      let res = replay_transfer records meta candidates in
      let inp = res.Sym.Replay.r_inputs in
      let env =
        env_of_inputs inp ~from:(n "attacker") ~to_:(n "victim") ~amount
          ~symbol:Asset.Symbol.eos ~memo
      in
      let input_vars = inp.Sym.Convention.in_vars in
      let evaluable =
        List.filter
          (fun (cs : Sym.Replay.cond_state) ->
            (* Skip conditions involving memory/load/host artefacts; the
               input-only ones must hold exactly. *)
            let only_inputs = ref true in
            Expr.iter_vars
              (fun v ->
                if not (Hashtbl.mem input_vars v.Expr.vid) then
                  only_inputs := false)
              cs.Sym.Replay.cs_cond;
            !only_inputs)
          res.Sym.Replay.r_path
      in
      res.Sym.Replay.r_imprecise = 0
      && List.for_all
           (fun (cs : Sym.Replay.cond_state) ->
             Expr.eval env cs.Sym.Replay.cs_cond = 1L)
           evaluable)

let transfer_args ~amount ~memo =
  [
    Abi.V_name (n "attacker"); Abi.V_name (n "victim");
    Abi.V_asset (Asset.eos_of_units amount); Abi.V_string memo;
  ]

(* Inputs are minted once per session and shared by every payload of an
   action.  Solving a trace with inputs that already served other
   payloads must give the seeds freshly minted inputs give, in the same
   order, and each query built lazily for a kept candidate must be the
   eager [prefix @ [¬c]]. *)
let qcheck_shared_inputs_solve_as_fresh =
  QCheck.Test.make ~name:"shared inputs solve as fresh inputs" ~count:20
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, amt_seed, other_seed) ->
      let spec, amount, memo = random_transfer_case (seed, amt_seed) in
      let shared = transfer_inputs () in
      let other = Wasai_support.Rand.create (Int64.of_int other_seed) in
      for _ = 1 to 2 do
        let amount = Int64.of_int (1 + Wasai_support.Rand.int other 1_000_000) in
        let memo =
          Wasai_support.Rand.ascii_string other (Wasai_support.Rand.int other 12)
        in
        let buf, meta, candidates = trace_of_spec ~amount ~memo spec in
        let r = replay_transfer ~inputs:shared buf meta candidates in
        ignore (Sym.Flip.solve r ~current:(transfer_args ~amount ~memo))
      done;
      let buf, meta, candidates = trace_of_spec ~amount ~memo spec in
      let current = transfer_args ~amount ~memo in
      let r = replay_transfer ~inputs:shared buf meta candidates in
      let with_shared = Sym.Flip.solve r ~current in
      let with_fresh =
        Sym.Flip.solve (replay_transfer buf meta candidates) ~current
      in
      let mentions =
        Expr.contains_var (fun v ->
            Hashtbl.mem shared.Sym.Convention.in_vars v.Expr.vid)
      in
      let path = Array.of_list r.Sym.Replay.r_path in
      let cond i = path.(i).Sym.Replay.cs_cond in
      let eager (c : Sym.Flip.candidate) =
        List.filter mentions
          (List.init c.Sym.Flip.cand_index cond)
        @ [ Expr.not_ (cond c.Sym.Flip.cand_index) ]
      in
      with_shared = with_fresh
      && List.for_all
           (fun c -> List.equal ( == ) (eager c) (Sym.Flip.query c))
           (Sym.Flip.candidates r))

(* The mechanism: a replay walking a path the session's inputs have
   already walked finds every interned node again.  Replaying one trace
   twice adds no node to the intern table, yields physically equal path
   conditions, and allocates only the walk itself. *)
(* Steady-state flip derivation: with the session's inputs warm (pins
   built for this vector, mentions memo filled) and the domain's SAT
   arena grown, solving a payload's flips allocates little beyond the
   queries themselves: 1,011 words per kept query here, solver
   included; the bound leaves 25% of margin. *)
let test_flip_steady_state_allocation () =
  let buf, meta, candidates = trace_of_spec gated_spec in
  (* Session first: creating it may compact the intern table, so the
     inputs are minted after it, as [Engine.setup] does. *)
  let session = Solver.Session.create () in
  let inputs = transfer_inputs () in
  let current = transfer_args ~amount:77L ~memo:"hi" in
  let r = replay_transfer ~inputs buf meta candidates in
  let first = Sym.Flip.solve ~session r ~current in
  let queries () = (Solver.Session.stats session).Solver.st_cache_misses in
  let q0 = queries () in
  let before = Gc.minor_words () in
  let again = Sym.Flip.solve ~session r ~current in
  let words = Gc.minor_words () -. before in
  let kept = queries () - q0 in
  Alcotest.(check bool) "same seeds" true (first = again);
  Alcotest.(check bool) "some query kept" true (kept > 0);
  let per_query = words /. float_of_int kept in
  let bound = 1_250. in
  if per_query > bound then
    Alcotest.failf "%d kept queries allocated %.0f minor words each (bound %.0f)"
      kept per_query bound

let test_shared_inputs_refind_terms () =
  let buf, meta, candidates = trace_of_spec gated_spec in
  let inputs = transfer_inputs () in
  let r1 = replay_transfer ~inputs buf meta candidates in
  let live () = fst (Expr.hashcons_stats ()) in
  let nodes = live () in
  let before = Gc.minor_words () in
  let r2 = replay_transfer ~inputs buf meta candidates in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "no node added" nodes (live ());
  let conds (r : Sym.Replay.result) =
    List.map (fun (cs : Sym.Replay.cond_state) -> cs.Sym.Replay.cs_cond)
      r.Sym.Replay.r_path
  in
  Alcotest.(check bool) "path conditions are ==" true
    (List.equal ( == ) (conds r1) (conds r2));
  (* 649 words here, with the pointee bytes mapped from the terms the
     inputs built; the bound leaves 25% of margin.  A replay against
     freshly minted inputs takes about 4,300 and adds ~70 nodes. *)
  let bound = 800. in
  if words > bound then
    Alcotest.failf "second replay allocated %.0f minor words (bound %.0f)"
      words bound

(* Replay must walk the same path whether it reads the live
   buffer or one rebuilt from the compat record view: the of_records
   round-trip pins the buffer encoding as information-preserving for
   replay.  cs_cond carries fresh variable ids (instance-dependent), so
   the comparison projects to the (site, taken, kind) skeleton plus the
   imprecision counter. *)
let qcheck_replay_buffer_roundtrip_identity =
  QCheck.Test.make ~name:"replay path identical on of_records round-trip"
    ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, amt_seed) ->
      let rng = Wasai_support.Rand.create (Int64.of_int seed) in
      let base = BG.Contracts.default_spec (n "victim") in
      let spec =
        {
          base with
          BG.Contracts.sp_fake_notif_guard = Wasai_support.Rand.bool rng;
          sp_min_bet = (if Wasai_support.Rand.bool rng then Some 10L else None);
          sp_checks =
            BG.Verification.random_checks rng
              ~depth:(Wasai_support.Rand.int rng 3);
          sp_payout_inline = Wasai_support.Rand.bool rng;
        }
      in
      let amount = Int64.of_int (1 + (amt_seed mod 1_000_000)) in
      let buf, meta, candidates = trace_of_spec ~amount spec in
      let buf' =
        Wasabi.Trace.Compat.of_records (Wasabi.Trace.Compat.to_list buf)
      in
      let r1 = replay_transfer buf meta candidates in
      let r2 = replay_transfer buf' meta candidates in
      let skeleton (r : Sym.Replay.result) =
        List.map
          (fun (cs : Sym.Replay.cond_state) ->
            (cs.Sym.Replay.cs_site, cs.Sym.Replay.cs_taken, cs.Sym.Replay.cs_kind))
          r.Sym.Replay.r_path
      in
      skeleton r1 = skeleton r2
      && r1.Sym.Replay.r_imprecise = r2.Sym.Replay.r_imprecise)

(* ------------------------------------------------------------------ *)
(* Replay memo                                                          *)
(* ------------------------------------------------------------------ *)

module R = Wasabi.Trace

(* The entry event of a transfer replay, found by the rule
   [Replay.run] states: the first call_pre into a candidate with at
   least the action's arguments plus the receiver. *)
let entry_of records candidates ~arity =
  let a = Array.of_list records in
  let rec go i =
    if i + 1 >= Array.length a then Alcotest.fail "no entry"
    else
      match (a.(i), a.(i + 1)) with
      | R.R_call_pre { args; _ }, R.R_func_begin f
        when List.mem f candidates && List.length args >= arity ->
          i
      | _ -> go (i + 1)
  in
  go 0

(* The records with operand [j] of event [i] changed, type kept. *)
let bump records i j =
  let change (v : Wasm.Values.value) : Wasm.Values.value =
    match v with
    | Wasm.Values.I32 x -> Wasm.Values.I32 (Int32.logxor x 1l)
    | Wasm.Values.I64 x -> Wasm.Values.I64 (Int64.logxor x 1L)
    | Wasm.Values.F32 f -> Wasm.Values.F32 (f +. 1.)
    | Wasm.Values.F64 f -> Wasm.Values.F64 (f +. 1.)
  in
  let ops vs = List.mapi (fun k v -> if k = j then change v else v) vs in
  List.mapi
    (fun k r ->
      if k <> i then r
      else
        match r with
        | R.R_instr { site; ops = vs } -> R.R_instr { site; ops = ops vs }
        | R.R_call_pre { site; args } -> R.R_call_pre { site; args = ops args }
        | R.R_call_post { site; results } ->
            R.R_call_post { site; results = ops results }
        | r -> r)
    records

let operand_count = function
  | R.R_instr { ops = vs; _ } | R.R_call_pre { args = vs; _ }
  | R.R_call_post { results = vs; _ } ->
      List.length vs
  | R.R_func_begin _ | R.R_func_end _ -> 0

let skeleton (r : Sym.Replay.result) =
  ( List.map
      (fun (cs : Sym.Replay.cond_state) ->
        (cs.Sym.Replay.cs_site, cs.Sym.Replay.cs_taken, cs.Sym.Replay.cs_kind))
      r.Sym.Replay.r_path,
    r.Sym.Replay.r_imprecise )

let memo_entry memo ~inputs buf meta candidates =
  match
    Sym.Replay.Memo.run memo ~inputs ~meta ~target_funcs:candidates buf
  with
  | Some e -> e
  | None -> Alcotest.fail "no action-function entry in trace"

let memo_replay memo ~inputs buf meta candidates =
  Sym.Replay.Memo.result (memo_entry memo ~inputs buf meta candidates)

(* A second buffer holding an equal region, over the same inputs,
   answers with the first replay's result itself; so does one that
   differs only before the entry.  Other inputs, and a truncated trace,
   replay afresh.  The domain's next memo takes over a released memo's
   arena and starts empty. *)
let test_memo_hits_equal_regions () =
  let buf, meta, candidates = trace_of_spec gated_spec in
  let inputs = transfer_inputs () in
  let memo = Sym.Replay.Memo.create () in
  let records = R.Compat.to_list buf in
  let r1 = memo_replay memo ~inputs buf meta candidates in
  Alcotest.(check bool) "first = memo-free replay" true
    (skeleton r1 = skeleton (replay_transfer ~inputs buf meta candidates));
  let copy = R.Compat.of_records records in
  Alcotest.(check bool) "equal region hits" true
    (memo_replay memo ~inputs copy meta candidates == r1);
  let arity = List.length inputs.Sym.Convention.in_params + 1 in
  let entry = entry_of records candidates ~arity in
  Alcotest.(check int) "equal regions hash equally"
    (R.Buffer.region_hash buf entry)
    (R.Buffer.region_hash copy entry);
  let before =
    List.concat
      (List.mapi
         (fun i r -> List.init (operand_count r) (fun j -> (i, j)))
         (List.filteri (fun i _ -> i < entry) records))
  in
  Alcotest.(check bool) "operands before the entry" true (before <> []);
  List.iter
    (fun (i, j) ->
      let changed = R.Compat.of_records (bump records i j) in
      Alcotest.(check bool)
        (Printf.sprintf "operand %d of event %d, before the entry: hit" j i)
        true
        (memo_replay memo ~inputs changed meta candidates == r1))
    before;
  let other = transfer_inputs () in
  let r_other = memo_replay memo ~inputs:other copy meta candidates in
  Alcotest.(check bool) "other inputs miss" true
    (r_other != r1 && r_other.Sym.Replay.r_inputs == other);
  let cut = R.Compat.of_records ~limit:(List.length records - 1) records in
  let t1 = memo_replay memo ~inputs cut meta candidates in
  let t2 = memo_replay memo ~inputs cut meta candidates in
  Alcotest.(check bool) "a truncated trace is never stored" true (t1 != t2);
  Sym.Replay.Memo.release memo;
  let next = Sym.Replay.Memo.create () in
  let r2 = memo_replay next ~inputs copy meta candidates in
  Alcotest.(check bool) "the next memo starts empty" true (r2 != r1);
  Alcotest.(check bool) "and answers from its own entries" true
    (memo_replay next ~inputs buf meta candidates == r2);
  Sym.Replay.Memo.release next

(* Every operand from the entry to the end of the buffer is part of the
   key: changing any one of them misses, and the miss replays to what a
   memo-free replay of the changed trace gives. *)
let test_memo_misses_changed_operands () =
  let buf, meta, candidates = trace_of_spec gated_spec in
  let inputs = transfer_inputs () in
  let memo = Sym.Replay.Memo.create () in
  let records = R.Compat.to_list buf in
  let r1 = memo_replay memo ~inputs buf meta candidates in
  let arity = List.length inputs.Sym.Convention.in_params + 1 in
  let entry = entry_of records candidates ~arity in
  let region =
    List.concat
      (List.mapi
         (fun i r ->
           if i < entry then []
           else List.init (operand_count r) (fun j -> (i, j)))
         records)
  in
  Alcotest.(check bool) "operands in the region" true (List.length region > 4);
  let copy = Array.make (R.Buffer.region_words buf entry) 0 in
  R.Buffer.region_blit buf entry copy 0;
  Alcotest.(check bool) "a region equals its copy" true
    (R.Buffer.region_equal buf entry copy 0);
  List.iter
    (fun (i, j) ->
      let changed = R.Compat.of_records (bump records i j) in
      Alcotest.(check bool)
        (Printf.sprintf "operand %d of event %d: region differs" j i)
        false
        (R.Buffer.region_equal changed entry copy 0);
      let r = memo_replay memo ~inputs changed meta candidates in
      Alcotest.(check bool)
        (Printf.sprintf "operand %d of event %d: miss" j i)
        true (r != r1);
      match
        Sym.Replay.run ~inputs ~meta ~target_funcs:candidates changed
      with
      | Some fresh ->
          Alcotest.(check bool)
            (Printf.sprintf "operand %d of event %d: = memo-free replay" j i)
            true
            (skeleton r = skeleton fresh)
      | None -> Alcotest.fail "the changed trace lost its entry")
    region

(* Flips over a hit, whose path reuses the first replay's fresh
   variables, solve to the seeds a fresh replay's flips solve to. *)
let qcheck_memo_flips_as_fresh =
  QCheck.Test.make ~name:"flips over a memo hit = flips over a fresh replay"
    ~count:15
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun case ->
      let spec, amount, memo_text = random_transfer_case case in
      let buf, meta, candidates = trace_of_spec ~amount ~memo:memo_text spec in
      let inputs = transfer_inputs () in
      let current = transfer_args ~amount ~memo:memo_text in
      let memo = Sym.Replay.Memo.create () in
      let first = memo_replay memo ~inputs buf meta candidates in
      let copy = R.Compat.of_records (R.Compat.to_list buf) in
      let hit = memo_replay memo ~inputs copy meta candidates in
      let fresh = replay_transfer ~inputs copy meta candidates in
      hit == first
      && Sym.Flip.solve hit ~current = Sym.Flip.solve fresh ~current)

(* Solver spans recorded while [f] runs. *)
let solver_spans f =
  let module T = Wasai_telemetry.Telemetry in
  T.reset ();
  T.enable ();
  let x = Fun.protect ~finally:T.disable f in
  let spans =
    List.fold_left
      (fun acc (st, count, _) ->
        match st with
        | T.Solver_quick | T.Solver_blast -> acc + count
        | _ -> acc)
      0 (T.snapshot ()).T.ts_stages
  in
  T.reset ();
  (x, spans)

(* A payload that repeats a region under the same observed arguments,
   coverage and budget gets the entry's last flip outcome: the same
   seeds, no query posed (no solver span), and the session counts the
   queries again.  A change of any of the three solves afresh. *)
let test_flip_reuse_poses_no_query () =
  let buf, meta, candidates = trace_of_spec gated_spec in
  let session = Solver.Session.create () in
  let inputs = transfer_inputs () in
  let memo = Sym.Replay.Memo.create () in
  let flip ?(coverage = 0) ?(memo_text = "hi") () =
    Sym.Flip.solve_memo ~session ~max_solved:6
      ~skip:(fun _ -> false)
      ~coverage
      (memo_entry memo ~inputs buf meta candidates)
      ~current:(transfer_args ~amount:77L ~memo:memo_text)
  in
  let first, posed = solver_spans flip in
  let st = Solver.Session.stats session in
  Alcotest.(check bool) "the first flip solves" true (first <> [] && posed > 0);
  let again, spans = solver_spans flip in
  Alcotest.(check bool) "the repeat returns the recorded seeds" true
    (again == first);
  Alcotest.(check int) "and poses no query" 0 spans;
  Alcotest.(check bool) "the counters advance as a solve's" true
    (Solver.Session.stats session = Solver.stats_add st st);
  let resolves f = snd (solver_spans f) > 0 in
  Alcotest.(check bool) "other coverage solves" true
    (resolves (flip ~coverage:1));
  Alcotest.(check bool) "other arguments solve" true
    (resolves (flip ~coverage:1 ~memo_text:"ho"));
  Solver.Session.set_conflict_budget session 7;
  Alcotest.(check bool) "another budget solves" true
    (resolves (flip ~coverage:1 ~memo_text:"ho"));
  Sym.Replay.Memo.release memo

(* Over a random sequence of one contract's payloads, with coverage
   growing and the budget moving between them, every flip through the
   entry's note returns what a fresh solve of its result returns, and
   the session's counters stay equal to those of a session that solves
   every flip. *)
let qcheck_flip_reuse_as_fresh =
  QCheck.Test.make ~name:"flip outcome reuse = fresh solve" ~count:15
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun case ->
      let spec, _, _ = random_transfer_case case in
      let rng = Wasai_support.Rand.create (Int64.of_int (snd case)) in
      (* Sessions before inputs, as [Engine.setup] orders them. *)
      let reusing = Solver.Session.create ~conflict_budget:20_000 () in
      let solving = Solver.Session.create ~conflict_budget:20_000 () in
      let inputs = transfer_inputs () in
      let memo = Sym.Replay.Memo.create () in
      let payloads =
        Array.init 3 (fun _ ->
            let amount =
              Int64.of_int (1 + Wasai_support.Rand.int rng 1_000_000)
            in
            let text =
              Wasai_support.Rand.ascii_string rng (Wasai_support.Rand.int rng 12)
            in
            (trace_of_spec ~amount ~memo:text spec, amount, text))
      in
      let coverage = Hashtbl.create 16 in
      let skip (c : Sym.Flip.candidate) =
        match c.Sym.Flip.cand_flipped_dir with
        | Some dir -> Hashtbl.mem coverage (c.Sym.Flip.cand_site, dir)
        | None -> false
      in
      let step () =
        let (buf, meta, candidates), amount, text =
          payloads.(Wasai_support.Rand.int rng 3)
        in
        let text = if Wasai_support.Rand.bool rng then text else text ^ "!" in
        let current = transfer_args ~amount ~memo:text in
        if Wasai_support.Rand.int rng 4 = 0 then begin
          let b = [| 20_000; 2_000; 1 |].(Wasai_support.Rand.int rng 3) in
          Solver.Session.set_conflict_budget reusing b;
          Solver.Session.set_conflict_budget solving b
        end;
        let e = memo_entry memo ~inputs buf meta candidates in
        let r = Sym.Replay.Memo.result e in
        let seeds =
          Sym.Flip.solve_memo ~session:reusing ~max_solved:6 ~skip
            ~coverage:(Hashtbl.length coverage) e ~current
        in
        let fresh =
          Sym.Flip.solve ~session:solving ~max_solved:6 ~skip r ~current
        in
        if Wasai_support.Rand.int rng 3 = 0 then
          List.iter
            (fun (cs : Sym.Replay.cond_state) ->
              Hashtbl.replace coverage
                ( cs.Sym.Replay.cs_site,
                  cs.Sym.Replay.cs_taken <> Wasai_support.Rand.bool rng )
                ())
            r.Sym.Replay.r_path;
        seeds = fresh
        && Solver.Session.stats reusing = Solver.Session.stats solving
      in
      let rec steps k = k = 0 || (step () && steps (k - 1)) in
      let ok = steps 16 in
      Sym.Replay.Memo.release memo;
      ok)

let () =
  Alcotest.run "wasai_symbolic"
    [
      ( "memmodel",
        [
          Alcotest.test_case "symbolic roundtrip" `Quick test_memmodel_roundtrip;
          Alcotest.test_case "overlapping stores" `Quick test_memmodel_overlap;
          Alcotest.test_case "partial overlap" `Quick test_memmodel_partial_overlap;
          Alcotest.test_case "symbolic load objects" `Quick
            test_memmodel_symbolic_load_object;
          QCheck_alcotest.to_alcotest qcheck_memmodel_vs_bytes;
          Alcotest.test_case "eosafe model semantics" `Quick
            test_eosafe_memory_semantics;
        ] );
      ( "convention",
        [
          Alcotest.test_case "table-2 layout" `Quick test_convention_layout;
          Alcotest.test_case "pointee memory init" `Quick test_convention_memory_init;
          Alcotest.test_case "concretize" `Quick test_convention_concretize;
          Alcotest.test_case "string extension" `Quick
            test_concretize_string_extension;
          Alcotest.test_case "action-function discovery" `Quick
            test_find_action_functions;
        ] );
      ( "replay",
        [
          Alcotest.test_case "path extraction" `Quick test_replay_path;
          Alcotest.test_case "flip solves gate" `Quick test_flip_solves_gate;
          Alcotest.test_case "one-parameter mutation" `Quick
            test_flip_pins_other_params;
          Alcotest.test_case "deepest-first ordering" `Quick test_flip_deepest_first;
          Alcotest.test_case "asserts never flipped" `Quick
            test_flip_respects_asserts;
          Alcotest.test_case "obfuscated replay" `Quick test_replay_obfuscated;
          Alcotest.test_case "br_table and select" `Quick
            test_brtable_and_select_replay;
          QCheck_alcotest.to_alcotest qcheck_replay_soundness;
          QCheck_alcotest.to_alcotest qcheck_replay_buffer_roundtrip_identity;
          Alcotest.test_case "flip steady-state allocation" `Quick
            test_flip_steady_state_allocation;
          Alcotest.test_case "shared inputs re-find their terms" `Quick
            test_shared_inputs_refind_terms;
          Alcotest.test_case "memo: equal regions hit" `Quick
            test_memo_hits_equal_regions;
          Alcotest.test_case "memo: a changed operand misses" `Quick
            test_memo_misses_changed_operands;
          QCheck_alcotest.to_alcotest qcheck_memo_flips_as_fresh;
          Alcotest.test_case "flip reuse poses no query" `Quick
            test_flip_reuse_poses_no_query;
          QCheck_alcotest.to_alcotest qcheck_flip_reuse_as_fresh;
          QCheck_alcotest.to_alcotest qcheck_shared_inputs_solve_as_fresh;
        ] );
    ]
