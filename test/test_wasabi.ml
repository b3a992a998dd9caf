(* Tests for the instrumentation pipeline: the instrumented module must be
   valid, behave identically to the original, survive a binary round-trip,
   and emit a well-formed trace for exactly the target contract. *)

open Wasai_eosio
module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi

let n = Name.of_string

(* A contract computing 7! through a helper function, with a branch on the
   action name, exercising calls, loops, br_if, memory and the DB. *)
let build_test_contract () =
  let open Wasm.Builder in
  let open Wasm.Builder.I in
  let b = create () in
  let i64t = Wasm.Types.I64 and i32t = Wasm.Types.I32 in
  let ft = Wasm.Types.func_type in
  let read_action_data =
    import_func b ~module_:"env" ~name:"read_action_data"
      (ft [ i32t; i32t ] ~results:[ i32t ])
  in
  let printi = import_func b ~module_:"env" ~name:"printi" (ft [ i64t ]) in
  add_memory b 1;
  let fact =
    add_func b ~name:"fact" ~locals:[ i64t ]
      (ft [ i64t ] ~results:[ i64t ])
      [
        i64 1L; local_set 1;
        block
          [
            loop
              [
                local_get 0; i64_eqz; br_if 1;
                local_get 1; local_get 0; i64_mul; local_set 1;
                local_get 0; i64 1L; i64_sub; local_set 0;
                br 0;
              ];
          ];
        local_get 1;
      ]
  in
  let apply =
    add_func b ~name:"apply" (ft [ i64t; i64t; i64t ])
      [
        local_get 2; i64 (n "transfer"); i64_eq;
        if_
          [
            i32 0; i32 8; call read_action_data; drop;
            (* fact(from & 0xF): keeps the loop bounded for any payer name *)
            i32 0; i64_load (); i64 15L; i64_and; call fact; call printi;
          ]
          [];
      ]
  in
  export_func b "apply" apply;
  ignore fact;
  build b

let instrumented_meta () =
  let m = build_test_contract () in
  let bin = Wasm.Encode.encode m in
  let bin', meta = Wasabi.Instrument.instrument_binary bin in
  (bin', meta)

let test_instrumented_valid () =
  let bin', meta = instrumented_meta () in
  Wasm.Validate.check_module meta.Wasabi.Trace.instrumented;
  (* Re-encoded binary decodes to the same module. *)
  let decoded = Wasm.Decode.decode bin' in
  Alcotest.(check bool) "binary roundtrip" true
    (decoded = meta.Wasabi.Trace.instrumented)

let test_hook_imports_present () =
  let _, meta = instrumented_meta () in
  let m = meta.Wasabi.Trace.instrumented in
  let wasai_imports =
    List.filter
      (fun (i : Wasm.Ast.import) -> i.Wasm.Ast.imp_module = "wasai")
      m.Wasm.Ast.imports
  in
  Alcotest.(check int) "9 hooks" 9 (List.length wasai_imports);
  (* Original env imports keep their leading positions. *)
  match m.Wasm.Ast.imports with
  | first :: _ ->
      Alcotest.(check string) "env import first" "env" first.Wasm.Ast.imp_module
  | [] -> Alcotest.fail "no imports"

(* Execute a transfer action against the deployed (instrumented or not)
   contract and return (tx result, console, trace records). *)
let run_contract ?(instrument = true) () =
  let chain = Host.create_chain () in
  let collector = Wasabi.Trace.Buffer.create () in
  let m = build_test_contract () in
  let meta =
    if instrument then begin
      let _, meta = Wasabi.Instrument.instrument (Wasm.Decode.decode (Wasm.Encode.encode m)) in
      Chain.register_extension chain
        (Wasabi.Instrument.runtime_extension collector ~target:(n "victim"));
      Chain.set_code chain (n "victim") meta.Wasabi.Trace.instrumented
        { Abi.abi_actions = [ Abi.transfer_action ] };
      Some meta
    end
    else begin
      Chain.set_code chain (n "victim") m
        { Abi.abi_actions = [ Abi.transfer_action ] };
      None
    end
  in
  let act =
    Action.of_args ~account:(n "victim") ~name:Name.transfer
      ~args:
        [
          Abi.V_name (Name.of_string "...ah")  (* encodes a small integer *);
          Abi.V_name (n "victim");
          Abi.V_asset (Asset.eos_of_units 1L);
          Abi.V_string "";
        ]
      ~auth:[ n "alice" ]
  in
  (* Use a from-name whose u64 encoding is small so fact() terminates:
     craft data directly instead. *)
  let data =
    Abi.serialize
      [
        Abi.V_u64 7L;
        Abi.V_name (n "victim");
        Abi.V_asset (Asset.eos_of_units 1L);
        Abi.V_string "";
      ]
  in
  let act = { act with Action.act_data = data } in
  let r = Chain.push_action chain act in
  (r, Chain.console_output chain, Wasabi.Trace.Compat.drain collector, meta)

let test_behaviour_preserved () =
  let r1, console1, _, _ = run_contract ~instrument:false () in
  let r2, console2, trace, _ = run_contract ~instrument:true () in
  Alcotest.(check bool) "plain ok" true r1.Chain.tx_ok;
  Alcotest.(check bool) "instrumented ok" true r2.Chain.tx_ok;
  Alcotest.(check string) "console identical (7! = 5040)" "5040" console1;
  Alcotest.(check string) "instrumented console identical" console1 console2;
  Alcotest.(check bool) "trace nonempty" true (List.length trace > 50)

let test_trace_structure () =
  let _, _, trace, meta = run_contract ~instrument:true () in
  let meta = Option.get meta in
  (* First record: function_begin of the exported apply. *)
  (match trace with
   | Wasabi.Trace.R_func_begin f :: _ ->
       Alcotest.(check (option string)) "apply begins" (Some "apply")
         (Wasm.Ast.func_name_at meta.Wasabi.Trace.instrumented f)
   | _ -> Alcotest.fail "trace does not start with function_begin");
  (* Balanced function_begin/function_end. *)
  let depth = ref 0 and min_depth = ref 0 in
  List.iter
    (fun r ->
      match r with
      | Wasabi.Trace.R_func_begin _ -> incr depth
      | Wasabi.Trace.R_func_end _ ->
          decr depth;
          if !depth < !min_depth then min_depth := !depth
      | _ -> ())
    trace;
  Alcotest.(check int) "begin/end balanced" 0 !depth;
  Alcotest.(check int) "never negative" 0 !min_depth;
  (* call_pre for fact carries the argument 7. *)
  let fact_pre =
    List.exists
      (fun r ->
        match r with
        | Wasabi.Trace.R_call_pre { args = [ Wasm.Values.I64 7L ]; _ } -> true
        | _ -> false)
      trace
  in
  Alcotest.(check bool) "fact(7) call_pre observed" true fact_pre;
  (* The i64.mul sites carry two i64 operands. *)
  let muls =
    List.filter_map
      (fun r ->
        match r with
        | Wasabi.Trace.R_instr { site; ops } -> (
            match (Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr with
            | Wasm.Ast.Int_binary (Wasm.Types.I64, Wasm.Ast.Mul) -> Some ops
            | _ -> None)
        | _ -> None)
      trace
  in
  Alcotest.(check int) "seven multiplications" 7 (List.length muls);
  List.iter
    (fun ops -> Alcotest.(check int) "two operands" 2 (List.length ops))
    muls;
  (* Product of first operands replays 7!: 1*7, 7*6, 42*5 ... *)
  (match muls with
   | [ Wasm.Values.I64 a; Wasm.Values.I64 b ] :: _ ->
       Alcotest.(check int64) "first mul 1*7" 7L (Int64.mul a b)
   | _ -> Alcotest.fail "bad mul operands")

let test_trace_only_target () =
  (* The eosio.token native contract runs in the same transaction; only the
     victim's instructions may appear in the trace. *)
  let chain = Host.create_chain () in
  Token.bootstrap chain ~treasury:(n "treasury") ~supply:1_000_0000L;
  let collector = Wasabi.Trace.Buffer.create () in
  let m = build_test_contract () in
  let m', meta = Wasabi.Instrument.instrument m in
  Chain.register_extension chain
    (Wasabi.Instrument.runtime_extension collector ~target:(n "victim"));
  Chain.set_code chain (n "victim") m' { Abi.abi_actions = [ Abi.transfer_action ] };
  let r =
    Chain.push_action chain
      (Token.transfer_action ~token:Name.eosio_token ~from:(n "treasury")
         ~to_:(n "victim") ~quantity:(Asset.eos_of_units 3L) ~memo:"x")
  in
  Alcotest.(check bool) "tx ok" true r.Chain.tx_ok;
  let trace = Wasabi.Trace.Compat.drain collector in
  Alcotest.(check bool) "victim trace captured" true (List.length trace > 0);
  List.iter
    (fun rec_ ->
      match Wasabi.Trace.record_site rec_ with
      | Some site ->
          let s = Wasabi.Trace.site_of meta site in
          ignore s.Wasabi.Trace.site_func
      | None -> ())
    trace

let test_coverage_counting () =
  (* Distinct conditional sites with direction form the coverage domain. *)
  let _, _, trace, meta = run_contract ~instrument:true () in
  let meta = Option.get meta in
  let branches = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r with
      | Wasabi.Trace.R_instr { site; ops } -> (
          match (Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr with
          | Wasm.Ast.Br_if _ | Wasm.Ast.If _ -> (
              match ops with
              | [ Wasm.Values.I32 c ] ->
                  Hashtbl.replace branches (site, c <> 0l) ()
              | _ -> ())
          | _ -> ())
      | _ -> ())
    trace;
  (* The loop's br_if is false 7 times then true once: 2 directions, plus
     the action-name if: ≥ 3 distinct branches. *)
  Alcotest.(check bool) "≥3 distinct branches" true (Hashtbl.length branches >= 3)

(* Property: on straight-line code, the trace contains exactly one R_instr
   per original instruction executed, in program order, with the operand
   values of a reference evaluation. *)
let qcheck_trace_complete =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 25)
        (oneofl
           Wasai_wasm.Builder.I.
             [ i64_add; i64_sub; i64_mul; i64_and; i64_or; i64_xor ]))
  in
  QCheck.Test.make ~name:"one trace record per executed instruction" ~count:60
    (QCheck.make
       QCheck.Gen.(pair gen (list_size (int_range 0 25) (map Int64.of_int int))))
    (fun (ops, seeds) ->
      (* Build a body: push (n_ops + 1) constants, fold with the ops. *)
      let consts =
        List.init (List.length ops + 1) (fun i ->
            Wasai_wasm.Builder.I.i64
              (try List.nth seeds i with _ -> Int64.of_int i))
      in
      let body = consts @ ops @ [ Wasai_wasm.Builder.I.drop ] in
      let b = Wasai_wasm.Builder.create () in
      let f =
        Wasai_wasm.Builder.add_func b ~name:"f"
          (Wasai_wasm.Types.func_type [])
          body
      in
      Wasai_wasm.Builder.export_func b "f" f;
      let m = Wasai_wasm.Builder.build b in
      let m', meta = Wasabi.Instrument.instrument m in
      Wasai_wasm.Validate.check_module m';
      (* Run the instrumented module with a local collector. *)
      let collector = Wasabi.Trace.Buffer.create () in
      let resolver mod_name item =
        if mod_name <> "wasai" then None
        else
          let ft1 ty = Wasai_wasm.Types.func_type [ ty ] in
          let mk ty fn =
            Some
              (Wasm.Interp.Extern_func
                 { Wasm.Interp.hf_name = item; hf_type = ft1 ty; hf_fn = fn })
          in
          match item with
          | "site" ->
              mk Wasai_wasm.Types.I32 (fun _ args ->
                  Wasabi.Trace.Buffer.begin_instr collector
                    (Int32.to_int (Wasm.Values.as_i32 (List.hd args)));
                  [])
          | "op_i32" | "op_i64" | "op_f32" | "op_f64" ->
              let ty =
                match item with
                | "op_i32" -> Wasai_wasm.Types.I32
                | "op_i64" -> Wasai_wasm.Types.I64
                | "op_f32" -> Wasai_wasm.Types.F32
                | _ -> Wasai_wasm.Types.F64
              in
              mk ty (fun _ args ->
                  Wasabi.Trace.Buffer.operand collector (List.hd args);
                  [])
          | "call_pre" ->
              mk Wasai_wasm.Types.I32 (fun _ args ->
                  Wasabi.Trace.Buffer.begin_call_pre collector
                    (Int32.to_int (Wasm.Values.as_i32 (List.hd args)));
                  [])
          | "call_post" ->
              mk Wasai_wasm.Types.I32 (fun _ args ->
                  Wasabi.Trace.Buffer.begin_call_post collector
                    (Int32.to_int (Wasm.Values.as_i32 (List.hd args)));
                  [])
          | "func_begin" ->
              mk Wasai_wasm.Types.I32 (fun _ args ->
                  Wasabi.Trace.Buffer.func_begin collector
                    (Int32.to_int (Wasm.Values.as_i32 (List.hd args)));
                  [])
          | "func_end" ->
              mk Wasai_wasm.Types.I32 (fun _ args ->
                  Wasabi.Trace.Buffer.func_end collector
                    (Int32.to_int (Wasm.Values.as_i32 (List.hd args)));
                  [])
          | _ -> None
      in
      let inst = Wasm.Interp.instantiate resolver m' in
      ignore (Wasm.Interp.invoke_export inst "f" []);
      let records = Wasabi.Trace.Compat.drain collector in
      let instrs =
        List.filter_map
          (fun r ->
            match r with
            | Wasabi.Trace.R_instr { site; ops } ->
                Some ((Wasabi.Trace.site_of meta site).Wasabi.Trace.site_instr, ops)
            | _ -> None)
          records
      in
      (* Exactly one record per original instruction, in program order. *)
      List.length instrs = List.length body
      && List.for_all2
           (fun (traced, _) original -> traced = original)
           instrs body
      (* Reference evaluation of the operand stream: each binary op's
         operands must match a direct fold. *)
      &&
      let stack = ref [] in
      List.for_all2
        (fun (instr, ops) _ ->
          match (instr : Wasai_wasm.Ast.instr) with
          | Wasai_wasm.Ast.Const (Wasm.Values.I64 v) ->
              stack := v :: !stack;
              true
          | Wasai_wasm.Ast.Int_binary (Wasai_wasm.Types.I64, op) -> (
              match (!stack, ops) with
              | b :: a :: rest, [ Wasm.Values.I64 oa; Wasm.Values.I64 ob ] ->
                  let result =
                    match op with
                    | Wasai_wasm.Ast.Add -> Int64.add a b
                    | Wasai_wasm.Ast.Sub -> Int64.sub a b
                    | Wasai_wasm.Ast.Mul -> Int64.mul a b
                    | Wasai_wasm.Ast.And -> Int64.logand a b
                    | Wasai_wasm.Ast.Or -> Int64.logor a b
                    | Wasai_wasm.Ast.Xor -> Int64.logxor a b
                    | _ -> 0L
                  in
                  stack := result :: rest;
                  oa = a && ob = b
              | _ -> false)
          | Wasai_wasm.Ast.Drop ->
              stack := List.tl !stack;
              true
          | _ -> true)
        instrs body)

(* ------------------------------------------------------------------ *)
(* Event buffer vs reference list collector                             *)
(* ------------------------------------------------------------------ *)

(* Reference reimplementation of the historical list collector — the
   oracle the flat event buffer is property-tested against.  The
   semantics the buffer must replicate exactly: a record under
   construction is only flushed by the next successful append; past the
   event limit, appends are silent no-ops that do NOT flush, so
   post-limit operands still attach to the last pre-limit
   operand-bearing record; operands arriving while no operand-bearing
   record is pending are dropped. *)
module Ref_collector = struct
  type pending =
    | P_none
    | P_instr of int * Wasm.Values.value list  (* site, operands reversed *)
    | P_pre of int * Wasm.Values.value list
    | P_post of int * Wasm.Values.value list

  type t = {
    mutable rev : Wasabi.Trace.record list;
    mutable pending : pending;
    mutable count : int;
    mutable trunc : bool;
    limit : int;
  }

  let create ~limit = { rev = []; pending = P_none; count = 0; trunc = false; limit }

  let flush t =
    (match t.pending with
     | P_none -> ()
     | P_instr (site, ops) ->
         t.rev <- Wasabi.Trace.R_instr { site; ops = List.rev ops } :: t.rev
     | P_pre (site, args) ->
         t.rev <- Wasabi.Trace.R_call_pre { site; args = List.rev args } :: t.rev
     | P_post (site, results) ->
         t.rev <- Wasabi.Trace.R_call_post { site; results = List.rev results } :: t.rev);
    t.pending <- P_none

  let begin_ t mk site =
    if t.count < t.limit then begin
      flush t;
      t.pending <- mk site;
      t.count <- t.count + 1
    end
    else t.trunc <- true

  let begin_instr t site = begin_ t (fun s -> P_instr (s, [])) site
  let begin_call_pre t site = begin_ t (fun s -> P_pre (s, [])) site
  let begin_call_post t site = begin_ t (fun s -> P_post (s, [])) site

  let operand t v =
    match t.pending with
    | P_none -> ()
    | P_instr (s, ops) -> t.pending <- P_instr (s, v :: ops)
    | P_pre (s, ops) -> t.pending <- P_pre (s, v :: ops)
    | P_post (s, ops) -> t.pending <- P_post (s, v :: ops)

  let emit t r =
    if t.count < t.limit then begin
      flush t;
      t.rev <- r :: t.rev;
      t.count <- t.count + 1
    end
    else t.trunc <- true

  let func_begin t f = emit t (Wasabi.Trace.R_func_begin f)
  let func_end t f = emit t (Wasabi.Trace.R_func_end f)

  let drain t =
    flush t;
    List.rev t.rev
end

type hook_call =
  | H_instr of int
  | H_pre of int
  | H_post of int
  | H_operand of Wasm.Values.value
  | H_func_begin of int
  | H_func_end of int

let gen_value =
  QCheck.Gen.(
    map
      (fun (k, v) ->
        let v64 = Int64.of_int v in
        match k with
        | 0 -> Wasm.Values.I32 (Int64.to_int32 v64)
        | 1 -> Wasm.Values.I64 v64
        | 2 -> Wasm.Values.F32 (Wasm.Values.to_f32 (Int64.to_float v64))
        | _ -> Wasm.Values.F64 (Int64.to_float v64))
      (pair (int_range 0 3) int))

let gen_hook_call =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> H_instr (abs s mod 1000)) int);
        (1, map (fun s -> H_pre (abs s mod 1000)) int);
        (1, map (fun s -> H_post (abs s mod 1000)) int);
        (4, map (fun v -> H_operand v) gen_value);
        (1, map (fun f -> H_func_begin (abs f mod 50)) int);
        (1, map (fun f -> H_func_end (abs f mod 50)) int);
      ])

let apply_to_buffer buf = function
  | H_instr s -> Wasabi.Trace.Buffer.begin_instr buf s
  | H_pre s -> Wasabi.Trace.Buffer.begin_call_pre buf s
  | H_post s -> Wasabi.Trace.Buffer.begin_call_post buf s
  | H_operand v -> Wasabi.Trace.Buffer.operand buf v
  | H_func_begin f -> Wasabi.Trace.Buffer.func_begin buf f
  | H_func_end f -> Wasabi.Trace.Buffer.func_end buf f

let apply_to_ref rc = function
  | H_instr s -> Ref_collector.begin_instr rc s
  | H_pre s -> Ref_collector.begin_call_pre rc s
  | H_post s -> Ref_collector.begin_call_post rc s
  | H_operand v -> Ref_collector.operand rc v
  | H_func_begin f -> Ref_collector.func_begin rc f
  | H_func_end f -> Ref_collector.func_end rc f

(* The buffer must agree with the reference collector on arbitrary hook
   streams and arbitrary (small) event limits — including the
   truncation-edge behaviours — and its read accessors must be
   consistent with its own compat view. *)
let qcheck_buffer_matches_reference =
  QCheck.Test.make
    ~name:"event buffer = reference list collector (with limits)" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 0 40) (list_size (int_range 0 150) gen_hook_call)))
    (fun (limit, calls) ->
      let module B = Wasabi.Trace.Buffer in
      let module C = Wasabi.Trace.Compat in
      let buf = B.create ~limit () in
      let rc = Ref_collector.create ~limit in
      List.iter (fun c -> apply_to_buffer buf c; apply_to_ref rc c) calls;
      let expected = Ref_collector.drain rc in
      let got = C.to_list buf in
      got = expected
      && B.truncated buf = rc.Ref_collector.trunc
      && B.length buf = List.length expected
      (* Read accessors agree with the compat view. *)
      && (let ok = ref true in
          List.iteri
            (fun i r ->
              if C.record_of buf i <> r then ok := false;
              for j = 0 to B.op_count buf i - 1 do
                if B.op_bits buf i j <> Wasm.Values.raw_bits (B.op buf i j)
                then ok := false
              done)
            got;
          !ok)
      (* of_records replays any collector output to itself. *)
      && C.to_list (C.of_records expected) = expected
      (* reset rewinds in place: replaying the stream reproduces it. *)
      && (B.reset buf;
          List.iter (apply_to_buffer buf) calls;
          C.to_list buf = expected && B.truncated buf = rc.Ref_collector.trunc))

(* The corpus dedupe key: FNV-1a 64 over the canonicalised edge set.
   Order- and duplicate-insensitive, pinned to a concrete value so a
   corpus written by an older build still deduplicates against this
   one. *)
let test_edge_signature () =
  let edges = [ (3, 1l); (1, 0l); (2, 1l) ] in
  let s = Wasabi.Trace.edge_signature edges in
  Alcotest.(check int64) "order-insensitive" s
    (Wasabi.Trace.edge_signature [ (1, 0l); (2, 1l); (3, 1l) ]);
  Alcotest.(check int64) "duplicate-insensitive" s
    (Wasabi.Trace.edge_signature ((2, 1l) :: edges));
  Alcotest.(check bool) "direction-sensitive" true
    (s <> Wasabi.Trace.edge_signature [ (1, 1l); (2, 1l); (3, 1l) ]);
  Alcotest.(check int64) "empty set hashes to the FNV offset"
    0xcbf29ce484222325L
    (Wasabi.Trace.edge_signature []);
  Alcotest.(check int64) "pinned value" 0x5f242d39c2422be4L
    (Wasabi.Trace.edge_signature [ (1, 0l) ])

let () =
  Alcotest.run "wasai_wasabi"
    [
      ( "instrument",
        [
          Alcotest.test_case "valid + binary roundtrip" `Quick
            test_instrumented_valid;
          Alcotest.test_case "hook imports" `Quick test_hook_imports_present;
          Alcotest.test_case "behaviour preserved" `Quick test_behaviour_preserved;
        ] );
      ( "trace",
        [
          Alcotest.test_case "structure" `Quick test_trace_structure;
          Alcotest.test_case "only target traced" `Quick test_trace_only_target;
          Alcotest.test_case "coverage counting" `Quick test_coverage_counting;
          Alcotest.test_case "edge signature" `Quick test_edge_signature;
          QCheck_alcotest.to_alcotest qcheck_trace_complete;
          QCheck_alcotest.to_alcotest qcheck_buffer_matches_reference;
        ] );
    ]
