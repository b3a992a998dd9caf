(** Contract-level bytecode instrumentation (the paper's §3.3.1, built on
    the Wasabi idea).

    Every instruction is prefixed with low-level hooks: a site announcement
    ([wasai.site]) followed by calls that duplicate the instruction's stack
    operands through scratch locals ([wasai.op_*]).  Function invocations
    additionally get the five lifecycle hooks of the paper's Table 1
    (call/call_pre/function_begin/function_end/call_post).  The hooks are
    ordinary Wasm [call]s to imported functions, so the instrumented
    contract remains a genuine, encodable module that any host with the
    [wasai] import namespace can run.

    Adding imports shifts the function index space; all call sites, element
    segments, exports and the start function are remapped accordingly. *)

module Wasm = Wasai_wasm
module Ast = Wasm.Ast
module Types = Wasm.Types
module Values = Wasm.Values

(* Hook signatures, in import order. *)
let hook_decls =
  [
    ("site", Types.func_type [ Types.I32 ]);
    ("op_i32", Types.func_type [ Types.I32 ]);
    ("op_i64", Types.func_type [ Types.I64 ]);
    ("op_f32", Types.func_type [ Types.F32 ]);
    ("op_f64", Types.func_type [ Types.F64 ]);
    ("call_pre", Types.func_type [ Types.I32 ]);
    ("call_post", Types.func_type [ Types.I32 ]);
    ("func_begin", Types.func_type [ Types.I32 ]);
    ("func_end", Types.func_type [ Types.I32 ]);
  ]

let hook_count = List.length hook_decls

type hooks = {
  h_site : int;
  h_op_i32 : int;
  h_op_i64 : int;
  h_op_f32 : int;
  h_op_f64 : int;
  h_call_pre : int;
  h_call_post : int;
  h_func_begin : int;
  h_func_end : int;
}

let op_hook hooks : Types.value_type -> int = function
  | Types.I32 -> hooks.h_op_i32
  | Types.I64 -> hooks.h_op_i64
  | Types.F32 -> hooks.h_op_f32
  | Types.F64 -> hooks.h_op_f64

(* Per-function scratch-local allocator. *)
type scratch = {
  base : int;  (** first scratch index = n_params + n_original_locals *)
  mutable extra : Types.value_type list;  (** allocated scratch, reversed *)
  mutable slots : (Types.value_type * int) list;  (** (type, ordinal) -> index *)
}

let scratch_local (s : scratch) ty ordinal : int =
  let rec find i = function
    | [] -> None
    | (ty', ord') :: rest ->
        if ty' = ty && ord' = ordinal then Some i else find (i + 1) rest
  in
  match find 0 s.slots with
  | Some i -> s.base + i
  | None ->
      s.extra <- ty :: s.extra;
      s.slots <- s.slots @ [ (ty, ordinal) ];
      s.base + List.length s.slots - 1

(** Operand value types an instruction pops, bottom-to-top; [None] when the
    types cannot be determined locally (drop, select data operands) — those
    operands are not duplicated. *)
let operand_types ~(local_ty : int -> Types.value_type)
    ~(global_ty : int -> Types.value_type) (i : Ast.instr) :
    Types.value_type list option =
  match i with
  | Ast.Const _ | Ast.Local_get _ | Ast.Global_get _ | Ast.Memory_size
  | Ast.Nop | Ast.Unreachable | Ast.Block _ | Ast.Loop _ | Ast.Br _ ->
      Some []
  | Ast.If _ | Ast.Br_if _ | Ast.Br_table _ | Ast.Memory_grow ->
      Some [ Types.I32 ]
  | Ast.Load _ -> Some [ Types.I32 ]
  | Ast.Store op -> Some [ Types.I32; op.s_ty ]
  | Ast.Local_set n | Ast.Local_tee n -> Some [ local_ty n ]
  | Ast.Global_set n -> Some [ global_ty n ]
  | Ast.Eqz ty | Ast.Int_unary (ty, _) | Ast.Float_unary (ty, _) ->
      Some [ ty ]
  | Ast.Int_binary (ty, _) | Ast.Int_compare (ty, _) -> Some [ ty; ty ]
  | Ast.Float_binary (ty, _) | Ast.Float_compare (ty, _) -> Some [ ty; ty ]
  | Ast.Convert op ->
      let src, _ = Wasm.Validate.cvtop_types op in
      Some [ src ]
  | Ast.Drop | Ast.Select -> None
  | Ast.Return | Ast.Call _ | Ast.Call_indirect _ -> None (* special-cased *)

type state = {
  m : Ast.module_;
  n_imp : int;  (** original function-import count *)
  hooks : hooks;
  mutable sites : Trace.site list;  (** reversed *)
  mutable next_site : int;
}

let remap_func st fi = if fi < st.n_imp then fi else fi + hook_count

let remap_instr st (i : Ast.instr) : Ast.instr =
  match i with Ast.Call fi -> Ast.Call (remap_func st fi) | _ -> i

let new_site st func (instr : Ast.instr) : int =
  let id = st.next_site in
  st.next_site <- id + 1;
  st.sites <-
    { Trace.site_id = id; site_func = func; site_instr = remap_instr st instr }
    :: st.sites;
  id

let const_site id = Ast.Const (Values.I32 (Int32.of_int id))

(** Spill the top [tys] operands to scratch locals, announce the hooks in
    [announce], log the operands, then restore the stack. *)
let dup_and_log (s : scratch) hooks (tys : Types.value_type list)
    ~(announce : Ast.instr list) : Ast.instr list =
  let slots = List.mapi (fun i ty -> (i, ty, scratch_local s ty i)) tys in
  let spill =
    List.rev_map (fun (_, _, idx) -> Ast.Local_set idx) slots
  in
  let log =
    List.concat_map
      (fun (_, ty, idx) -> [ Ast.Local_get idx; Ast.Call (op_hook hooks ty) ])
      slots
  in
  let restore = List.map (fun (_, _, idx) -> Ast.Local_get idx) slots in
  spill @ announce @ log @ restore

(* Function type of the callee at absolute (original) index. *)
let callee_type (st : state) fi : Types.func_type = Ast.func_type_at st.m fi

let rec instrument_body (st : state) (s : scratch) ~func_new_idx
    ~(local_ty : int -> Types.value_type)
    ~(global_ty : int -> Types.value_type) ~depth (body : Ast.instr list) :
    Ast.instr list =
  let recurse = instrument_body st s ~func_new_idx ~local_ty ~global_ty in
  List.concat_map
    (fun (i : Ast.instr) ->
      let site = new_site st func_new_idx i in
      let announce = [ const_site site; Ast.Call st.hooks.h_site ] in
      match i with
      | Ast.Block (bt, b) ->
          announce @ [ Ast.Block (bt, recurse ~depth:(depth + 1) b) ]
      | Ast.Loop (bt, b) ->
          announce @ [ Ast.Loop (bt, recurse ~depth:(depth + 1) b) ]
      | Ast.If (bt, t, e) ->
          dup_and_log s st.hooks [ Types.I32 ] ~announce
          @ [
              Ast.If
                (bt, recurse ~depth:(depth + 1) t, recurse ~depth:(depth + 1) e);
            ]
      | Ast.Return ->
          (* function_end fires before leaving; return becomes a branch to
             the wrapper block so the epilogue hook cannot be skipped. *)
          announce
          @ [
              const_site func_new_idx;
              Ast.Call st.hooks.h_func_end;
              Ast.Br depth;
            ]
      | Ast.Call fi ->
          let cft = callee_type st fi in
          let arg_slots =
            List.mapi (fun k ty -> (k, ty, scratch_local s ty k)) cft.params
          in
          let spill = List.rev_map (fun (_, _, idx) -> Ast.Local_set idx) arg_slots in
          let log_args =
            List.concat_map
              (fun (_, ty, idx) ->
                [ Ast.Local_get idx; Ast.Call (op_hook st.hooks ty) ])
              arg_slots
          in
          let restore = List.map (fun (_, _, idx) -> Ast.Local_get idx) arg_slots in
          let post =
            match cft.results with
            | [] -> [ const_site site; Ast.Call st.hooks.h_call_post ]
            | [ rty ] ->
                let r = scratch_local s rty 9 in
                [
                  Ast.Local_set r;
                  const_site site;
                  Ast.Call st.hooks.h_call_post;
                  Ast.Local_get r;
                  Ast.Call (op_hook st.hooks rty);
                  Ast.Local_get r;
                ]
            | _ -> [ const_site site; Ast.Call st.hooks.h_call_post ]
          in
          spill @ announce
          @ [ const_site site; Ast.Call st.hooks.h_call_pre ]
          @ log_args @ restore
          @ [ Ast.Call (remap_func st fi) ]
          @ post
      | Ast.Call_indirect ti ->
          let cft = st.m.Ast.types.(ti) in
          (* Stack: [args..., table index].  Spill the index, then args. *)
          let idx_slot = scratch_local s Types.I32 8 in
          let arg_slots =
            List.mapi (fun k ty -> (k, ty, scratch_local s ty k)) cft.params
          in
          let spill =
            (Ast.Local_set idx_slot
             :: List.rev_map (fun (_, _, idx) -> Ast.Local_set idx) arg_slots)
          in
          let log_idx =
            [ Ast.Local_get idx_slot; Ast.Call st.hooks.h_op_i32 ]
          in
          let log_args =
            List.concat_map
              (fun (_, ty, idx) ->
                [ Ast.Local_get idx; Ast.Call (op_hook st.hooks ty) ])
              arg_slots
          in
          let restore =
            List.map (fun (_, _, idx) -> Ast.Local_get idx) arg_slots
            @ [ Ast.Local_get idx_slot ]
          in
          let post =
            match cft.results with
            | [] -> [ const_site site; Ast.Call st.hooks.h_call_post ]
            | [ rty ] ->
                let r = scratch_local s rty 9 in
                [
                  Ast.Local_set r;
                  const_site site;
                  Ast.Call st.hooks.h_call_post;
                  Ast.Local_get r;
                  Ast.Call (op_hook st.hooks rty);
                  Ast.Local_get r;
                ]
            | _ -> [ const_site site; Ast.Call st.hooks.h_call_post ]
          in
          spill @ announce @ log_idx
          @ [ const_site site; Ast.Call st.hooks.h_call_pre ]
          @ log_args @ restore
          @ [ Ast.Call_indirect ti ]
          @ post
      | Ast.Select ->
          (* Only the condition can be typed locally; duplicate just it. *)
          let c = scratch_local s Types.I32 7 in
          [ Ast.Local_set c ] @ announce
          @ [ Ast.Local_get c; Ast.Call st.hooks.h_op_i32; Ast.Local_get c;
              Ast.Select ]
      | _ -> (
          match operand_types ~local_ty ~global_ty i with
          | Some tys ->
              dup_and_log s st.hooks tys ~announce @ [ remap_instr st i ]
          | None -> announce @ [ remap_instr st i ]))
    body

let instrument_func (st : state) (old_abs_idx : int) (f : Ast.func) : Ast.func =
  let fty = st.m.Ast.types.(f.ftype) in
  let all_locals = Array.of_list (fty.params @ f.locals) in
  let local_ty n = all_locals.(n) in
  let module_globals =
    Array.map (fun (g : Ast.global) -> g.Ast.gtype.gt_type) st.m.Ast.globals
  in
  let global_ty n = module_globals.(n) in
  let new_idx = remap_func st old_abs_idx in
  let s =
    { base = Array.length all_locals; extra = []; slots = [] }
  in
  let body =
    instrument_body st s ~func_new_idx:new_idx ~local_ty ~global_ty ~depth:0
      f.body
  in
  let result_bt : Ast.block_type =
    match fty.results with [] -> None | r :: _ -> Some r
  in
  let wrapped =
    [ const_site new_idx; Ast.Call st.hooks.h_func_begin;
      Ast.Block (result_bt, body);
      const_site new_idx; Ast.Call st.hooks.h_func_end ]
  in
  { f with Ast.locals = f.locals @ List.rev s.extra; body = wrapped }

(** Instrument a module: returns the rewritten module plus the static site
    metadata the trace assembler and the symbolic replayer consume. *)
let instrument (m : Ast.module_) : Ast.module_ * Trace.meta =
  let n_imp = Ast.num_func_imports m in
  (* Intern hook types into the type section. *)
  let types = ref (Array.to_list m.Ast.types) in
  let type_index ft =
    let rec find i = function
      | [] -> None
      | t :: rest -> if Types.equal_func_type t ft then Some i else find (i + 1) rest
    in
    match find 0 !types with
    | Some i -> i
    | None ->
        types := !types @ [ ft ];
        List.length !types - 1
  in
  let hook_imports =
    List.map
      (fun (name, ft) ->
        {
          Ast.imp_module = "wasai";
          imp_name = name;
          idesc = Ast.Func_import (type_index ft);
        })
      hook_decls
  in
  let hooks =
    {
      h_site = n_imp + 0;
      h_op_i32 = n_imp + 1;
      h_op_i64 = n_imp + 2;
      h_op_f32 = n_imp + 3;
      h_op_f64 = n_imp + 4;
      h_call_pre = n_imp + 5;
      h_call_post = n_imp + 6;
      h_func_begin = n_imp + 7;
      h_func_end = n_imp + 8;
    }
  in
  let st = { m; n_imp; hooks; sites = []; next_site = 0 } in
  let funcs =
    Array.mapi (fun i f -> instrument_func st (n_imp + i) f) m.Ast.funcs
  in
  (* Non-function imports keep their positions; hook imports go after all
     original imports so original function-import indices are stable. *)
  let imports = m.Ast.imports @ hook_imports in
  let exports =
    List.map
      (fun (e : Ast.export) ->
        match e.edesc with
        | Ast.Func_export i -> { e with Ast.edesc = Ast.Func_export (remap_func st i) }
        | _ -> e)
      m.Ast.exports
  in
  let elems =
    List.map
      (fun (e : Ast.elem_segment) ->
        { e with Ast.e_init = List.map (remap_func st) e.e_init })
      m.Ast.elems
  in
  let start = Option.map (remap_func st) m.Ast.start in
  let m' =
    {
      m with
      Ast.types = Array.of_list !types;
      imports;
      funcs;
      exports;
      elems;
      start;
    }
  in
  let meta =
    {
      Trace.sites = Array.of_list (List.rev st.sites);
      instrumented = m';
      original = m;
      hook_base = n_imp;
      hook_count;
      orig_import_count = n_imp;
    }
  in
  (m', meta)

(** Instrument a binary: decode, rewrite, re-encode.  This is the
    pipeline entry the fuzzer uses — it proves instrumentation operates on
    real bytecode. *)
let instrument_binary (bin : string) : string * Trace.meta =
  let m = Wasm.Decode.decode bin in
  let m', meta = instrument m in
  (Wasm.Encode.encode m', meta)

(* ------------------------------------------------------------------ *)
(* Runtime: resolve the wasai namespace to a collector                  *)
(* ------------------------------------------------------------------ *)

module Interp = Wasm.Interp

(** Chain extension binding the hook imports to a trace collector.
    [target] restricts collection to one contract account — the fuzzing
    target — so auxiliary contracts stay silent even if instrumented. *)
let runtime_extension (collector : Trace.Buffer.t) ~(target : Wasai_eosio.Name.t) :
    Wasai_eosio.Chain.extension =
 fun chain mod_name item ->
  if mod_name <> "wasai" then None
  else
    let if_target f args =
      let ctx = Wasai_eosio.Chain.current chain in
      if Wasai_eosio.Name.equal ctx.Wasai_eosio.Chain.ctx_receiver target then
        f args;
      []
    in
    let arg0_i32 args = Int32.to_int (Values.as_i32 (List.hd args)) in
    let mk name params fn =
      Some
        (Interp.Extern_func
           { Interp.hf_name = name; hf_type = Types.func_type params; hf_fn = fn })
    in
    match item with
    | "site" ->
        mk "site" [ Types.I32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.begin_instr collector (arg0_i32 a)) args)
    | "op_i32" ->
        mk "op_i32" [ Types.I32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.operand collector (List.hd a)) args)
    | "op_i64" ->
        mk "op_i64" [ Types.I64 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.operand collector (List.hd a)) args)
    | "op_f32" ->
        mk "op_f32" [ Types.F32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.operand collector (List.hd a)) args)
    | "op_f64" ->
        mk "op_f64" [ Types.F64 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.operand collector (List.hd a)) args)
    | "call_pre" ->
        mk "call_pre" [ Types.I32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.begin_call_pre collector (arg0_i32 a)) args)
    | "call_post" ->
        mk "call_post" [ Types.I32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.begin_call_post collector (arg0_i32 a)) args)
    | "func_begin" ->
        mk "func_begin" [ Types.I32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.func_begin collector (arg0_i32 a)) args)
    | "func_end" ->
        mk "func_end" [ Types.I32 ] (fun _ args ->
            if_target (fun a -> Trace.Buffer.func_end collector (arg0_i32 a)) args)
    | _ -> None
