(** Module validator: the type-checking algorithm from the specification
    appendix, with the usual operand/control stack treatment of
    unreachable-code polymorphism.

    The benchmark generator and the instrumenter both produce modules
    programmatically; validating every module before execution turns
    construction bugs into immediate, located errors instead of runtime
    stack corruption. *)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* An operand is a known type or Unknown (below an unreachable). *)
type operand = Known of Types.value_type | Unknown

type ctrl_frame = {
  label_types : Types.value_type list;  (** types a branch must provide *)
  end_types : Types.value_type list;  (** types on fall-through *)
  height : int;
  mutable unreachable : bool;
}

(* What a body's instructions look up in their module, built once per
   module: the function and global index spaces (imports first), and
   whether a memory exists. *)
type env = {
  module_ : Ast.module_;
  func_types : Types.func_type array;
  global_types : Types.global_type array;
  has_memory : bool;
}

type ctx = {
  env : env;
  locals : Types.value_type array;
  mutable opds : operand list;
  mutable height : int;  (** [List.length opds] *)
  mutable ctrls : ctrl_frame list;
}

(* One pass over the imports.  Imported function types index [m.types]:
   call only after the imports' and functions' type indices are
   checked. *)
let make_env (m : Ast.module_) =
  let funcs, globals, memory_import =
    List.fold_left
      (fun (fs, gs, mem) (i : Ast.import) ->
        match i.idesc with
        | Ast.Func_import ti -> (m.types.(ti) :: fs, gs, mem)
        | Ast.Global_import g -> (fs, g :: gs, mem)
        | Ast.Memory_import _ -> (fs, gs, true)
        | Ast.Table_import _ -> (fs, gs, mem))
      ([], [], false) m.imports
  in
  {
    module_ = m;
    func_types =
      Array.append
        (Array.of_list (List.rev funcs))
        (Array.map (fun (f : Ast.func) -> m.types.(f.ftype)) m.funcs);
    global_types =
      Array.append
        (Array.of_list (List.rev globals))
        (Array.map (fun (g : Ast.global) -> g.gtype) m.globals);
    has_memory = memory_import || m.memories <> [];
  }

let push_opd ctx o =
  ctx.opds <- o :: ctx.opds;
  ctx.height <- ctx.height + 1

let pop_opd ctx : operand =
  match ctx.ctrls with
  | [] -> invalid "control stack empty"
  | frame :: _ -> (
      if ctx.height = frame.height then
        if frame.unreachable then Unknown
        else invalid "operand stack underflow"
      else
        match ctx.opds with
        | o :: rest ->
            ctx.opds <- rest;
            ctx.height <- ctx.height - 1;
            o
        | [] -> invalid "operand stack underflow")

let pop_expect ctx (t : Types.value_type) =
  match pop_opd ctx with
  | Unknown -> ()
  | Known t' ->
      if t' <> t then
        invalid "type mismatch: expected %s, got %s"
          (Types.string_of_value_type t)
          (Types.string_of_value_type t')

let push_ctrl ctx label_types end_types =
  ctx.ctrls <-
    { label_types; end_types; height = ctx.height; unreachable = false }
    :: ctx.ctrls

let pop_ctrl ctx : ctrl_frame =
  match ctx.ctrls with
  | [] -> invalid "control stack empty"
  | frame :: rest ->
      List.iter (fun t -> pop_expect ctx t) (List.rev frame.end_types);
      if ctx.height <> frame.height then
        invalid "values remaining on stack at end of block";
      ctx.ctrls <- rest;
      frame

let set_unreachable ctx =
  match ctx.ctrls with
  | [] -> invalid "control stack empty"
  | frame :: _ ->
      (* Drop operands above the frame height. *)
      let rec drop opds n = if n <= 0 then opds else
          match opds with [] -> [] | _ :: r -> drop r (n - 1)
      in
      ctx.opds <- drop ctx.opds (ctx.height - frame.height);
      ctx.height <- frame.height;
      frame.unreachable <- true

let label_types_at ctx n =
  match List.nth_opt ctx.ctrls n with
  | Some f -> f.label_types
  | None -> invalid "unknown label %d" n

let block_type_types : Ast.block_type -> Types.value_type list = function
  | None -> []
  | Some t -> [ t ]

let global_type_at ctx n : Types.global_type =
  if n >= Array.length ctx.env.global_types then invalid "unknown global %d" n;
  ctx.env.global_types.(n)

let rec check_instr ctx (i : Ast.instr) =
  let m = ctx.env.module_ in
  match i with
  | Ast.Unreachable -> set_unreachable ctx
  | Ast.Nop -> ()
  | Ast.Block (bt, body) ->
      push_ctrl ctx (block_type_types bt) (block_type_types bt);
      check_body ctx body;
      let frame = pop_ctrl ctx in
      List.iter (fun t -> push_opd ctx (Known t)) frame.end_types
  | Ast.Loop (bt, body) ->
      (* A branch to a loop label re-enters the loop: it expects the loop's
         parameters, which are empty in the MVP. *)
      push_ctrl ctx [] (block_type_types bt);
      check_body ctx body;
      let frame = pop_ctrl ctx in
      List.iter (fun t -> push_opd ctx (Known t)) frame.end_types
  | Ast.If (bt, then_, else_) ->
      pop_expect ctx Types.I32;
      let tys = block_type_types bt in
      push_ctrl ctx tys tys;
      check_body ctx then_;
      let frame = pop_ctrl ctx in
      if else_ = [] && frame.end_types <> [] then
        invalid "if without else must have empty result";
      push_ctrl ctx tys tys;
      check_body ctx else_;
      let frame = pop_ctrl ctx in
      List.iter (fun t -> push_opd ctx (Known t)) frame.end_types
  | Ast.Br n ->
      List.iter (fun t -> pop_expect ctx t) (List.rev (label_types_at ctx n));
      set_unreachable ctx
  | Ast.Br_if n ->
      pop_expect ctx Types.I32;
      let tys = label_types_at ctx n in
      List.iter (fun t -> pop_expect ctx t) (List.rev tys);
      List.iter (fun t -> push_opd ctx (Known t)) tys
  | Ast.Br_table (targets, default) ->
      pop_expect ctx Types.I32;
      let d_tys = label_types_at ctx default in
      List.iter
        (fun t ->
          if label_types_at ctx t <> d_tys then
            invalid "br_table target arity mismatch")
        targets;
      List.iter (fun t -> pop_expect ctx t) (List.rev d_tys);
      set_unreachable ctx
  | Ast.Return ->
      (* The outermost control frame carries the function's result types. *)
      let frame = List.nth ctx.ctrls (List.length ctx.ctrls - 1) in
      List.iter (fun t -> pop_expect ctx t) (List.rev frame.end_types);
      set_unreachable ctx
  | Ast.Call fi ->
      if fi < 0 || fi >= Array.length ctx.env.func_types then
        invalid "unknown function %d" fi;
      let ft = ctx.env.func_types.(fi) in
      List.iter (fun t -> pop_expect ctx t) (List.rev ft.params);
      List.iter (fun t -> push_opd ctx (Known t)) ft.results
  | Ast.Call_indirect ti ->
      if m.tables = [] then invalid "call_indirect without table";
      if ti < 0 || ti >= Array.length m.types then invalid "unknown type %d" ti;
      pop_expect ctx Types.I32;
      let ft = m.types.(ti) in
      List.iter (fun t -> pop_expect ctx t) (List.rev ft.params);
      List.iter (fun t -> push_opd ctx (Known t)) ft.results
  | Ast.Drop -> ignore (pop_opd ctx)
  | Ast.Select -> (
      pop_expect ctx Types.I32;
      let a = pop_opd ctx in
      let b = pop_opd ctx in
      match (a, b) with
      | Known ta, Known tb ->
          if ta <> tb then invalid "select type mismatch";
          push_opd ctx (Known ta)
      | Known t, Unknown | Unknown, Known t -> push_opd ctx (Known t)
      | Unknown, Unknown -> push_opd ctx Unknown)
  | Ast.Local_get n ->
      if n < 0 || n >= Array.length ctx.locals then invalid "unknown local %d" n;
      push_opd ctx (Known ctx.locals.(n))
  | Ast.Local_set n ->
      if n < 0 || n >= Array.length ctx.locals then invalid "unknown local %d" n;
      pop_expect ctx ctx.locals.(n)
  | Ast.Local_tee n ->
      if n < 0 || n >= Array.length ctx.locals then invalid "unknown local %d" n;
      pop_expect ctx ctx.locals.(n);
      push_opd ctx (Known ctx.locals.(n))
  | Ast.Global_get n -> push_opd ctx (Known (global_type_at ctx n).gt_type)
  | Ast.Global_set n ->
      let gt = global_type_at ctx n in
      if gt.gt_mut <> Types.Mutable then invalid "global %d is immutable" n;
      pop_expect ctx gt.gt_type
  | Ast.Load op ->
      if not ctx.env.has_memory then invalid "load without memory";
      pop_expect ctx Types.I32;
      push_opd ctx (Known op.l_ty)
  | Ast.Store op ->
      if not ctx.env.has_memory then invalid "store without memory";
      pop_expect ctx op.s_ty;
      pop_expect ctx Types.I32
  | Ast.Memory_size -> push_opd ctx (Known Types.I32)
  | Ast.Memory_grow ->
      pop_expect ctx Types.I32;
      push_opd ctx (Known Types.I32)
  | Ast.Const v -> push_opd ctx (Known (Values.type_of v))
  | Ast.Eqz ty ->
      if not (Types.is_int_type ty) then invalid "eqz on float";
      pop_expect ctx ty;
      push_opd ctx (Known Types.I32)
  | Ast.Int_compare (ty, _) ->
      pop_expect ctx ty;
      pop_expect ctx ty;
      push_opd ctx (Known Types.I32)
  | Ast.Float_compare (ty, _) ->
      pop_expect ctx ty;
      pop_expect ctx ty;
      push_opd ctx (Known Types.I32)
  | Ast.Int_unary (ty, _) | Ast.Float_unary (ty, _) ->
      pop_expect ctx ty;
      push_opd ctx (Known ty)
  | Ast.Int_binary (ty, _) | Ast.Float_binary (ty, _) ->
      pop_expect ctx ty;
      pop_expect ctx ty;
      push_opd ctx (Known ty)
  | Ast.Convert op ->
      let src, dst = cvtop_types op in
      pop_expect ctx src;
      push_opd ctx (Known dst)

and cvtop_types : Ast.cvtop -> Types.value_type * Types.value_type = function
  | Ast.I32_wrap_i64 -> (Types.I64, Types.I32)
  | Ast.I64_extend_i32_s | Ast.I64_extend_i32_u -> (Types.I32, Types.I64)
  | Ast.I32_trunc_f32_s | Ast.I32_trunc_f32_u -> (Types.F32, Types.I32)
  | Ast.I32_trunc_f64_s | Ast.I32_trunc_f64_u -> (Types.F64, Types.I32)
  | Ast.I64_trunc_f32_s | Ast.I64_trunc_f32_u -> (Types.F32, Types.I64)
  | Ast.I64_trunc_f64_s | Ast.I64_trunc_f64_u -> (Types.F64, Types.I64)
  | Ast.F32_convert_i32_s | Ast.F32_convert_i32_u -> (Types.I32, Types.F32)
  | Ast.F32_convert_i64_s | Ast.F32_convert_i64_u -> (Types.I64, Types.F32)
  | Ast.F64_convert_i32_s | Ast.F64_convert_i32_u -> (Types.I32, Types.F64)
  | Ast.F64_convert_i64_s | Ast.F64_convert_i64_u -> (Types.I64, Types.F64)
  | Ast.F32_demote_f64 -> (Types.F64, Types.F32)
  | Ast.F64_promote_f32 -> (Types.F32, Types.F64)
  | Ast.I32_reinterpret_f32 -> (Types.F32, Types.I32)
  | Ast.I64_reinterpret_f64 -> (Types.F64, Types.I64)
  | Ast.F32_reinterpret_i32 -> (Types.I32, Types.F32)
  | Ast.F64_reinterpret_i64 -> (Types.I64, Types.F64)

and check_body ctx body = List.iter (check_instr ctx) body

(* [f]'s type index is checked by [check_module]. *)
let check_func env (f : Ast.func) =
  let ft = env.module_.types.(f.ftype) in
  let ctx =
    {
      env;
      locals = Array.of_list (ft.params @ f.locals);
      opds = [];
      height = 0;
      ctrls = [];
    }
  in
  push_ctrl ctx ft.results ft.results;
  check_body ctx f.body;
  ignore (pop_ctrl ctx)

let check_const_expr (_m : Ast.module_) (e : Ast.instr list)
    (expected : Types.value_type) =
  match e with
  | [ Ast.Const v ] ->
      if Values.type_of v <> expected then invalid "const expr type mismatch"
  | [ Ast.Global_get _ ] -> ()
  | _ -> invalid "non-constant initializer expression"

(* The spec's limits rule: the minimum is at most the maximum, and a
   memory spans at most 2^16 pages (4 GiB). *)
let check_limits what ~unit ~bound (l : Types.limits) =
  let check n =
    if n > bound then
      invalid "%s: %d %s is over the limit of %d" what n unit bound
  in
  check l.lim_min;
  Option.iter check l.lim_max;
  match l.lim_max with
  | Some max when l.lim_min > max ->
      invalid "%s: minimum %d is over the maximum %d" what l.lim_min max
  | _ -> ()

let check_memory_type (mt : Types.memory_type) =
  check_limits "memory" ~unit:"pages" ~bound:0x10000 mt.mem_limits

let check_table_type (tt : Types.table_type) =
  check_limits "table" ~unit:"elements" ~bound:0xFFFF_FFFF tt.tbl_limits

(** Validate a whole module; raises {!Invalid} on the first error. *)
let check_module (m : Ast.module_) =
  let n_funcs = Ast.num_func_imports m + Array.length m.funcs in
  (* Every type in the function index space is checked up front: a body's
     [call] looks up its callee's type, imported or not. *)
  let n_types = Array.length m.types in
  List.iter
    (fun (i : Ast.import) ->
      match i.idesc with
      | Ast.Func_import ti when ti < 0 || ti >= n_types ->
          invalid "import %s.%s: unknown type index %d" i.imp_module i.imp_name
            ti
      | Ast.Memory_import mt -> check_memory_type mt
      | Ast.Table_import tt -> check_table_type tt
      | _ -> ())
    m.imports;
  List.iter check_memory_type m.memories;
  List.iter check_table_type m.tables;
  Array.iteri
    (fun k (f : Ast.func) ->
      if f.ftype < 0 || f.ftype >= n_types then
        invalid "function %d: unknown type index %d" k f.ftype)
    m.funcs;
  let env = make_env m in
  Array.iter
    (fun (f : Ast.func) ->
      try check_func env f
      with Invalid msg ->
        invalid "in function %s: %s"
          (match f.fname with Some n -> n | None -> "<anon>")
          msg)
    m.funcs;
  Array.iter (fun (g : Ast.global) -> check_const_expr m g.ginit g.gtype.gt_type)
    m.globals;
  List.iter
    (fun (e : Ast.export) ->
      match e.edesc with
      | Ast.Func_export i ->
          if i < 0 || i >= n_funcs then invalid "export %s: unknown function" e.ename
      | Ast.Table_export i ->
          if i <> 0 || m.tables = [] then invalid "export %s: unknown table" e.ename
      | Ast.Memory_export i ->
          if i <> 0 || not env.has_memory then
            invalid "export %s: unknown memory" e.ename
      | Ast.Global_export i ->
          if i < 0 || i >= Array.length m.globals then
            invalid "export %s: unknown global" e.ename)
    m.exports;
  List.iter
    (fun (e : Ast.elem_segment) ->
      check_const_expr m e.e_offset Types.I32;
      List.iter
        (fun fi -> if fi < 0 || fi >= n_funcs then invalid "elem: unknown function %d" fi)
        e.e_init)
    m.elems;
  List.iter (fun (d : Ast.data_segment) -> check_const_expr m d.d_offset Types.I32)
    m.datas;
  match m.start with
  | Some fi ->
      if fi < 0 || fi >= n_funcs then invalid "start: unknown function %d" fi;
      let ft = env.func_types.(fi) in
      if ft.params <> [] || ft.results <> [] then
        invalid "start function must have type [] -> []"
  | None -> ()

let is_valid m =
  match check_module m with () -> true | exception Invalid _ -> false
