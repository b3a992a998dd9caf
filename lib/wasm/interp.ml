(** Stack-machine interpreter for Wasm modules.

    Execution is fuel-metered (EOSIO imposes a deadline per action; we impose
    an instruction budget) and re-entrant: host functions invoked from Wasm
    may themselves invoke other instances, which is how inline actions and
    notifications execute nested contract code. *)

exception Exhaustion of string
(** Raised when the fuel budget runs out or the call stack is too deep. *)

type host_func = {
  hf_name : string;
  hf_type : Types.func_type;
  hf_fn : instance -> Values.value list -> Values.value list;
}

and func_inst =
  | Host_func of host_func
  | Wasm_func of instance * Ast.func * Types.func_type

and instance = {
  module_ : Ast.module_;
  mutable funcs : func_inst array;  (** whole function index space *)
  memory : Memory.t option;
  globals : Values.value array;
  table : func_inst option array;
  mutable fuel : int;
  mutable depth : int;
  max_depth : int;
}

type extern =
  | Extern_func of host_func
  | Extern_memory of Memory.t
  | Extern_global of Values.value

(** Import resolver: maps (module, name) to a host-provided definition. *)
type resolver = string -> string -> extern option

exception Link_error of string

let func_type_of = function
  | Host_func h -> h.hf_type
  | Wasm_func (_, _, ft) -> ft

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

let eval_const_expr (globals : Values.value array) (e : Ast.instr list) :
    Values.value =
  match e with
  | [ Ast.Const v ] -> v
  | [ Ast.Global_get i ] -> globals.(i)
  | _ -> Values.trap "unsupported constant expression"

(* Resolve every import of [m], raising [Link_error] on the first
   unresolved or mismatched one. *)
let resolve_imports (resolver : resolver) (m : Ast.module_) :
    func_inst array * Memory.t option =
  let imported_funcs = ref [] in
  let imported_memory = ref None in
  List.iter
    (fun (imp : Ast.import) ->
      let resolved = resolver imp.imp_module imp.imp_name in
      match (imp.idesc, resolved) with
      | Ast.Func_import ti, Some (Extern_func hf) ->
          if not (Types.equal_func_type m.types.(ti) hf.hf_type) then
            raise
              (Link_error
                 (Printf.sprintf "import %s.%s: type mismatch (%s vs %s)"
                    imp.imp_module imp.imp_name
                    (Types.string_of_func_type m.types.(ti))
                    (Types.string_of_func_type hf.hf_type)));
          imported_funcs := Host_func hf :: !imported_funcs
      | Ast.Memory_import _, Some (Extern_memory mem) ->
          imported_memory := Some mem
      | Ast.Global_import _, Some (Extern_global _) -> ()
      | _, None ->
          raise
            (Link_error
               (Printf.sprintf "unresolved import %s.%s" imp.imp_module
                  imp.imp_name))
      | _ ->
          raise
            (Link_error
               (Printf.sprintf "import kind mismatch for %s.%s" imp.imp_module
                  imp.imp_name)))
    m.imports;
  (Array.of_list (List.rev !imported_funcs), !imported_memory)

(* Allocation phase of instantiation: imports, memory, globals, table,
   element and data segments.  The public [instantiate] below also runs
   the start function. *)
let alloc_instance ?(fuel = max_int) ?(max_depth = 256) (resolver : resolver)
    (m : Ast.module_) : instance =
  let imported_funcs, imported_memory = resolve_imports resolver m in
  let imported_memory = ref imported_memory in
  let memory =
    match !imported_memory with
    | Some mem -> Some mem
    | None -> (
        match m.memories with
        | mt :: _ -> Some (Memory.create mt)
        | [] -> None)
  in
  let globals =
    Array.map (fun (g : Ast.global) -> eval_const_expr [||] g.ginit) m.globals
  in
  let table_size =
    match m.tables with
    | tt :: _ -> tt.tbl_limits.lim_min
    | [] -> 0
  in
  let inst =
    {
      module_ = m;
      funcs = [||];
      memory;
      globals;
      table = Array.make table_size None;
      fuel;
      depth = 0;
      max_depth;
    }
  in
  let own_funcs =
    Array.map (fun (f : Ast.func) -> Wasm_func (inst, f, m.types.(f.ftype))) m.funcs
  in
  inst.funcs <- Array.append imported_funcs own_funcs;
  (* Element segments populate the indirect-call table. *)
  List.iter
    (fun (e : Ast.elem_segment) ->
      let base = Values.as_i32 (eval_const_expr globals e.e_offset) in
      List.iteri
        (fun i fi ->
          let idx = Int32.to_int base + i in
          if idx < 0 || idx >= Array.length inst.table then
            Values.trap "element segment out of bounds";
          inst.table.(idx) <- Some inst.funcs.(fi))
        e.e_init)
    m.elems;
  (* Data segments initialise linear memory. *)
  List.iter
    (fun (d : Ast.data_segment) ->
      match memory with
      | None -> Values.trap "data segment without memory"
      | Some mem ->
          let base = Values.as_i32 (eval_const_expr globals d.d_offset) in
          Memory.store_string mem (Int32.to_int base) d.d_init)
    m.datas;
  inst

let get_memory inst =
  match inst.memory with
  | Some m -> m
  | None -> Values.trap "no linear memory"

(* Pooled-instance support: return globals to their initial values. *)
let reset_globals (inst : instance) : unit =
  Array.iteri
    (fun i (g : Ast.global) -> inst.globals.(i) <- eval_const_expr [||] g.ginit)
    inst.module_.globals

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Control flow is modelled with exceptions carrying the operand stack at
   the branch point; validated code guarantees the handler finds the values
   it needs on top. *)
exception Br_exn of int * Values.value list
exception Return_exn of Values.value list

type frame = { locals : Values.value array; inst : instance }

let block_arity : Ast.block_type -> int = function None -> 0 | Some _ -> 1

let take n stack =
  let rec go n acc stack =
    if n = 0 then List.rev acc
    else
      match stack with
      | v :: rest -> go (n - 1) (v :: acc) rest
      | [] -> Values.trap "stack underflow"
  in
  go n [] stack

let pop = function
  | v :: rest -> (v, rest)
  | [] -> Values.trap "stack underflow"

let pop2 = function
  | b :: a :: rest -> (a, b, rest)
  | _ -> Values.trap "stack underflow"

let eval_int_unary ty op v : Values.value =
  match (ty, v) with
  | Types.I32, Values.I32 x ->
      Values.I32
        (match op with
         | Ast.Clz -> Values.I32x.clz x
         | Ast.Ctz -> Values.I32x.ctz x
         | Ast.Popcnt -> Values.I32x.popcnt x)
  | Types.I64, Values.I64 x ->
      Values.I64
        (match op with
         | Ast.Clz -> Values.I64x.clz x
         | Ast.Ctz -> Values.I64x.ctz x
         | Ast.Popcnt -> Values.I64x.popcnt x)
  | _ -> Values.trap "int unary type mismatch"

let eval_int_binary ty op a b : Values.value =
  match (ty, a, b) with
  | Types.I32, Values.I32 x, Values.I32 y ->
      Values.I32
        (match op with
         | Ast.Add -> Int32.add x y
         | Ast.Sub -> Int32.sub x y
         | Ast.Mul -> Int32.mul x y
         | Ast.Div_s -> Values.I32x.div_s x y
         | Ast.Div_u -> Values.I32x.div_u x y
         | Ast.Rem_s -> Values.I32x.rem_s x y
         | Ast.Rem_u -> Values.I32x.rem_u x y
         | Ast.And -> Int32.logand x y
         | Ast.Or -> Int32.logor x y
         | Ast.Xor -> Int32.logxor x y
         | Ast.Shl -> Values.I32x.shl x y
         | Ast.Shr_s -> Values.I32x.shr_s x y
         | Ast.Shr_u -> Values.I32x.shr_u x y
         | Ast.Rotl -> Values.I32x.rotl x y
         | Ast.Rotr -> Values.I32x.rotr x y)
  | Types.I64, Values.I64 x, Values.I64 y ->
      Values.I64
        (match op with
         | Ast.Add -> Int64.add x y
         | Ast.Sub -> Int64.sub x y
         | Ast.Mul -> Int64.mul x y
         | Ast.Div_s -> Values.I64x.div_s x y
         | Ast.Div_u -> Values.I64x.div_u x y
         | Ast.Rem_s -> Values.I64x.rem_s x y
         | Ast.Rem_u -> Values.I64x.rem_u x y
         | Ast.And -> Int64.logand x y
         | Ast.Or -> Int64.logor x y
         | Ast.Xor -> Int64.logxor x y
         | Ast.Shl -> Values.I64x.shl x y
         | Ast.Shr_s -> Values.I64x.shr_s x y
         | Ast.Shr_u -> Values.I64x.shr_u x y
         | Ast.Rotl -> Values.I64x.rotl x y
         | Ast.Rotr -> Values.I64x.rotr x y)
  | _ -> Values.trap "int binary type mismatch"

let eval_int_compare ty op a b : Values.value =
  let open Values in
  match (ty, a, b) with
  | Types.I32, I32 x, I32 y ->
      bool_value
        (match op with
         | Ast.Eq -> x = y
         | Ast.Ne -> x <> y
         | Ast.Lt_s -> Int32.compare x y < 0
         | Ast.Lt_u -> I32x.lt_u x y
         | Ast.Gt_s -> Int32.compare x y > 0
         | Ast.Gt_u -> I32x.gt_u x y
         | Ast.Le_s -> Int32.compare x y <= 0
         | Ast.Le_u -> I32x.le_u x y
         | Ast.Ge_s -> Int32.compare x y >= 0
         | Ast.Ge_u -> I32x.ge_u x y)
  | Types.I64, I64 x, I64 y ->
      bool_value
        (match op with
         | Ast.Eq -> x = y
         | Ast.Ne -> x <> y
         | Ast.Lt_s -> Int64.compare x y < 0
         | Ast.Lt_u -> I64x.lt_u x y
         | Ast.Gt_s -> Int64.compare x y > 0
         | Ast.Gt_u -> I64x.gt_u x y
         | Ast.Le_s -> Int64.compare x y <= 0
         | Ast.Le_u -> I64x.le_u x y
         | Ast.Ge_s -> Int64.compare x y >= 0
         | Ast.Ge_u -> I64x.ge_u x y)
  | _ -> Values.trap "int compare type mismatch"

let eval_float_unary ty op v : Values.value =
  let f =
    match op with
    | Ast.Fabs -> Float.abs
    | Ast.Fneg -> Float.neg
    | Ast.Fceil -> Float.ceil
    | Ast.Ffloor -> Float.floor
    | Ast.Ftrunc -> Float.trunc
    | Ast.Fnearest -> Values.Fx.nearest
    | Ast.Fsqrt -> Float.sqrt
  in
  match (ty, v) with
  | Types.F32, Values.F32 x -> Values.F32 (Values.to_f32 (f x))
  | Types.F64, Values.F64 x -> Values.F64 (f x)
  | _ -> Values.trap "float unary type mismatch"

let eval_float_binary ty op a b : Values.value =
  let f =
    match op with
    | Ast.Fadd -> ( +. )
    | Ast.Fsub -> ( -. )
    | Ast.Fmul -> ( *. )
    | Ast.Fdiv -> ( /. )
    | Ast.Fmin -> Values.Fx.min
    | Ast.Fmax -> Values.Fx.max
    | Ast.Fcopysign -> Values.Fx.copysign
  in
  match (ty, a, b) with
  | Types.F32, Values.F32 x, Values.F32 y -> Values.F32 (Values.to_f32 (f x y))
  | Types.F64, Values.F64 x, Values.F64 y -> Values.F64 (f x y)
  | _ -> Values.trap "float binary type mismatch"

let eval_float_compare ty op a b : Values.value =
  let f =
    match op with
    | Ast.Feq -> ( = )
    | Ast.Fne -> ( <> )
    | Ast.Flt -> ( < )
    | Ast.Fgt -> ( > )
    | Ast.Fle -> ( <= )
    | Ast.Fge -> ( >= )
  in
  match (ty, a, b) with
  | Types.F32, Values.F32 x, Values.F32 y -> Values.bool_value (f x y)
  | Types.F64, Values.F64 x, Values.F64 y -> Values.bool_value (f x y)
  | _ -> Values.trap "float compare type mismatch"

let eval_convert op v : Values.value =
  let open Values in
  let open Convert in
  match (op, v) with
  | Ast.I32_wrap_i64, I64 x -> I32 (wrap_i64 x)
  | Ast.I64_extend_i32_s, I32 x -> I64 (extend_s_i32 x)
  | Ast.I64_extend_i32_u, I32 x -> I64 (extend_u_i32 x)
  | Ast.I32_trunc_f32_s, F32 x | Ast.I32_trunc_f64_s, F64 x ->
      I32 (trunc_f_to_i32_s x)
  | Ast.I32_trunc_f32_u, F32 x | Ast.I32_trunc_f64_u, F64 x ->
      I32 (trunc_f_to_i32_u x)
  | Ast.I64_trunc_f32_s, F32 x | Ast.I64_trunc_f64_s, F64 x ->
      I64 (trunc_f_to_i64_s x)
  | Ast.I64_trunc_f32_u, F32 x | Ast.I64_trunc_f64_u, F64 x ->
      I64 (trunc_f_to_i64_u x)
  | Ast.F32_convert_i32_s, I32 x -> F32 (to_f32 (convert_i32_s x))
  | Ast.F32_convert_i32_u, I32 x -> F32 (to_f32 (convert_i32_u x))
  | Ast.F32_convert_i64_s, I64 x -> F32 (to_f32 (convert_i64_s x))
  | Ast.F32_convert_i64_u, I64 x -> F32 (to_f32 (convert_i64_u x))
  | Ast.F64_convert_i32_s, I32 x -> F64 (convert_i32_s x)
  | Ast.F64_convert_i32_u, I32 x -> F64 (convert_i32_u x)
  | Ast.F64_convert_i64_s, I64 x -> F64 (convert_i64_s x)
  | Ast.F64_convert_i64_u, I64 x -> F64 (convert_i64_u x)
  | Ast.F32_demote_f64, F64 x -> F32 (to_f32 x)
  | Ast.F64_promote_f32, F32 x -> F64 x
  | Ast.I32_reinterpret_f32, F32 x -> I32 (Int32.bits_of_float x)
  | Ast.I64_reinterpret_f64, F64 x -> I64 (Int64.bits_of_float x)
  | Ast.F32_reinterpret_i32, I32 x -> F32 (Int32.float_of_bits x)
  | Ast.F64_reinterpret_i64, I64 x -> F64 (Int64.float_of_bits x)
  | _ -> Values.trap "conversion type mismatch"

let rec eval_seq (frame : frame) (stack : Values.value list)
    (body : Ast.instr list) : Values.value list =
  match body with
  | [] -> stack
  | i :: rest ->
      let inst = frame.inst in
      if inst.fuel <= 0 then raise (Exhaustion "instruction budget exhausted");
      inst.fuel <- inst.fuel - 1;
      let stack = eval_instr frame stack i in
      eval_seq frame stack rest

and eval_instr (frame : frame) (stack : Values.value list) (i : Ast.instr) :
    Values.value list =
  let inst = frame.inst in
  match i with
  | Ast.Unreachable -> Values.trap "unreachable executed"
  | Ast.Nop -> stack
  | Ast.Block (bt, body) -> (
      let arity = block_arity bt in
      try
        let st = eval_seq frame [] body in
        List.rev_append (List.rev (take arity st)) stack
      with
      | Br_exn (0, st) -> List.rev_append (List.rev (take arity st)) stack
      | Br_exn (n, st) -> raise (Br_exn (n - 1, st)))
  | Ast.Loop (bt, body) ->
      let arity = block_arity bt in
      let rec go () =
        try
          let st = eval_seq frame [] body in
          take arity st
        with
        | Br_exn (0, _) -> go ()
        | Br_exn (n, st) -> raise (Br_exn (n - 1, st))
      in
      List.rev_append (List.rev (go ())) stack
  | Ast.If (bt, then_, else_) -> (
      let cond, stack = pop stack in
      let body = if Values.as_i32 cond <> 0l then then_ else else_ in
      let arity = block_arity bt in
      try
        let st = eval_seq frame [] body in
        List.rev_append (List.rev (take arity st)) stack
      with
      | Br_exn (0, st) -> List.rev_append (List.rev (take arity st)) stack
      | Br_exn (n, st) -> raise (Br_exn (n - 1, st)))
  | Ast.Br n -> raise (Br_exn (n, stack))
  | Ast.Br_if n ->
      let cond, stack = pop stack in
      if Values.as_i32 cond <> 0l then raise (Br_exn (n, stack)) else stack
  | Ast.Br_table (targets, default) ->
      let idx, stack = pop stack in
      let i = Int32.to_int (Values.as_i32 idx) in
      let target =
        if i >= 0 && i < List.length targets then List.nth targets i else default
      in
      raise (Br_exn (target, stack))
  | Ast.Return -> raise (Return_exn stack)
  | Ast.Call fi ->
      let callee = inst.funcs.(fi) in
      eval_call frame stack callee
  | Ast.Call_indirect ti ->
      let idx, stack = pop stack in
      let i = Int32.to_int (Values.as_i32 idx) in
      if i < 0 || i >= Array.length inst.table then
        Values.trap "undefined element (table index %d)" i;
      let callee =
        match inst.table.(i) with
        | Some f -> f
        | None -> Values.trap "uninitialized element %d" i
      in
      let expected = inst.module_.types.(ti) in
      if not (Types.equal_func_type expected (func_type_of callee)) then
        Values.trap "indirect call type mismatch";
      eval_call frame stack callee
  | Ast.Drop ->
      let _, stack = pop stack in
      stack
  | Ast.Select ->
      let cond, stack = pop stack in
      let a, b, stack = pop2 stack in
      (if Values.as_i32 cond <> 0l then a else b) :: stack
  | Ast.Local_get n -> frame.locals.(n) :: stack
  | Ast.Local_set n ->
      let v, stack = pop stack in
      frame.locals.(n) <- v;
      stack
  | Ast.Local_tee n ->
      let v, stack = pop stack in
      frame.locals.(n) <- v;
      v :: stack
  | Ast.Global_get n -> inst.globals.(n) :: stack
  | Ast.Global_set n ->
      let v, stack = pop stack in
      inst.globals.(n) <- v;
      stack
  | Ast.Load op ->
      let addr, stack = pop stack in
      let ea = Int32.to_int (Values.as_i32 addr) + Int32.to_int op.l_offset in
      Memory.load_value (get_memory inst) op ea :: stack
  | Ast.Store op ->
      let v, stack = pop stack in
      let addr, stack = pop stack in
      let ea = Int32.to_int (Values.as_i32 addr) + Int32.to_int op.s_offset in
      Memory.store_value (get_memory inst) op ea v;
      stack
  | Ast.Memory_size ->
      Values.I32 (Int32.of_int (Memory.size_pages (get_memory inst))) :: stack
  | Ast.Memory_grow ->
      let delta, stack = pop stack in
      let r = Memory.grow (get_memory inst) (Int32.to_int (Values.as_i32 delta)) in
      Values.I32 r :: stack
  | Ast.Const v -> v :: stack
  | Ast.Eqz ty ->
      let v, stack = pop stack in
      (match (ty, v) with
       | Types.I32, Values.I32 x -> Values.bool_value (x = 0l)
       | Types.I64, Values.I64 x -> Values.bool_value (x = 0L)
       | _ -> Values.trap "eqz type mismatch")
      :: stack
  | Ast.Int_compare (ty, op) ->
      let a, b, stack = pop2 stack in
      eval_int_compare ty op a b :: stack
  | Ast.Float_compare (ty, op) ->
      let a, b, stack = pop2 stack in
      eval_float_compare ty op a b :: stack
  | Ast.Int_unary (ty, op) ->
      let v, stack = pop stack in
      eval_int_unary ty op v :: stack
  | Ast.Int_binary (ty, op) ->
      let a, b, stack = pop2 stack in
      eval_int_binary ty op a b :: stack
  | Ast.Float_unary (ty, op) ->
      let v, stack = pop stack in
      eval_float_unary ty op v :: stack
  | Ast.Float_binary (ty, op) ->
      let a, b, stack = pop2 stack in
      eval_float_binary ty op a b :: stack
  | Ast.Convert op ->
      let v, stack = pop stack in
      eval_convert op v :: stack

and eval_call (frame : frame) (stack : Values.value list) (callee : func_inst) :
    Values.value list =
  let ft = func_type_of callee in
  let n_args = List.length ft.params in
  let args = List.rev (take n_args stack) in
  let stack = List.filteri (fun i _ -> i >= n_args) stack in
  let results = invoke_func frame.inst callee args in
  List.rev_append results stack

(** Invoke a function instance with the given arguments.  [caller] provides
    the fuel/depth accounting context for host re-entry. *)
and invoke_func (caller : instance) (callee : func_inst)
    (args : Values.value list) : Values.value list =
  match callee with
  | Host_func h -> h.hf_fn caller args
  | Wasm_func (inst, f, ft) ->
      if inst.depth >= inst.max_depth then
        raise (Exhaustion "call stack exhausted");
      inst.depth <- inst.depth + 1;
      Fun.protect
        ~finally:(fun () -> inst.depth <- inst.depth - 1)
        (fun () ->
          let locals =
            Array.of_list
              (args @ List.map Values.default_value f.locals)
          in
          let frame = { locals; inst } in
          let result_arity = List.length ft.results in
          try
            let st = eval_seq frame [] f.body in
            List.rev (take result_arity st)
          with
          | Return_exn st -> List.rev (take result_arity st)
          | Br_exn (0, st) -> List.rev (take result_arity st))

(** Instantiate [m], resolving its imports through [resolver], and run its
    start function if it declares one.  [fuel] bounds the total number of
    instructions the instance may ever execute (refreshed by the embedder
    per action). *)
let instantiate ?fuel ?max_depth (resolver : resolver) (m : Ast.module_) :
    instance =
  let inst = alloc_instance ?fuel ?max_depth resolver m in
  (match m.start with
   | Some fi -> ignore (invoke_func inst inst.funcs.(fi) [])
   | None -> ());
  inst

(** Invoke an exported function by name. *)
let invoke_export (inst : instance) (name : string) (args : Values.value list) :
    Values.value list =
  match Ast.exported_func inst.module_ name with
  | None -> Values.trap "no exported function named %s" name
  | Some idx -> invoke_func inst inst.funcs.(idx) args

let set_fuel inst fuel = inst.fuel <- fuel
let remaining_fuel inst = inst.fuel
