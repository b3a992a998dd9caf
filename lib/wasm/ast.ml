(** Abstract syntax of Wasm MVP modules.

    Instructions are kept structured (nested [Block]/[Loop]/[If]) as in the
    reference interpreter; the binary encoder and decoder translate between
    this tree and the flat bytecode of the binary format. *)

type int_unop = Clz | Ctz | Popcnt

type int_binop =
  | Add | Sub | Mul
  | Div_s | Div_u | Rem_s | Rem_u
  | And | Or | Xor
  | Shl | Shr_s | Shr_u | Rotl | Rotr

type int_relop = Eq | Ne | Lt_s | Lt_u | Gt_s | Gt_u | Le_s | Le_u | Ge_s | Ge_u

type float_unop = Fabs | Fneg | Fceil | Ffloor | Ftrunc | Fnearest | Fsqrt

type float_binop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax | Fcopysign

type float_relop = Feq | Fne | Flt | Fgt | Fle | Fge

type cvtop =
  | I32_wrap_i64
  | I64_extend_i32_s | I64_extend_i32_u
  | I32_trunc_f32_s | I32_trunc_f32_u | I32_trunc_f64_s | I32_trunc_f64_u
  | I64_trunc_f32_s | I64_trunc_f32_u | I64_trunc_f64_s | I64_trunc_f64_u
  | F32_convert_i32_s | F32_convert_i32_u | F32_convert_i64_s | F32_convert_i64_u
  | F64_convert_i32_s | F64_convert_i32_u | F64_convert_i64_s | F64_convert_i64_u
  | F32_demote_f64 | F64_promote_f32
  | I32_reinterpret_f32 | I64_reinterpret_f64
  | F32_reinterpret_i32 | F64_reinterpret_i64

type pack_size = Pack8 | Pack16 | Pack32

type extension = SX | ZX

type loadop = {
  l_ty : Types.num_type;
  l_pack : (pack_size * extension) option;
  l_align : int;
  l_offset : int32;
}

type storeop = {
  s_ty : Types.num_type;
  s_pack : pack_size option;
  s_align : int;
  s_offset : int32;
}

(** MVP block types: at most one result. *)
type block_type = Types.value_type option

type instr =
  | Unreachable
  | Nop
  | Block of block_type * instr list
  | Loop of block_type * instr list
  | If of block_type * instr list * instr list
  | Br of int
  | Br_if of int
  | Br_table of int list * int
  | Return
  | Call of int
  | Call_indirect of int  (** type index *)
  | Drop
  | Select
  | Local_get of int
  | Local_set of int
  | Local_tee of int
  | Global_get of int
  | Global_set of int
  | Load of loadop
  | Store of storeop
  | Memory_size
  | Memory_grow
  | Const of Values.value
  | Eqz of Types.num_type
  | Int_compare of Types.num_type * int_relop
  | Float_compare of Types.num_type * float_relop
  | Int_unary of Types.num_type * int_unop
  | Int_binary of Types.num_type * int_binop
  | Float_unary of Types.num_type * float_unop
  | Float_binary of Types.num_type * float_binop
  | Convert of cvtop

type func = {
  ftype : int;  (** index into the module's type section *)
  locals : Types.value_type list;
  body : instr list;
  fname : string option;  (** debug name, carried through instrumentation *)
}

type global = {
  gtype : Types.global_type;
  ginit : instr list;
}

type export_desc =
  | Func_export of int
  | Table_export of int
  | Memory_export of int
  | Global_export of int

type export = { ename : string; edesc : export_desc }

type import_desc =
  | Func_import of int  (** type index *)
  | Table_import of Types.table_type
  | Memory_import of Types.memory_type
  | Global_import of Types.global_type

type import = {
  imp_module : string;
  imp_name : string;
  idesc : import_desc;
}

type data_segment = {
  d_offset : instr list;  (** constant expression *)
  d_init : string;
}

type elem_segment = {
  e_offset : instr list;  (** constant expression *)
  e_init : int list;  (** function indices *)
}

type module_ = {
  types : Types.func_type array;
  imports : import list;
  funcs : func array;  (** module-local functions; index space offset by imports *)
  tables : Types.table_type list;
  memories : Types.memory_type list;
  globals : global array;
  exports : export list;
  start : int option;
  elems : elem_segment list;
  datas : data_segment list;
}

let empty_module = {
  types = [||];
  imports = [];
  funcs = [||];
  tables = [];
  memories = [];
  globals = [||];
  exports = [];
  start = None;
  elems = [];
  datas = [];
}

(* The import-space lookups below run once per call site in validation,
   compilation and trace replay, so each walks [m.imports] in place
   rather than building the filtered list of function imports. *)

let rec count_func_imports n = function
  | [] -> n
  | { idesc = Func_import _; _ } :: rest -> count_func_imports (n + 1) rest
  | _ :: rest -> count_func_imports n rest

(** Number of imported functions (they precede module-local functions in the
    function index space). *)
let num_func_imports (m : module_) = count_func_imports 0 m.imports

let func_imports (m : module_) =
  List.filter (fun i -> match i.idesc with Func_import _ -> true | _ -> false)
    m.imports

let rec nth_func_import k = function
  | [] -> None
  | ({ idesc = Func_import _; _ } as i) :: rest ->
      if k = 0 then Some i else nth_func_import (k - 1) rest
  | _ :: rest -> nth_func_import k rest

(** The import behind absolute function index [idx], if it is imported. *)
let func_import_at (m : module_) idx : import option =
  if idx < 0 then None else nth_func_import idx m.imports

(* [k] counts down over the function imports left in [imports]; once they
   run out it is the module-local index. *)
let rec func_type_from (m : module_) k = function
  | [] -> m.types.(m.funcs.(k).ftype)
  | { idesc = Func_import ti; _ } :: rest ->
      if k = 0 then m.types.(ti) else func_type_from m (k - 1) rest
  | _ :: rest -> func_type_from m k rest

(** Type of the function at absolute index [idx] in the function index space. *)
let func_type_at (m : module_) idx : Types.func_type =
  func_type_from m idx m.imports

let rec func_name_from (m : module_) k = function
  | [] -> m.funcs.(k).fname
  | { idesc = Func_import _; imp_module; imp_name } :: rest ->
      if k = 0 then Some (imp_module ^ "." ^ imp_name)
      else func_name_from m (k - 1) rest
  | _ :: rest -> func_name_from m k rest

(** Debug name of the function at absolute index [idx], if any. *)
let func_name_at (m : module_) idx : string option =
  func_name_from m idx m.imports

let exported_func (m : module_) name : int option =
  List.find_map
    (fun e ->
      match e.edesc with
      | Func_export i when e.ename = name -> Some i
      | _ -> None)
    m.exports

(* ------------------------------------------------------------------ *)
(* Instruction metadata used by the tracer and the symbolic replayer. *)
(* ------------------------------------------------------------------ *)

let string_of_int_unop = function Clz -> "clz" | Ctz -> "ctz" | Popcnt -> "popcnt"

let string_of_int_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | Div_s -> "div_s" | Div_u -> "div_u" | Rem_s -> "rem_s" | Rem_u -> "rem_u"
  | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Shr_s -> "shr_s" | Shr_u -> "shr_u"
  | Rotl -> "rotl" | Rotr -> "rotr"

let string_of_int_relop = function
  | Eq -> "eq" | Ne -> "ne"
  | Lt_s -> "lt_s" | Lt_u -> "lt_u" | Gt_s -> "gt_s" | Gt_u -> "gt_u"
  | Le_s -> "le_s" | Le_u -> "le_u" | Ge_s -> "ge_s" | Ge_u -> "ge_u"

let string_of_float_unop = function
  | Fabs -> "abs" | Fneg -> "neg" | Fceil -> "ceil" | Ffloor -> "floor"
  | Ftrunc -> "trunc" | Fnearest -> "nearest" | Fsqrt -> "sqrt"

let string_of_float_binop = function
  | Fadd -> "add" | Fsub -> "sub" | Fmul -> "mul" | Fdiv -> "div"
  | Fmin -> "min" | Fmax -> "max" | Fcopysign -> "copysign"

let string_of_float_relop = function
  | Feq -> "eq" | Fne -> "ne" | Flt -> "lt" | Fgt -> "gt" | Fle -> "le" | Fge -> "ge"

let string_of_cvtop = function
  | I32_wrap_i64 -> "i32.wrap_i64"
  | I64_extend_i32_s -> "i64.extend_i32_s"
  | I64_extend_i32_u -> "i64.extend_i32_u"
  | I32_trunc_f32_s -> "i32.trunc_f32_s"
  | I32_trunc_f32_u -> "i32.trunc_f32_u"
  | I32_trunc_f64_s -> "i32.trunc_f64_s"
  | I32_trunc_f64_u -> "i32.trunc_f64_u"
  | I64_trunc_f32_s -> "i64.trunc_f32_s"
  | I64_trunc_f32_u -> "i64.trunc_f32_u"
  | I64_trunc_f64_s -> "i64.trunc_f64_s"
  | I64_trunc_f64_u -> "i64.trunc_f64_u"
  | F32_convert_i32_s -> "f32.convert_i32_s"
  | F32_convert_i32_u -> "f32.convert_i32_u"
  | F32_convert_i64_s -> "f32.convert_i64_s"
  | F32_convert_i64_u -> "f32.convert_i64_u"
  | F64_convert_i32_s -> "f64.convert_i32_s"
  | F64_convert_i32_u -> "f64.convert_i32_u"
  | F64_convert_i64_s -> "f64.convert_i64_s"
  | F64_convert_i64_u -> "f64.convert_i64_u"
  | F32_demote_f64 -> "f32.demote_f64"
  | F64_promote_f32 -> "f64.promote_f32"
  | I32_reinterpret_f32 -> "i32.reinterpret_f32"
  | I64_reinterpret_f64 -> "i64.reinterpret_f64"
  | F32_reinterpret_i32 -> "f32.reinterpret_i32"
  | F64_reinterpret_i64 -> "f64.reinterpret_i64"

let string_of_loadop (l : loadop) =
  let base = Types.string_of_num_type l.l_ty ^ ".load" in
  match l.l_pack with
  | None -> base
  | Some (sz, ext) ->
      let bits = match sz with Pack8 -> "8" | Pack16 -> "16" | Pack32 -> "32" in
      let sgn = match ext with SX -> "_s" | ZX -> "_u" in
      base ^ bits ^ sgn

let string_of_storeop (s : storeop) =
  let base = Types.string_of_num_type s.s_ty ^ ".store" in
  match s.s_pack with
  | None -> base
  | Some Pack8 -> base ^ "8"
  | Some Pack16 -> base ^ "16"
  | Some Pack32 -> base ^ "32"

(** Human-readable mnemonic of an instruction, without immediates. *)
let mnemonic : instr -> string = function
  | Unreachable -> "unreachable"
  | Nop -> "nop"
  | Block _ -> "block"
  | Loop _ -> "loop"
  | If _ -> "if"
  | Br _ -> "br"
  | Br_if _ -> "br_if"
  | Br_table _ -> "br_table"
  | Return -> "return"
  | Call _ -> "call"
  | Call_indirect _ -> "call_indirect"
  | Drop -> "drop"
  | Select -> "select"
  | Local_get _ -> "local.get"
  | Local_set _ -> "local.set"
  | Local_tee _ -> "local.tee"
  | Global_get _ -> "global.get"
  | Global_set _ -> "global.set"
  | Load l -> string_of_loadop l
  | Store s -> string_of_storeop s
  | Memory_size -> "memory.size"
  | Memory_grow -> "memory.grow"
  | Const v -> Types.string_of_num_type (Values.type_of v) ^ ".const"
  | Eqz t -> Types.string_of_num_type t ^ ".eqz"
  | Int_compare (t, op) ->
      Types.string_of_num_type t ^ "." ^ string_of_int_relop op
  | Float_compare (t, op) ->
      Types.string_of_num_type t ^ "." ^ string_of_float_relop op
  | Int_unary (t, op) -> Types.string_of_num_type t ^ "." ^ string_of_int_unop op
  | Int_binary (t, op) ->
      Types.string_of_num_type t ^ "." ^ string_of_int_binop op
  | Float_unary (t, op) ->
      Types.string_of_num_type t ^ "." ^ string_of_float_unop op
  | Float_binary (t, op) ->
      Types.string_of_num_type t ^ "." ^ string_of_float_binop op
  | Convert op -> string_of_cvtop op

(** Number of stack operands the instruction consumes.  The tracer uses
    this to know how many values to duplicate before the instruction. *)
let operand_arity : instr -> int = function
  | Unreachable | Nop | Block _ | Loop _ | Br _ | Return | Memory_size
  | Const _ | Local_get _ | Global_get _ | Call _ ->
      0
  | If _ | Br_if _ | Br_table _ | Drop | Local_set _ | Local_tee _
  | Global_set _ | Memory_grow | Eqz _ | Int_unary _ | Float_unary _
  | Convert _ | Load _ | Call_indirect _ ->
      1
  | Int_compare _ | Float_compare _ | Int_binary _ | Float_binary _ | Store _ ->
      2
  | Select -> 3

(** Fold over every instruction in a body, including nested blocks. *)
let rec iter_instrs f (body : instr list) =
  List.iter
    (fun i ->
      f i;
      match i with
      | Block (_, b) | Loop (_, b) -> iter_instrs f b
      | If (_, t, e) ->
          iter_instrs f t;
          iter_instrs f e
      | _ -> ())
    body

(** Total number of instructions in a body, counting nested blocks. *)
let body_size body =
  let n = ref 0 in
  iter_instrs (fun _ -> incr n) body;
  !n
