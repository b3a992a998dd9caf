(** Abstract syntax of Wasm MVP modules.  Instructions are structured
    (nested [Block]/[Loop]/[If]); the binary encoder and decoder translate
    between this tree and the flat bytecode. *)

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

type block_type = Types.value_type option
(** MVP blocks have at most one result. *)

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
  ftype : int;  (** index into the type section *)
  locals : Types.value_type list;
  body : instr list;
  fname : string option;  (** debug name, preserved by the codec *)
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
  funcs : func array;  (** local functions; index space offset by imports *)
  tables : Types.table_type list;
  memories : Types.memory_type list;
  globals : global array;
  exports : export list;
  start : int option;
  elems : elem_segment list;
  datas : data_segment list;
}

val empty_module : module_

val num_func_imports : module_ -> int
(** Imported functions precede local functions in the index space.  This
    and the [*_at] lookups below walk the import list in place: they
    allocate nothing beyond their result. *)

val func_imports : module_ -> import list

val func_import_at : module_ -> int -> import option
(** The import behind an absolute function index; [None] for a
    module-local function. *)

val func_type_at : module_ -> int -> Types.func_type
(** Type of the function at an absolute index. *)

val func_name_at : module_ -> int -> string option
(** Debug name of the function at an absolute index (imports render as
    "module.name"). *)

val exported_func : module_ -> string -> int option

(** {1 Instruction metadata} *)

val string_of_int_unop : int_unop -> string
val string_of_int_binop : int_binop -> string
val string_of_int_relop : int_relop -> string
val string_of_float_unop : float_unop -> string
val string_of_float_binop : float_binop -> string
val string_of_float_relop : float_relop -> string
val string_of_cvtop : cvtop -> string
val string_of_loadop : loadop -> string
val string_of_storeop : storeop -> string

val mnemonic : instr -> string
(** Human-readable mnemonic without immediates. *)

val operand_arity : instr -> int
(** Stack operands consumed (the tracer duplicates this many values). *)

val iter_instrs : (instr -> unit) -> instr list -> unit
(** Visit every instruction, including nested blocks. *)

val body_size : instr list -> int
