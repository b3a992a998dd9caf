(** Stack-machine interpreter for Wasm modules.

    Execution is fuel-metered (EOSIO imposes a per-action deadline; this
    imposes an instruction budget) and re-entrant: host functions may
    invoke other instances, which is how inline actions and notifications
    run nested contract code. *)

exception Exhaustion of string
(** Fuel budget or call-stack depth exceeded. *)

type host_func = {
  hf_name : string;
  hf_type : Types.func_type;
  hf_fn : instance -> Values.value list -> Values.value list;
      (** receives the calling instance (for memory access) *)
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

type resolver = string -> string -> extern option
(** Import resolver: maps (module, name) to a host definition. *)

exception Link_error of string

val func_type_of : func_inst -> Types.func_type

val instantiate :
  ?fuel:int -> ?max_depth:int -> resolver -> Ast.module_ -> instance
(** Instantiate a module: resolve imports, allocate memory/table/globals,
    run element and data segments.  Raises {!Link_error} on unresolved or
    mismatched imports. *)

val alloc_instance :
  ?fuel:int -> ?max_depth:int -> resolver -> Ast.module_ -> instance
(** The allocation phase of {!instantiate} alone: imports, memory,
    globals, table, element and data segments — but {e not} the start
    function.  Alternative execution tiers ({!Compile}) allocate through
    this and drive the start function themselves. *)

val eval_const_expr : Values.value array -> Ast.instr list -> Values.value
(** Evaluate a constant expression (segment offsets, global initialisers)
    against the given global frame. *)

val get_memory : instance -> Memory.t

val reset_globals : instance -> unit
(** Re-evaluate every global initialiser, returning the globals to their
    post-instantiation values.  Used when resetting a pooled instance. *)

val invoke_func :
  instance -> func_inst -> Values.value list -> Values.value list

val invoke_export :
  instance -> string -> Values.value list -> Values.value list
(** Invoke an exported function by name; traps if absent. *)

val set_fuel : instance -> int -> unit
val remaining_fuel : instance -> int

(** {1 Pure operator semantics}

    The per-instruction evaluators, exposed for differential testing and
    for embedders that need exact Wasm arithmetic. *)

val eval_int_unary : Types.num_type -> Ast.int_unop -> Values.value -> Values.value

val eval_int_binary :
  Types.num_type -> Ast.int_binop -> Values.value -> Values.value -> Values.value

val eval_int_compare :
  Types.num_type -> Ast.int_relop -> Values.value -> Values.value -> Values.value

val eval_float_unary :
  Types.num_type -> Ast.float_unop -> Values.value -> Values.value

val eval_float_binary :
  Types.num_type -> Ast.float_binop -> Values.value -> Values.value -> Values.value

val eval_float_compare :
  Types.num_type -> Ast.float_relop -> Values.value -> Values.value -> Values.value

val eval_convert : Ast.cvtop -> Values.value -> Values.value
