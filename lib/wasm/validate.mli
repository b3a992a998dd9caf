(** Module validator: the type-checking algorithm from the specification
    appendix, including unreachable-code polymorphism.  Every
    programmatically built or instrumented module is validated before it
    runs. *)

exception Invalid of string

val check_module : Ast.module_ -> unit
(** Raises {!Invalid} on the first error. *)

val is_valid : Ast.module_ -> bool

val cvtop_types : Ast.cvtop -> Types.value_type * Types.value_type
(** (source, destination) types of a conversion. *)
