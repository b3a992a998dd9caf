(** Bitvector expressions (widths 1–64), the constraint language of the
    symbolic executor.  Stands in for Z3's BitVec terms; booleans are
    width-1 vectors.

    Expressions are {b hash-consed}: the smart constructors intern every
    node in a per-domain table, so structurally equal expressions built
    within one domain are physically equal, equality is O(1) in the
    common case, and traversals (substitution, variable scans) memoize
    per node via the unique [tag].  Each node carries its precomputed
    structural hash and width.  Construction also runs a canonical
    normalization pass: constant folding, constant-on-left plus
    deterministic operand ordering for commutative ops, reassociation of
    constant chains, double-negation / extract-of-extract / zext-of-zext
    collapse, a width-1 [b == 1:1] to [b] and [b == 0:1] to [not_ b],
    and a concat of adjacent extracts of one term to one extract (the
    term itself for a full chain).  The ordering comparator is blind to
    variable ids and node tags (it uses names and widths), so the normal
    form of a constraint does not depend on allocation order — a
    requirement of the engine's determinism contract. *)

type width = int

type var = {
  vid : int;  (** unique id *)
  vname : string;  (** debug name *)
  vwidth : width;
}

type unop =
  | Not  (** bitwise complement *)
  | Neg  (** two's complement negation *)
  | Popcnt
  | Clz
  | Ctz

type binop =
  | Add | Sub | Mul
  | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor
  | Shl | Lshr | Ashr
  | Rotl | Rotr

type cmp = Eq | Ult | Slt | Ule | Sle

(** A hash-consed expression.  [node] is the structure; [tag] is a
    process-unique id assigned at interning time (valid for identity and
    memoization, {b not} deterministic across runs); [hkey] is the
    precomputed structural hash; [ewidth] the bit width; [evars] whether
    any variable occurs in the DAG.  Build values only through the smart
    constructors below — the record is private. *)
type t = private {
  node : node;
  tag : int;
  hkey : int;
  ewidth : width;
  evars : bool;
}

and node =
  | Const of width * int64  (** value masked to width *)
  | Var of var
  | Unop of unop * t
  | Binop of binop * t * t
  | Cmp of cmp * t * t  (** width-1 result *)
  | Ite of t * t * t  (** condition has width 1 *)
  | Extract of int * int * t  (** [Extract (hi, lo, e)], bits lo..hi inclusive *)
  | Concat of t * t  (** [Concat (hi, lo)]: hi bits above lo bits *)
  | Zext of width * t
  | Sext of width * t

(** {1 Widths and values} *)

val mask : width -> int64 -> int64
(** Keep the low [width] bits. *)

val width_of : t -> width
(** O(1): reads the precomputed [ewidth]. *)

val to_signed : width -> int64 -> int64
(** Interpret a masked value as signed. *)

(** {1 Identity} *)

val hash : t -> int
(** The precomputed structural hash ([hkey]); equal for structurally
    equal expressions even when they are not physically shared. *)

val equal : t -> t -> bool
(** Structural equality (variables by id).  Physically shared nodes —
    the common case within one domain — short-circuit in O(1). *)

(** {1 Variables} *)

val fresh_var : ?name:string -> width -> var
val var : var -> t

(** {1 Concrete semantics} *)

val eval_unop : width -> unop -> int64 -> int64
val eval_binop : width -> binop -> int64 -> int64 -> int64
val eval_cmp : width -> cmp -> int64 -> int64 -> bool

(** {1 Smart constructors (interning + normalization)} *)

val const : width -> int64 -> t
val bool_ : bool -> t
val true_ : t
val false_ : t
val is_true : t -> bool
val is_false : t -> bool
val unop : unop -> t -> t
val binop : binop -> t -> t -> t
val cmp : cmp -> t -> t -> t
val ite : t -> t -> t -> t
val extract : int -> int -> t -> t
val concat : t -> t -> t
val zext : width -> t -> t
val sext : width -> t -> t

val not_ : t -> t
(** Boolean negation of a width-1 vector. *)

val and_ : t -> t -> t
val or_ : t -> t -> t
val conj : t list -> t
val eq : t -> t -> t
val ne : t -> t -> t

(** {1 Traversal and evaluation}

    All traversals are DAG-aware: shared subterms are visited once,
    keyed on [tag]. *)

val iter_vars : (var -> unit) -> t -> unit
(** Calls [f] once per distinct variable {e node} (not once per textual
    occurrence — shared subterms are visited once). *)

val vars : t -> var list
val contains_var : (var -> bool) -> t -> bool

val contains_var_memo : (int, bool) Hashtbl.t -> (var -> bool) -> t -> bool
(** Like [contains_var], but memoized across calls through the supplied
    table (keyed by node [tag]).  The table must only ever be used with
    one predicate. *)

val has_any_var : t -> bool
(** O(1): reads the precomputed [evars]. *)

val subst_all : (var -> t option) -> t list -> t list
(** Substitute variables in each expression; [None] keeps the variable.
    Rebuilds through the smart constructors, so substitution also
    simplifies; memoized per shared node across the whole list, so a
    subterm shared between the expressions is rebuilt once. *)

val eval : (int, int64) Hashtbl.t -> t -> int64
(** Evaluate under a full assignment (variable id -> value); raises
    [Not_found] on unassigned variables.  Memoized per shared node;
    [Ite] only evaluates the taken branch. *)

(** {1 Hash-consing table management} *)

val hashcons_stats : unit -> int * int
(** [(live, total)]: nodes currently interned in this domain's table,
    and nodes ever interned process-wide. *)

val hashcons_compact : ?threshold:int -> unit -> unit
(** Drop this domain's intern table if it holds more than [threshold]
    nodes (default [2^14]).  Existing expressions stay valid; later
    constructions simply stop sharing with pre-compaction nodes.  Only
    call between two targets' solver sessions — mid-session compaction
    would degrade sharing among one target's path constraints (never
    correctness: equality falls back to a structural walk). *)

(** {1 Printing} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
