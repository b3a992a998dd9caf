(** The concrete-address memory model (challenge C2 of the paper).

    Addresses come from the runtime trace and are concrete integers, so a
    byte-indexed table suffices — no symbolic aliasing to resolve.
    Contents are symbolic: each byte holds an 8-bit expression.  A load
    from a byte neither stored nor {!map}ped creates a *symbolic load
    object*, a fresh variable memoised at that address. *)

module Expr = Wasai_smt.Expr

type t

val create : unit -> t

val store : t -> addr:int -> width_bytes:int -> Expr.t -> unit
(** Little-endian store of the low [8 * width_bytes] bits. *)

val map : t -> addr:int -> Expr.t array -> unit
(** [map m ~addr terms] backs byte [addr + i] with [terms.(i)] until a
    store overwrites it, as storing each byte would, without copying or
    counting stores.  A later map shadows an earlier one where they
    overlap.  {!Convention.bind} maps an action's symbolic pointees this
    way. *)

val byte_at : t -> int -> Expr.t

val load : t -> addr:int -> width_bytes:int -> Expr.t
(** Little-endian load as a bitvector of [8 * width_bytes] bits. *)

val store_concrete_string : t -> addr:int -> string -> unit

val symbolic_loads : t -> int
(** Symbolic load objects created so far. *)
