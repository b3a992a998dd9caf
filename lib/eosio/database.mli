(** The chain's key-value store behind the [db_*_i64] host API.

    Rows live in tables addressed by (code, scope, table); each row is an
    id → bytes binding.  The store is one immutable map from table to
    immutable row map, so a snapshot is that map itself and {!restore}
    assigns it back: whole-transaction rollback copies nothing.

    Every operation is reported to [on_access]; WASAI's Engine listens to
    build the database-dependency graph (§3.3.2). *)

module I64Map : Map.S with type key = int64

type table_key = { tk_code : Name.t; tk_scope : Name.t; tk_table : Name.t }

type access_kind = Read | Write

type access = {
  acc_kind : access_kind;
  acc_code : Name.t;
  acc_table : Name.t;
}

module Table_map : Map.S with type key = table_key
(** Ordered by code, then scope, then table. *)

type iterator_target = { it_key : table_key; it_id : int64 }

type t = {
  mutable tables : string I64Map.t Table_map.t;
  iterators : (int, iterator_target) Hashtbl.t;
  mutable next_iterator : int;
  mutable on_access : (access -> unit) option;
}

type snapshot

val create : unit -> t

(** {1 The db_*_i64 intrinsics} *)

val store :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> id:int64 -> data:string -> int
(** Store a new row; traps on duplicate primary key.  Returns an
    iterator. *)

val find : t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> id:int64 -> int
(** Iterator of the row, or -1. *)

val lowerbound :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> id:int64 -> int

val get : t -> int -> string
val update : t -> int -> data:string -> unit
(** Reported as a write like any other; a row that already holds
    [data]'s bytes is left as it is. *)

val remove : t -> int -> unit

val next : t -> int -> int * int64
(** Next row: (iterator, primary id), or (-1, 0). *)

val primary : t -> int -> int64

val iterator_target : t -> int -> iterator_target
(** Resolve an iterator handle; traps when stale. *)

(** {1 Higher-level helpers (native contracts)} *)

val get_row :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> id:int64 -> string option

val put_row :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> id:int64 -> data:string -> unit
(** Insert or overwrite; like {!update}, a write of the bytes the row
    already holds is reported and changes nothing. *)

val delete_row : t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> id:int64 -> unit
val rows : t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> (int64 * string) list

(** {1 Secondary indexes (db_idx64)}

    Parallel u64-keyed indexes mapping a secondary key to the row's
    primary key, stored under a derived table so snapshots and rollback
    cover them automatically. *)

val idx64_store :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> primary:int64 ->
  secondary:int64 -> int

val idx64_remove :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> primary:int64 -> unit

val idx64_update :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> primary:int64 ->
  secondary:int64 -> unit

val idx64_find_secondary :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> secondary:int64 ->
  int * int64
(** (iterator, primary) of the first row with that secondary key, or
    (-1, 0). *)

val idx64_lowerbound :
  t -> code:Name.t -> scope:Name.t -> tbl:Name.t -> secondary:int64 ->
  int * int64

(** {1 Snapshots} *)

val snapshot : t -> snapshot
(** The current store, in constant time. *)

val restore : t -> snapshot -> unit
(** Make a snapshot the current store again and invalidate every
    iterator.  A snapshot stays valid after it is restored. *)

val clear : t -> unit
