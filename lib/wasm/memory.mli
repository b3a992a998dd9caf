(** Growable byte-addressable linear memory (one Wasm page = 64 KiB).
    Loads and stores are little-endian and trap on out-of-bounds access. *)

val page_size : int

type t

val create : Types.memory_type -> t
(** A zeroed memory of the type's minimum size.  When the calling
    domain holds a spare buffer of exactly that size (see {!release}),
    the memory takes it and zeroes its written prefix instead of
    allocating. *)

val release : t -> unit
(** Hand the memory's pages to the calling domain as its spare, which
    the domain's next {!create} of the same size takes.  The domain
    keeps one spare; a later release replaces it.  The released memory
    has no pages left: every later load, store, {!grow} or {!restore}
    traps.  Releasing twice is a no-op.  The caller must hold no other
    use of the memory. *)

val size_pages : t -> int
val size_bytes : t -> int

val max_pages : int
(** 528 pages: Nodeos' 33 MiB of linear memory. *)

val grow : t -> int -> int32
(** Grow by N pages; returns the previous size, or [-1l] on failure (the
    [memory.grow] contract).  It fails past the declared maximum, and
    past {!max_pages} whether or not a maximum is declared: a contract
    cannot make the host allocate more than Nodeos would. *)

val check_bounds : t -> int -> int -> unit
val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val load_bytes_le : t -> int -> int -> int64
(** Load 1..8 little-endian bytes as an unsigned value. *)

val store_bytes_le : t -> int -> int -> int64 -> unit
val load_string : t -> int -> int -> string
val store_string : t -> int -> string -> unit

val extend_to_i64 : signed:bool -> bits:int -> int64 -> int64
(** Sign- or zero-extend an unsigned [bits]-wide value. *)

val load_value : t -> Ast.loadop -> int -> Values.value
(** Execute a load operation at an effective address. *)

val store_value : t -> Ast.storeop -> int -> Values.value -> unit

val loadop_width : Ast.loadop -> int
(** Bytes moved by the operation. *)

val storeop_width : Ast.storeop -> int

type image
(** A memory's page count and the prefix of its contents that may be
    nonzero: the data segments, for a fresh instance's memory. *)

val snapshot : t -> image
(** The current state, for later {!restore}.  The image copies only the
    bytes below the memory's watermarks: everything written since
    creation or since the last restore, and the last restored image's
    own prefix.  Every byte above them is zero. *)

val restore : t -> image -> unit
(** Return the memory to a snapshotted state: contents and page count.
    Writes are tracked with a dirty watermark, so restoring a memory
    that saw few stores since the last restore only blits the modified
    part of the image's prefix and zeroes written bytes past it.  The
    image must come from {!snapshot} on this memory, and the memory
    must not have been restored to another image since. *)
