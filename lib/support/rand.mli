(** Deterministic splitmix64 pseudo-random generator.

    All corpus generation and fuzzing randomness flows through this module
    so experiments are exactly reproducible from a seed. *)

type t

val create : int64 -> t
(** Generator seeded with the given value. *)

val next_u64 : t -> int64
(** Next raw 64-bit value. *)

val split : t -> t
(** Independent child generator. *)

val next_i32 : t -> int32

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val bool : t -> bool

val flip : t -> p:float -> bool
(** Biased coin: [true] with probability [p]. *)

val choose : t -> 'a list -> 'a
val choose_arr : t -> 'a array -> 'a

val shuffle : t -> 'a array -> 'a array
(** Fisher-Yates shuffle; returns a fresh array. *)

val eosio_name_string : t -> int -> string
(** Random identifier drawn from the EOSIO name alphabet (no dots). *)

val ascii_string : t -> int -> string
(** Random printable ASCII string. *)

val mix : int64 -> int64 -> int64
(** [mix root id] deterministically combines a root seed with a 64-bit
    identity (e.g. an EOSIO account name) into a well-mixed derived seed.
    Depends only on the pair — not on call order — so parallel and serial
    schedules derive identical per-target seeds. *)
