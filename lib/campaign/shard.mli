(** Deterministic campaign sharding: split a fleet of targets into N
    disjoint slices by a stable hash of the target name, so independent
    machines given [--shard i/N] fuzz non-overlapping subsets whose union
    is the whole fleet — for any target set, any machine, any scheduling.

    The assignment is a pure function of the name string (FNV-1a 64-bit,
    reduced by unsigned modulo), never of OCaml's [Hashtbl.hash], memory
    layout or discovery order: two machines that discover the same
    directory agree on every target's shard without coordinating. *)

type t = private {
  sh_index : int;  (** this slice, [0 <= sh_index < sh_count] *)
  sh_count : int;  (** total shards in the fleet, [>= 1] *)
}

val make : index:int -> count:int -> t
(** Raises [Invalid_argument] unless [count >= 1] and
    [0 <= index < count]. *)

val whole : t
(** The unsharded campaign, [0/1]: every target is a member. *)

val is_whole : t -> bool
val equal : t -> t -> bool

val to_string : t -> string
(** ["i/N"], the [--shard] notation and the journal-stamp notation. *)

val of_string : string -> (t, string) result
(** Strict inverse of {!to_string}: exactly ["i/N"] with [i], [N] in the
    decimal spelling [%d] writes, satisfying {!make}'s range checks. *)

val hash : string -> int64
(** FNV-1a 64-bit of the raw bytes — the stable hash behind {!assign},
    exposed for tests. *)

val assign : count:int -> string -> int
(** Shard index of a target name in a [count]-shard fleet:
    [hash name mod count], unsigned.  Total: every name lands in exactly
    one of the [count] shards.  Raises [Invalid_argument] when
    [count < 1]. *)

val member : t -> string -> bool
(** [member t name] iff [assign ~count:t.sh_count name = t.sh_index]. *)
