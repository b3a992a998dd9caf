(** Binary-classification metrics used by every evaluation table. *)

type confusion = {
  mutable tp : int;
  mutable fp : int;
  mutable tn : int;
  mutable fn : int;
}

val empty : unit -> confusion

val record : confusion -> truth:bool -> predicted:bool -> unit
(** Tally one sample. *)

val merge : confusion -> confusion -> confusion
val total : confusion -> int
val precision : confusion -> float
val recall : confusion -> float
val f1 : confusion -> float
val pct : float -> float

val pct_string : float -> string
(** "100%" / "98.4%" style rendering used in the paper's tables. *)

val row_string : confusion -> string
(** "P=... R=... F1=..." summary. *)

(** Fixed-bucket latency histogram (geometric bounds, 100 µs .. ~100 s)
    for campaign latency reporting.  Bounds are identical across
    instances, so per-worker histograms merge exactly. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** Record one sample in seconds; negative/NaN samples clamp to 0. *)

  val merge : t -> t -> t
  (** Exact merge of two histograms into a fresh one. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0,100]: an upper bound on the [p]-th
      percentile sample (the matching bucket's bound, capped at the
      observed maximum).  0 when empty. *)

  val count : t -> int
  val mean : t -> float

  val sum : t -> float
  (** Total of all recorded samples, in seconds (post-clamp). *)

  val buckets : t -> (float * int) list
  (** Per-bucket (upper bound in seconds, count) pairs in bound order,
      the overflow bucket last with bound [infinity] — the shape a
      Prometheus [le]-labelled exposition cumulates. *)

  val to_string : t -> string
  (** "latency: n=... mean=... p50<=... p90<=... p99<=... max=..." *)

  val to_wire : t -> string
  (** "n:..,mean:..,p50:..,p90:..,p99:..,max:.." — one token with no
      spaces or tabs, embeddable in tab-separated wire grammars.  Times
      are seconds with six decimals. *)
end
