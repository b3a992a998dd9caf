(** Execution traces.

    The instrumented contract calls hook imports in the [wasai] namespace
    while it runs; the collector assembles the flat event stream into
    structured records τ(i, p⃗) — the trace format of the paper's §3.1.
    Only instrumented contracts import the hooks, so auxiliary contracts
    never pollute the trace. *)

module Wasm = Wasai_wasm

(** Static description of one instrumented instruction site. *)
type site = {
  site_id : int;
  site_func : int;  (** absolute function index in the instrumented module *)
  site_instr : Wasm.Ast.instr;  (** post-remap instruction *)
}

(** Static metadata produced by the instrumenter (Wasabi's static-info
    file). *)
type meta = {
  sites : site array;
  instrumented : Wasm.Ast.module_;
  original : Wasm.Ast.module_;
  hook_base : int;  (** first hook import index *)
  hook_count : int;
  orig_import_count : int;
}

val site_of : meta -> int -> site

val find_env_import : meta -> string -> int option
(** Absolute index of an [env] import, if the contract imports it. *)

val edge_signature : (int * int32) list -> int64
(** Stable hash of a branch-edge set — the coverage signature a corpus
    indexes seeds by.  The edge list is canonicalised first (sorted,
    deduplicated), so the signature is a pure function of the {e set}:
    independent of trace order, duplication, machine, or OCaml's
    [Hashtbl.hash].  FNV-1a 64-bit over each edge's little-endian bytes. *)

(** {1 Structured records} *)

type record =
  | R_instr of { site : int; ops : Wasm.Values.value list }
  | R_call_pre of { site : int; args : Wasm.Values.value list }
  | R_call_post of { site : int; results : Wasm.Values.value list }
  | R_func_begin of int  (** absolute function index *)
  | R_func_end of int

val record_site : record -> int option
val string_of_record : meta -> record -> string

(** {1 Collector: flat event buffer}

    The trace is collected into a growable int-array event tape plus an
    operand pool (raw i32/i64 words with a width tag) — hook appends are
    O(1) with zero per-event heap allocation, and consumers read the
    buffer by event index instead of materialising a record list.
    {!record} survives as the debug/compat view ({!Compat.to_list} /
    {!Compat.record_of}). *)

module Buffer : sig
  type kind = K_instr | K_call_pre | K_call_post | K_func_begin | K_func_end

  type t

  val create : ?limit:int -> unit -> t
  (** [limit] (default 2,000,000 events) is the safety valve against
      pathological traces; appends past it are refused and set
      {!truncated}.  When the calling domain holds the arrays of a
      {!release}d collector, the new one takes them over, emptied. *)

  val release : t -> unit
  (** Hand the collector's arrays to the calling domain as its spare,
      which the domain's next {!create} takes.  The domain keeps one
      spare; a later release replaces it.  The released collector is
      empty and its limit is 0: every later event is refused and sets
      {!truncated}, and operands are dropped.  Releasing twice is a
      no-op.  The caller must hold no other use of the collector. *)

  (** {2 Append side (hook calls)} *)

  val begin_instr : t -> int -> unit
  val begin_call_pre : t -> int -> unit
  val begin_call_post : t -> int -> unit
  val operand : t -> Wasm.Values.value -> unit
  val func_begin : t -> int -> unit
  val func_end : t -> int -> unit

  (** Unboxed operand appends — byte-identical on the tape to {!operand}
      applied to the corresponding boxed value.  The compiled execution
      tier's inlined hooks call these directly. *)

  val operand_i32 : t -> int32 -> unit
  val operand_i64 : t -> int64 -> unit
  val operand_f32 : t -> float -> unit
  val operand_f64 : t -> float -> unit

  val reset : t -> unit
  (** Rewind the write positions, keeping capacity: steady-state
      collection across payloads allocates nothing. *)

  (** {2 Read side (by event index [0 .. length-1])} *)

  val length : t -> int

  val truncated : t -> bool
  (** The collector refused at least one event since the last {!reset}:
      the trace is a prefix, and post-cut-off operands were dropped or
      mis-attributed exactly as the historical list collector did.
      Consumers must treat verdicts from truncated traces as
      best-effort. *)

  val kind : t -> int -> kind

  val label : t -> int -> int
  (** Site id for instr/call events, absolute function index for
      func events. *)

  val op_count : t -> int -> int
  val op : t -> int -> int -> Wasm.Values.value

  val op_bits : t -> int -> int -> int64
  (** Raw bits of the operand, zero-extended to 64 — identical to
      [Values.raw_bits (op t i j)] without decoding. *)

  val op_bits_equal : t -> int -> int -> int64 -> bool
  (** [op_bits_equal t i j x] is [op_bits t i j = x], without boxing the
      operand. *)

  val op_i32 : t -> int -> int -> int32
  (** Low 32 bits as an int32 (meaningful for i32/f32-tagged operands). *)

  val op_is_i32 : t -> int -> int -> bool
  val op_is_i64 : t -> int -> int -> bool

  val ops : t -> int -> Wasm.Values.value list
  (** All operands of event [i], materialised (the call_pre / call_post
      argument and result vectors). *)

  (** {2 Regions}

      The region from event [i] is events [i .. length-1] with their
      operands: each event's kind and label, its operand start relative
      to the region's first operand, and the operand words and tags.
      Two buffers hold equal regions exactly when a reader starting at
      [i] sees the same events and operands in both. *)

  val region_hash : t -> int -> int
  (** Hash of the region from event [i] (which must be an event of the
      buffer).  Allocation-free; equal regions hash equally. *)

  val region_words : t -> int -> int
  (** Words a copy of the region from event [i] takes. *)

  val region_blit : t -> int -> int array -> int -> unit
  (** [region_blit t i a off] copies the region from event [i] into
      [a], at [off .. off + region_words t i - 1]. *)

  val region_equal : t -> int -> int array -> int -> bool
  (** [region_equal t i a off]: does the region from event [i] equal
      the copy at [off] in [a]?  Compares in place, allocation-free. *)
end

(** {1 Compat: materialised structured records (test-only)}

    Boxed {!record} views over the flat buffer, the reference the
    equivalence property tests compare against.  Analysis code reads
    {!Buffer} by event index. *)

module Compat : sig
  val record_of : Buffer.t -> int -> record
  (** Build a boxed record for one event. *)

  val to_list : Buffer.t -> record list
  (** Materialise the whole tape as a record list. *)

  val of_records : ?limit:int -> record list -> Buffer.t
  (** Feed records through the append path (same limit semantics as
      live collection) — the bridge the equivalence tests use. *)

  val drain : Buffer.t -> record list
  (** Materialise the collected trace (oldest first) and reset. *)
end

type t = Buffer.t

val create : ?limit:int -> unit -> t
val begin_instr : t -> int -> unit
val begin_call_pre : t -> int -> unit
val begin_call_post : t -> int -> unit
val operand : t -> Wasm.Values.value -> unit
val func_begin : t -> int -> unit
val func_end : t -> int -> unit
val reset : t -> unit
val release : t -> unit
