(** Execution traces.

    The instrumented contract calls hook imports in the [wasai] namespace
    while it runs; the collector receives a flat stream of events (a site
    announcement followed by its duplicated operands) and assembles it into
    structured records τ(i, p⃗) — the trace format of §3.1 of the paper.

    Only instrumented contracts import the hooks, so auxiliary contracts
    (eosio.token, attacker agents) never pollute the trace, exactly as the
    paper's contract-level instrumentation guarantees. *)

module Wasm = Wasai_wasm
module Values = Wasm.Values

(** Static description of one instrumented instruction site. *)
type site = {
  site_id : int;
  site_func : int;  (** absolute function index in the instrumented module *)
  site_instr : Wasm.Ast.instr;  (** post-remap instruction *)
}

(** Static metadata produced by the instrumenter (the analogue of Wasabi's
    static-info file). *)
type meta = {
  sites : site array;
  instrumented : Wasm.Ast.module_;
  original : Wasm.Ast.module_;
  hook_base : int;  (** first hook import index *)
  hook_count : int;
  orig_import_count : int;  (** function imports of the original module *)
}

let site_of (meta : meta) id = meta.sites.(id)

(** Absolute index of an [env] import by name, if the contract imports it. *)
let find_env_import (meta : meta) (name : string) : int option =
  let rec go i = function
    | [] -> None
    | (imp : Wasm.Ast.import) :: rest -> (
        match imp.idesc with
        | Wasm.Ast.Func_import _ ->
            if imp.imp_module = "env" && imp.imp_name = name then Some i
            else go (i + 1) rest
        | _ -> go i rest)
  in
  go 0 meta.instrumented.Wasm.Ast.imports

(* ------------------------------------------------------------------ *)
(* Coverage signatures                                                 *)
(* ------------------------------------------------------------------ *)

(* FNV-1a 64 over the canonicalised (sorted, deduplicated) edge set,
   each edge fed as 8 little-endian bytes of the site id followed by 4
   little-endian bytes of the direction.  The same constants as
   Campaign.Shard's name hash, so the value is machine-portable: a
   corpus written on one host deduplicates against one written on
   another. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let edge_signature (edges : (int * int32) list) : int64 =
  let edges = List.sort_uniq compare edges in
  let h = ref fnv_offset in
  let byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) fnv_prime
  in
  List.iter
    (fun (site, dir) ->
      for i = 0 to 7 do
        byte (site lsr (8 * i))
      done;
      let d = Int32.to_int dir in
      for i = 0 to 3 do
        byte (d asr (8 * i))
      done)
    edges;
  !h

(* ------------------------------------------------------------------ *)
(* Structured records                                                  *)
(* ------------------------------------------------------------------ *)

type record =
  | R_instr of { site : int; ops : Values.value list }
      (** an executed instruction with its duplicated operands *)
  | R_call_pre of { site : int; args : Values.value list }
  | R_call_post of { site : int; results : Values.value list }
  | R_func_begin of int  (** absolute function index *)
  | R_func_end of int

let record_site = function
  | R_instr { site; _ } | R_call_pre { site; _ } | R_call_post { site; _ } ->
      Some site
  | R_func_begin _ | R_func_end _ -> None

let string_of_record meta = function
  | R_instr { site; ops } ->
      Printf.sprintf "τ(%s, [%s])"
        (Wasm.Ast.mnemonic (site_of meta site).site_instr)
        (String.concat "; " (List.map Values.string_of_value ops))
  | R_call_pre { site; args } ->
      Printf.sprintf "call_pre@%d [%s]" site
        (String.concat "; " (List.map Values.string_of_value args))
  | R_call_post { site; results } ->
      Printf.sprintf "call_post@%d [%s]" site
        (String.concat "; " (List.map Values.string_of_value results))
  | R_func_begin f -> Printf.sprintf "function_begin %d" f
  | R_func_end f -> Printf.sprintf "function_end %d" f

(* ------------------------------------------------------------------ *)
(* Collector: flat event buffer                                        *)
(* ------------------------------------------------------------------ *)

module Buffer = struct
  (* The trace lives in two growable int arrays instead of a list of
     boxed records:

       tape : 2 words per event — [ (label lsl 3) lor kind ; op_start ]
       pool : 3 words per operand — [ lo32 ; hi32 ; width tag ]

     [label] is the site id (instr / call events) or the absolute
     function index (func events); both are non-negative and far below
     2^60, so packing them above the 3-bit kind is lossless.  Operand
     words hold the value's raw bits split into two unsigned 32-bit
     halves (an [int array] of plain OCaml ints is unboxed, whereas
     [int64 array] elements and [Int64.t] values are not), plus a tag
     recording the wire type.  An event's operands occupy the pool run
     [op_start(i), op_start(i+1)) — operands only ever append to the
     newest operand-bearing event, so runs are contiguous and their
     ends are implied by the next event (or the pool length).

     Appending an event or an operand is a bounds check plus two or
     three int stores: no per-event heap allocation.  [reset] rewinds
     the write positions but keeps the arrays, so steady-state collection
     across payloads allocates nothing at all. *)

  type kind = K_instr | K_call_pre | K_call_post | K_func_begin | K_func_end

  type t = {
    mutable tape : int array;
    mutable n : int;  (** events collected *)
    mutable pool : int array;
    mutable n_ops : int;
    mutable open_ : bool;
        (** the newest event still accepts operands (it is an
            instr/call event and nothing was appended after it) *)
    mutable truncated_ : bool;
    mutable limit : int;  (** safety valve against pathological traces *)
  }

  (* The tape and pool of the domain's last released collector: the
     next [create] on the domain takes them instead of allocating (the
     initial pool is over 256 words, so it would go straight to the
     major heap, and both arrays would regrow from there). *)
  let spare : (int array * int array) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let create ?(limit = 2_000_000) () =
    let cell = Domain.DLS.get spare in
    let tape, pool =
      match !cell with
      | Some arrays ->
          cell := None;
          arrays
      | None -> (Array.make 256 0, Array.make 384 0)
    in
    { tape; n = 0; pool; n_ops = 0; open_ = false; truncated_ = false; limit }

  (* A limit of 0 refuses every later event through the append path's
     own check, and with no open event every operand is dropped. *)
  let release t =
    if Array.length t.tape > 0 then begin
      Domain.DLS.get spare := Some (t.tape, t.pool);
      t.tape <- [||];
      t.pool <- [||];
      t.n <- 0;
      t.n_ops <- 0;
      t.open_ <- false;
      t.limit <- 0
    end

  let length t = t.n
  let truncated t = t.truncated_

  let grow_tape t =
    let bigger = Array.make (2 * Array.length t.tape) 0 in
    Array.blit t.tape 0 bigger 0 (t.n * 2);
    t.tape <- bigger

  let grow_pool t =
    let bigger = Array.make (2 * Array.length t.pool) 0 in
    Array.blit t.pool 0 bigger 0 (t.n_ops * 3);
    t.pool <- bigger

  (* Integer kind codes (the tape word's low 3 bits). *)
  let k_instr = 0
  let k_call_pre = 1
  let k_call_post = 2
  let k_func_begin = 3
  let k_func_end = 4

  (* A refused append must leave [open_] untouched: the old list
     collector kept its pending event stale across the limit, so
     post-limit operands still append to the last pre-limit instr/call
     event.  The refusal itself is what [truncated] now surfaces. *)
  let push_event t kind label keeps_open =
    if t.n < t.limit then begin
      if (t.n + 1) * 2 > Array.length t.tape then grow_tape t;
      let base = t.n * 2 in
      t.tape.(base) <- (label lsl 3) lor kind;
      t.tape.(base + 1) <- t.n_ops;
      t.n <- t.n + 1;
      t.open_ <- keeps_open
    end
    else t.truncated_ <- true

  let begin_instr t site = push_event t k_instr site true
  let begin_call_pre t site = push_event t k_call_pre site true
  let begin_call_post t site = push_event t k_call_post site true
  let func_begin t f = push_event t k_func_begin f false
  let func_end t f = push_event t k_func_end f false

  let tag_i32 = 0
  let tag_i64 = 1
  let tag_f32 = 2
  let tag_f64 = 3

  (* Shared slow path for all operand appends.  [lo]/[hi] are the raw
     bits split into unsigned 32-bit halves. *)
  let operand_raw t lo hi tag =
    if t.open_ then begin
      if (t.n_ops + 1) * 3 > Array.length t.pool then grow_pool t;
      let base = t.n_ops * 3 in
      t.pool.(base) <- lo;
      t.pool.(base + 1) <- hi;
      t.pool.(base + 2) <- tag;
      t.n_ops <- t.n_ops + 1
    end

  (* Unboxed appends: the compiled execution tier calls these directly
     from its inlined hook closures, skipping the boxed [value]. *)
  let operand_i32 t (x : int32) =
    operand_raw t (Int32.to_int x land 0xFFFF_FFFF) 0 tag_i32

  let operand_i64 t (x : int64) =
    operand_raw t
      (Int64.to_int (Int64.logand x 0xFFFF_FFFFL))
      (Int64.to_int (Int64.logand (Int64.shift_right_logical x 32) 0xFFFF_FFFFL))
      tag_i64

  let operand_f32 t (f : float) =
    operand_raw t (Int32.to_int (Int32.bits_of_float f) land 0xFFFF_FFFF) 0
      tag_f32

  let operand_f64 t (f : float) =
    let b = Int64.bits_of_float f in
    operand_raw t
      (Int64.to_int (Int64.logand b 0xFFFF_FFFFL))
      (Int64.to_int (Int64.logand (Int64.shift_right_logical b 32) 0xFFFF_FFFFL))
      tag_f64

  let operand t (v : Values.value) =
    match v with
    | Values.I32 x -> operand_i32 t x
    | Values.I64 x -> operand_i64 t x
    | Values.F32 f -> operand_f32 t f
    | Values.F64 f -> operand_f64 t f
  (* else: operand with no open event.  Pre-limit this cannot happen
     (hooks emit operands only right after a begin); post-limit it is
     the old collector's silent [P_none -> ()] drop, already flagged by
     the refused event that closed the buffer. *)

  let reset t =
    t.n <- 0;
    t.n_ops <- 0;
    t.open_ <- false;
    t.truncated_ <- false

  (* ---------------- read side (by event index) -------------------- *)

  let kind t i =
    match t.tape.(i * 2) land 7 with
    | 0 -> K_instr
    | 1 -> K_call_pre
    | 2 -> K_call_post
    | 3 -> K_func_begin
    | _ -> K_func_end

  let label t i = t.tape.(i * 2) lsr 3

  let op_start t i = t.tape.((i * 2) + 1)
  let op_end t i = if i + 1 < t.n then op_start t (i + 1) else t.n_ops
  let op_count t i = op_end t i - op_start t i
  let op_tag t i j = t.pool.(((op_start t i + j) * 3) + 2)
  let op_is_i32 t i j = op_tag t i j = tag_i32
  let op_is_i64 t i j = op_tag t i j = tag_i64

  (* Raw bits, zero-extended to 64 — identical to [Values.raw_bits] of
     the decoded value. *)
  let op_bits t i j : int64 =
    let base = (op_start t i + j) * 3 in
    Int64.logor
      (Int64.shift_left (Int64.of_int t.pool.(base + 1)) 32)
      (Int64.of_int t.pool.(base))

  (* [op_bits t i j = x] without boxing the operand. *)
  let op_bits_equal t i j (x : int64) =
    let base = (op_start t i + j) * 3 in
    t.pool.(base) = Int64.to_int (Int64.logand x 0xFFFF_FFFFL)
    && t.pool.(base + 1)
       = Int64.to_int
           (Int64.logand (Int64.shift_right_logical x 32) 0xFFFF_FFFFL)

  let op_i32 t i j : int32 = Int32.of_int t.pool.((op_start t i + j) * 3)

  let op t i j : Values.value =
    let base = (op_start t i + j) * 3 in
    match t.pool.(base + 2) with
    | 0 -> Values.I32 (Int32.of_int t.pool.(base))
    | 1 -> Values.I64 (op_bits t i j)
    | 2 -> Values.F32 (Int32.float_of_bits (Int32.of_int t.pool.(base)))
    | _ -> Values.F64 (Int64.float_of_bits (op_bits t i j))

  let ops t i : Values.value list =
    let n = op_count t i in
    let rec go j acc = if j < 0 then acc else go (j - 1) (op t i j :: acc) in
    go (n - 1) []

  (* ---------------- regions: an event suffix and its operands ------ *)

  (* The region from event [from] to the end of the buffer, as flat
     words: [events; operands; per event its tape word and its operand
     start relative to the region's first operand; the region's operand
     words].  Hash and comparison read the same words in place. *)

  let[@inline] mix h x = (h lxor x) * 0x100000001b3

  let region_hash t from =
    let base = op_start t from in
    let h = ref (mix (mix 0x4bf29ce484222325 (t.n - from)) (t.n_ops - base)) in
    for i = from to t.n - 1 do
      h := mix (mix !h t.tape.(i * 2)) (t.tape.((i * 2) + 1) - base)
    done;
    for k = base * 3 to (t.n_ops * 3) - 1 do
      h := mix !h t.pool.(k)
    done;
    !h

  let region_words t from =
    2 + (2 * (t.n - from)) + (3 * (t.n_ops - op_start t from))

  let region_blit t from (a : int array) off =
    let base = op_start t from in
    let events = t.n - from and operands = t.n_ops - base in
    a.(off) <- events;
    a.(off + 1) <- operands;
    for k = 0 to events - 1 do
      a.(off + 2 + (2 * k)) <- t.tape.((from + k) * 2);
      a.(off + 3 + (2 * k)) <- t.tape.(((from + k) * 2) + 1) - base
    done;
    Array.blit t.pool (base * 3) a (off + 2 + (2 * events)) (3 * operands)

  let region_equal t from (a : int array) off =
    let base = op_start t from in
    let events = t.n - from and operands = t.n_ops - base in
    let same =
      ref
        (off + region_words t from <= Array.length a
        && a.(off) = events
        && a.(off + 1) = operands)
    in
    let k = ref 0 in
    while !same && !k < events do
      same :=
        a.(off + 2 + (2 * !k)) = t.tape.((from + !k) * 2)
        && a.(off + 3 + (2 * !k)) = t.tape.(((from + !k) * 2) + 1) - base;
      incr k
    done;
    let ops = off + 2 + (2 * events) and pool_off = base * 3 in
    k := 0;
    while !same && !k < 3 * operands do
      same := a.(ops + !k) = t.pool.(pool_off + !k);
      incr k
    done;
    !same
end

(* ------------------------------------------------------------------ *)
(* Compat: materialised structured records (test-only)                  *)
(* ------------------------------------------------------------------ *)

module Compat = struct
  (* Boxed [record] views over the flat buffer, quarantined here so
     production code reads the buffer by event index.  The equivalence
     property tests and debug printing are the intended consumers. *)

  let record_of t i : record =
    match Buffer.kind t i with
    | Buffer.K_instr -> R_instr { site = Buffer.label t i; ops = Buffer.ops t i }
    | Buffer.K_call_pre ->
        R_call_pre { site = Buffer.label t i; args = Buffer.ops t i }
    | Buffer.K_call_post ->
        R_call_post { site = Buffer.label t i; results = Buffer.ops t i }
    | Buffer.K_func_begin -> R_func_begin (Buffer.label t i)
    | Buffer.K_func_end -> R_func_end (Buffer.label t i)

  let to_list t : record list =
    let rec go i acc =
      if i < 0 then acc else go (i - 1) (record_of t i :: acc)
    in
    go (Buffer.length t - 1) []

  (* Feed a record list through the append path — the property tests'
     bridge between the two representations, with the same limit
     semantics as live collection. *)
  let of_records ?limit (records : record list) : Buffer.t =
    let t = Buffer.create ?limit () in
    List.iter
      (fun r ->
        match r with
        | R_instr { site; ops } ->
            Buffer.begin_instr t site;
            List.iter (Buffer.operand t) ops
        | R_call_pre { site; args } ->
            Buffer.begin_call_pre t site;
            List.iter (Buffer.operand t) args
        | R_call_post { site; results } ->
            Buffer.begin_call_post t site;
            List.iter (Buffer.operand t) results
        | R_func_begin f -> Buffer.func_begin t f
        | R_func_end f -> Buffer.func_end t f)
      records;
    t

  (* Materialise the collected trace (oldest first) and reset. *)
  let drain c : record list =
    let r = to_list c in
    Buffer.reset c;
    r
end

(* Hook-facing aliases: the instrumenter's runtime extension drives the
   collector through these. *)
type t = Buffer.t

let create = Buffer.create
let begin_instr = Buffer.begin_instr
let begin_call_pre = Buffer.begin_call_pre
let begin_call_post = Buffer.begin_call_post
let operand = Buffer.operand
let func_begin = Buffer.func_begin
let func_end = Buffer.func_end
let reset = Buffer.reset
let release = Buffer.release
