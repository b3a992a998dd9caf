(** The concrete-address memory model (challenge C2 of the paper).

    Addresses come from the runtime trace and are concrete integers, so a
    byte-indexed table suffices — no symbolic aliasing to resolve, which is
    exactly why this model beats EOSAFE's merge-on-every-access scheme (we
    reproduce that scheme in {!Eosafe_memory} for the ablation benchmark).

    Contents are symbolic: each byte holds an 8-bit expression.  A range
    can be mapped to an array of prebuilt byte terms (the action's
    symbolic pointees), read from there until a store overwrites it.  A
    load from a byte neither stored nor mapped creates a *symbolic load
    object* — a fresh 8-bit variable memoised at that address so
    repeated reads agree. *)

module Expr = Wasai_smt.Expr

type t = {
  bytes : (int, Expr.t) Hashtbl.t;  (** stored bytes, ahead of [mapped] *)
  mutable mapped : (int * Expr.t array) list;
      (** (base address, byte terms) ranges, newest first *)
  mutable symload_count : int;
}

(* A replay stores or reads few bytes outside the mapped pointees (on
   perfbench's workloads 3.5 and 8.7 on average, 53 at most), so the
   table starts small and grows when a replay needs more. *)
let create () = { bytes = Hashtbl.create 16; mapped = []; symload_count = 0 }

(** Back [addr .. addr + Array.length terms - 1] with [terms], byte [i]
    at [addr + i], as stores of those bytes would; the array is shared,
    not copied. *)
let map (m : t) ~(addr : int) (terms : Expr.t array) =
  if Hashtbl.length m.bytes > 0 then
    for i = 0 to Array.length terms - 1 do
      Hashtbl.remove m.bytes (addr + i)
    done;
  m.mapped <- (addr, terms) :: m.mapped

(** Store [width_bytes] of [value] (a bitvector expression of at least that
    width) at concrete address [addr], little-endian. *)
let store (m : t) ~(addr : int) ~(width_bytes : int) (value : Expr.t) =
  for i = 0 to width_bytes - 1 do
    let byte = Expr.extract ((8 * i) + 7) (8 * i) value in
    Hashtbl.replace m.bytes (addr + i) byte
  done

(* A byte no store has written: the newest mapped range covering it, or
   else a fresh symbolic load object. *)
let rec unstored (m : t) addr = function
  | (base, terms) :: older ->
      if base <= addr && addr < base + Array.length terms then
        terms.(addr - base)
      else unstored m addr older
  | [] ->
      (* Symbolic load object ⟨addr, 1⟩. *)
      m.symload_count <- m.symload_count + 1;
      let v = Expr.var (Expr.fresh_var ~name:(Printf.sprintf "mem@%d" addr) 8) in
      Hashtbl.replace m.bytes addr v;
      v

let byte_at (m : t) (addr : int) : Expr.t =
  match Hashtbl.find_opt m.bytes addr with
  | Some b -> b
  | None -> unstored m addr m.mapped

(** Load [width_bytes] from [addr] as a bitvector of [8 * width_bytes]
    bits. *)
let load (m : t) ~(addr : int) ~(width_bytes : int) : Expr.t =
  let rec build i acc =
    if i >= width_bytes then acc
    else build (i + 1) (Expr.concat (byte_at m (addr + i)) acc)
  in
  build 1 (byte_at m addr)

(** Store a concrete string (e.g. action data) at [addr]. *)
let store_concrete_string (m : t) ~(addr : int) (s : string) =
  String.iteri
    (fun i c -> Hashtbl.replace m.bytes (addr + i) (Expr.const 8 (Int64.of_int (Char.code c))))
    s

let symbolic_loads m = m.symload_count
