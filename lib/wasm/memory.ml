(** Growable byte-addressable linear memory.

    One Wasm page is 64 KiB.  Loads and stores are little-endian and trap on
    out-of-bounds access, as in the specification. *)

let page_size = 0x10000

type t = {
  mutable data : Bytes.t;
  mutable pages : int;
  max_pages : int option;
  mutable dirty_hi : int;
      (** exclusive upper bound of every byte written since the last
          {!restore} (or since creation) — lets [restore] blit only the
          modified prefix *)
  mutable base_hi : int;
      (** exclusive upper bound of the nonzero bytes of the image last
          restored (0 after creation): no byte at or above
          [max base_hi dirty_hi] is nonzero *)
  mutable live : bool;  (** false once {!release}d *)
}

(* The pages of the domain's last released memory, with the exclusive
   upper bound of their nonzero bytes: the next [create] of the same
   size on the domain zeroes that prefix instead of allocating. *)
let spare : (Bytes.t * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create (mt : Types.memory_type) =
  let pages = mt.mem_limits.lim_min in
  let len = pages * page_size in
  let cell = Domain.DLS.get spare in
  let data =
    match !cell with
    | Some (buf, hi) when Bytes.length buf = len ->
        cell := None;
        Bytes.fill buf 0 hi '\000';
        buf
    | _ -> Bytes.make len '\000'
  in
  {
    data;
    pages;
    max_pages = mt.mem_limits.lim_max;
    dirty_hi = 0;
    base_hi = 0;
    live = true;
  }

let release t =
  if t.live then begin
    Domain.DLS.get spare := Some (t.data, max t.base_hi t.dirty_hi);
    t.data <- Bytes.empty;
    t.pages <- 0;
    t.dirty_hi <- 0;
    t.base_hi <- 0;
    t.live <- false
  end

let trap_released () = Values.trap "access to released linear memory"

let[@inline] mark_dirty t hi = if hi > t.dirty_hi then t.dirty_hi <- hi

let size_pages t = t.pages
let size_bytes t = t.pages * page_size

let max_pages = 528

(** Grow by [delta] pages; returns the previous size in pages, or [-1l] on
    failure (the Wasm [memory.grow] contract). *)
let grow t delta =
  if not t.live then trap_released ();
  let old = t.pages in
  let target = old + delta in
  let limit = min max_pages (Option.value t.max_pages ~default:max_pages) in
  if delta < 0 || target > limit then -1l
  else begin
    (* New pages are zero, so neither watermark moves. *)
    if delta > 0 then begin
      let data = Bytes.make (target * page_size) '\000' in
      Bytes.blit t.data 0 data 0 (Bytes.length t.data);
      t.data <- data;
      t.pages <- target
    end;
    Int32.of_int old
  end

let check_bounds t addr len =
  if addr < 0 || len < 0 || addr + len > size_bytes t then begin
    if not t.live then trap_released ();
    Values.trap "out of bounds memory access (addr=%d len=%d size=%d)" addr len
      (size_bytes t)
  end

let load_byte t addr =
  check_bounds t addr 1;
  Char.code (Bytes.get t.data addr)

let store_byte t addr b =
  check_bounds t addr 1;
  mark_dirty t (addr + 1);
  Bytes.set t.data addr (Char.chr (b land 0xff))

(** Load [len] (1..8) little-endian bytes as an unsigned int64. *)
let load_bytes_le t addr len =
  check_bounds t addr len;
  let v = ref 0L in
  for i = len - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code (Bytes.get t.data (addr + i))))
  done;
  !v

let store_bytes_le t addr len v =
  check_bounds t addr len;
  mark_dirty t (addr + len);
  for i = 0 to len - 1 do
    Bytes.set t.data (addr + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let load_string t addr len =
  check_bounds t addr len;
  Bytes.sub_string t.data addr len

let store_string t addr s =
  check_bounds t addr (String.length s);
  mark_dirty t (addr + String.length s);
  Bytes.blit_string s 0 t.data addr (String.length s)

(** Sign- or zero-extend an unsigned [bits]-wide value held in an int64. *)
let extend_to_i64 ~(signed : bool) ~bits (v : int64) =
  if bits >= 64 then v
  else if signed then
    let shift = 64 - bits in
    Int64.shift_right (Int64.shift_left v shift) shift
  else v

(** Execute a load operation at effective address [ea]. *)
let load_value t (op : Ast.loadop) ea : Values.value =
  let full_width = Types.size_of_num_type op.l_ty in
  match op.l_pack with
  | None -> (
      let raw = load_bytes_le t ea full_width in
      match op.l_ty with
      | Types.I32 -> Values.I32 (Int64.to_int32 raw)
      | Types.I64 -> Values.I64 raw
      | Types.F32 -> Values.F32 (Int32.float_of_bits (Int64.to_int32 raw))
      | Types.F64 -> Values.F64 (Int64.float_of_bits raw))
  | Some (sz, ext) -> (
      let bits =
        match sz with Ast.Pack8 -> 8 | Ast.Pack16 -> 16 | Ast.Pack32 -> 32
      in
      let raw = load_bytes_le t ea (bits / 8) in
      let v = extend_to_i64 ~signed:(ext = Ast.SX) ~bits raw in
      match op.l_ty with
      | Types.I32 -> Values.I32 (Int64.to_int32 v)
      | Types.I64 -> Values.I64 v
      | Types.F32 | Types.F64 -> Values.trap "packed float load")

(** Execute a store operation at effective address [ea]. *)
let store_value t (op : Ast.storeop) ea (v : Values.value) =
  let raw = Values.raw_bits v in
  let width =
    match op.s_pack with
    | None -> Types.size_of_num_type op.s_ty
    | Some Ast.Pack8 -> 1
    | Some Ast.Pack16 -> 2
    | Some Ast.Pack32 -> 4
  in
  store_bytes_le t ea width raw

(** Number of bytes moved by a load operation. *)
let loadop_width (op : Ast.loadop) =
  match op.l_pack with
  | None -> Types.size_of_num_type op.l_ty
  | Some (Ast.Pack8, _) -> 1
  | Some (Ast.Pack16, _) -> 2
  | Some (Ast.Pack32, _) -> 4

let storeop_width (op : Ast.storeop) =
  match op.s_pack with
  | None -> Types.size_of_num_type op.s_ty
  | Some Ast.Pack8 -> 1
  | Some Ast.Pack16 -> 2
  | Some Ast.Pack32 -> 4

type image = { im_pages : int; im_prefix : string }

let snapshot t =
  {
    im_pages = t.pages;
    im_prefix = Bytes.sub_string t.data 0 (max t.base_hi t.dirty_hi);
  }

let restore t (img : image) =
  if not t.live then trap_released ();
  let n = String.length img.im_prefix in
  if t.pages <> img.im_pages then begin
    (* grown since the snapshot: replace wholesale and shrink back *)
    t.data <- Bytes.make (img.im_pages * page_size) '\000';
    t.pages <- img.im_pages;
    Bytes.blit_string img.im_prefix 0 t.data 0 n
  end
  else begin
    (* Everything outside the dirty prefix still equals the image: bytes
       above it have not been written since the previous restore (or
       since creation), and the image agrees with that state.  Image
       bytes end at [n]; a written byte past it goes back to zero. *)
    Bytes.blit_string img.im_prefix 0 t.data 0 (min t.dirty_hi n);
    if t.dirty_hi > n then Bytes.fill t.data n (t.dirty_hi - n) '\000'
  end;
  t.dirty_hi <- 0;
  t.base_hi <- n
