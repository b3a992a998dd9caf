(** Decoder for the Wasm binary format (MVP), the inverse of {!Encode}.

    Raises {!Decode_error} with a byte offset and message on malformed
    input. *)

exception Decode_error of int * string

let error pos fmt =
  Printf.ksprintf (fun s -> raise (Decode_error (pos, s))) fmt

type stream = {
  src : string;
  mutable pos : int;
  limit : int;
}

let of_string ?(pos = 0) ?limit src =
  { src; pos; limit = (match limit with Some l -> l | None -> String.length src) }

let eos s = s.pos >= s.limit

let byte s =
  if eos s then error s.pos "unexpected end of input";
  let b = Char.code s.src.[s.pos] in
  s.pos <- s.pos + 1;
  b

let peek s = if eos s then -1 else Char.code s.src.[s.pos]

let get_string s n =
  if s.pos + n > s.limit then error s.pos "string extends past end";
  let r = String.sub s.src s.pos n in
  s.pos <- s.pos + n;
  r

(* Unsigned LEB128, at most 64 bits. *)
let u64 s =
  let rec go shift acc =
    let b = byte s in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
    if b land 0x80 <> 0 then begin
      if shift >= 63 then error s.pos "u64 too long";
      go (shift + 7) acc
    end
    else acc
  in
  go 0 0L

let u32 s =
  let v = u64 s in
  if Int64.unsigned_compare v 0xFFFF_FFFFL > 0 then error s.pos "u32 out of range";
  Int64.to_int v

(* Signed LEB128. *)
let s64 s =
  let rec go shift acc =
    let b = byte s in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7f)) shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc
    else if shift + 7 < 64 && b land 0x40 <> 0 then
      (* sign-extend *)
      Int64.logor acc (Int64.shift_left (-1L) (shift + 7))
    else acc
  in
  go 0 0L

let s32 s = Int64.to_int32 (s64 s)

let f32 s =
  let bits = ref 0l in
  for i = 0 to 3 do
    bits := Int32.logor !bits (Int32.shift_left (Int32.of_int (byte s)) (8 * i))
  done;
  Int32.float_of_bits !bits

let f64 s =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte s)) (8 * i))
  done;
  Int64.float_of_bits !bits

let name s =
  let n = u32 s in
  get_string s n

let vec f s =
  let n = u32 s in
  List.init n (fun _ -> f s)

let value_type s : Types.value_type =
  match byte s with
  | 0x7f -> Types.I32
  | 0x7e -> Types.I64
  | 0x7d -> Types.F32
  | 0x7c -> Types.F64
  | b -> error s.pos "bad value type 0x%02x" b

let block_type s : Ast.block_type =
  match peek s with
  | 0x40 ->
      ignore (byte s);
      None
  | _ -> Some (value_type s)

let func_type s : Types.func_type =
  (match byte s with 0x60 -> () | b -> error s.pos "bad functype tag 0x%02x" b);
  let params = vec value_type s in
  let results = vec value_type s in
  { Types.params; results }

let limits s : Types.limits =
  match byte s with
  | 0x00 ->
      let lim_min = u32 s in
      { Types.lim_min; lim_max = None }
  | 0x01 ->
      let lim_min = u32 s in
      let m = u32 s in
      { Types.lim_min; lim_max = Some m }
  | b -> error s.pos "bad limits tag 0x%02x" b

let global_type s : Types.global_type =
  let gt_type = value_type s in
  let gt_mut =
    match byte s with
    | 0x00 -> Types.Immutable
    | 0x01 -> Types.Mutable
    | b -> error s.pos "bad mutability 0x%02x" b
  in
  { Types.gt_mut; gt_type }

let memarg s =
  let align = u32 s in
  let offset = u32 s in
  (align, Int32.of_int offset)

let loadop ty pack s : Ast.loadop =
  let align, offset = memarg s in
  { Ast.l_ty = ty; l_pack = pack; l_align = align; l_offset = offset }

let storeop ty pack s : Ast.storeop =
  let align, offset = memarg s in
  { Ast.s_ty = ty; s_pack = pack; s_align = align; s_offset = offset }

(** Decode instructions until a terminator ([end] or [else]); returns the
    instruction list and the terminator byte. *)
let rec instr_seq s : Ast.instr list * int =
  let rec go acc =
    let op = byte s in
    if op = 0x0b || op = 0x05 then (List.rev acc, op)
    else
      let i = instr s op in
      go (i :: acc)
  in
  go []

and instr s op : Ast.instr =
  let open Ast in
  match op with
  | 0x00 -> Unreachable
  | 0x01 -> Nop
  | 0x02 ->
      let bt = block_type s in
      let body, term = instr_seq s in
      if term <> 0x0b then error s.pos "block: expected end";
      Block (bt, body)
  | 0x03 ->
      let bt = block_type s in
      let body, term = instr_seq s in
      if term <> 0x0b then error s.pos "loop: expected end";
      Loop (bt, body)
  | 0x04 ->
      let bt = block_type s in
      let then_, term = instr_seq s in
      if term = 0x05 then begin
        let else_, term2 = instr_seq s in
        if term2 <> 0x0b then error s.pos "if: expected end";
        If (bt, then_, else_)
      end
      else If (bt, then_, [])
  | 0x0c -> Br (u32 s)
  | 0x0d -> Br_if (u32 s)
  | 0x0e ->
      let targets = vec u32 s in
      let default = u32 s in
      Br_table (targets, default)
  | 0x0f -> Return
  | 0x10 -> Call (u32 s)
  | 0x11 ->
      let ti = u32 s in
      let tbl = byte s in
      if tbl <> 0x00 then error s.pos "call_indirect: bad table index";
      Call_indirect ti
  | 0x1a -> Drop
  | 0x1b -> Select
  | 0x20 -> Local_get (u32 s)
  | 0x21 -> Local_set (u32 s)
  | 0x22 -> Local_tee (u32 s)
  | 0x23 -> Global_get (u32 s)
  | 0x24 -> Global_set (u32 s)
  | 0x28 -> Load (loadop Types.I32 None s)
  | 0x29 -> Load (loadop Types.I64 None s)
  | 0x2a -> Load (loadop Types.F32 None s)
  | 0x2b -> Load (loadop Types.F64 None s)
  | 0x2c -> Load (loadop Types.I32 (Some (Pack8, SX)) s)
  | 0x2d -> Load (loadop Types.I32 (Some (Pack8, ZX)) s)
  | 0x2e -> Load (loadop Types.I32 (Some (Pack16, SX)) s)
  | 0x2f -> Load (loadop Types.I32 (Some (Pack16, ZX)) s)
  | 0x30 -> Load (loadop Types.I64 (Some (Pack8, SX)) s)
  | 0x31 -> Load (loadop Types.I64 (Some (Pack8, ZX)) s)
  | 0x32 -> Load (loadop Types.I64 (Some (Pack16, SX)) s)
  | 0x33 -> Load (loadop Types.I64 (Some (Pack16, ZX)) s)
  | 0x34 -> Load (loadop Types.I64 (Some (Pack32, SX)) s)
  | 0x35 -> Load (loadop Types.I64 (Some (Pack32, ZX)) s)
  | 0x36 -> Store (storeop Types.I32 None s)
  | 0x37 -> Store (storeop Types.I64 None s)
  | 0x38 -> Store (storeop Types.F32 None s)
  | 0x39 -> Store (storeop Types.F64 None s)
  | 0x3a -> Store (storeop Types.I32 (Some Pack8) s)
  | 0x3b -> Store (storeop Types.I32 (Some Pack16) s)
  | 0x3c -> Store (storeop Types.I64 (Some Pack8) s)
  | 0x3d -> Store (storeop Types.I64 (Some Pack16) s)
  | 0x3e -> Store (storeop Types.I64 (Some Pack32) s)
  | 0x3f ->
      ignore (byte s);
      Memory_size
  | 0x40 ->
      ignore (byte s);
      Memory_grow
  | 0x41 -> Const (Values.I32 (s32 s))
  | 0x42 -> Const (Values.I64 (s64 s))
  | 0x43 -> Const (Values.F32 (f32 s))
  | 0x44 -> Const (Values.F64 (f64 s))
  | 0x45 -> Eqz Types.I32
  | 0x50 -> Eqz Types.I64
  | b when b >= 0x46 && b <= 0x4f ->
      Int_compare (Types.I32, int_relop_of (b - 0x46))
  | b when b >= 0x51 && b <= 0x5a ->
      Int_compare (Types.I64, int_relop_of (b - 0x51))
  | b when b >= 0x5b && b <= 0x60 ->
      Float_compare (Types.F32, float_relop_of (b - 0x5b))
  | b when b >= 0x61 && b <= 0x66 ->
      Float_compare (Types.F64, float_relop_of (b - 0x61))
  | b when b >= 0x67 && b <= 0x69 -> Int_unary (Types.I32, int_unop_of (b - 0x67))
  | b when b >= 0x6a && b <= 0x78 ->
      Int_binary (Types.I32, int_binop_of (b - 0x6a))
  | b when b >= 0x79 && b <= 0x7b -> Int_unary (Types.I64, int_unop_of (b - 0x79))
  | b when b >= 0x7c && b <= 0x8a ->
      Int_binary (Types.I64, int_binop_of (b - 0x7c))
  | b when b >= 0x8b && b <= 0x91 ->
      Float_unary (Types.F32, float_unop_of (b - 0x8b))
  | b when b >= 0x92 && b <= 0x98 ->
      Float_binary (Types.F32, float_binop_of (b - 0x92))
  | b when b >= 0x99 && b <= 0x9f ->
      Float_unary (Types.F64, float_unop_of (b - 0x99))
  | b when b >= 0xa0 && b <= 0xa6 ->
      Float_binary (Types.F64, float_binop_of (b - 0xa0))
  | b when b >= 0xa7 && b <= 0xbf -> Convert (cvtop_of b)
  | b -> error s.pos "unknown opcode 0x%02x" b

and int_relop_of = function
  | 0 -> Ast.Eq | 1 -> Ast.Ne | 2 -> Ast.Lt_s | 3 -> Ast.Lt_u
  | 4 -> Ast.Gt_s | 5 -> Ast.Gt_u | 6 -> Ast.Le_s | 7 -> Ast.Le_u
  | 8 -> Ast.Ge_s | 9 -> Ast.Ge_u
  | _ -> assert false

and float_relop_of = function
  | 0 -> Ast.Feq | 1 -> Ast.Fne | 2 -> Ast.Flt | 3 -> Ast.Fgt
  | 4 -> Ast.Fle | 5 -> Ast.Fge
  | _ -> assert false

and int_unop_of = function
  | 0 -> Ast.Clz | 1 -> Ast.Ctz | 2 -> Ast.Popcnt | _ -> assert false

and int_binop_of = function
  | 0 -> Ast.Add | 1 -> Ast.Sub | 2 -> Ast.Mul
  | 3 -> Ast.Div_s | 4 -> Ast.Div_u | 5 -> Ast.Rem_s | 6 -> Ast.Rem_u
  | 7 -> Ast.And | 8 -> Ast.Or | 9 -> Ast.Xor
  | 10 -> Ast.Shl | 11 -> Ast.Shr_s | 12 -> Ast.Shr_u
  | 13 -> Ast.Rotl | 14 -> Ast.Rotr
  | _ -> assert false

and float_unop_of = function
  | 0 -> Ast.Fabs | 1 -> Ast.Fneg | 2 -> Ast.Fceil | 3 -> Ast.Ffloor
  | 4 -> Ast.Ftrunc | 5 -> Ast.Fnearest | 6 -> Ast.Fsqrt
  | _ -> assert false

and float_binop_of = function
  | 0 -> Ast.Fadd | 1 -> Ast.Fsub | 2 -> Ast.Fmul | 3 -> Ast.Fdiv
  | 4 -> Ast.Fmin | 5 -> Ast.Fmax | 6 -> Ast.Fcopysign
  | _ -> assert false

and cvtop_of = function
  | 0xa7 -> Ast.I32_wrap_i64
  | 0xa8 -> Ast.I32_trunc_f32_s
  | 0xa9 -> Ast.I32_trunc_f32_u
  | 0xaa -> Ast.I32_trunc_f64_s
  | 0xab -> Ast.I32_trunc_f64_u
  | 0xac -> Ast.I64_extend_i32_s
  | 0xad -> Ast.I64_extend_i32_u
  | 0xae -> Ast.I64_trunc_f32_s
  | 0xaf -> Ast.I64_trunc_f32_u
  | 0xb0 -> Ast.I64_trunc_f64_s
  | 0xb1 -> Ast.I64_trunc_f64_u
  | 0xb2 -> Ast.F32_convert_i32_s
  | 0xb3 -> Ast.F32_convert_i32_u
  | 0xb4 -> Ast.F32_convert_i64_s
  | 0xb5 -> Ast.F32_convert_i64_u
  | 0xb6 -> Ast.F32_demote_f64
  | 0xb7 -> Ast.F64_convert_i32_s
  | 0xb8 -> Ast.F64_convert_i32_u
  | 0xb9 -> Ast.F64_convert_i64_s
  | 0xba -> Ast.F64_convert_i64_u
  | 0xbb -> Ast.F64_promote_f32
  | 0xbc -> Ast.I32_reinterpret_f32
  | 0xbd -> Ast.I64_reinterpret_f64
  | 0xbe -> Ast.F32_reinterpret_i32
  | 0xbf -> Ast.F64_reinterpret_i64
  | _ -> assert false

let expr s =
  let body, term = instr_seq s in
  if term <> 0x0b then error s.pos "expr: expected end";
  body

let import s : Ast.import =
  let imp_module = name s in
  let imp_name = name s in
  let idesc =
    match byte s with
    | 0x00 -> Ast.Func_import (u32 s)
    | 0x01 ->
        (match byte s with
         | 0x70 -> ()
         | b -> error s.pos "bad elemtype 0x%02x" b);
        Ast.Table_import { Types.tbl_limits = limits s }
    | 0x02 -> Ast.Memory_import { Types.mem_limits = limits s }
    | 0x03 -> Ast.Global_import (global_type s)
    | b -> error s.pos "bad import kind 0x%02x" b
  in
  { Ast.imp_module; imp_name; idesc }

let export s : Ast.export =
  let ename = name s in
  let edesc =
    match byte s with
    | 0x00 -> Ast.Func_export (u32 s)
    | 0x01 -> Ast.Table_export (u32 s)
    | 0x02 -> Ast.Memory_export (u32 s)
    | 0x03 -> Ast.Global_export (u32 s)
    | b -> error s.pos "bad export kind 0x%02x" b
  in
  { Ast.ename; edesc }

type code_entry = { ce_locals : Types.value_type list; ce_body : Ast.instr list }

(* A function may declare at most this many locals, as in wasmparser
   and V8: the runs are counted before any is expanded, so a run of
   2^32 - 1 locals is refused instead of allocated. *)
let max_locals = 50_000

let code s : code_entry =
  let size = u32 s in
  let endp = s.pos + size in
  let declared = ref 0 in
  let runs = vec (fun s ->
      let n = u32 s in
      declared := !declared + n;
      if !declared > max_locals then
        error s.pos "function declares more than %d locals" max_locals;
      let t = value_type s in
      (n, t)) s
  in
  let ce_locals =
    List.concat_map (fun (n, t) -> List.init n (fun _ -> t)) runs
  in
  let ce_body = expr s in
  if s.pos <> endp then error s.pos "code entry size mismatch";
  { ce_locals; ce_body }

(** Parse the custom "name" section's function-name subsection. *)
let parse_name_section payload : (int * string) list =
  let s = of_string payload in
  let rec subsections acc =
    if eos s then acc
    else begin
      let id = byte s in
      let size = u32 s in
      let endp = s.pos + size in
      let acc =
        if id = 1 then
          let n = u32 s in
          let entries =
            List.init n (fun _ ->
                let idx = u32 s in
                let nm = name s in
                (idx, nm))
          in
          acc @ entries
        else begin
          s.pos <- endp;
          acc
        end
      in
      s.pos <- endp;
      subsections acc
    end
  in
  subsections []

(** Decode a complete binary module. *)
let decode (bin : string) : Ast.module_ =
  let s = of_string bin in
  if get_string s 4 <> "\x00asm" then error 0 "bad magic";
  if get_string s 4 <> "\x01\x00\x00\x00" then error 4 "bad version";
  let types = ref [||] in
  let imports = ref [] in
  let func_types = ref [] in
  let tables = ref [] in
  let memories = ref [] in
  let globals = ref [||] in
  let exports = ref [] in
  let start = ref None in
  let elems = ref [] in
  let codes = ref [] in
  let datas = ref [] in
  let fnames = ref [] in
  while not (eos s) do
    let id = byte s in
    let size = u32 s in
    let endp = s.pos + size in
    (match id with
     | 0 ->
         let sec_name = name s in
         if s.pos > endp then error s.pos "custom section name past section end";
         let payload = get_string s (endp - s.pos) in
         if sec_name = "name" then fnames := parse_name_section payload
     | 1 -> types := Array.of_list (vec func_type s)
     | 2 -> imports := vec import s
     | 3 -> func_types := vec u32 s
     | 4 ->
         tables :=
           vec
             (fun s ->
               (match byte s with
                | 0x70 -> ()
                | b -> error s.pos "bad elemtype 0x%02x" b);
               { Types.tbl_limits = limits s })
             s
     | 5 -> memories := vec (fun s -> { Types.mem_limits = limits s }) s
     | 6 ->
         globals :=
           Array.of_list
             (vec
                (fun s ->
                  let gtype = global_type s in
                  let ginit = expr s in
                  { Ast.gtype; ginit })
                s)
     | 7 -> exports := vec export s
     | 8 -> start := Some (u32 s)
     | 9 ->
         elems :=
           vec
             (fun s ->
               let tbl = u32 s in
               if tbl <> 0 then error s.pos "bad elem table index";
               let e_offset = expr s in
               let e_init = vec u32 s in
               { Ast.e_offset; e_init })
             s
     | 10 -> codes := vec code s
     | 11 ->
         datas :=
           vec
             (fun s ->
               let mem = u32 s in
               if mem <> 0 then error s.pos "bad data memory index";
               let d_offset = expr s in
               let n = u32 s in
               let d_init = get_string s n in
               { Ast.d_offset; d_init })
             s
     | _ -> error s.pos "unknown section id %d" id);
    if s.pos <> endp then error s.pos "section %d size mismatch" id
  done;
  if List.length !func_types <> List.length !codes then
    error s.pos "function/code section mismatch";
  let n_imports =
    List.length
      (List.filter
         (fun (i : Ast.import) ->
           match i.idesc with Ast.Func_import _ -> true | _ -> false)
         !imports)
  in
  let funcs =
    Array.of_list
      (List.mapi
         (fun i (ftype, (ce : code_entry)) ->
           let abs_idx = n_imports + i in
           let fname = List.assoc_opt abs_idx !fnames in
           { Ast.ftype; locals = ce.ce_locals; body = ce.ce_body; fname })
         (List.combine !func_types !codes))
  in
  {
    Ast.types = !types;
    imports = !imports;
    funcs;
    tables = !tables;
    memories = !memories;
    globals = !globals;
    exports = !exports;
    start = !start;
    elems = !elems;
    datas = !datas;
  }
