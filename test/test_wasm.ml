(* Tests for the Wasm substrate: numeric semantics, memory, codec
   round-trips, validation, and interpreter behaviour. *)

open Wasai_wasm

let ft = Types.func_type

(* Build a single-function module exporting [f] as "f". *)
let module_of_func ?(locals = []) ?(memory = false) params results body =
  let b = Builder.create () in
  if memory then Builder.add_memory b 1;
  let idx = Builder.add_func b ~name:"f" ~locals (ft params ~results) body in
  Builder.export_func b "f" idx;
  Builder.build b

let run_f ?(memory = false) ?locals params results body args =
  let m = module_of_func ?locals ~memory params results body in
  Validate.check_module m;
  let inst = Interp.instantiate (fun _ _ -> None) m in
  Interp.invoke_export inst "f" args

let run1 body args = List.hd (run_f [] [ Types.I32 ] body args)

let check_i32 msg expected v =
  Alcotest.(check int32) msg expected (Values.as_i32 v)

let check_i64 msg expected v =
  Alcotest.(check int64) msg expected (Values.as_i64 v)

(* ------------------------------------------------------------------ *)
(* Numeric semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_i32_wraparound () =
  let open Builder.I in
  let v = run1 [ i32l Int32.max_int; i32 1; i32_add ] [] in
  check_i32 "max_int + 1 wraps" Int32.min_int v

let test_i32_div_trap () =
  let open Builder.I in
  Alcotest.check_raises "div by zero traps"
    (Values.Trap "integer divide by zero") (fun () ->
      ignore (run1 [ i32 7; i32 0; i32_div_u ] []))

let test_i32_div_s_overflow () =
  let m =
    module_of_func [] [ Types.I32 ]
      [
        Ast.Const (Values.I32 Int32.min_int);
        Ast.Const (Values.I32 (-1l));
        Ast.Int_binary (Types.I32, Ast.Div_s);
      ]
  in
  let inst = Interp.instantiate (fun _ _ -> None) m in
  Alcotest.check_raises "min_int / -1 traps" (Values.Trap "integer overflow")
    (fun () -> ignore (Interp.invoke_export inst "f" []))

let test_clz_ctz_popcnt () =
  check_i32 "clz" 24l (Values.I32 (Values.I32x.clz 0xFFl));
  check_i32 "clz 0" 32l (Values.I32 (Values.I32x.clz 0l));
  check_i32 "ctz" 4l (Values.I32 (Values.I32x.ctz 0x10l));
  check_i32 "ctz 0" 32l (Values.I32 (Values.I32x.ctz 0l));
  check_i32 "popcnt" 8l (Values.I32 (Values.I32x.popcnt 0xFFl));
  check_i64 "popcnt64" 32L (Values.I64 (Values.I64x.popcnt 0xFFFF_FFFFL));
  check_i64 "clz64" 0L (Values.I64 (Values.I64x.clz Int64.min_int))

let test_rotations () =
  check_i32 "rotl" 0x0000_0002l (Values.I32 (Values.I32x.rotl 1l 1l));
  check_i32 "rotl wrap" 1l (Values.I32 (Values.I32x.rotl 0x8000_0000l 1l));
  check_i32 "rotr wrap" 0x8000_0000l (Values.I32 (Values.I32x.rotr 1l 1l));
  check_i64 "rotr64" 0x8000_0000_0000_0000L (Values.I64 (Values.I64x.rotr 1L 1L))

let test_shift_masking () =
  (* Shift amounts are taken modulo the bit width. *)
  check_i32 "shl 33 == shl 1" 2l (Values.I32 (Values.I32x.shl 1l 33l));
  check_i64 "shl 65 == shl 1" 2L (Values.I64 (Values.I64x.shl 1L 65L))

let test_unsigned_compare () =
  Alcotest.(check bool) "-1 >u 1" true (Values.I32x.gt_u (-1l) 1l);
  Alcotest.(check bool) "-1 <u 1 is false" false (Values.I32x.lt_u (-1l) 1l);
  Alcotest.(check bool) "-1L >u 1L" true (Values.I64x.gt_u (-1L) 1L)

let test_f32_rounding () =
  (* 16777217 is not representable in f32; canonicalisation rounds it. *)
  let x = Values.to_f32 16777217.0 in
  Alcotest.(check (float 0.0)) "f32 canonicalisation" 16777216.0 x

let test_trunc_traps () =
  Alcotest.check_raises "NaN trunc traps"
    (Values.Trap "invalid conversion to integer") (fun () ->
      ignore (Values.Convert.trunc_f_to_i32_s Float.nan));
  Alcotest.check_raises "overflow trunc traps" (Values.Trap "integer overflow")
    (fun () -> ignore (Values.Convert.trunc_f_to_i32_s 3.0e9))

let test_convert_i64_u () =
  Alcotest.(check (float 1.0))
    "unsigned i64 max converts near 2^64"
    1.8446744073709552e19
    (Values.Convert.convert_i64_u (-1L))

let test_nearest_ties_even () =
  Alcotest.(check (float 0.0)) "2.5 -> 2" 2.0 (Values.Fx.nearest 2.5);
  Alcotest.(check (float 0.0)) "3.5 -> 4" 4.0 (Values.Fx.nearest 3.5);
  Alcotest.(check (float 0.0)) "-2.5 -> -2" (-2.0) (Values.Fx.nearest (-2.5))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let mk_mem () = Memory.create { Types.mem_limits = { lim_min = 1; lim_max = Some 2 } }

let test_memory_le () =
  let m = mk_mem () in
  Memory.store_bytes_le m 0 4 0x11223344L;
  Alcotest.(check int) "little-endian byte order" 0x44 (Memory.load_byte m 0);
  Alcotest.(check int) "little-endian high byte" 0x11 (Memory.load_byte m 3);
  check_i64 "roundtrip" 0x11223344L (Values.I64 (Memory.load_bytes_le m 0 4))

let test_memory_bounds () =
  let m = mk_mem () in
  Alcotest.check_raises "oob store traps"
    (Values.Trap
       "out of bounds memory access (addr=65535 len=4 size=65536)")
    (fun () -> Memory.store_bytes_le m 65535 4 0L)

let test_memory_grow () =
  let m = mk_mem () in
  Alcotest.(check int32) "grow returns old size" 1l (Memory.grow m 1);
  Alcotest.(check int) "grown to 2 pages" 2 (Memory.size_pages m);
  Alcotest.(check int32) "grow past max fails" (-1l) (Memory.grow m 1)

let test_packed_load_sign () =
  let m = mk_mem () in
  Memory.store_byte m 10 0xFF;
  let signed =
    Memory.load_value m
      { Ast.l_ty = Types.I32; l_pack = Some (Ast.Pack8, Ast.SX); l_align = 0; l_offset = 0l }
      10
  in
  check_i32 "sign-extended" (-1l) signed;
  let unsigned =
    Memory.load_value m
      { Ast.l_ty = Types.I32; l_pack = Some (Ast.Pack8, Ast.ZX); l_align = 0; l_offset = 0l }
      10
  in
  check_i32 "zero-extended" 255l unsigned

(* A released memory gives up its pages: every access traps, and the
   domain's next memory of the same size takes them back zeroed. *)
let test_memory_release () =
  let m = mk_mem () in
  Memory.store_string m 100 "written";
  Memory.store_byte m 65535 0xFF;
  let img = Memory.snapshot m in
  Memory.release m;
  let released = Values.Trap "access to released linear memory" in
  Alcotest.check_raises "load traps" released (fun () ->
      ignore (Memory.load_byte m 100));
  Alcotest.check_raises "store traps" released (fun () ->
      Memory.store_byte m 0 1);
  Alcotest.check_raises "grow traps" released (fun () ->
      ignore (Memory.grow m 1));
  Alcotest.check_raises "restore traps" released (fun () ->
      Memory.restore m img);
  Memory.release m;
  let fresh = mk_mem () in
  Alcotest.(check bool)
    "next memory of the size is zeroed" true
    (Memory.load_string fresh 0 (Memory.size_bytes fresh)
    = String.make Memory.page_size '\000')

(* Restoring from the prefix image must leave exactly the bytes and page
   count a restore from a full copy of the memory would.  A reference
   memory, kept as plain bytes, replays every operation; [Snap] takes a
   new image of a memory that may itself have been restored. *)
type mem_op = Store of int * string | Grow of int | Restore | Snap

let gen_mem_ops =
  let open QCheck.Gen in
  let addr =
    frequency [ (3, int_bound 4096); (1, int_bound (3 * Memory.page_size)) ]
  in
  let store =
    map2 (fun a s -> Store (a, s)) addr
      (string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 1 16))
  in
  list_size (int_range 1 24)
    (frequency
       [
         (6, store);
         (1, map (fun n -> Grow n) (int_bound 2));
         (3, return Restore);
         (1, return Snap);
       ])

let print_mem_op = function
  | Store (a, s) -> Printf.sprintf "store %d %S" a s
  | Grow n -> Printf.sprintf "grow %d" n
  | Restore -> "restore"
  | Snap -> "snap"

let qcheck_prefix_restore =
  QCheck.Test.make ~name:"prefix-image restore = full-copy restore"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_mem_ops gen_mem_ops)
       ~print:(fun (a, b) ->
         String.concat "; " (List.map print_mem_op (a @ (Snap :: b)))))
    (fun (setup, ops) ->
      let m =
        Memory.create { Types.mem_limits = { lim_min = 1; lim_max = Some 3 } }
      in
      let model = ref (Bytes.make Memory.page_size '\000') in
      let apply = function
        | Store (a, s) ->
            let fits = a + String.length s <= Bytes.length !model in
            (match Memory.store_string m a s with
            | () -> assert fits
            | exception Values.Trap _ -> assert (not fits));
            if fits then Bytes.blit_string s 0 !model a (String.length s)
        | Grow n ->
            if Memory.grow m n <> -1l then begin
              let b = Bytes.make (Bytes.length !model + (n * Memory.page_size)) '\000' in
              Bytes.blit !model 0 b 0 (Bytes.length !model);
              model := b
            end
        | Restore | Snap -> ()
      in
      (* [setup] stands in for the data segments, whose bytes a fresh
         instance's image keeps. *)
      List.iter (fun op -> if op <> Restore then apply op) setup;
      let img = ref (Memory.snapshot m) and full = ref (Bytes.copy !model) in
      List.for_all
        (fun op ->
          (match op with
          | Restore ->
              Memory.restore m !img;
              model := Bytes.copy !full
          | Snap ->
              img := Memory.snapshot m;
              full := Bytes.copy !model
          | op -> apply op);
          Memory.size_bytes m = Bytes.length !model
          && Memory.load_string m 0 (Memory.size_bytes m)
             = Bytes.to_string !model)
        (ops @ [ Restore ]))

(* ------------------------------------------------------------------ *)
(* Interpreter control flow                                            *)
(* ------------------------------------------------------------------ *)

(* Iterative factorial with a loop and two locals. *)
let factorial_body =
  let open Builder.I in
  [
    i64 1L;
    local_set 1;
    block
      [
        loop
          [
            local_get 0; i64_eqz; br_if 1;
            local_get 1; local_get 0; i64_mul; local_set 1;
            local_get 0; i64 1L; i64_sub; local_set 0;
            br 0;
          ];
      ];
    local_get 1;
  ]

let test_factorial () =
  let r =
    run_f ~locals:[ Types.I64 ] [ Types.I64 ] [ Types.I64 ] factorial_body
      [ Values.I64 10L ]
  in
  check_i64 "10!" 3628800L (List.hd r)

let test_br_table () =
  let open Builder.I in
  (* Nested blocks; br_table dispatches to different constants. *)
  let body =
    [
      block ~result:Types.I32
        [
          block
            [
              block
                [ block [ local_get 0; br_table [ 0; 1 ] 2 ]; i32 100; br 2 ];
              i32 200; br 1;
            ];
          i32 300;
        ];
    ]
  in
  let run v = run_f [ Types.I32 ] [ Types.I32 ] body [ Values.I32 v ] in
  check_i32 "case 0" 100l (List.hd (run 0l));
  check_i32 "case 1" 200l (List.hd (run 1l));
  check_i32 "default" 300l (List.hd (run 7l))

let test_call_indirect () =
  let open Builder.I in
  let b = Builder.create () in
  let t = ft [ Types.I32 ] ~results:[ Types.I32 ] in
  let double = Builder.add_func b ~name:"double" t [ local_get 0; i32 2; i32_mul ] in
  let square = Builder.add_func b ~name:"square" t [ local_get 0; local_get 0; i32_mul ] in
  let ti = Builder.add_type b t in
  let disp =
    Builder.add_func b ~name:"dispatch"
      (ft [ Types.I32; Types.I32 ] ~results:[ Types.I32 ])
      [ local_get 1; local_get 0; call_indirect ti ]
  in
  Builder.add_elem b ~offset:0 [ double; square ];
  Builder.export_func b "dispatch" disp;
  let m = Builder.build b in
  Validate.check_module m;
  let inst = Interp.instantiate (fun _ _ -> None) m in
  let call sel v =
    List.hd (Interp.invoke_export inst "dispatch" [ Values.I32 sel; Values.I32 v ])
  in
  check_i32 "table[0] doubles" 14l (call 0l 7l);
  check_i32 "table[1] squares" 49l (call 1l 7l);
  Alcotest.check_raises "oob index traps"
    (Values.Trap "undefined element (table index 9)") (fun () ->
      ignore (call 9l 7l))

let test_host_call () =
  let open Builder.I in
  let b = Builder.create () in
  let log = Builder.import_func b ~module_:"env" ~name:"log" (ft [ Types.I64 ]) in
  let f =
    Builder.add_func b ~name:"f" (ft [ Types.I64 ])
      [ local_get 0; call log; local_get 0; i64 1L; i64_add; call log ]
  in
  Builder.export_func b "f" f;
  let m = Builder.build b in
  Validate.check_module m;
  let seen = ref [] in
  let resolver mn n =
    if mn = "env" && n = "log" then
      Some
        (Interp.Extern_func
           {
             Interp.hf_name = "log";
             hf_type = ft [ Types.I64 ];
             hf_fn =
               (fun _ args ->
                 seen := Values.as_i64 (List.hd args) :: !seen;
                 []);
           })
    else None
  in
  let inst = Interp.instantiate resolver m in
  ignore (Interp.invoke_export inst "f" [ Values.I64 41L ]);
  Alcotest.(check (list int64)) "host saw both calls" [ 42L; 41L ] !seen

let test_globals () =
  let open Builder.I in
  let b = Builder.create () in
  let g = Builder.add_global b (Values.I64 7L) in
  let f =
    Builder.add_func b ~name:"bump" (ft [] ~results:[ Types.I64 ])
      [ global_get g; i64 1L; i64_add; global_set g; global_get g ]
  in
  Builder.export_func b "bump" f;
  let m = Builder.build b in
  Validate.check_module m;
  let inst = Interp.instantiate (fun _ _ -> None) m in
  check_i64 "first bump" 8L (List.hd (Interp.invoke_export inst "bump" []));
  check_i64 "second bump" 9L (List.hd (Interp.invoke_export inst "bump" []))

let test_select_drop () =
  let open Builder.I in
  let body = [ i32 11; i32 22; local_get 0; select ] in
  check_i32 "select true" 11l
    (List.hd (run_f [ Types.I32 ] [ Types.I32 ] body [ Values.I32 1l ]));
  check_i32 "select false" 22l
    (List.hd (run_f [ Types.I32 ] [ Types.I32 ] body [ Values.I32 0l ]))

let test_fuel_exhaustion () =
  let open Builder.I in
  let m = module_of_func [] [] [ block [ loop [ br 0 ] ] ] in
  let inst = Interp.instantiate ~fuel:10_000 (fun _ _ -> None) m in
  Alcotest.check_raises "infinite loop runs out of fuel"
    (Interp.Exhaustion "instruction budget exhausted") (fun () ->
      ignore (Interp.invoke_export inst "f" []))

let test_call_depth () =
  let open Builder.I in
  let b = Builder.create () in
  let f = Builder.declare_func b ~name:"rec" (ft []) in
  Builder.set_body b f [ call f ];
  Builder.export_func b "rec" f;
  let m = Builder.build b in
  let inst = Interp.instantiate ~max_depth:64 (fun _ _ -> None) m in
  Alcotest.check_raises "unbounded recursion exhausts call stack"
    (Interp.Exhaustion "call stack exhausted") (fun () ->
      ignore (Interp.invoke_export inst "rec" []))

let test_start_and_data () =
  let open Builder.I in
  let b = Builder.create () in
  Builder.add_memory b 1;
  Builder.add_data b ~offset:16 "hello";
  let f =
    Builder.add_func b ~name:"peek" (ft [ Types.I32 ] ~results:[ Types.I32 ])
      [ local_get 0; i32_load8_u () ]
  in
  Builder.export_func b "peek" f;
  (* A start function patches the data before anything is invoked. *)
  let start =
    Builder.add_func b ~name:"start" (ft [])
      [ i32 16; i32 (Char.code 'H'); i32_store8 () ]
  in
  Builder.set_start b start;
  let m = Builder.build b in
  Validate.check_module m;
  let inst = Interp.instantiate (fun _ _ -> None) m in
  check_i32 "start ran over the data segment" (Int32.of_int (Char.code 'H'))
    (List.hd (Interp.invoke_export inst "peek" [ Values.I32 16l ]));
  check_i32 "rest of data intact" (Int32.of_int (Char.code 'e'))
    (List.hd (Interp.invoke_export inst "peek" [ Values.I32 17l ]))

let test_memory_instrs () =
  let open Builder.I in
  let body =
    [
      i32 100; local_get 0; i64_store ();
      i32 100; i64_load (); i64 1L; i64_add;
    ]
  in
  let r =
    run_f ~memory:true [ Types.I64 ] [ Types.I64 ] body [ Values.I64 41L ]
  in
  check_i64 "store/load roundtrip" 42L (List.hd r)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let expect_invalid name m =
  match Validate.check_module m with
  | () -> Alcotest.failf "%s: expected validation failure" name
  | exception Validate.Invalid _ -> ()

(* ------------------------------------------------------------------ *)
(* Import-space lookups                                                *)
(* ------------------------------------------------------------------ *)

(* Seeded modules whose function imports are interleaved with memory,
   table and global imports, checked against the obvious list-based
   definitions of the function index space. *)
let test_import_space_walks () =
  let rng = Random.State.make [| 17 |] in
  let types =
    [|
      ft [] ~results:[];
      ft [ Types.I32 ] ~results:[];
      ft [ Types.I64 ] ~results:[ Types.I32 ];
    |]
  in
  let lim = { Types.lim_min = 1; lim_max = None } in
  let random_import i =
    let desc =
      match Random.State.int rng 4 with
      | 0 -> Ast.Memory_import { Types.mem_limits = lim }
      | 1 -> Ast.Table_import { Types.tbl_limits = lim }
      | 2 ->
          Ast.Global_import
            { Types.gt_mut = Types.Immutable; gt_type = Types.I32 }
      | _ -> Ast.Func_import (Random.State.int rng (Array.length types))
    in
    {
      Ast.imp_module = (if i mod 2 = 0 then "env" else "wasai");
      imp_name = Printf.sprintf "i%d" i;
      idesc = desc;
    }
  in
  let random_func i =
    {
      Ast.ftype = Random.State.int rng (Array.length types);
      locals = [];
      body = [];
      fname = (if i mod 3 = 0 then None else Some (Printf.sprintf "f%d" i));
    }
  in
  for _ = 1 to 200 do
    let m =
      {
        Ast.empty_module with
        types;
        imports = List.init (Random.State.int rng 9) random_import;
        funcs = Array.init (Random.State.int rng 4) random_func;
      }
    in
    let fimps =
      List.filter
        (fun (i : Ast.import) ->
          match i.idesc with Ast.Func_import _ -> true | _ -> false)
        m.imports
    in
    let n = List.length fimps in
    Alcotest.(check int) "num_func_imports" n (Ast.num_func_imports m);
    for idx = -1 to n + Array.length m.funcs do
      let expect_import =
        if idx >= 0 && idx < n then Some (List.nth fimps idx) else None
      in
      Alcotest.(check bool)
        (Printf.sprintf "func_import_at %d" idx)
        true
        (Ast.func_import_at m idx = expect_import);
      if idx >= 0 && idx < n + Array.length m.funcs then begin
        let expect_type, expect_name =
          match expect_import with
          | Some { Ast.idesc = Ast.Func_import ti; imp_module; imp_name } ->
              (types.(ti), Some (imp_module ^ "." ^ imp_name))
          | _ ->
              let f = m.funcs.(idx - n) in
              (types.(f.ftype), f.fname)
        in
        Alcotest.(check string)
          (Printf.sprintf "func_type_at %d" idx)
          (Types.string_of_func_type expect_type)
          (Types.string_of_func_type (Ast.func_type_at m idx));
        Alcotest.(check (option string))
          (Printf.sprintf "func_name_at %d" idx)
          expect_name (Ast.func_name_at m idx)
      end
    done
  done

let test_validate_rejects_type_mismatch () =
  let open Builder.I in
  expect_invalid "i64+i32"
    (module_of_func [] [ Types.I32 ] [ i64 1L; i32 2; i32_add ])

let test_validate_rejects_underflow () =
  let open Builder.I in
  expect_invalid "underflow" (module_of_func [] [ Types.I32 ] [ i32_add ])

let test_validate_rejects_bad_label () =
  let open Builder.I in
  expect_invalid "bad label" (module_of_func [] [] [ br 3 ])

let test_validate_rejects_bad_local () =
  let open Builder.I in
  expect_invalid "bad local" (module_of_func [] [] [ local_get 5; drop ])

(* One type [] -> [], an import env.f of type index 7, and a local
   function whose body is [call 0]: the call reaches the import's
   unchecked type index. *)
let test_validate_rejects_bad_import_type () =
  let bin =
    "\x00asm\x01\x00\x00\x00\x01\x04\x01\x60\x00\x00\x02\x09\x01\x03env\x01f\x00\x07\x03\x02\x01\x00\x0a\x06\x01\x04\x00\x10\x00\x0b"
  in
  expect_invalid "import type index" (Decode.decode bin)

(* Every index-space and memory rejection of a function body, with its
   exact message.  The module lays its index spaces out as an
   instrumented one does: function 0 is the import env.h : [i32] -> [],
   function 1 is f : [i32] -> [] with one i64 local; global 0 is the
   immutable i32 import env.g, global 1 a local immutable i32 and
   global 2 a local mutable i64.  A memory, a table, or an imported
   memory is added where a case asks for one.  The accepted cases pin
   the same layout from the other side. *)
let test_validate_rejection_messages () =
  let open Builder.I in
  let lim = { Types.lim_min = 1; lim_max = None } in
  let import name desc = { Ast.imp_module = "env"; imp_name = name; idesc = desc } in
  let module_with ?(memory = false) ?(memory_import = false) ?(table = false)
      body =
    let b = Builder.create () in
    ignore (Builder.import_func b ~module_:"env" ~name:"h" (ft [ Types.I32 ] ~results:[]));
    ignore (Builder.add_global b ~mut:Types.Immutable (Values.I32 0l));
    ignore (Builder.add_global b ~mut:Types.Mutable (Values.I64 0L));
    if memory then Builder.add_memory b 1;
    if table then Builder.add_table b 1;
    let idx =
      Builder.add_func b ~name:"f" ~locals:[ Types.I64 ]
        (ft [ Types.I32 ] ~results:[]) body
    in
    Builder.export_func b "f" idx;
    let m = Builder.build b in
    let extra =
      import "g" (Ast.Global_import { Types.gt_mut = Types.Immutable; gt_type = Types.I32 })
      :: (if memory_import then [ import "memory" (Ast.Memory_import { Types.mem_limits = lim }) ]
          else [])
    in
    { m with Ast.imports = m.Ast.imports @ extra }
  in
  let cases =
    [
      ("call in range", module_with [ local_get 0; call 0 ], None);
      ("call past the functions", module_with [ call 2 ], Some "unknown function 2");
      ( "call argument type",
        module_with [ i64 1L; call 0 ],
        Some "type mismatch: expected i32, got i64" );
      ( "global.get of each global",
        module_with [ global_get 0; drop; global_get 1; drop; global_get 2; drop ],
        None );
      ("global.get past the globals", module_with [ global_get 3; drop ], Some "unknown global 3");
      ("global.set of the mutable global", module_with [ i64 1L; global_set 2 ], None);
      ( "global.set type",
        module_with [ i32 1; global_set 2 ],
        Some "type mismatch: expected i64, got i32" );
      ("global.set past the globals", module_with [ i32 1; global_set 3 ], Some "unknown global 3");
      ( "global.set of the imported immutable global",
        module_with [ i32 1; global_set 0 ],
        Some "global 0 is immutable" );
      ( "global.set of a local immutable global",
        module_with [ i32 1; global_set 1 ],
        Some "global 1 is immutable" );
      ("local.get of each local", module_with [ local_get 0; drop; local_get 1; drop ], None);
      ("local.get past the locals", module_with [ local_get 2; drop ], Some "unknown local 2");
      ("local.set past the locals", module_with [ i32 1; local_set 2 ], Some "unknown local 2");
      ("local.tee past the locals", module_with [ i32 1; local_tee 2; drop ], Some "unknown local 2");
      ( "call_indirect without a table",
        module_with [ i32 1; local_get 0; call_indirect 0 ],
        Some "call_indirect without table" );
      ( "call_indirect of an unknown type",
        module_with ~table:true [ local_get 0; call_indirect 9 ],
        Some "unknown type 9" );
      ( "call_indirect of a known type",
        module_with ~table:true [ i32 1; local_get 0; call_indirect 0 ],
        None );
      ("load without memory", module_with [ local_get 0; i32_load (); drop ], Some "load without memory");
      ( "store without memory",
        module_with [ local_get 0; i32 1; i32_store () ],
        Some "store without memory" );
      ("load with a memory", module_with ~memory:true [ local_get 0; i32_load (); drop ], None);
      ( "store with an imported memory",
        module_with ~memory_import:true [ local_get 0; i32 1; i32_store () ],
        None );
    ]
  in
  List.iter
    (fun (what, m, expected) ->
      let got =
        match Validate.check_module m with
        | () -> None
        | exception Validate.Invalid msg -> Some msg
      in
      Alcotest.(check (option string)) what
        (Option.map (fun msg -> "in function f: " ^ msg) expected)
        got)
    cases

let test_validate_unreachable_polymorphism () =
  let open Builder.I in
  (* After unreachable, any stack shape must be accepted. *)
  let m = module_of_func [] [ Types.I32 ] [ unreachable; i32_add ] in
  Validate.check_module m

let test_validate_leftover_values () =
  let open Builder.I in
  expect_invalid "leftover" (module_of_func [] [] [ i32 1 ])

let test_validate_if_result () =
  let open Builder.I in
  let m =
    module_of_func [ Types.I32 ] [ Types.I32 ]
      [ local_get 0; if_ ~result:Types.I32 [ i32 1 ] [ i32 2 ] ]
  in
  Validate.check_module m

(* ------------------------------------------------------------------ *)
(* Binary codec                                                        *)
(* ------------------------------------------------------------------ *)

let roundtrip m =
  let bin = Encode.encode m in
  Decode.decode bin

let test_roundtrip_simple () =
  let m = module_of_func ~memory:true [ Types.I64 ] [ Types.I64 ] factorial_body in
  let m = { m with Ast.funcs = Array.map (fun f -> { f with Ast.locals = [ Types.I64 ] }) m.Ast.funcs } in
  Validate.check_module m;
  let m' = roundtrip m in
  Alcotest.(check bool) "roundtrip is identity" true (m = m')

let test_roundtrip_rich () =
  let open Builder.I in
  let b = Builder.create () in
  Builder.add_memory b 2 ~max:16;
  let imp = Builder.import_func b ~module_:"env" ~name:"h" (ft [ Types.I32 ] ~results:[ Types.I32 ]) in
  let g = Builder.add_global b (Values.I64 (-1L)) in
  let t = ft [ Types.I32 ] ~results:[ Types.I32 ] in
  let f1 = Builder.add_func b ~name:"f1" t [ local_get 0; call imp ] in
  let f2 =
    Builder.add_func b ~name:"f2" ~locals:[ Types.F64; Types.F64; Types.I32 ] t
      [
        f64 3.25; local_set 1;
        local_get 0;
        if_ ~result:Types.I32 [ i32 1 ] [ i32 0 ];
        global_get g; i32_wrap_i64; i32_and;
      ]
  in
  ignore f2;
  let ti = Builder.add_type b t in
  let f3 =
    Builder.add_func b ~name:"f3" t [ local_get 0; i32 0; call_indirect ti ]
  in
  Builder.add_elem b ~offset:0 [ f1; f3 ];
  Builder.add_data b ~offset:0 "\x01\x02\xff";
  Builder.export_func b "run" f3;
  Builder.export_memory b "memory";
  let m = Builder.build b in
  Validate.check_module m;
  let m' = roundtrip m in
  Alcotest.(check bool) "rich module roundtrips" true (m = m')

let test_decode_rejects_garbage () =
  let rejected what bin =
    Alcotest.(check bool) what true
      (match Decode.decode bin with
       | _ -> false
       | exception Decode.Decode_error _ -> true)
  in
  rejected "bad magic rejected" "garbage!";
  rejected "custom section name past its section rejected"
    ("\x00asm\x01\x00\x00\x00" ^ "\x00\x01\x05hello")

(* ------------------------------------------------------------------ *)
(* Hostile modules: what a few bytes can make the host allocate        *)
(* ------------------------------------------------------------------ *)

let wasm_header = "\x00asm\x01\x00\x00\x00"

(* One function of type [] -> [] whose locals are [runs] (the number of
   runs, then each run's LEB128 count and value type), with an empty
   body. *)
let module_with_locals runs =
  let entry = runs ^ "\x0b" in
  let entry = String.make 1 (Char.chr (String.length entry)) ^ entry in
  let code = "\x01" ^ entry in
  wasm_header ^ "\x01\x04\x01\x60\x00\x00" ^ "\x03\x02\x01\x00"
  ^ "\x0a" ^ String.make 1 (Char.chr (String.length code)) ^ code

let rejects_with what fragment f =
  let contains s =
    let n = String.length fragment in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = fragment || go (i + 1))
    in
    go 0
  in
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception (Decode.Decode_error (_, msg) | Validate.Invalid msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" what msg fragment)
        true (contains msg)

(* A run of 2^32 - 1 locals is refused before it is expanded, and so is
   a sum of runs past 50,000; 50,000 are still accepted. *)
let test_hostile_locals () =
  rejects_with "2^32 - 1 locals" "50000 locals" (fun () ->
      Decode.decode (module_with_locals "\x01\xff\xff\xff\xff\x0f\x7f"));
  (* 50,000 = 0xc350 (LEB128 d0 86 03), then one more *)
  rejects_with "50,001 locals over two runs" "50000 locals" (fun () ->
      Decode.decode (module_with_locals "\x02\xd0\x86\x03\x7f\x01\x7e"));
  let m = Decode.decode (module_with_locals "\x01\xd0\x86\x03\x7f") in
  Alcotest.(check int) "50,000 locals accepted" 50_000
    (List.length m.Ast.funcs.(0).Ast.locals)

let mem_module ?max min =
  {
    Ast.empty_module with
    Ast.memories = [ { Types.mem_limits = { lim_min = min; lim_max = max } } ];
  }

let table_module ?max min =
  {
    Ast.empty_module with
    Ast.tables = [ { Types.tbl_limits = { lim_min = min; lim_max = max } } ];
  }

(* The spec's limits rule: min <= max, and a memory spans at most 2^16
   pages. *)
let test_hostile_limits () =
  let invalid what m =
    rejects_with what "over the" (fun () -> Validate.check_module m)
  in
  invalid "memory over 65,536 pages" (mem_module 0x10001);
  invalid "memory maximum over 65,536 pages" (mem_module ~max:0x10001 1);
  invalid "memory minimum over its maximum" (mem_module ~max:1 2);
  invalid "table minimum over its maximum" (table_module ~max:1 2);
  invalid "imported memory over 65,536 pages"
    {
      Ast.empty_module with
      Ast.imports =
        [
          {
            Ast.imp_module = "env";
            imp_name = "memory";
            idesc =
              Ast.Memory_import
                { Types.mem_limits = { lim_min = 0x10001; lim_max = None } };
          };
        ];
    };
  Validate.check_module (mem_module ~max:0x10000 0x10000);
  Validate.check_module (table_module 0xFFFF_FFFF)

(* What Nodeos' [wasm_constraints] refuse on setcode: over 33 MiB of
   initial linear memory, over 1,024 table elements. *)
let test_hostile_setcode () =
  let open Wasai_eosio in
  let chain = Chain.create () in
  let deploy m () =
    Chain.set_code chain (Name.of_string "victim") m Abi.default_profitable
  in
  rejects_with "529 pages of memory" "528-page" (deploy (mem_module 529));
  rejects_with "1,025 table elements" "1024-element"
    (deploy (table_module 1025));
  deploy (mem_module 528) ();
  deploy (table_module ~max:4096 1024) ()

(* [memory.grow] gives no memory more than 528 pages, declared maximum
   or not. *)
let test_hostile_grow () =
  let m =
    Memory.create { Types.mem_limits = { lim_min = 1; lim_max = None } }
  in
  Alcotest.(check int32) "past 528 pages fails" (-1l) (Memory.grow m 528);
  Alcotest.(check int32) "up to 528 pages grows" 1l (Memory.grow m 527);
  Alcotest.(check int32) "528 pages is the cap" (-1l) (Memory.grow m 1);
  Memory.release m;
  let m =
    Memory.create { Types.mem_limits = { lim_min = 1; lim_max = Some 0x10000 } }
  in
  Alcotest.(check int32) "a declared maximum does not lift it" (-1l)
    (Memory.grow m 528);
  Memory.release m

let test_leb128_negative () =
  (* Signed LEB128 for negative constants must roundtrip. *)
  let open Builder.I in
  let consts = [ -1L; -64L; -65L; -123456789L; Int64.min_int; Int64.max_int ] in
  List.iter
    (fun c ->
      let m = module_of_func [] [ Types.I64 ] [ i64 c ] in
      let m' = roundtrip m in
      match m'.Ast.funcs.(0).Ast.body with
      | [ Ast.Const (Values.I64 c') ] ->
          Alcotest.(check int64) (Printf.sprintf "const %Ld" c) c c'
      | _ -> Alcotest.fail "unexpected body shape")
    consts

(* QCheck: encode/decode identity over random arithmetic expressions. *)
let gen_arith_body =
  let open QCheck.Gen in
  let leaf = map (fun v -> [ Builder.I.i64 v ]) (map Int64.of_int int) in
  let rec expr n =
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun a b op -> a @ b @ [ op ])
              (expr (n / 2)) (expr (n / 2))
              (oneofl
                 Builder.I.[ i64_add; i64_sub; i64_mul; i64_and; i64_or; i64_xor ])
          );
        ]
  in
  expr 6

let arbitrary_body =
  QCheck.make gen_arith_body ~print:(fun body ->
      String.concat "; " (List.map Ast.mnemonic body))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip of random arithmetic" ~count:200
    arbitrary_body (fun body ->
      let m = module_of_func [] [ Types.I64 ] body in
      roundtrip m = m)

(* [Engine.setup] encodes each target and decodes it again before
   instrumenting it, so what it fuzzes is the generated module only if
   the round trip is the identity on every module the benchmark
   generators produce. *)
let test_roundtrip_generators () =
  let module BG = Wasai_benchgen in
  let of_samples = List.map (fun (s : BG.Corpus.sample) -> s.BG.Corpus.smp_module) in
  let corpora =
    [
      ("ground_truth", of_samples (BG.Corpus.ground_truth ~scale:4 ()));
      ("extension", of_samples (BG.Corpus.extension ~scale:2 ()));
      ("obfuscated", of_samples (BG.Corpus.obfuscated ~scale:4 ()));
      ("verification", of_samples (BG.Corpus.verification ~scale:4 ()));
      ("coverage_set", of_samples (BG.Corpus.coverage_set ~count:60 ()));
      ( "mainnet",
        List.concat_map
          (fun (d : BG.Mainnet.deployed) ->
            d.BG.Mainnet.dep_module
            :: Option.to_list (Option.map fst (BG.Mainnet.latest_version d)))
          (BG.Mainnet.generate ~count:300 ()) );
    ]
  in
  List.iter
    (fun (name, modules) ->
      let differ = List.filter (fun m -> roundtrip m <> m) modules in
      Alcotest.(check int)
        (Printf.sprintf "%s: of %d modules, round trips that differ" name
           (List.length modules))
        0 (List.length differ))
    corpora

let qcheck_eval_matches_fold =
  (* Interpreting a random constant expression matches direct evaluation. *)
  QCheck.Test.make ~name:"interp matches OCaml fold on arithmetic" ~count:200
    arbitrary_body (fun body ->
      let m = module_of_func [] [ Types.I64 ] body in
      Validate.check_module m;
      let inst = Interp.instantiate (fun _ _ -> None) m in
      let r = Values.as_i64 (List.hd (Interp.invoke_export inst "f" [])) in
      (* Reference evaluation with an explicit stack. *)
      let stack = ref [] in
      List.iter
        (fun i ->
          match (i : Ast.instr) with
          | Ast.Const (Values.I64 v) -> stack := v :: !stack
          | Ast.Int_binary (Types.I64, op) ->
              (match !stack with
               | b :: a :: rest ->
                   let v =
                     match op with
                     | Ast.Add -> Int64.add a b
                     | Ast.Sub -> Int64.sub a b
                     | Ast.Mul -> Int64.mul a b
                     | Ast.And -> Int64.logand a b
                     | Ast.Or -> Int64.logor a b
                     | Ast.Xor -> Int64.logxor a b
                     | _ -> assert false
                   in
                   stack := v :: rest
               | _ -> assert false)
          | _ -> assert false)
        body;
      r = List.hd !stack)

let qcheck_leb64 =
  QCheck.Test.make ~name:"LEB128 u64 roundtrip" ~count:500
    QCheck.(map Int64.of_int int)
    (fun v ->
      let buf = Buffer.create 16 in
      Encode.Buf.u64 v buf;
      let s = Decode.of_string (Buffer.contents buf) in
      Decode.u64 s = v)

let qcheck_sleb64 =
  QCheck.Test.make ~name:"LEB128 s64 roundtrip" ~count:500
    QCheck.(map Int64.of_int int)
    (fun v ->
      let buf = Buffer.create 16 in
      Encode.Buf.s64 v buf;
      let s = Decode.of_string (Buffer.contents buf) in
      Decode.s64 s = v)

(* ------------------------------------------------------------------ *)
(* WAT printer and text parser                                          *)
(* ------------------------------------------------------------------ *)

let test_wat_output () =
  let m = module_of_func ~memory:true [ Types.I64 ] [ Types.I64 ] factorial_body in
  let s = Wat.to_string m in
  Alcotest.(check bool) "mentions module" true
    (String.length s > 0 && String.sub s 0 7 = "(module");
  let contains_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions i64.mul" true (contains_sub s "i64.mul")

let test_wat_text_roundtrip () =
  (* Print then re-parse: function bodies, exports and data must
     survive. *)
  let m =
    module_of_func ~memory:true ~locals:[ Types.I64 ] [ Types.I64 ]
      [ Types.I64 ] factorial_body
  in
  let m = { m with Ast.datas = [ { Ast.d_offset = [ Builder.I.i32 64 ]; d_init = "a\"b\\c\x00d" } ] } in
  let m' = Text.parse (Wat.to_string m) in
  Alcotest.(check bool) "bodies equal" true
    (m'.Ast.funcs.(0).Ast.body = m.Ast.funcs.(0).Ast.body);
  Alcotest.(check bool) "locals equal" true
    (m'.Ast.funcs.(0).Ast.locals = m.Ast.funcs.(0).Ast.locals);
  Alcotest.(check bool) "exports equal" true (m'.Ast.exports = m.Ast.exports);
  (match m'.Ast.datas with
   | [ d ] -> Alcotest.(check string) "data escaped/unescaped" "a\"b\\c\x00d" d.Ast.d_init
   | _ -> Alcotest.fail "data lost");
  (* Parsed module behaves identically. *)
  let inst = Interp.instantiate (fun _ _ -> None) m' in
  check_i64 "parsed module runs" 3628800L
    (List.hd (Interp.invoke_export inst "f" [ Values.I64 10L ]))

let test_text_handwritten () =
  let src = {|
    (module
      ;; a tiny adder with a branch
      (memory 1)
      (func $add3 (param i64 i64) (result i64)
        (block (result i64)
          local.get 0
          local.get 1
          i64.add
          i64.const 3
          i64.add)
      )
      (func $pick (param i32) (result i64)
        local.get 0
        (if (result i64)
          (then i64.const 1)
          (else i64.const 2))
      )
      (export "add3" (func $add3))
      (export "pick" (func 1)))
  |} in
  let m = Text.parse src in
  let inst = Interp.instantiate (fun _ _ -> None) m in
  check_i64 "add3" 10L
    (List.hd (Interp.invoke_export inst "add3" [ Values.I64 3L; Values.I64 4L ]));
  (* (if ...) needs its condition on the stack — push via pick's param. *)
  ignore inst

let test_text_if_condition () =
  let src = {|
    (module
      (func $choose (param i32) (result i64)
        local.get 0
        (if (result i64)
          (then i64.const 111)
          (else i64.const 222)))
      (export "choose" (func $choose)))
  |} in
  let m = Text.parse src in
  let inst = Interp.instantiate (fun _ _ -> None) m in
  check_i64 "true arm" 111L
    (List.hd (Interp.invoke_export inst "choose" [ Values.I32 1l ]));
  check_i64 "false arm" 222L
    (List.hd (Interp.invoke_export inst "choose" [ Values.I32 0l ]))

let test_text_rejects_garbage () =
  List.iter
    (fun src ->
      match Text.parse src with
      | _ -> Alcotest.failf "accepted %S" src
      | exception Text.Parse_error _ -> ()
      | exception Validate.Invalid _ -> ())
    [
      "(module (func bogus.instr))";
      "(module (func i64.const))";
      "(module (export \"f\" (func $missing)))";
      "(module (func local.get 3))";
      "(module";
    ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wasai_wasm"
    [
      ( "numeric",
        [
          Alcotest.test_case "i32 wraparound" `Quick test_i32_wraparound;
          Alcotest.test_case "i32 div trap" `Quick test_i32_div_trap;
          Alcotest.test_case "i32 div_s overflow" `Quick test_i32_div_s_overflow;
          Alcotest.test_case "clz/ctz/popcnt" `Quick test_clz_ctz_popcnt;
          Alcotest.test_case "rotl/rotr" `Quick test_rotations;
          Alcotest.test_case "shift masking" `Quick test_shift_masking;
          Alcotest.test_case "unsigned compare" `Quick test_unsigned_compare;
          Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
          Alcotest.test_case "trunc traps" `Quick test_trunc_traps;
          Alcotest.test_case "convert i64 unsigned" `Quick test_convert_i64_u;
          Alcotest.test_case "nearest ties-to-even" `Quick test_nearest_ties_even;
        ] );
      ( "memory",
        [
          Alcotest.test_case "little-endian" `Quick test_memory_le;
          Alcotest.test_case "bounds check" `Quick test_memory_bounds;
          Alcotest.test_case "grow" `Quick test_memory_grow;
          Alcotest.test_case "packed sign extension" `Quick test_packed_load_sign;
          Alcotest.test_case "released memory traps" `Quick test_memory_release;
          qc qcheck_prefix_restore;
        ] );
      ( "interp",
        [
          Alcotest.test_case "factorial loop" `Quick test_factorial;
          Alcotest.test_case "br_table" `Quick test_br_table;
          Alcotest.test_case "call_indirect" `Quick test_call_indirect;
          Alcotest.test_case "host call" `Quick test_host_call;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "select" `Quick test_select_drop;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "call depth" `Quick test_call_depth;
          Alcotest.test_case "data segments" `Quick test_start_and_data;
          Alcotest.test_case "memory instructions" `Quick test_memory_instrs;
        ] );
      ( "ast",
        [
          Alcotest.test_case "import-space walks" `Quick
            test_import_space_walks;
        ] );
      ( "validate",
        [
          Alcotest.test_case "rejects type mismatch" `Quick
            test_validate_rejects_type_mismatch;
          Alcotest.test_case "rejects underflow" `Quick
            test_validate_rejects_underflow;
          Alcotest.test_case "rejects bad label" `Quick
            test_validate_rejects_bad_label;
          Alcotest.test_case "rejects bad local" `Quick
            test_validate_rejects_bad_local;
          Alcotest.test_case "rejects bad import type" `Quick
            test_validate_rejects_bad_import_type;
          Alcotest.test_case "rejection messages" `Quick
            test_validate_rejection_messages;
          Alcotest.test_case "unreachable polymorphism" `Quick
            test_validate_unreachable_polymorphism;
          Alcotest.test_case "rejects leftover values" `Quick
            test_validate_leftover_values;
          Alcotest.test_case "if with result" `Quick test_validate_if_result;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
          Alcotest.test_case "roundtrip rich" `Quick test_roundtrip_rich;
          Alcotest.test_case "roundtrip of every generated module" `Quick
            test_roundtrip_generators;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "negative LEB128" `Quick test_leb128_negative;
          qc qcheck_roundtrip;
          qc qcheck_eval_matches_fold;
          qc qcheck_leb64;
          qc qcheck_sleb64;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "locals bounded before expansion" `Quick
            test_hostile_locals;
          Alcotest.test_case "limits rule" `Quick test_hostile_limits;
          Alcotest.test_case "setcode refuses over Nodeos limits" `Quick
            test_hostile_setcode;
          Alcotest.test_case "grow stops at 528 pages" `Quick test_hostile_grow;
        ] );
      ( "wat",
        [
          Alcotest.test_case "printer smoke" `Quick test_wat_output;
          Alcotest.test_case "print/parse roundtrip" `Quick
            test_wat_text_roundtrip;
          Alcotest.test_case "hand-written source" `Quick test_text_handwritten;
          Alcotest.test_case "if condition from stack" `Quick
            test_text_if_condition;
          Alcotest.test_case "rejects garbage" `Quick test_text_rejects_garbage;
        ] );
    ]
