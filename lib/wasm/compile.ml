(** Closure-compiled execution tier.

    [prepare] translates a validated module once into a tree of OCaml
    closures — threaded code — that replaces the interpreter's
    per-instruction dispatch:

    - the operand stack is an unboxed pair of parallel arrays — a
      [float array] holding raw 64-bit payloads (integers travel through
      [Int64.float_of_bits], which compiles to a register move) and a
      [Bytes.t] of one-byte type tags — owned by the prepared module and
      reused across payloads, so pushing a value is two plain stores with
      no allocation and no write barrier;
    - locals live in-frame on the same stack: a call turns its arguments
      into locals in place and zero-fills the declared extras, so entering
      a function allocates nothing;
    - fuel metering is folded into segment-entry checks: a maximal run of
      straight-line instructions is pre-charged in one comparison, with
      the unexecuted tail refunded when a branch leaves the run early and
      an exact per-instruction slow path when the budget is nearly spent;
    - branching is closure return codes (0 = fall through, [d+1] = branch
      out [d] levels, -1 = return) instead of exceptions;
    - selected host imports (the instrumentation hooks) can be compiled to
      direct unboxed callbacks via [fast_host]: the hook argument stays
      unboxed from the producing instruction to the callback.

    Values only take boxed [Values.value] form at the cold boundaries —
    resolver-routed host calls, globals, fallback functions and the
    public [invoke] interface.

    The determinism contract is absolute: for any validated module the
    compiled tier must be observationally identical to {!Interp} — same
    results, same trap and exhaustion messages raised at the same
    instruction, same host-call order and arguments, same fuel left on
    every path the embedder can observe.  Functions containing an
    instruction the compiler does not cover (or that the [exclude]
    predicate vetoes) fall back to the interpreter transparently: the
    instance's function table always holds real [Wasm_func] entries, so a
    fallback function and everything it calls simply run interpreted.

    Precondition: the module has passed {!Validate.check_module}.  The
    compiler replicates the interpreter's dynamic checks (stack
    underflow, type-confused operands, table bounds) so unvalidated
    modules still trap with identical messages on the paths validation
    would reject, but stack discipline inside a block is only enforced at
    block granularity and local indices must be in range. *)

type fast_host =
  | Fast_i32 of (int32 -> unit)
  | Fast_i64 of (int64 -> unit)
  | Fast_f32 of (float -> unit)
  | Fast_f64 of (float -> unit)

exception Unsupported

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)
(* ------------------------------------------------------------------ *)

(* Stack slots are (64-bit payload, type tag) pairs split across two
   parallel arrays.  A [float array] is OCaml's only unboxed 64-bit
   container: stores are raw 8-byte moves that preserve every bit
   pattern (including NaN payloads), and [Int64.bits_of_float] /
   [Int64.float_of_bits] are [@@unboxed] externals, so integer payloads
   round-trip without allocating.  i32 values are stored sign-extended;
   f32 values are stored as their exact double widening (single
   precision embeds losslessly). *)
let tag_i32 = '\000'
let tag_i64 = '\001'
let tag_f32 = '\002'
let tag_f64 = '\003'

let tag_of_type : Types.num_type -> char = function
  | Types.I32 -> tag_i32
  | Types.I64 -> tag_i64
  | Types.F32 -> tag_f32
  | Types.F64 -> tag_f64

let[@inline] f_of_i32 (x : int32) = Int64.float_of_bits (Int64.of_int32 x)
let[@inline] f_of_i64 (x : int64) = Int64.float_of_bits x
let[@inline] i32_of_f (b : float) = Int64.to_int32 (Int64.bits_of_float b)
let[@inline] i64_of_f (b : float) = Int64.bits_of_float b

(* i32 "true": the payload of [I32 1l]. *)
let f_true = Int64.float_of_bits 1L

(* A compiled instruction or body: runs against the mutable runtime [rt]
   with the current frame's locals at stack offset [lbase], returning a
   branch code. *)
type rt = {
  inst : Interp.instance;
  mutable stk_bits : float array;  (** raw 64-bit slot payloads *)
  mutable stk_tags : Bytes.t;  (** one type tag per slot *)
  mutable sp : int;
  tsrc : int array;
      (** table slot -> absolute function index (mirrors the element
          segments), for dispatching indirect calls to compiled bodies *)
  prep : prepared;
}

and prepared = {
  p_module : Ast.module_;
  p_nimp : int;
  p_funcs : cfunc option array;  (** by local index; [None] = fallback *)
  mutable p_bits : float array;
      (** operand stack payloads, reused across payloads *)
  mutable p_tags : Bytes.t;
  mutable p_busy : bool;
  mutable p_compiled : int;
  mutable p_fallback : int;
}

and cfunc = {
  cf_code : rt -> int -> int;
  cf_ltags : string;  (** tags of the declared (non-parameter) locals *)
  cf_nparams : int;
  cf_nlocals : int;  (** parameters + declared locals *)
  cf_arity : int;
}

type op = rt -> int -> int

(* ------------------------------------------------------------------ *)
(* Operand stack                                                       *)
(* ------------------------------------------------------------------ *)

let ensure_capacity rt n =
  if n > Array.length rt.stk_bits then begin
    let cap = ref (2 * Array.length rt.stk_bits) in
    while n > !cap do
      cap := 2 * !cap
    done;
    let bits = Array.make !cap 0.0 in
    Array.blit rt.stk_bits 0 bits 0 rt.sp;
    let tags = Bytes.make !cap '\000' in
    Bytes.blit rt.stk_tags 0 tags 0 rt.sp;
    rt.stk_bits <- bits;
    rt.stk_tags <- tags
  end

let[@inline] push_raw rt b t =
  let sp = rt.sp in
  if sp >= Array.length rt.stk_bits then ensure_capacity rt (sp + 1);
  Array.unsafe_set rt.stk_bits sp b;
  Bytes.unsafe_set rt.stk_tags sp t;
  rt.sp <- sp + 1

let push_value rt : Values.value -> unit = function
  | Values.I32 x -> push_raw rt (f_of_i32 x) tag_i32
  | Values.I64 x -> push_raw rt (f_of_i64 x) tag_i64
  | Values.F32 x -> push_raw rt x tag_f32
  | Values.F64 x -> push_raw rt x tag_f64

(* Pop one slot and return its index; the slot's payload stays readable
   until the next push overwrites it. *)
let[@inline] pop_slot rt : int =
  let sp = rt.sp - 1 in
  if sp < 0 then Values.trap "stack underflow";
  rt.sp <- sp;
  sp

let value_of_slot rt i : Values.value =
  let b = Array.unsafe_get rt.stk_bits i in
  match Bytes.unsafe_get rt.stk_tags i with
  | '\000' -> Values.I32 (i32_of_f b)
  | '\001' -> Values.I64 (i64_of_f b)
  | '\002' -> Values.F32 b
  | _ -> Values.F64 b

let pop_value rt : Values.value = value_of_slot rt (pop_slot rt)

(* The slot's 64-bit view, as {!Values.raw_bits} would report it. *)
let raw_bits_of_slot rt i : int64 =
  let b = Array.unsafe_get rt.stk_bits i in
  match Bytes.unsafe_get rt.stk_tags i with
  | '\000' -> Int64.logand (Int64.bits_of_float b) 0xFFFF_FFFFL
  | '\001' -> Int64.bits_of_float b
  | '\002' ->
      Int64.logand (Int64.of_int32 (Int32.bits_of_float b)) 0xFFFF_FFFFL
  | _ -> Int64.bits_of_float b

(* Typed pops with [Values.as_*] error behaviour: the mismatch path
   reboxes the offender so the trap message matches the interpreter's. *)
let[@inline] pop_as_i32 rt : int32 =
  let i = pop_slot rt in
  if Bytes.unsafe_get rt.stk_tags i = '\000' then
    i32_of_f (Array.unsafe_get rt.stk_bits i)
  else Values.as_i32 (value_of_slot rt i)

let[@inline] pop_as_i64 rt : int64 =
  let i = pop_slot rt in
  if Bytes.unsafe_get rt.stk_tags i = '\001' then
    i64_of_f (Array.unsafe_get rt.stk_bits i)
  else Values.as_i64 (value_of_slot rt i)

let[@inline] pop_as_f32 rt : float =
  let i = pop_slot rt in
  if Bytes.unsafe_get rt.stk_tags i = '\002' then
    Array.unsafe_get rt.stk_bits i
  else Values.as_f32 (value_of_slot rt i)

let[@inline] pop_as_f64 rt : float =
  let i = pop_slot rt in
  if Bytes.unsafe_get rt.stk_tags i = '\003' then
    Array.unsafe_get rt.stk_bits i
  else Values.as_f64 (value_of_slot rt i)

(* Collapse the values a block produced down onto its entry stack
   pointer: keep the top [arity], discard everything between.  This is
   the array form of the interpreter's [take arity st] at block exit. *)
let collapse rt sp0 arity =
  let sp = rt.sp in
  if sp - sp0 < arity then Values.trap "stack underflow";
  if arity > 0 then begin
    let bits = rt.stk_bits and tags = rt.stk_tags in
    for i = 0 to arity - 1 do
      Array.unsafe_set bits (sp0 + i) (Array.unsafe_get bits (sp - arity + i));
      Bytes.unsafe_set tags (sp0 + i) (Bytes.unsafe_get tags (sp - arity + i))
    done
  end;
  rt.sp <- sp0 + arity

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)
(* ------------------------------------------------------------------ *)

(* Invoke a compiled function: the top [cf_nparams] stack values become
   the frame's first locals in place, the declared extras are zero-filled
   above them, and on return the top [cf_arity] results collapse onto the
   frame base.  Nothing is allocated. *)
let invoke_cf rt (cf : cfunc) =
  let base = rt.sp - cf.cf_nparams in
  if base < 0 then Values.trap "stack underflow";
  let inst = rt.inst in
  if inst.Interp.depth >= inst.Interp.max_depth then
    raise (Interp.Exhaustion "call stack exhausted");
  inst.Interp.depth <- inst.Interp.depth + 1;
  let floor = base + cf.cf_nlocals in
  ensure_capacity rt floor;
  let bits = rt.stk_bits and tags = rt.stk_tags in
  let ltags = cf.cf_ltags in
  for i = cf.cf_nparams to cf.cf_nlocals - 1 do
    Array.unsafe_set bits (base + i) 0.0;
    Bytes.unsafe_set tags (base + i) (String.unsafe_get ltags (i - cf.cf_nparams))
  done;
  rt.sp <- floor;
  (* Any branch code at function toplevel — fall-through, return, or a
     branch targeting the function block — means "function done", like
     the interpreter catching [Return_exn] and [Br_exn (0, _)]. *)
  (match cf.cf_code rt base with
   | (_ : int) -> ()
   | exception e ->
       inst.Interp.depth <- inst.Interp.depth - 1;
       raise e);
  inst.Interp.depth <- inst.Interp.depth - 1;
  collapse rt base cf.cf_arity

(* Route a call through the interpreter: host imports and fallback
   functions box their arguments at this boundary.  [n] is the parameter
   count of the callee's declared type. *)
let call_via_interp rt fi n =
  let base = rt.sp - n in
  if base < 0 then Values.trap "stack underflow";
  let args = ref [] in
  for i = n - 1 downto 0 do
    args := value_of_slot rt (base + i) :: !args
  done;
  rt.sp <- base;
  let results = Interp.invoke_func rt.inst rt.inst.Interp.funcs.(fi) !args in
  List.iter (fun v -> push_value rt v) results

(* Call the function at absolute index [fi] ([n] declared parameters):
   compiled body if available, interpreter otherwise. *)
let call_abs rt fi n =
  let prep = rt.prep in
  if fi >= prep.p_nimp then
    match prep.p_funcs.(fi - prep.p_nimp) with
    | Some cf -> invoke_cf rt cf
    | None -> call_via_interp rt fi n
  else call_via_interp rt fi n

(* ------------------------------------------------------------------ *)
(* Fuel segments                                                       *)
(* ------------------------------------------------------------------ *)

(* A segment is a maximal run of instructions whose fuel can be charged
   in one comparison: straight-line code, ending at (and including) the
   first instruction that can consume unbounded inner fuel — a block
   entry or a call into Wasm code.  Branches inside the run refund the
   pre-charge of the instructions they skip, so the fuel counter agrees
   with the interpreter's per-instruction accounting on every path that
   can observe it.  When the remaining budget cannot cover the whole
   run, the slow driver replicates the interpreter's per-instruction
   check exactly, exhausting at the same instruction with the same
   message. *)
let seg_code (ops : op list) : op =
  match ops with
  | [ op ] ->
      fun rt lbase ->
        let inst = rt.inst in
        if inst.Interp.fuel <= 0 then
          raise (Interp.Exhaustion "instruction budget exhausted");
        inst.Interp.fuel <- inst.Interp.fuel - 1;
        op rt lbase
  | _ ->
      let ops = Array.of_list ops in
      let k = Array.length ops in
      fun rt lbase ->
        let inst = rt.inst in
        if inst.Interp.fuel >= k then begin
          inst.Interp.fuel <- inst.Interp.fuel - k;
          let rec fast i =
            if i = k then 0
            else
              let c = (Array.unsafe_get ops i) rt lbase in
              if c = 0 then fast (i + 1)
              else begin
                let refund = k - i - 1 in
                if refund > 0 then inst.Interp.fuel <- inst.Interp.fuel + refund;
                c
              end
          in
          fast 0
        end
        else
          let rec slow i =
            if i = k then 0
            else begin
              if inst.Interp.fuel <= 0 then
                raise (Interp.Exhaustion "instruction budget exhausted");
              inst.Interp.fuel <- inst.Interp.fuel - 1;
              let c = (Array.unsafe_get ops i) rt lbase in
              if c = 0 then slow (i + 1) else c
            end
          in
          slow 0

(* ------------------------------------------------------------------ *)
(* Structured control                                                  *)
(* ------------------------------------------------------------------ *)

let block_arity : Ast.block_type -> int = function None -> 0 | Some _ -> 1

let block_op inner arity : op =
 fun rt lbase ->
  let sp0 = rt.sp in
  let c = inner rt lbase in
  if c = 0 || c = 1 then begin
    collapse rt sp0 arity;
    0
  end
  else if c = -1 then -1
  else c - 1

let loop_op inner arity : op =
 fun rt lbase ->
  let sp0 = rt.sp in
  let rec go () =
    let c = inner rt lbase in
    if c = 0 then begin
      collapse rt sp0 arity;
      0
    end
    else if c = 1 then begin
      (* branch to the loop header restarts the body on a fresh
         block-local stack, like the interpreter's [Br_exn (0, _)] *)
      rt.sp <- sp0;
      go ()
    end
    else if c = -1 then -1
    else c - 1
  in
  go ()

let if_op then_ else_ arity : op =
 fun rt lbase ->
  let cond = pop_as_i32 rt in
  let sp0 = rt.sp in
  let c = if cond <> 0l then then_ rt lbase else else_ rt lbase in
  if c = 0 || c = 1 then begin
    collapse rt sp0 arity;
    0
  end
  else if c = -1 then -1
  else c - 1

(* ------------------------------------------------------------------ *)
(* Operator specialisation                                             *)
(* ------------------------------------------------------------------ *)

let i32_binop : Ast.int_binop -> int32 -> int32 -> int32 = function
  | Ast.Add -> Int32.add
  | Ast.Sub -> Int32.sub
  | Ast.Mul -> Int32.mul
  | Ast.Div_s -> Values.I32x.div_s
  | Ast.Div_u -> Values.I32x.div_u
  | Ast.Rem_s -> Values.I32x.rem_s
  | Ast.Rem_u -> Values.I32x.rem_u
  | Ast.And -> Int32.logand
  | Ast.Or -> Int32.logor
  | Ast.Xor -> Int32.logxor
  | Ast.Shl -> Values.I32x.shl
  | Ast.Shr_s -> Values.I32x.shr_s
  | Ast.Shr_u -> Values.I32x.shr_u
  | Ast.Rotl -> Values.I32x.rotl
  | Ast.Rotr -> Values.I32x.rotr

let i64_binop : Ast.int_binop -> int64 -> int64 -> int64 = function
  | Ast.Add -> Int64.add
  | Ast.Sub -> Int64.sub
  | Ast.Mul -> Int64.mul
  | Ast.Div_s -> Values.I64x.div_s
  | Ast.Div_u -> Values.I64x.div_u
  | Ast.Rem_s -> Values.I64x.rem_s
  | Ast.Rem_u -> Values.I64x.rem_u
  | Ast.And -> Int64.logand
  | Ast.Or -> Int64.logor
  | Ast.Xor -> Int64.logxor
  | Ast.Shl -> Values.I64x.shl
  | Ast.Shr_s -> Values.I64x.shr_s
  | Ast.Shr_u -> Values.I64x.shr_u
  | Ast.Rotl -> Values.I64x.rotl
  | Ast.Rotr -> Values.I64x.rotr

let i32_relop : Ast.int_relop -> int32 -> int32 -> bool = function
  | Ast.Eq -> Int32.equal
  | Ast.Ne -> fun x y -> not (Int32.equal x y)
  | Ast.Lt_s -> fun x y -> Int32.compare x y < 0
  | Ast.Lt_u -> Values.I32x.lt_u
  | Ast.Gt_s -> fun x y -> Int32.compare x y > 0
  | Ast.Gt_u -> Values.I32x.gt_u
  | Ast.Le_s -> fun x y -> Int32.compare x y <= 0
  | Ast.Le_u -> Values.I32x.le_u
  | Ast.Ge_s -> fun x y -> Int32.compare x y >= 0
  | Ast.Ge_u -> Values.I32x.ge_u

let i64_relop : Ast.int_relop -> int64 -> int64 -> bool = function
  | Ast.Eq -> Int64.equal
  | Ast.Ne -> fun x y -> not (Int64.equal x y)
  | Ast.Lt_s -> fun x y -> Int64.compare x y < 0
  | Ast.Lt_u -> Values.I64x.lt_u
  | Ast.Gt_s -> fun x y -> Int64.compare x y > 0
  | Ast.Gt_u -> Values.I64x.gt_u
  | Ast.Le_s -> fun x y -> Int64.compare x y <= 0
  | Ast.Le_u -> Values.I64x.le_u
  | Ast.Ge_s -> fun x y -> Int64.compare x y >= 0
  | Ast.Ge_u -> Values.I64x.ge_u

let i32_unop : Ast.int_unop -> int32 -> int32 = function
  | Ast.Clz -> Values.I32x.clz
  | Ast.Ctz -> Values.I32x.ctz
  | Ast.Popcnt -> Values.I32x.popcnt

let i64_unop : Ast.int_unop -> int64 -> int64 = function
  | Ast.Clz -> Values.I64x.clz
  | Ast.Ctz -> Values.I64x.ctz
  | Ast.Popcnt -> Values.I64x.popcnt

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type cctx = {
  c_m : Ast.module_;
  c_nimp : int;
  c_imports : (string * string * Types.func_type) array;
  c_fast : string -> string -> fast_host option;
  c_exclude : Ast.instr -> bool;
}

(* Instructions that end a fuel segment: anything whose inner execution
   consumes an unbounded amount of fuel itself.  Host calls cost exactly
   the call instruction's own unit, so they stay inside segments. *)
let ends_segment cctx : Ast.instr -> bool = function
  | Ast.Block _ | Ast.Loop _ | Ast.If _ | Ast.Call_indirect _ -> true
  | Ast.Call fi -> fi >= cctx.c_nimp
  | _ -> false

let hook_sig (ft : Types.func_type) ty =
  (match ft.Types.params with [ t ] -> t = ty | _ -> false)
  && ft.Types.results = []

let rec compile_instr cctx (i : Ast.instr) : op =
  if cctx.c_exclude i then raise Unsupported;
  match i with
  | Ast.Unreachable -> fun _ _ -> Values.trap "unreachable executed"
  | Ast.Nop -> fun _ _ -> 0
  | Ast.Block (bt, body) -> block_op (compile_body cctx body) (block_arity bt)
  | Ast.Loop (bt, body) -> loop_op (compile_body cctx body) (block_arity bt)
  | Ast.If (bt, t, e) ->
      if_op (compile_body cctx t) (compile_body cctx e) (block_arity bt)
  | Ast.Br n -> fun _ _ -> n + 1
  | Ast.Br_if n -> fun rt _ -> if pop_as_i32 rt <> 0l then n + 1 else 0
  | Ast.Br_table (targets, default) ->
      let tarr = Array.of_list targets in
      fun rt _ ->
        let i = Int32.to_int (pop_as_i32 rt) in
        let t = if i >= 0 && i < Array.length tarr then tarr.(i) else default in
        t + 1
  | Ast.Return -> fun _ _ -> -1
  | Ast.Call fi ->
      if fi < cctx.c_nimp then begin
        let im, inm, ft = cctx.c_imports.(fi) in
        match cctx.c_fast im inm with
        | Some (Fast_i32 f) when hook_sig ft Types.I32 ->
            fun rt _ ->
              f (pop_as_i32 rt);
              0
        | Some (Fast_i64 f) when hook_sig ft Types.I64 ->
            fun rt _ ->
              f (pop_as_i64 rt);
              0
        | Some (Fast_f32 f) when hook_sig ft Types.F32 ->
            fun rt _ ->
              f (pop_as_f32 rt);
              0
        | Some (Fast_f64 f) when hook_sig ft Types.F64 ->
            fun rt _ ->
              f (pop_as_f64 rt);
              0
        | _ ->
            let n = List.length ft.Types.params in
            fun rt _ ->
              call_via_interp rt fi n;
              0
      end
      else
        let ft = Ast.func_type_at cctx.c_m fi in
        let n = List.length ft.Types.params in
        fun rt _ ->
          call_abs rt fi n;
          0
  | Ast.Call_indirect ti ->
      let expected = cctx.c_m.Ast.types.(ti) in
      let n = List.length expected.Types.params in
      fun rt _ ->
        let i = Int32.to_int (pop_as_i32 rt) in
        let inst = rt.inst in
        if i < 0 || i >= Array.length inst.Interp.table then
          Values.trap "undefined element (table index %d)" i;
        (match inst.Interp.table.(i) with
         | None -> Values.trap "uninitialized element %d" i
         | Some callee ->
             if not (Types.equal_func_type expected (Interp.func_type_of callee))
             then Values.trap "indirect call type mismatch";
             call_abs rt rt.tsrc.(i) n);
        0
  | Ast.Drop ->
      fun rt _ ->
        ignore (pop_slot rt);
        0
  | Ast.Select ->
      fun rt _ ->
        let cond = pop_as_i32 rt in
        let jb = pop_slot rt in
        let ia = pop_slot rt in
        if cond <> 0l then rt.sp <- ia + 1
        else begin
          Array.unsafe_set rt.stk_bits ia (Array.unsafe_get rt.stk_bits jb);
          Bytes.unsafe_set rt.stk_tags ia (Bytes.unsafe_get rt.stk_tags jb);
          rt.sp <- ia + 1
        end;
        0
  | Ast.Local_get n ->
      fun rt lbase ->
        let i = lbase + n in
        let b = rt.stk_bits.(i) and t = Bytes.get rt.stk_tags i in
        push_raw rt b t;
        0
  | Ast.Local_set n ->
      fun rt lbase ->
        let i = pop_slot rt in
        let j = lbase + n in
        rt.stk_bits.(j) <- Array.unsafe_get rt.stk_bits i;
        Bytes.set rt.stk_tags j (Bytes.unsafe_get rt.stk_tags i);
        0
  | Ast.Local_tee n ->
      fun rt lbase ->
        let i = rt.sp - 1 in
        if i < 0 then Values.trap "stack underflow";
        let j = lbase + n in
        rt.stk_bits.(j) <- Array.unsafe_get rt.stk_bits i;
        Bytes.set rt.stk_tags j (Bytes.unsafe_get rt.stk_tags i);
        0
  | Ast.Global_get n ->
      fun rt _ ->
        push_value rt rt.inst.Interp.globals.(n);
        0
  | Ast.Global_set n ->
      fun rt _ ->
        rt.inst.Interp.globals.(n) <- pop_value rt;
        0
  | Ast.Load lop -> (
      let off = Int32.to_int lop.Ast.l_offset in
      match (lop.Ast.l_ty, lop.Ast.l_pack) with
      | Types.I32, None ->
          fun rt _ ->
            let ea = Int32.to_int (pop_as_i32 rt) + off in
            let raw = Memory.load_bytes_le (Interp.get_memory rt.inst) ea 4 in
            push_raw rt (f_of_i32 (Int64.to_int32 raw)) tag_i32;
            0
      | Types.I64, None ->
          fun rt _ ->
            let ea = Int32.to_int (pop_as_i32 rt) + off in
            let raw = Memory.load_bytes_le (Interp.get_memory rt.inst) ea 8 in
            push_raw rt (f_of_i64 raw) tag_i64;
            0
      | Types.F32, None ->
          fun rt _ ->
            let ea = Int32.to_int (pop_as_i32 rt) + off in
            let raw = Memory.load_bytes_le (Interp.get_memory rt.inst) ea 4 in
            push_raw rt (Int32.float_of_bits (Int64.to_int32 raw)) tag_f32;
            0
      | Types.F64, None ->
          fun rt _ ->
            let ea = Int32.to_int (pop_as_i32 rt) + off in
            let raw = Memory.load_bytes_le (Interp.get_memory rt.inst) ea 8 in
            push_raw rt (Int64.float_of_bits raw) tag_f64;
            0
      | (Types.I32 | Types.I64), Some (sz, ext) ->
          let bits =
            match sz with Ast.Pack8 -> 8 | Ast.Pack16 -> 16 | Ast.Pack32 -> 32
          in
          let signed = ext = Ast.SX in
          let wide = lop.Ast.l_ty = Types.I64 in
          fun rt _ ->
            let ea = Int32.to_int (pop_as_i32 rt) + off in
            let raw =
              Memory.load_bytes_le (Interp.get_memory rt.inst) ea (bits / 8)
            in
            let v = Memory.extend_to_i64 ~signed ~bits raw in
            if wide then push_raw rt (f_of_i64 v) tag_i64
            else push_raw rt (f_of_i32 (Int64.to_int32 v)) tag_i32;
            0
      | (Types.F32 | Types.F64), Some _ ->
          (* interpreter order: bounds-check the raw load, then trap *)
          fun rt _ ->
            let ea = Int32.to_int (pop_as_i32 rt) + off in
            push_value rt (Memory.load_value (Interp.get_memory rt.inst) lop ea);
            0)
  | Ast.Store sop ->
      let off = Int32.to_int sop.Ast.s_offset in
      let width =
        match sop.Ast.s_pack with
        | None -> ( match sop.Ast.s_ty with
                    | Types.I32 | Types.F32 -> 4
                    | Types.I64 | Types.F64 -> 8)
        | Some Ast.Pack8 -> 1
        | Some Ast.Pack16 -> 2
        | Some Ast.Pack32 -> 4
      in
      fun rt _ ->
        let i = pop_slot rt in
        let raw = raw_bits_of_slot rt i in
        let ea = Int32.to_int (pop_as_i32 rt) + off in
        Memory.store_bytes_le (Interp.get_memory rt.inst) ea width raw;
        0
  | Ast.Memory_size ->
      fun rt _ ->
        push_raw rt
          (f_of_i32 (Int32.of_int (Memory.size_pages (Interp.get_memory rt.inst))))
          tag_i32;
        0
  | Ast.Memory_grow ->
      fun rt _ ->
        let delta = Int32.to_int (pop_as_i32 rt) in
        push_raw rt
          (f_of_i32 (Memory.grow (Interp.get_memory rt.inst) delta))
          tag_i32;
        0
  | Ast.Const v ->
      (* payload and tag precomputed: pushing is two plain stores *)
      let b =
        match v with
        | Values.I32 x -> f_of_i32 x
        | Values.I64 x -> f_of_i64 x
        | Values.F32 x | Values.F64 x -> x
      in
      let t = tag_of_type (Values.type_of v) in
      fun rt _ ->
        push_raw rt b t;
        0
  | Ast.Eqz Types.I32 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\000' then
          push_raw rt
            (if i32_of_f (Array.unsafe_get rt.stk_bits i) = 0l then f_true
             else 0.0)
            tag_i32
        else Values.trap "eqz type mismatch";
        0
  | Ast.Eqz Types.I64 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\001' then
          push_raw rt
            (if i64_of_f (Array.unsafe_get rt.stk_bits i) = 0L then f_true
             else 0.0)
            tag_i32
        else Values.trap "eqz type mismatch";
        0
  | Ast.Eqz _ ->
      fun rt _ ->
        ignore (pop_slot rt);
        Values.trap "eqz type mismatch"
  | Ast.Int_compare (Types.I32, rel) ->
      let f = i32_relop rel in
      fun rt _ ->
        let jb = pop_slot rt in
        let ia = pop_slot rt in
        let tags = rt.stk_tags in
        if
          Bytes.unsafe_get tags ia = '\000'
          && Bytes.unsafe_get tags jb = '\000'
        then begin
          let bits = rt.stk_bits in
          let x = i32_of_f (Array.unsafe_get bits ia)
          and y = i32_of_f (Array.unsafe_get bits jb) in
          push_raw rt (if f x y then f_true else 0.0) tag_i32
        end
        else Values.trap "int compare type mismatch";
        0
  | Ast.Int_compare (Types.I64, rel) ->
      let f = i64_relop rel in
      fun rt _ ->
        let jb = pop_slot rt in
        let ia = pop_slot rt in
        let tags = rt.stk_tags in
        if
          Bytes.unsafe_get tags ia = '\001'
          && Bytes.unsafe_get tags jb = '\001'
        then begin
          let bits = rt.stk_bits in
          let x = i64_of_f (Array.unsafe_get bits ia)
          and y = i64_of_f (Array.unsafe_get bits jb) in
          push_raw rt (if f x y then f_true else 0.0) tag_i32
        end
        else Values.trap "int compare type mismatch";
        0
  | Ast.Int_compare (ty, rel) ->
      fun rt _ ->
        let b = pop_value rt in
        let a = pop_value rt in
        push_value rt (Interp.eval_int_compare ty rel a b);
        0
  | Ast.Int_binary (Types.I32, bop) ->
      let f = i32_binop bop in
      fun rt _ ->
        let jb = pop_slot rt in
        let ia = pop_slot rt in
        let tags = rt.stk_tags in
        if
          Bytes.unsafe_get tags ia = '\000'
          && Bytes.unsafe_get tags jb = '\000'
        then begin
          let bits = rt.stk_bits in
          let x = i32_of_f (Array.unsafe_get bits ia)
          and y = i32_of_f (Array.unsafe_get bits jb) in
          push_raw rt (f_of_i32 (f x y)) tag_i32
        end
        else Values.trap "int binary type mismatch";
        0
  | Ast.Int_binary (Types.I64, bop) ->
      let f = i64_binop bop in
      fun rt _ ->
        let jb = pop_slot rt in
        let ia = pop_slot rt in
        let tags = rt.stk_tags in
        if
          Bytes.unsafe_get tags ia = '\001'
          && Bytes.unsafe_get tags jb = '\001'
        then begin
          let bits = rt.stk_bits in
          let x = i64_of_f (Array.unsafe_get bits ia)
          and y = i64_of_f (Array.unsafe_get bits jb) in
          push_raw rt (f_of_i64 (f x y)) tag_i64
        end
        else Values.trap "int binary type mismatch";
        0
  | Ast.Int_binary (ty, bop) ->
      fun rt _ ->
        let b = pop_value rt in
        let a = pop_value rt in
        push_value rt (Interp.eval_int_binary ty bop a b);
        0
  | Ast.Int_unary (Types.I32, uop) ->
      let f = i32_unop uop in
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\000' then
          push_raw rt (f_of_i32 (f (i32_of_f (Array.unsafe_get rt.stk_bits i))))
            tag_i32
        else Values.trap "int unary type mismatch";
        0
  | Ast.Int_unary (Types.I64, uop) ->
      let f = i64_unop uop in
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\001' then
          push_raw rt (f_of_i64 (f (i64_of_f (Array.unsafe_get rt.stk_bits i))))
            tag_i64
        else Values.trap "int unary type mismatch";
        0
  | Ast.Int_unary (ty, uop) ->
      fun rt _ ->
        push_value rt (Interp.eval_int_unary ty uop (pop_value rt));
        0
  | Ast.Float_compare (ty, rel) ->
      fun rt _ ->
        let b = pop_value rt in
        let a = pop_value rt in
        push_value rt (Interp.eval_float_compare ty rel a b);
        0
  | Ast.Float_unary (ty, uop) ->
      fun rt _ ->
        push_value rt (Interp.eval_float_unary ty uop (pop_value rt));
        0
  | Ast.Float_binary (ty, bop) ->
      fun rt _ ->
        let b = pop_value rt in
        let a = pop_value rt in
        push_value rt (Interp.eval_float_binary ty bop a b);
        0
  | Ast.Convert Ast.I32_wrap_i64 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\001' then
          push_raw rt
            (f_of_i32 (Int64.to_int32 (i64_of_f (Array.unsafe_get rt.stk_bits i))))
            tag_i32
        else
          push_value rt
            (Interp.eval_convert Ast.I32_wrap_i64 (value_of_slot rt i));
        0
  | Ast.Convert Ast.I64_extend_i32_s ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\000' then
          (* i32 payloads are stored sign-extended: only the tag changes *)
          push_raw rt (Array.unsafe_get rt.stk_bits i) tag_i64
        else
          push_value rt
            (Interp.eval_convert Ast.I64_extend_i32_s (value_of_slot rt i));
        0
  | Ast.Convert Ast.I64_extend_i32_u ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\000' then
          push_raw rt
            (f_of_i64
               (Int64.logand
                  (i64_of_f (Array.unsafe_get rt.stk_bits i))
                  0xFFFF_FFFFL))
            tag_i64
        else
          push_value rt
            (Interp.eval_convert Ast.I64_extend_i32_u (value_of_slot rt i));
        0
  | Ast.Convert Ast.I32_reinterpret_f32 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\002' then
          push_raw rt
            (f_of_i32 (Int32.bits_of_float (Array.unsafe_get rt.stk_bits i)))
            tag_i32
        else
          push_value rt
            (Interp.eval_convert Ast.I32_reinterpret_f32 (value_of_slot rt i));
        0
  | Ast.Convert Ast.I64_reinterpret_f64 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\003' then
          (* the payload already holds the double's bits: retag only *)
          push_raw rt (Array.unsafe_get rt.stk_bits i) tag_i64
        else
          push_value rt
            (Interp.eval_convert Ast.I64_reinterpret_f64 (value_of_slot rt i));
        0
  | Ast.Convert Ast.F32_reinterpret_i32 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\000' then
          push_raw rt
            (Int32.float_of_bits (i32_of_f (Array.unsafe_get rt.stk_bits i)))
            tag_f32
        else
          push_value rt
            (Interp.eval_convert Ast.F32_reinterpret_i32 (value_of_slot rt i));
        0
  | Ast.Convert Ast.F64_reinterpret_i64 ->
      fun rt _ ->
        let i = pop_slot rt in
        if Bytes.unsafe_get rt.stk_tags i = '\001' then
          push_raw rt (Array.unsafe_get rt.stk_bits i) tag_f64
        else
          push_value rt
            (Interp.eval_convert Ast.F64_reinterpret_i64 (value_of_slot rt i));
        0
  | Ast.Convert cop ->
      fun rt _ ->
        push_value rt (Interp.eval_convert cop (pop_value rt));
        0

and compile_body cctx (body : Ast.instr list) : op =
  let segs = ref [] in
  let cur = ref [] in
  let flush () =
    match !cur with
    | [] -> ()
    | ops ->
        segs := seg_code (List.rev ops) :: !segs;
        cur := []
  in
  List.iter
    (fun i ->
      cur := compile_instr cctx i :: !cur;
      if ends_segment cctx i then flush ())
    body;
  flush ();
  match List.rev !segs with
  | [] -> fun _ _ -> 0
  | [ s ] -> s
  | l ->
      let arr = Array.of_list l in
      let n = Array.length arr in
      fun rt lbase ->
        let rec go i =
          if i = n then 0
          else
            let c = (Array.unsafe_get arr i) rt lbase in
            if c = 0 then go (i + 1) else c
        in
        go 0

let compile_func cctx (f : Ast.func) : cfunc option =
  let ft = cctx.c_m.Ast.types.(f.Ast.ftype) in
  match compile_body cctx f.Ast.body with
  | code ->
      let locals = Array.of_list f.Ast.locals in
      let nparams = List.length ft.Types.params in
      Some
        {
          cf_code = code;
          cf_ltags =
            String.init (Array.length locals) (fun i -> tag_of_type locals.(i));
          cf_nparams = nparams;
          cf_nlocals = nparams + Array.length locals;
          cf_arity = List.length ft.Types.results;
        }
  | exception Unsupported -> None

let prepare ?(fast_host = fun _ _ -> None) ?(exclude = fun _ -> false)
    (m : Ast.module_) : prepared =
  let module T = Wasai_telemetry.Telemetry in
  let t_compile = T.start () in
  let nimp = Ast.num_func_imports m in
  let imports =
    Array.of_list
      (List.map
         (fun (i : Ast.import) ->
           match i.Ast.idesc with
           | Ast.Func_import ti ->
               (i.Ast.imp_module, i.Ast.imp_name, m.Ast.types.(ti))
           | _ -> assert false)
         (Ast.func_imports m))
  in
  let cctx =
    {
      c_m = m;
      c_nimp = nimp;
      c_imports = imports;
      c_fast = fast_host;
      c_exclude = exclude;
    }
  in
  let funcs = Array.map (compile_func cctx) m.Ast.funcs in
  let compiled =
    Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 funcs
  in
  T.stop T.Compile t_compile;
  {
    p_module = m;
    p_nimp = nimp;
    p_funcs = funcs;
    p_bits = Array.make 256 0.0;
    p_tags = Bytes.make 256 '\000';
    p_busy = false;
    p_compiled = compiled;
    p_fallback = Array.length funcs - compiled;
  }

let module_of prep = prep.p_module
let function_counts prep = (prep.p_compiled, prep.p_fallback)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  s_prep : prepared;
  s_inst : Interp.instance;
  s_tsrc : int array;
}

let instance s = s.s_inst

let invoke (s : session) (fi : int) (args : Values.value list) :
    Values.value list =
  let prep = s.s_prep in
  let cf = if fi < prep.p_nimp then None else prep.p_funcs.(fi - prep.p_nimp) in
  match cf with
  | None ->
      (* host import or fallback function: pure interpreter path *)
      Interp.invoke_func s.s_inst s.s_inst.Interp.funcs.(fi) args
  | Some cf ->
      let shared = not prep.p_busy in
      let stk_bits, stk_tags =
        if shared then begin
          prep.p_busy <- true;
          (prep.p_bits, prep.p_tags)
        end
        else (Array.make 256 0.0, Bytes.make 256 '\000')
      in
      let rt =
        { inst = s.s_inst; stk_bits; stk_tags; sp = 0; tsrc = s.s_tsrc; prep }
      in
      let release () =
        if shared then begin
          prep.p_bits <- rt.stk_bits;
          prep.p_tags <- rt.stk_tags;
          prep.p_busy <- false
        end
      in
      (match
         List.iter (fun v -> push_value rt v) args;
         invoke_cf rt cf
       with
      | () ->
          let rec collect i acc =
            if i < 0 then acc else collect (i - 1) (value_of_slot rt i :: acc)
          in
          let results = collect (rt.sp - 1) [] in
          release ();
          results
      | exception e ->
          release ();
          raise e)

let invoke_export (s : session) (name : string) (args : Values.value list) :
    Values.value list =
  match Ast.exported_func s.s_prep.p_module name with
  | None -> Values.trap "no exported function named %s" name
  | Some idx -> invoke s idx args

(* Allocation phase only: imports, memory, globals, table, segments —
   the start function is the caller's to run ([run_start]), which is what
   lets the pool snapshot the pre-start memory image. *)
let instantiate_pre ?fuel ?max_depth (prep : prepared)
    (resolver : Interp.resolver) : session =
  let inst = Interp.alloc_instance ?fuel ?max_depth resolver prep.p_module in
  (* Map table slots back to absolute function indices so indirect calls
     can dispatch into compiled bodies; [alloc_instance] already
     bounds-checked the segments. *)
  let tsrc = Array.make (Array.length inst.Interp.table) (-1) in
  List.iter
    (fun (e : Ast.elem_segment) ->
      let base =
        Int32.to_int
          (Values.as_i32
             (Interp.eval_const_expr inst.Interp.globals e.Ast.e_offset))
      in
      List.iteri (fun i fi -> tsrc.(base + i) <- fi) e.Ast.e_init)
    prep.p_module.Ast.elems;
  { s_prep = prep; s_inst = inst; s_tsrc = tsrc }

let run_start (s : session) =
  match s.s_prep.p_module.Ast.start with
  | Some fi -> ignore (invoke s fi [])
  | None -> ()

let instantiate ?fuel ?max_depth (prep : prepared) (resolver : Interp.resolver)
    : session =
  let s = instantiate_pre ?fuel ?max_depth prep resolver in
  run_start s;
  s

(* ------------------------------------------------------------------ *)
(* Instance pooling                                                    *)
(* ------------------------------------------------------------------ *)

(* A fresh instance per action is pure allocator churn when the same
   target runs tens of thousands of payloads: the dominant cost is
   [Bytes.make] for linear memory, not execution.  The pool keeps one
   live session per prepared module and returns it to the exact
   post-allocation state before every reuse: globals re-evaluated,
   linear memory restored from the pre-start image (dirty-watermark
   blit), fuel and call depth reset, then the start function re-run —
   precisely the observable sequence of a fresh [instantiate].  The
   image keeps only the fresh memory's written prefix (its data
   segments): every byte above it is zero.  Imports are linked once, at
   the first acquisition: the resolver is fixed per pool and its host
   functions read their per-action state when called, so a relink would
   bind the same functions again.  Tables are static in the MVP (no
   [table.set]/grow), so they too survive reuse unchanged.  [release]
   hands the memory's pages to the domain's spare when the pool's user
   is done with it, so one buffer serves target after target. *)

type pool = {
  pl_prep : prepared;
  pl_resolver : Interp.resolver;
  pl_poolable : bool;
      (** modules importing their linear memory share state with the
          embedder and cannot be reset locally; they always get a fresh
          instance *)
  mutable pl_sess : session option;
  mutable pl_mem : Memory.image option;  (** pre-start linear-memory image *)
  mutable pl_depth : int;  (** [max_depth] the pooled instance was built with *)
  mutable pl_busy : bool;
      (** re-entrant acquisition (nested inline actions) falls back to a
          fresh instance, matching the interpreter's
          fresh-instance-per-nested-run behaviour *)
}

let pool (prep : prepared) (resolver : Interp.resolver) : pool =
  let poolable =
    not
      (List.exists
         (fun (i : Ast.import) ->
           match i.Ast.idesc with Ast.Memory_import _ -> true | _ -> false)
         prep.p_module.Ast.imports)
  in
  {
    pl_prep = prep;
    pl_resolver = resolver;
    pl_poolable = poolable;
    pl_sess = None;
    pl_mem = None;
    pl_depth = 0;
    pl_busy = false;
  }

(* Must match the default in [Interp.alloc_instance]. *)
let default_max_depth = 256

let reset_session (pl : pool) (s : session) (fuel : int option) : unit =
  let inst = s.s_inst in
  Interp.reset_globals inst;
  (match (inst.Interp.memory, pl.pl_mem) with
  | Some mem, Some img -> Memory.restore mem img
  | _ -> ());
  Interp.set_fuel inst (Option.value fuel ~default:max_int);
  inst.Interp.depth <- 0

let with_session (pl : pool) ?fuel ?max_depth (f : session -> 'a) : 'a =
  let depth = Option.value max_depth ~default:default_max_depth in
  let reusable =
    pl.pl_poolable && (not pl.pl_busy)
    && match pl.pl_sess with None -> true | Some _ -> depth = pl.pl_depth
  in
  if not reusable then
    f (instantiate ?fuel ?max_depth pl.pl_prep pl.pl_resolver)
  else begin
    pl.pl_busy <- true;
    Fun.protect
      ~finally:(fun () -> pl.pl_busy <- false)
      (fun () ->
        let s =
          match pl.pl_sess with
          | Some s ->
              reset_session pl s fuel;
              s
          | None ->
              let s =
                instantiate_pre ?fuel ?max_depth pl.pl_prep pl.pl_resolver
              in
              pl.pl_mem <- Option.map Memory.snapshot s.s_inst.Interp.memory;
              pl.pl_sess <- Some s;
              pl.pl_depth <- depth;
              s
        in
        run_start s;
        f s)
  end

let release (pl : pool) =
  if pl.pl_busy then invalid_arg "Compile.release: pool in use";
  (match pl.pl_sess with
  | Some s -> Option.iter Memory.release s.s_inst.Interp.memory
  | None -> ());
  pl.pl_sess <- None;
  pl.pl_mem <- None
