(** Symbolic trace replay: lift the runtime trace to symbolic machine
    states following the operational semantics of the paper's Table 3.

    Replay starts at the action function (challenge C3): records before
    the target's [function_begin] are skipped, and the target's Local
    section and argument pointees are bound from the action's
    {!Convention.inputs}.  Loads and stores use concrete addresses from
    the trace (challenge C2).  Each executed conditional state (br_if /
    if / br_table / eosio_assert) is recorded with its as-taken symbolic
    condition, forming the path condition that {!Flip} negates branch by
    branch. *)

module Wasm = Wasai_wasm
module Ast = Wasm.Ast
module Types = Wasm.Types
module Values = Wasm.Values
module Expr = Wasai_smt.Expr
module Trace = Wasai_wasabi.Trace

type cond_kind = K_branch | K_assert | K_brtable

type cond_state = {
  cs_site : int;  (** instruction site, or -1 for asserts *)
  cs_cond : Expr.t;  (** width-1 condition as taken on this path *)
  cs_taken : bool;
  cs_kind : cond_kind;
}

type frame = {
  mutable stack : Expr.t list;
  locals : (int, Expr.t) Hashtbl.t;
  fr_func : int;
}


type pending_call = {
  pc_sym_args : Expr.t list;
  pc_import : string option;  (** Some name when the callee is an import *)
}

type t = {
  meta : Trace.meta;
  mem : Memmodel.t;
  globals : (int, Expr.t) Hashtbl.t;
  mutable frames : frame list;  (** head = executing function *)
  mutable returns : Expr.t list list;  (** μ_r *)
  mutable path : cond_state list;  (** reversed *)
  mutable pending : pending_call option;
  mutable finished : bool;
  mutable imprecise : int;  (** stack-underflow fallbacks *)
}

type result = {
  r_path : cond_state list;  (** in execution order *)
  r_inputs : Convention.inputs;
  r_imprecise : int;
}

let width_of_numtype = function
  | Types.I32 | Types.F32 -> 32
  | Types.I64 | Types.F64 -> 64

let current_frame t =
  match t.frames with
  | f :: _ -> f
  | [] ->
      (* Should not happen in a well-formed trace; create a scratch frame. *)
      let f = { stack = []; locals = Hashtbl.create 8; fr_func = -1 } in
      t.frames <- [ f ];
      f

let push t e = (current_frame t).stack <- e :: (current_frame t).stack

let pop t : Expr.t =
  let f = current_frame t in
  match f.stack with
  | e :: rest ->
      f.stack <- rest;
      e
  | [] ->
      t.imprecise <- t.imprecise + 1;
      Expr.var (Expr.fresh_var ~name:"underflow" 64)

let pop_n t n = List.rev (List.init n (fun _ -> pop t))

let local_get t n =
  let f = current_frame t in
  match Hashtbl.find_opt f.locals n with
  | Some e -> e
  | None ->
      let v = Expr.var (Expr.fresh_var ~name:(Printf.sprintf "local%d" n) 64) in
      Hashtbl.replace f.locals n v;
      v

let local_set t n e = Hashtbl.replace (current_frame t).locals n e

let global_get t n =
  match Hashtbl.find_opt t.globals n with
  | Some e -> e
  | None ->
      (* Initialise from the module's constant initialiser. *)
      let m = t.meta.Trace.instrumented in
      let e =
        if n < Array.length m.Ast.globals then
          match m.Ast.globals.(n).Ast.ginit with
          | [ Ast.Const v ] ->
              Expr.const
                (width_of_numtype (Values.type_of v))
                (Values.raw_bits v)
          | _ -> Expr.var (Expr.fresh_var ~name:(Printf.sprintf "global%d" n) 64)
        else Expr.var (Expr.fresh_var ~name:(Printf.sprintf "global%d" n) 64)
      in
      Hashtbl.replace t.globals n e;
      e

let record_cond t cs = t.path <- cs :: t.path

(* Width-1 condition "this i32 is non-zero". *)
let nonzero e = Expr.not_ (Expr.cmp Expr.Eq e (Expr.const (Expr.width_of e) 0L))

(* ------------------------------------------------------------------ *)
(* Numeric op translation                                               *)
(* ------------------------------------------------------------------ *)

let translate_int_binop : Ast.int_binop -> Expr.binop = function
  | Ast.Add -> Expr.Add
  | Ast.Sub -> Expr.Sub
  | Ast.Mul -> Expr.Mul
  | Ast.Div_s -> Expr.Sdiv
  | Ast.Div_u -> Expr.Udiv
  | Ast.Rem_s -> Expr.Srem
  | Ast.Rem_u -> Expr.Urem
  | Ast.And -> Expr.And
  | Ast.Or -> Expr.Or
  | Ast.Xor -> Expr.Xor
  | Ast.Shl -> Expr.Shl
  | Ast.Shr_s -> Expr.Ashr
  | Ast.Shr_u -> Expr.Lshr
  | Ast.Rotl -> Expr.Rotl
  | Ast.Rotr -> Expr.Rotr

let translate_int_relop (op : Ast.int_relop) (a : Expr.t) (b : Expr.t) : Expr.t
    =
  match op with
  | Ast.Eq -> Expr.cmp Expr.Eq a b
  | Ast.Ne -> Expr.not_ (Expr.cmp Expr.Eq a b)
  | Ast.Lt_s -> Expr.cmp Expr.Slt a b
  | Ast.Lt_u -> Expr.cmp Expr.Ult a b
  | Ast.Gt_s -> Expr.cmp Expr.Slt b a
  | Ast.Gt_u -> Expr.cmp Expr.Ult b a
  | Ast.Le_s -> Expr.cmp Expr.Sle a b
  | Ast.Le_u -> Expr.cmp Expr.Ule a b
  | Ast.Ge_s -> Expr.cmp Expr.Sle b a
  | Ast.Ge_u -> Expr.cmp Expr.Ule b a

(* Force an expression to an exact width (stack discipline repair for
   imprecise fallbacks). *)
let coerce w e =
  let we = Expr.width_of e in
  if we = w then e else if we > w then Expr.extract (w - 1) 0 e else Expr.zext w e

(* Concrete float computation when every operand is constant; floats stay
   concrete through replay (the BV solver does not model FP). *)
let float_result width =
  Expr.var (Expr.fresh_var ~name:"float" width)

(* ------------------------------------------------------------------ *)
(* Per-record stepping                                                  *)
(* ------------------------------------------------------------------ *)

let concrete_of_value (v : Values.value) : Expr.t =
  Expr.const (width_of_numtype (Values.type_of v)) (Values.raw_bits v)

let import_name_of_callee (t : t) (instr : Ast.instr) : string option =
  match instr with
  | Ast.Call fi ->
      Option.map
        (fun (i : Ast.import) -> i.Ast.imp_name)
        (Ast.func_import_at t.meta.Trace.instrumented fi)
  | _ -> None

let callee_arity (t : t) (instr : Ast.instr) : int * int =
  let m = t.meta.Trace.instrumented in
  match instr with
  | Ast.Call fi ->
      let ft = Ast.func_type_at m fi in
      (List.length ft.Types.params, List.length ft.Types.results)
  | Ast.Call_indirect ti ->
      let ft = m.Ast.types.(ti) in
      (List.length ft.Types.params, List.length ft.Types.results)
  | _ -> (0, 0)

module B = Trace.Buffer

(* Step the instruction event [i].  Operand-consuming cases read the
   buffer's operand pool directly — the patterns mirror the historical
   [Values.value list] matches exactly ([op_count] = the list length,
   tags = the constructors). *)
let step_instr (t : t) (buf : B.t) (i : int) =
  let site = B.label buf i in
  let instr = (Trace.site_of t.meta site).Trace.site_instr in
  match instr with
  | Ast.Const v -> push t (concrete_of_value v)
  | Ast.Local_get n -> push t (local_get t n)
  | Ast.Local_set n -> local_set t n (pop t)
  | Ast.Local_tee n ->
      let e = pop t in
      local_set t n e;
      push t e
  | Ast.Global_get n -> push t (global_get t n)
  | Ast.Global_set n -> Hashtbl.replace t.globals n (pop t)
  | Ast.Drop -> ignore (pop t)
  | Ast.Select ->
      let c = pop t in
      let v2 = pop t in
      let v1 = pop t in
      push t (Expr.ite (nonzero c) v1 v2)
  | Ast.Int_binary (ty, op) ->
      let w = width_of_numtype ty in
      let b = coerce w (pop t) and a = coerce w (pop t) in
      push t (Expr.binop (translate_int_binop op) a b)
  | Ast.Int_compare (ty, op) ->
      let w = width_of_numtype ty in
      let b = coerce w (pop t) and a = coerce w (pop t) in
      push t (Expr.zext 32 (translate_int_relop op a b))
  | Ast.Int_unary (ty, op) ->
      let w = width_of_numtype ty in
      let a = coerce w (pop t) in
      let op' =
        match op with
        | Ast.Clz -> Expr.Clz
        | Ast.Ctz -> Expr.Ctz
        | Ast.Popcnt -> Expr.Popcnt
      in
      push t (Expr.unop op' a)
  | Ast.Eqz ty ->
      let w = width_of_numtype ty in
      let a = coerce w (pop t) in
      push t (Expr.zext 32 (Expr.cmp Expr.Eq a (Expr.const w 0L)))
  | Ast.Float_binary (ty, _) | Ast.Float_compare (ty, _) ->
      let _ = pop t and _ = pop t in
      let w = match instr with Ast.Float_compare _ -> 32 | _ -> width_of_numtype ty in
      push t (float_result w)
  | Ast.Float_unary (ty, _) ->
      let _ = pop t in
      push t (float_result (width_of_numtype ty))
  | Ast.Convert op -> (
      let a = pop t in
      let open Ast in
      match op with
      | I32_wrap_i64 -> push t (Expr.extract 31 0 (coerce 64 a))
      | I64_extend_i32_s -> push t (Expr.sext 64 (coerce 32 a))
      | I64_extend_i32_u -> push t (Expr.zext 64 (coerce 32 a))
      | I32_reinterpret_f32 | F32_reinterpret_i32 -> push t (coerce 32 a)
      | I64_reinterpret_f64 | F64_reinterpret_i64 -> push t (coerce 64 a)
      | I32_trunc_f32_s | I32_trunc_f32_u | I32_trunc_f64_s | I32_trunc_f64_u ->
          push t (float_result 32)
      | I64_trunc_f32_s | I64_trunc_f32_u | I64_trunc_f64_s | I64_trunc_f64_u ->
          push t (float_result 64)
      | F32_convert_i32_s | F32_convert_i32_u | F32_convert_i64_s
      | F32_convert_i64_u | F32_demote_f64 ->
          push t (float_result 32)
      | F64_convert_i32_s | F64_convert_i32_u | F64_convert_i64_s
      | F64_convert_i64_u | F64_promote_f32 ->
          push t (float_result 64))
  | Ast.Load lop ->
      ignore (pop t) (* symbolic address expression; addresses are concrete *);
      if B.op_count buf i = 1 then begin
        let ea = Int64.to_int (B.op_bits buf i 0) + Int32.to_int lop.Ast.l_offset in
        let bytes = Wasm.Memory.loadop_width lop in
        let raw = Memmodel.load t.mem ~addr:ea ~width_bytes:bytes in
        let target_w = width_of_numtype lop.Ast.l_ty in
        let extended =
          match lop.Ast.l_pack with
          | Some (_, Ast.SX) -> Expr.sext target_w raw
          | Some (_, Ast.ZX) | None -> Expr.zext target_w raw
        in
        push t extended
      end
      else begin
        t.imprecise <- t.imprecise + 1;
        push t (Expr.var (Expr.fresh_var ~name:"load?" (width_of_numtype lop.Ast.l_ty)))
      end
  | Ast.Store sop ->
      let value = pop t in
      ignore (pop t);
      if B.op_count buf i = 2 then begin
        let ea = Int64.to_int (B.op_bits buf i 0) + Int32.to_int sop.Ast.s_offset in
        let bytes = Wasm.Memory.storeop_width sop in
        let value = coerce (width_of_numtype sop.Ast.s_ty) value in
        let truncated =
          if bytes * 8 < Expr.width_of value then
            Expr.extract ((bytes * 8) - 1) 0 value
          else value
        in
        Memmodel.store t.mem ~addr:ea ~width_bytes:bytes truncated
      end
      else t.imprecise <- t.imprecise + 1
  | Ast.If _ | Ast.Br_if _ ->
      let cond = coerce 32 (pop t) in
      if B.op_count buf i = 1 && B.op_is_i32 buf i 0 then begin
        let c = B.op_i32 buf i 0 in
        let taken = c <> 0l in
        let as_taken = if taken then nonzero cond else Expr.not_ (nonzero cond) in
        record_cond t
          { cs_site = site; cs_cond = as_taken; cs_taken = taken; cs_kind = K_branch }
      end
  | Ast.Br_table _ ->
      let idx = coerce 32 (pop t) in
      if B.op_count buf i = 1 && B.op_is_i32 buf i 0 then
        record_cond t
          {
            cs_site = site;
            cs_cond =
              Expr.cmp Expr.Eq idx (Expr.const 32 (Int64.of_int32 (B.op_i32 buf i 0)));
            cs_taken = true;
            cs_kind = K_brtable;
          }
  | Ast.Memory_size -> push t (Expr.const 32 4096L)
  | Ast.Memory_grow ->
      ignore (pop t);
      push t (Expr.const 32 4096L)
  | Ast.Call_indirect _ ->
      (* The table-index operand; argument handling happens at call_pre. *)
      ignore (pop t)
  | Ast.Call _ | Ast.Block _ | Ast.Loop _ | Ast.Br _ | Ast.Return | Ast.Nop
  | Ast.Unreachable ->
      ()

(* Default host model: results become constants from the trace.  The
   assert API contributes a path constraint instead (paper §3.4.4). *)
let host_call (t : t) (name : string) (sym_args : Expr.t list)
    (concrete_results : Values.value list) =
  (match (name, sym_args) with
   | "eosio_assert", cond :: _ ->
       let c = coerce 32 cond in
       if Expr.has_any_var c then
         record_cond t
           { cs_site = -1; cs_cond = nonzero c; cs_taken = true; cs_kind = K_assert }
   | _ -> ());
  List.iter (fun v -> push t (concrete_of_value v)) concrete_results

let step (t : t) (buf : B.t) (i : int) =
  match B.kind buf i with
  | B.K_func_begin ->
      let locals = Hashtbl.create 8 in
      (match t.pending with
       | Some pc ->
           List.iteri (fun k e -> Hashtbl.replace locals k e) pc.pc_sym_args;
           t.pending <- None
       | None -> ());
      t.frames <- { stack = []; locals; fr_func = B.label buf i } :: t.frames
  | B.K_func_end -> (
      match t.frames with
      | [ _last ] -> t.finished <- true  (* target function returned *)
      | f :: rest ->
          t.returns <- f.stack :: t.returns;
          t.frames <- rest
      | [] -> t.finished <- true)
  | B.K_instr -> step_instr t buf i
  | B.K_call_pre ->
      let instr = (Trace.site_of t.meta (B.label buf i)).Trace.site_instr in
      let n_args, _ = callee_arity t instr in
      let sym_args =
        if n_args <= List.length (current_frame t).stack then pop_n t n_args
        else begin
          (* Fall back to the concrete argument values. *)
          t.imprecise <- t.imprecise + 1;
          (current_frame t).stack <- [];
          List.map concrete_of_value (B.ops buf i)
        end
      in
      t.pending <-
        Some
          { pc_sym_args = sym_args; pc_import = import_name_of_callee t instr }
  | B.K_call_post -> (
      let results = B.ops buf i in
      match t.pending with
      | Some pc ->
          (* No function_begin in between: host function. *)
          t.pending <- None;
          let name = match pc.pc_import with Some n -> n | None -> "?" in
          host_call t name pc.pc_sym_args results
      | None -> (
          (* Wasm callee: pull returns from μ_r. *)
          match t.returns with
          | rts :: rest ->
              t.returns <- rest;
              let needed = List.length results in
              let available = List.length rts in
              if available >= needed then
                List.iter (fun e -> push t e)
                  (List.rev (List.filteri (fun k _ -> k < needed) rts))
              else List.iter (fun v -> push t (concrete_of_value v)) results
          | [] -> List.iter (fun v -> push t (concrete_of_value v)) results))

(* The entry: the first call_pre whose callee is a candidate action
   function and which carries at least the action's arguments plus the
   receiver (obfuscation helpers and sibling actions with fewer
   arguments are skipped; the dispatcher may pad extra arguments, so
   at-least is the right test). *)
let find_entry ~arity ~target_funcs (buf : B.t) : int option =
  let n = B.length buf in
  let rec go i =
    if i + 1 >= n then None
    else if
      B.kind buf i = B.K_call_pre
      && B.kind buf (i + 1) = B.K_func_begin
      && List.mem (B.label buf (i + 1)) target_funcs
      && B.op_count buf i >= arity
    then Some i
    else go (i + 1)
  in
  go 0

(* Step the trace from the entry call_pre at [entry]: its arguments bind
   the inputs, and the function_begin after it opens the first frame.
   Reads only the region from [entry] on. *)
let replay_from ~(inputs : Convention.inputs) ~(meta : Trace.meta)
    (buf : B.t) (entry : int) : result =
  let mem = Memmodel.create () in
  let locals = Convention.bind inputs (B.ops buf entry) mem in
  let t =
    {
      meta;
      mem;
      globals = Hashtbl.create 8;
      frames = [ { stack = []; locals; fr_func = B.label buf (entry + 1) } ];
      returns = [];
      path = [];
      pending = None;
      finished = false;
      imprecise = 0;
    }
  in
  let i = ref (entry + 2) in
  while not (t.finished || !i >= B.length buf) do
    step t buf !i;
    incr i
  done;
  { r_path = List.rev t.path; r_inputs = inputs; r_imprecise = t.imprecise }

let arity_of (inputs : Convention.inputs) =
  List.length inputs.Convention.in_params + 1

(** Replay a full trace from the action function's entry.  [None] when
    no call matches. *)
let run ~(inputs : Convention.inputs) ~(meta : Trace.meta)
    ~(target_funcs : int list) (buf : B.t) : result option =
  Option.map
    (replay_from ~inputs ~meta buf)
    (find_entry ~arity:(arity_of inputs) ~target_funcs buf)

(* ------------------------------------------------------------------ *)
(* One replay per distinct region                                      *)
(* ------------------------------------------------------------------ *)

module Memo = struct
  (* A replay is a function of its inputs and of the region from its
     entry on (the session's meta and candidate functions are fixed), up
     to the fresh variables it mints.  An entry keeps where the region's
     copy lies in the memo's arena and the first replay's result, whose
     fresh variables a hit reuses; it is tied to the inputs record the
     result is stated over.  Its note is the caller's. *)
  type 'a entry = {
    me_inputs : Convention.inputs;
    me_off : int;  (** the region's copy in the arena; -1 when not held *)
    me_result : result;
    mutable me_note : 'a option;
  }

  type 'a t = {
    mutable arena : int array;  (** region copies, [fill] words used *)
    mutable fill : int;
    table : (int, 'a entry list) Hashtbl.t;  (** region hash -> entries *)
  }

  let result e = e.me_result
  let note e = e.me_note
  let set_note e x = e.me_note <- Some x

  let max_words = 32_768

  (* The arena of the domain's last released memo, which the next
     [create] on the domain takes: sessions on a domain run one after
     another, so once it has grown the arena puts nothing more in the
     major heap. *)
  let spare : int array ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [||])

  let create () =
    let cell = Domain.DLS.get spare in
    let arena = !cell in
    cell := [||];
    { arena; fill = 0; table = Hashtbl.create 64 }

  let release t =
    if Array.length t.arena > 0 then begin
      Domain.DLS.get spare := t.arena;
      t.arena <- [||]
    end;
    t.fill <- 0;
    Hashtbl.reset t.table

  let find t h inputs buf entry =
    match Hashtbl.find_opt t.table h with
    | None -> None
    | Some entries ->
        List.find_opt
          (fun e ->
            e.me_inputs == inputs && B.region_equal buf entry t.arena e.me_off)
          entries

  (* Append the region to the arena, growing it by doubling up to the
     cap; [false] when it would pass the cap. *)
  let store t buf entry =
    let need = t.fill + B.region_words buf entry in
    need <= max_words
    && begin
         if need > Array.length t.arena then begin
           let bigger =
             Array.make (min max_words (max need (2 * Array.length t.arena))) 0
           in
           Array.blit t.arena 0 bigger 0 t.fill;
           t.arena <- bigger
         end;
         B.region_blit buf entry t.arena t.fill;
         t.fill <- need;
         true
       end

  let unheld inputs r =
    { me_inputs = inputs; me_off = -1; me_result = r; me_note = None }

  let run t ~(inputs : Convention.inputs) ~(meta : Trace.meta)
      ~(target_funcs : int list) (buf : B.t) : 'a entry option =
    match find_entry ~arity:(arity_of inputs) ~target_funcs buf with
    | None -> None
    | Some entry when B.truncated buf ->
        Some (unheld inputs (replay_from ~inputs ~meta buf entry))
    | Some entry -> (
        let h = B.region_hash buf entry in
        match find t h inputs buf entry with
        | Some e -> Some e
        | None ->
            let r = replay_from ~inputs ~meta buf entry in
            let off = t.fill in
            if store t buf entry then begin
              let others =
                Option.value ~default:[] (Hashtbl.find_opt t.table h)
              in
              let e = { (unheld inputs r) with me_off = off } in
              Hashtbl.replace t.table h (e :: others);
              Some e
            end
            else Some (unheld inputs r))
end
