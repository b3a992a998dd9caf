(** Execution backends: the interpreter or the closure-compiled tier
    ({!Wasai_wasm.Compile}), byte-identical in every observable (see
    the interface). *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi
open Wasai_eosio

type choice = Interp | Auto

let to_string = function Interp -> "interp" | Auto -> "auto"

let of_string = function
  | "interp" -> Ok Interp
  | "auto" -> Ok Auto
  | s -> Error (Printf.sprintf "unknown backend %S (interp|auto)" s)

let apply_args (ctx : Chain.context) =
  [
    Wasm.Values.I64 ctx.Chain.ctx_receiver;
    Wasm.Values.I64 ctx.Chain.ctx_code;
    Wasm.Values.I64 ctx.Chain.ctx_action.Action.act_name;
  ]

(* Bind the [wasai] hook imports to direct unboxed trace appends.  The
   resolver-bound hooks guard on [ctx_receiver = target]; the compiled
   fast path drops the guard, which is sound because the engine installs
   the compiled executor only on the target account — the receiver of
   every action that reaches it. *)
let fast_hooks (collector : Wasabi.Trace.Buffer.t) :
    string -> string -> Wasm.Compile.fast_host option =
  let module B = Wasabi.Trace.Buffer in
  fun mod_name item ->
    if mod_name <> "wasai" then None
    else
      match item with
      | "site" ->
          Some
            (Wasm.Compile.Fast_i32
               (fun x -> B.begin_instr collector (Int32.to_int x)))
      | "op_i32" ->
          Some (Wasm.Compile.Fast_i32 (fun x -> B.operand_i32 collector x))
      | "op_i64" ->
          Some (Wasm.Compile.Fast_i64 (fun x -> B.operand_i64 collector x))
      | "op_f32" ->
          Some (Wasm.Compile.Fast_f32 (fun x -> B.operand_f32 collector x))
      | "op_f64" ->
          Some (Wasm.Compile.Fast_f64 (fun x -> B.operand_f64 collector x))
      | "call_pre" ->
          Some
            (Wasm.Compile.Fast_i32
               (fun x -> B.begin_call_pre collector (Int32.to_int x)))
      | "call_post" ->
          Some
            (Wasm.Compile.Fast_i32
               (fun x -> B.begin_call_post collector (Int32.to_int x)))
      | "func_begin" ->
          Some
            (Wasm.Compile.Fast_i32
               (fun x -> B.func_begin collector (Int32.to_int x)))
      | "func_end" ->
          Some
            (Wasm.Compile.Fast_i32
               (fun x -> B.func_end collector (Int32.to_int x)))
      | _ -> None

(* [Interp] keeps the chain's native interpreter path (zero divergence
   risk).  [Auto] runs each action on the pooled session, which is reset
   to the exact fresh-instantiate state per action (globals and memory
   re-initialised, start re-run) and whose host functions read the
   running action from the chain, so the observable behaviour matches
   the interpreter's instance-per-action path.  The returned function
   releases the pooled linear memory to the domain's spare. *)
let install choice ?collector chain account (m : Wasm.Ast.module_) :
    unit -> unit =
  match choice with
  | Interp ->
      Chain.set_executor chain account None;
      ignore
  | Auto ->
      let pool =
        Wasm.Compile.pool
          (match collector with
          | None -> Wasm.Compile.prepare m
          | Some c -> Wasm.Compile.prepare ~fast_host:(fast_hooks c) m)
          (Chain.resolver chain)
      in
      let run (ctx : Chain.context) =
        Wasm.Compile.with_session pool
          ~fuel:ctx.Chain.chain.Chain.fuel_per_action (fun sess ->
            try
              ignore (Wasm.Compile.invoke_export sess "apply" (apply_args ctx))
            with Chain.Eosio_exit -> ())
      in
      Chain.set_executor chain account (Some run);
      fun () -> Wasm.Compile.release pool
