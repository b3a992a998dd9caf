(** Pluggable execution backends.

    The engine runs a target's instrumented module through one of two
    tiers: the fuel-metered tree-walking interpreter ([Interp]) or the
    closure-compiled threaded-code tier ([Compiled], see
    {!Wasai_wasm.Compile}).  The contract between them is absolute:
    verdicts, coverage signatures, trace event tapes and journal lines
    must be byte-identical whichever tier executes the payloads.

    [Auto] (the default) is the compiled tier with its per-opcode
    interpreter fallback — any function the compiler cannot translate
    runs interpreted, sharing fuel, depth, memory and globals with the
    compiled code around it. *)

module Wasm = Wasai_wasm
module Wasabi = Wasai_wasabi
open Wasai_eosio

type choice = Interp | Compiled | Auto

let to_string = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Auto -> "auto"

let of_string = function
  | "interp" -> Ok Interp
  | "compiled" -> Ok Compiled
  | "auto" -> Ok Auto
  | s -> Error (Printf.sprintf "unknown backend %S (interp|compiled|auto)" s)

let all = [ Interp; Compiled; Auto ]

(** A backend prepares a module once and runs it per action context,
    replicating the interpreter path of [Chain.run_contract] exactly. *)
module type S = sig
  val name : string

  type prepared

  val prepare :
    ?collector:Wasabi.Trace.t -> Chain.t -> Wasm.Ast.module_ -> prepared
  (** One-time translation of a validated module that will run on the
      given chain.  [collector], when given, lets the backend bind the
      [wasai] instrumentation hooks to direct trace appends — only sound
      when every instance of this prepared module executes with the
      collector's target as receiver (the engine guarantees this by
      installing the backend only on the target account). *)

  val run : prepared -> Chain.context -> unit
  (** Execute one action: obtain an instance linked against the chain's
      extensions ({!Chain.resolver}), invoke [apply], and swallow
      [Eosio_exit]. *)
end

let apply_args (ctx : Chain.context) =
  [
    Wasm.Values.I64 ctx.Chain.ctx_receiver;
    Wasm.Values.I64 ctx.Chain.ctx_code;
    Wasm.Values.I64 ctx.Chain.ctx_action.Action.act_name;
  ]

module Interp_backend : S with type prepared = Wasm.Ast.module_ = struct
  let name = "interp"

  type prepared = Wasm.Ast.module_

  let prepare ?collector:_ _ m = m

  (* Mirrors the Wasm branch of [Chain.run_contract] exactly; the
     engine's interp backend leaves no executor installed, so in
     production this code path only serves direct [run] callers (the
     differential tests). *)
  let run m (ctx : Chain.context) =
    let chain = ctx.Chain.chain in
    let inst =
      Wasm.Interp.instantiate ~fuel:chain.Chain.fuel_per_action
        (Chain.resolver chain) m
    in
    try ignore (Wasm.Interp.invoke_export inst "apply" (apply_args ctx))
    with Chain.Eosio_exit -> ()
end

(* Bind the [wasai] hook imports to direct unboxed trace appends.  The
   resolver-bound hooks guard on [ctx_receiver = target]; the compiled
   fast path drops the guard, which is sound because the engine installs
   the compiled executor only on the target account — the receiver of
   every action that reaches it. *)
let fast_hooks (collector : Wasabi.Trace.t) :
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

module Compiled_backend : S with type prepared = Wasm.Compile.pool = struct
  let name = "compiled"

  type prepared = Wasm.Compile.pool

  let prepare ?collector chain m =
    Wasm.Compile.pool
      (match collector with
      | None -> Wasm.Compile.prepare m
      | Some c -> Wasm.Compile.prepare ~fast_host:(fast_hooks c) m)
      (Chain.resolver chain)

  (* The pooled session is reset to the exact fresh-instantiate state per
     action (globals and memory re-initialised, start re-run) and its
     host functions read the running action from the chain, so the
     observable behaviour matches the interpreter's instance-per-action
     path. *)
  let run pl (ctx : Chain.context) =
    Wasm.Compile.with_session pl ~fuel:ctx.Chain.chain.Chain.fuel_per_action
      (fun sess ->
        try ignore (Wasm.Compile.invoke_export sess "apply" (apply_args ctx))
        with Chain.Eosio_exit -> ())
end

let interp : (module S) = (module Interp_backend)
let compiled : (module S) = (module Compiled_backend)

(** Wire the chosen backend into the chain for [account]'s deployed
    module.  [Interp] leaves the chain's native interpreter path in
    place (a single implementation, zero divergence risk); [Compiled]
    and [Auto] install a compiled executor — both rely on the compiler's
    per-opcode fallback, so the distinction is informational (journal
    stamping) rather than behavioural. *)
let install choice ?collector chain account (m : Wasm.Ast.module_) : unit =
  match choice with
  | Interp -> Chain.set_executor chain account None
  | Compiled | Auto ->
      let prep = Compiled_backend.prepare ?collector chain m in
      Chain.set_executor chain account (Some (Compiled_backend.run prep))
