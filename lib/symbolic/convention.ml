(** Calling-convention input inference (challenge C3, §3.4.2, Table 2).

    Symbolic execution starts at the action function, skipping the
    dispatcher and deserialisation code.  The deserialised inputs live in
    the action function's Local section: scalar parameters are locals
    directly; [asset] and [string] parameters are i32 pointers whose
    pointees get symbolic bytes in the memory model.  Local 0 is the SDK's
    receiver/object handle.

    This module also locates candidate action functions, using the
    indirect-call-table pattern the EOSIO SDK emits, falling back to
    direct callees of [apply] with an action-like signature. *)

module Wasm = Wasai_wasm
module Expr = Wasai_smt.Expr
module Abi = Wasai_eosio.Abi

type sym_param =
  | SP_scalar of Expr.var  (** name / u64 / u32 *)
  | SP_asset of { amount : Expr.var; symbol : Expr.var }
  | SP_string of { len : Expr.var; content : Expr.var array }

type inputs = {
  in_def : Abi.action_def;
  in_params : (string * Abi.param_type * sym_param) list;
  in_vars : (int, unit) Hashtbl.t;  (** ids of every input variable *)
  in_sanity : Expr.t list;  (** payload-sanity constraints *)
}

(** Mint the symbolic inputs of one action, once per target session.
    Every payload of the action replays against the same variables, so a
    replay walking a path seen before finds its hash-consed terms again.
    Payload sanity: every asset amount must be positive and payable — a
    transfer with a non-positive or astronomical quantity is rejected by
    the token contract before it ever reaches the target. *)
let inputs ~(max_amount : int64) (def : Abi.action_def) : inputs =
  let vars = Hashtbl.create 64 in
  let mint name width =
    let v = Expr.fresh_var ~name width in
    Hashtbl.replace vars v.Expr.vid ();
    v
  in
  let params =
    List.map
      (fun (pname, ty) ->
        let sp =
          match (ty : Abi.param_type) with
          | Abi.T_name | Abi.T_u64 -> SP_scalar (mint pname 64)
          | Abi.T_u32 -> SP_scalar (mint pname 32)
          | Abi.T_asset ->
              let amount = mint (pname ^ ".amount") 64 in
              SP_asset { amount; symbol = mint (pname ^ ".symbol") 64 }
          | Abi.T_string ->
              let len = mint (pname ^ ".len") 8 in
              (* Content variables cover a bounded window; the engine
                 decides how many bytes the mutated seed actually
                 carries. *)
              SP_string
                {
                  len;
                  content =
                    Array.init 32 (fun k ->
                        mint (Printf.sprintf "%s[%d]" pname k) 8);
                }
        in
        (pname, ty, sp))
      def.Abi.act_params
  in
  let sanity =
    List.concat_map
      (fun (_, _, sp) ->
        match sp with
        | SP_asset { amount; _ } ->
            [
              Expr.cmp Expr.Slt (Expr.const 64 0L) (Expr.var amount);
              Expr.cmp Expr.Sle (Expr.var amount) (Expr.const 64 max_amount);
            ]
        | SP_scalar _ | SP_string _ -> [])
      params
  in
  { in_def = def; in_params = params; in_vars = vars; in_sanity = sanity }

(** Bind one invocation's entry state (Table 2).  [concrete_args] are
    the arguments of the call_pre into the action function.  Local
    0, the receiver handle, stays concrete; scalar parameters are their
    symbolic variables; [asset] and [string] pointer locals stay
    concrete (the memory model is concrete-address) and their pointees
    get the symbolic bytes in [mem].  Returns the Local section. *)
let bind (inp : inputs) (concrete_args : Wasm.Values.value list)
    (mem : Memmodel.t) : (int, Expr.t) Hashtbl.t =
  let args = Array.of_list concrete_args in
  let locals = Hashtbl.create 8 in
  (if Array.length args > 0 then
     Hashtbl.replace locals 0 (Expr.const 64 (Wasm.Values.raw_bits args.(0))));
  List.iteri
    (fun i (_, _, sp) ->
      let slot = i + 1 in
      let ptr () =
        if slot < Array.length args then
          Int64.to_int (Wasm.Values.raw_bits args.(slot))
        else 0
      in
      match sp with
      | SP_scalar v -> Hashtbl.replace locals slot (Expr.var v)
      | SP_asset { amount; symbol } ->
          let p = ptr () in
          Hashtbl.replace locals slot (Expr.const 32 (Int64.of_int p));
          Memmodel.store mem ~addr:p ~width_bytes:8 (Expr.var amount);
          Memmodel.store mem ~addr:(p + 8) ~width_bytes:8 (Expr.var symbol)
      | SP_string { len; content } ->
          let p = ptr () in
          Hashtbl.replace locals slot (Expr.const 32 (Int64.of_int p));
          Memmodel.store mem ~addr:p ~width_bytes:1 (Expr.var len);
          Array.iteri
            (fun k v ->
              Memmodel.store mem ~addr:(p + 1 + k) ~width_bytes:1 (Expr.var v))
            content)
    inp.in_params;
  locals

(* ------------------------------------------------------------------ *)
(* Locating action functions                                          *)
(* ------------------------------------------------------------------ *)

(* Does a function type look like an action function?  The SDK passes the
   i64 receiver handle first, then at least one action parameter, and
   action functions return nothing. *)
let action_like (ft : Wasm.Types.func_type) =
  match ft.Wasm.Types.params with
  | Wasm.Types.I64 :: _ :: _ -> ft.Wasm.Types.results = []
  | _ -> false

(** Candidate action-function indices of a module: entries of the
    indirect-call table (the SDK dispatcher pattern, §3.4.2) plus direct
    callees of the exported [apply] with an action-like signature. *)
let find_action_functions (m : Wasm.Ast.module_) : int list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (e : Wasm.Ast.elem_segment) ->
      List.iter
        (fun fi ->
          if action_like (Wasm.Ast.func_type_at m fi) then
            Hashtbl.replace tbl fi ())
        e.Wasm.Ast.e_init)
    m.Wasm.Ast.elems;
  (match Wasm.Ast.exported_func m "apply" with
   | None -> ()
   | Some apply_idx ->
       let n_imp = Wasm.Ast.num_func_imports m in
       if apply_idx >= n_imp then begin
         let f = m.Wasm.Ast.funcs.(apply_idx - n_imp) in
         Wasm.Ast.iter_instrs
           (fun i ->
             match i with
             | Wasm.Ast.Call fi
               when fi >= n_imp && action_like (Wasm.Ast.func_type_at m fi) ->
                 Hashtbl.replace tbl fi ()
             | _ -> ())
           f.Wasm.Ast.body
       end);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Model → seed concretisation                                        *)
(* ------------------------------------------------------------------ *)

let model_value (model : Wasai_smt.Solver.model) (v : Expr.var) ~(default : int64) =
  match Hashtbl.find_opt model v.Expr.vid with
  | Some x -> Expr.mask v.Expr.vwidth x
  | None -> default

(** Turn a solver model into concrete action arguments, falling back to
    the current seed's values for unconstrained parameters. *)
let concretize (inp : inputs) (model : Wasai_smt.Solver.model)
    ~(current : Abi.value list) : Abi.value list =
  let current = Array.of_list current in
  List.mapi
    (fun i (_, ty, sp) ->
      let cur () = if i < Array.length current then Some current.(i) else None in
      match (ty, sp) with
      | (Abi.T_name | Abi.T_u64), SP_scalar v ->
          let default =
            match cur () with
            | Some (Abi.V_name n) -> n
            | Some (Abi.V_u64 x) -> x
            | _ -> 0L
          in
          let value = model_value model v ~default in
          if ty = Abi.T_name then Abi.V_name value else Abi.V_u64 value
      | Abi.T_u32, SP_scalar v ->
          let default =
            match cur () with Some (Abi.V_u32 x) -> Int64.of_int32 x | _ -> 0L
          in
          Abi.V_u32 (Int64.to_int32 (model_value model v ~default))
      | Abi.T_asset, SP_asset { amount; symbol } ->
          let cur_asset =
            match cur () with
            | Some (Abi.V_asset a) -> a
            | _ -> Wasai_eosio.Asset.eos_of_units 0L
          in
          let amt = model_value model amount ~default:cur_asset.Wasai_eosio.Asset.amount in
          let sym = model_value model symbol ~default:cur_asset.Wasai_eosio.Asset.symbol in
          Abi.V_asset (Wasai_eosio.Asset.make amt sym)
      | Abi.T_string, SP_string { len; content } ->
          let cur_s = match cur () with Some (Abi.V_string s) -> s | _ -> "" in
          let target_len =
            Int64.to_int (model_value model len ~default:(Int64.of_int (String.length cur_s)))
          in
          (* If the model constrains a content byte to something *new*
             (different from the current seed's byte at that index), the
             string must grow to carry it.  Bytes merely pinned to their
             current values must not override a solved length. *)
          let needed =
            Array.to_list content
            |> List.mapi (fun k v ->
                   match Hashtbl.find_opt model v.Expr.vid with
                   | Some x ->
                       let x = Expr.mask 8 x in
                       let cur_byte =
                         if k < String.length cur_s then
                           Some (Int64.of_int (Char.code cur_s.[k]))
                         else None
                       in
                       if cur_byte = Some x || x = 0L then 0 else k + 1
                   | None -> 0)
            |> List.fold_left max 0
          in
          let target_len = max target_len needed in
          let target_len = max 0 (min 255 target_len) in
          Abi.V_string
            (String.init target_len (fun k ->
                 let default =
                   if k < String.length cur_s then
                     Int64.of_int (Char.code cur_s.[k])
                   else 97L (* 'a' *)
                 in
                 let b =
                   if k < Array.length content then
                     model_value model content.(k) ~default
                   else default
                 in
                 Char.chr (Int64.to_int (Int64.logand b 0xFFL))))
      | _ -> ( match cur () with Some v -> v | None -> Abi.V_u64 0L))
    inp.in_params
