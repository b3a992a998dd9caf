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

(** The one-parameter-mutation pins ({!pins}) of the last argument
    vector a kept flip saw.  One slot per input variable, in query order:
    parameters in order, an asset's amount then its symbol, a string's
    content bytes from the last to the first and then its length. *)
type pins = {
  mutable pn_vector : Abi.value list;  (** the vector the slots hold *)
  pn_vars : Expr.var array;  (** slot -> variable *)
  pn_values : int64 array;  (** slot -> the vector's value, where pinned *)
  pn_exprs : Expr.t array;
      (** slot -> [var == value], or [Expr.true_] where the vector gives
          the variable no value *)
}

type inputs = {
  in_def : Abi.action_def;
  in_params : (string * Abi.param_type * sym_param) list;
  in_vars : (int, unit) Hashtbl.t;  (** ids of every input variable *)
  in_sanity : Expr.t list;  (** payload-sanity constraints *)
  in_pointees : Expr.t array array;
      (** per parameter, the byte terms of its pointee ([[||]] for a
          scalar) *)
  in_mentions : (int, bool) Hashtbl.t;
      (** node tag -> does the node mention an input variable *)
  in_pins : pins;
}

(* The little-endian byte terms of a variable, as a store of it makes. *)
let byte_terms (v : Expr.var) =
  Array.init (v.Expr.vwidth / 8) (fun i ->
      Expr.extract ((8 * i) + 7) (8 * i) (Expr.var v))

(** Mint the symbolic inputs of one action, once per target session.
    Every payload of the action replays against the same variables, so a
    replay walking a path seen before finds its hash-consed terms again,
    and everything built from the variables alone is built here once:
    the pointee byte terms {!bind} maps, the flip scan's "mentions an
    input" memo and the slots {!pins} fills per observed argument
    vector.  Payload sanity: every asset amount must be positive and
    payable — a transfer with a non-positive or astronomical quantity is
    rejected by the token contract before it ever reaches the target. *)
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
  (* Slot order of [pins]: the order the one-parameter-mutation pins
     take in a flip query. *)
  let pin_order = function
    | SP_scalar v -> [ v ]
    | SP_asset { amount; symbol } -> [ amount; symbol ]
    | SP_string { len; content } -> List.rev (len :: Array.to_list content)
  in
  (* An asset pointee is amount then symbol; a string pointee is the
     length byte then the content. *)
  let pointee = function
    | SP_scalar _ -> [||]
    | SP_asset { amount; symbol } ->
        Array.concat (List.map byte_terms [ amount; symbol ])
    | SP_string { len; content } ->
        Array.concat (List.map byte_terms (len :: Array.to_list content))
  in
  let pin_vars =
    Array.of_list (List.concat_map (fun (_, _, sp) -> pin_order sp) params)
  in
  {
    in_def = def;
    in_params = params;
    in_vars = vars;
    in_sanity = sanity;
    in_pointees =
      Array.of_list (List.map (fun (_, _, sp) -> pointee sp) params);
    in_mentions = Hashtbl.create 256;
    in_pins =
      {
        pn_vector = [];
        pn_vars = pin_vars;
        pn_values = Array.make (Array.length pin_vars) 0L;
        pn_exprs = Array.make (Array.length pin_vars) Expr.true_;
      };
  }

(** Bind one invocation's entry state (Table 2).  [concrete_args] are
    the arguments of the call_pre into the action function.  Local
    0, the receiver handle, stays concrete; scalar parameters are their
    symbolic variables; [asset] and [string] pointer locals stay
    concrete (the memory model is concrete-address) and their pointees
    are mapped in [mem] to the symbolic bytes [inputs] built.  Returns
    the Local section. *)
let bind (inp : inputs) (concrete_args : Wasm.Values.value list)
    (mem : Memmodel.t) : (int, Expr.t) Hashtbl.t =
  let args = Array.of_list concrete_args in
  let locals = Hashtbl.create 8 in
  (if Array.length args > 0 then
     Hashtbl.replace locals 0 (Expr.const 64 (Wasm.Values.raw_bits args.(0))));
  List.iteri
    (fun i (_, _, sp) ->
      let slot = i + 1 in
      match sp with
      | SP_scalar v -> Hashtbl.replace locals slot (Expr.var v)
      | SP_asset _ | SP_string _ ->
          let p =
            if slot < Array.length args then
              Int64.to_int (Wasm.Values.raw_bits args.(slot))
            else 0
          in
          Hashtbl.replace locals slot (Expr.const 32 (Int64.of_int p));
          Memmodel.map mem ~addr:p inp.in_pointees.(i))
    inp.in_params;
  locals

(** The pins of an argument vector, slot by slot.  The slots keep the
    last vector's pins while consecutive payloads observe the same
    vector; a new vector rebuilds only the slots whose value changed, so
    every slot holds the node a fresh build would intern. *)
let pins (inp : inputs) ~(current : Abi.value list) : pins =
  let p = inp.in_pins in
  if not (current == p.pn_vector || current = p.pn_vector) then begin
    let slot = ref 0 in
    let next () =
      let i = !slot in
      incr slot;
      i
    in
    let pin x =
      let i = next () in
      if p.pn_exprs.(i) == Expr.true_ || not (Int64.equal p.pn_values.(i) x)
      then begin
        let v = p.pn_vars.(i) in
        p.pn_exprs.(i) <-
          Expr.cmp Expr.Eq (Expr.var v) (Expr.const v.Expr.vwidth x);
        p.pn_values.(i) <- x
      end
    in
    let unpinned n =
      for _ = 1 to n do
        p.pn_exprs.(next ()) <- Expr.true_
      done
    in
    (* The walk follows [pin_order]. *)
    let args = Array.of_list current in
    List.iteri
      (fun i (_, _, sp) ->
        let cur = if i < Array.length args then Some args.(i) else None in
        match (sp, cur) with
        | SP_scalar _, Some (Abi.V_name x | Abi.V_u64 x) -> pin x
        | SP_scalar _, Some (Abi.V_u32 x) -> pin (Int64.of_int32 x)
        | SP_asset _, Some (Abi.V_asset a) ->
            pin a.Wasai_eosio.Asset.amount;
            pin a.Wasai_eosio.Asset.symbol
        | SP_string { content; _ }, Some (Abi.V_string s) ->
            for k = Array.length content - 1 downto 0 do
              if k < String.length s then pin (Int64.of_int (Char.code s.[k]))
              else unpinned 1
            done;
            pin (Int64.of_int (String.length s))
        | SP_scalar _, _ -> unpinned 1
        | SP_asset _, _ -> unpinned 2
        | SP_string { content; _ }, _ -> unpinned (Array.length content + 1))
      inp.in_params;
    p.pn_vector <- current
  end;
  p

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
          let needed = ref 0 in
          Array.iteri
            (fun k v ->
              match Hashtbl.find_opt model v.Expr.vid with
              | Some x ->
                  let x = Expr.mask 8 x in
                  let current_byte =
                    k < String.length cur_s
                    && Int64.equal x (Int64.of_int (Char.code cur_s.[k]))
                  in
                  (* k ascends, so the last such k is the largest. *)
                  if not (current_byte || x = 0L) then needed := k + 1
              | None -> ())
            content;
          let needed = !needed in
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
