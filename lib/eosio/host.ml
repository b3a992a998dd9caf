(** The EOSVM "library API": host functions exposed to Wasm contracts under
    the [env] import namespace (§2.2 of the paper).

    Covered groups: action data access, permission APIs ([require_auth],
    [has_auth], ...), notifications, assertion, inline/deferred actions,
    blockchain-state APIs ([tapos_*]) and the [db_*_i64] intrinsics. *)

module Wasm = Wasai_wasm
module Interp = Wasm.Interp
module Values = Wasm.Values
module T = Wasm.Types

let ft = T.func_type

let mem (inst : Interp.instance) =
  match inst.Interp.memory with
  | Some m -> m
  | None -> Values.trap "host call without linear memory"

let read_c_string inst ptr =
  let m = mem inst in
  let buf = Buffer.create 32 in
  let rec go p n =
    if n > 256 then ()
    else
      let b = Wasm.Memory.load_byte m p in
      if b <> 0 then begin
        Buffer.add_char buf (Char.chr b);
        go (p + 1) (n + 1)
      end
  in
  go ptr 0;
  Buffer.contents buf

let i64_arg args n = Values.as_i64 (List.nth args n)
let i32_arg args n = Int32.to_int (Values.as_i32 (List.nth args n))

(** All env host functions of a chain.  They are built once and linked
    into every instance; each reads the running action's context when
    called. *)
let env_functions (chain : Chain.t) : Interp.host_func list =
  let hf name params results fn =
    {
      Interp.hf_name = name;
      hf_type = ft params ~results;
      hf_fn = (fun inst args -> fn (Chain.current chain) inst args);
    }
  in
  let auth_ok (ctx : Chain.context) n =
    List.exists (Name.equal n) ctx.Chain.ctx_action.Action.act_auth
  in
  [
    (* ---- action data ---------------------------------------------- *)
    hf "read_action_data" [ T.I32; T.I32 ] [ T.I32 ] (fun ctx inst args ->
        let ptr = i32_arg args 0 and len = i32_arg args 1 in
        let data = ctx.Chain.ctx_action.Action.act_data in
        let n = min len (String.length data) in
        Wasm.Memory.store_string (mem inst) ptr (String.sub data 0 n);
        [ Values.I32 (Int32.of_int n) ]);
    hf "action_data_size" [] [ T.I32 ] (fun ctx _ _ ->
        [
          Values.I32
            (Int32.of_int (String.length ctx.Chain.ctx_action.Action.act_data));
        ]);
    (* ---- permission APIs ------------------------------------------ *)
    hf "require_auth" [ T.I64 ] [] (fun ctx _ args ->
        let n = i64_arg args 0 in
        if not (auth_ok ctx n) then
          raise
            (Chain.Assert_failed
               (Printf.sprintf "missing authority of %s" (Name.to_string n)));
        []);
    hf "require_auth2" [ T.I64; T.I64 ] [] (fun ctx _ args ->
        let n = i64_arg args 0 in
        if not (auth_ok ctx n) then
          raise
            (Chain.Assert_failed
               (Printf.sprintf "missing authority of %s" (Name.to_string n)));
        []);
    hf "has_auth" [ T.I64 ] [ T.I32 ] (fun ctx _ args ->
        [ Values.bool_value (auth_ok ctx (i64_arg args 0)) ]);
    hf "require_recipient" [ T.I64 ] [] (fun ctx _ args ->
        Queue.add (i64_arg args 0) ctx.Chain.ctx_notify;
        []);
    hf "is_account" [ T.I64 ] [ T.I32 ] (fun _ _ args ->
        [ Values.bool_value (Chain.is_account chain (i64_arg args 0)) ]);
    hf "current_receiver" [] [ T.I64 ] (fun ctx _ _ ->
        [ Values.I64 ctx.Chain.ctx_receiver ]);
    (* ---- assertion / exit ----------------------------------------- *)
    hf "eosio_assert" [ T.I32; T.I32 ] [] (fun _ inst args ->
        if i32_arg args 0 = 0 then
          raise (Chain.Assert_failed (read_c_string inst (i32_arg args 1)));
        []);
    hf "eosio_exit" [ T.I32 ] [] (fun _ _ _ -> raise Chain.Eosio_exit);
    (* ---- inline / deferred actions -------------------------------- *)
    hf "send_inline" [ T.I32; T.I32 ] [] (fun ctx inst args ->
        let ptr = i32_arg args 0 and len = i32_arg args 1 in
        let raw = Wasm.Memory.load_string (mem inst) ptr len in
        let act =
          Action.deserialize_inline ~auth:[ ctx.Chain.ctx_receiver ] raw
        in
        Queue.add act ctx.Chain.ctx_inline;
        []);
    hf "send_deferred" [ T.I64; T.I64; T.I32; T.I32; T.I32 ] []
      (fun ctx inst args ->
        let ptr = i32_arg args 2 and len = i32_arg args 3 in
        let raw = Wasm.Memory.load_string (mem inst) ptr len in
        let act =
          Action.deserialize_inline ~auth:[ ctx.Chain.ctx_receiver ] raw
        in
        chain.Chain.deferred <-
          { Action.tx_actions = [ act ] } :: chain.Chain.deferred;
        []);
    (* ---- blockchain state ----------------------------------------- *)
    hf "tapos_block_num" [] [ T.I32 ] (fun _ _ _ ->
        [ Values.I32 chain.Chain.block_num ]);
    hf "tapos_block_prefix" [] [ T.I32 ] (fun _ _ _ ->
        [ Values.I32 chain.Chain.block_prefix ]);
    hf "current_time" [] [ T.I64 ] (fun _ _ _ ->
        [ Values.I64 chain.Chain.head_time_us ]);
    (* ---- database ------------------------------------------------- *)
    hf "db_store_i64" [ T.I64; T.I64; T.I64; T.I64; T.I32; T.I32 ] [ T.I32 ]
      (fun ctx inst args ->
        let scope = i64_arg args 0
        and tbl = i64_arg args 1
        and id = i64_arg args 3
        and ptr = i32_arg args 4
        and len = i32_arg args 5 in
        let data = Wasm.Memory.load_string (mem inst) ptr len in
        let it =
          Database.store chain.Chain.db ~code:ctx.Chain.ctx_receiver ~scope ~tbl
            ~id ~data
        in
        [ Values.I32 (Int32.of_int it) ]);
    hf "db_find_i64" [ T.I64; T.I64; T.I64; T.I64 ] [ T.I32 ] (fun _ _ args ->
        let code = i64_arg args 0
        and scope = i64_arg args 1
        and tbl = i64_arg args 2
        and id = i64_arg args 3 in
        [ Values.I32 (Int32.of_int (Database.find chain.Chain.db ~code ~scope ~tbl ~id)) ]);
    hf "db_lowerbound_i64" [ T.I64; T.I64; T.I64; T.I64 ] [ T.I32 ]
      (fun _ _ args ->
        let code = i64_arg args 0
        and scope = i64_arg args 1
        and tbl = i64_arg args 2
        and id = i64_arg args 3 in
        [
          Values.I32
            (Int32.of_int (Database.lowerbound chain.Chain.db ~code ~scope ~tbl ~id));
        ]);
    hf "db_end_i64" [ T.I64; T.I64; T.I64 ] [ T.I32 ] (fun _ _ _ ->
        [ Values.I32 (-1l) ]);
    hf "db_get_i64" [ T.I32; T.I32; T.I32 ] [ T.I32 ] (fun _ inst args ->
        let it = i32_arg args 0 and ptr = i32_arg args 1 and len = i32_arg args 2 in
        let data = Database.get chain.Chain.db it in
        if len > 0 then begin
          let n = min len (String.length data) in
          Wasm.Memory.store_string (mem inst) ptr (String.sub data 0 n)
        end;
        [ Values.I32 (Int32.of_int (String.length data)) ]);
    hf "db_update_i64" [ T.I32; T.I64; T.I32; T.I32 ] [] (fun _ inst args ->
        let it = i32_arg args 0 and ptr = i32_arg args 2 and len = i32_arg args 3 in
        let data = Wasm.Memory.load_string (mem inst) ptr len in
        Database.update chain.Chain.db it ~data;
        []);
    hf "db_remove_i64" [ T.I32 ] [] (fun _ _ args ->
        Database.remove chain.Chain.db (i32_arg args 0);
        []);
    hf "db_next_i64" [ T.I32; T.I32 ] [ T.I32 ] (fun _ inst args ->
        let it = i32_arg args 0 and pptr = i32_arg args 1 in
        let next_it, primary = Database.next chain.Chain.db it in
        if next_it >= 0 then
          Wasm.Memory.store_bytes_le (mem inst) pptr 8 primary;
        [ Values.I32 (Int32.of_int next_it) ]);
    (* ---- secondary indexes (db_idx64) ------------------------------ *)
    hf "db_idx64_store" [ T.I64; T.I64; T.I64; T.I64; T.I32 ] [ T.I32 ]
      (fun ctx inst args ->
        let scope = i64_arg args 0
        and tbl = i64_arg args 1
        and id = i64_arg args 3
        and ptr = i32_arg args 4 in
        let secondary = Wasm.Memory.load_bytes_le (mem inst) ptr 8 in
        [
          Values.I32
            (Int32.of_int
               (Database.idx64_store chain.Chain.db ~code:ctx.Chain.ctx_receiver
                  ~scope ~tbl ~primary:id ~secondary));
        ]);
    hf "db_idx64_update" [ T.I32; T.I64; T.I32 ] [] (fun _ inst args ->
        (* Nodeos updates through the iterator; we look the row up from
           it so the signature matches. *)
        let it = i32_arg args 0 and ptr = i32_arg args 2 in
        let target = Database.iterator_target chain.Chain.db it in
        let secondary = Wasm.Memory.load_bytes_le (mem inst) ptr 8 in
        Database.idx64_update chain.Chain.db
          ~code:target.Database.it_key.Database.tk_code
          ~scope:target.Database.it_key.Database.tk_scope
          ~tbl:
            (Int64.logxor target.Database.it_key.Database.tk_table Int64.min_int)
          ~primary:target.Database.it_id ~secondary;
        []);
    hf "db_idx64_find_secondary" [ T.I64; T.I64; T.I64; T.I32; T.I32 ]
      [ T.I32 ] (fun _ inst args ->
        let code = i64_arg args 0
        and scope = i64_arg args 1
        and tbl = i64_arg args 2
        and ptr = i32_arg args 3
        and pptr = i32_arg args 4 in
        let secondary = Wasm.Memory.load_bytes_le (mem inst) ptr 8 in
        let it, primary =
          Database.idx64_find_secondary chain.Chain.db ~code ~scope ~tbl
            ~secondary
        in
        if it >= 0 then Wasm.Memory.store_bytes_le (mem inst) pptr 8 primary;
        [ Values.I32 (Int32.of_int it) ]);
    hf "db_idx64_lowerbound" [ T.I64; T.I64; T.I64; T.I32; T.I32 ] [ T.I32 ]
      (fun _ inst args ->
        let code = i64_arg args 0
        and scope = i64_arg args 1
        and tbl = i64_arg args 2
        and ptr = i32_arg args 3
        and pptr = i32_arg args 4 in
        let secondary = Wasm.Memory.load_bytes_le (mem inst) ptr 8 in
        let it, primary =
          Database.idx64_lowerbound chain.Chain.db ~code ~scope ~tbl ~secondary
        in
        if it >= 0 then Wasm.Memory.store_bytes_le (mem inst) pptr 8 primary;
        [ Values.I32 (Int32.of_int it) ]);
    (* ---- console --------------------------------------------------- *)
    hf "prints" [ T.I32 ] [] (fun _ inst args ->
        Buffer.add_string chain.Chain.console (read_c_string inst (i32_arg args 0));
        []);
    hf "prints_l" [ T.I32; T.I32 ] [] (fun _ inst args ->
        Buffer.add_string chain.Chain.console
          (Wasm.Memory.load_string (mem inst) (i32_arg args 0) (i32_arg args 1));
        []);
    hf "printi" [ T.I64 ] [] (fun _ _ args ->
        Buffer.add_string chain.Chain.console (Int64.to_string (i64_arg args 0));
        []);
    hf "printn" [ T.I64 ] [] (fun _ _ args ->
        Buffer.add_string chain.Chain.console (Name.to_string (i64_arg args 0));
        []);
    (* ---- libc shims the SDK imports -------------------------------- *)
    hf "memcpy" [ T.I32; T.I32; T.I32 ] [ T.I32 ] (fun _ inst args ->
        let dst = i32_arg args 0 and src = i32_arg args 1 and n = i32_arg args 2 in
        let m = mem inst in
        Wasm.Memory.store_string m dst (Wasm.Memory.load_string m src n);
        [ Values.I32 (Int32.of_int dst) ]);
    hf "memset" [ T.I32; T.I32; T.I32 ] [ T.I32 ] (fun _ inst args ->
        let dst = i32_arg args 0 and c = i32_arg args 1 and n = i32_arg args 2 in
        let m = mem inst in
        for i = 0 to n - 1 do
          Wasm.Memory.store_byte m (dst + i) c
        done;
        [ Values.I32 (Int32.of_int dst) ]);
  ]

(** Register the env namespace on [chain]: its host functions are built
    here, once, and every instance links the same records. *)
let install chain =
  let env = Hashtbl.create 64 in
  List.iter
    (fun (h : Interp.host_func) ->
      Hashtbl.replace env h.Interp.hf_name (Interp.Extern_func h))
    (env_functions chain);
  Chain.register_extension chain (fun _ mod_name item ->
      if mod_name <> "env" then None else Hashtbl.find_opt env item)

(** A chain with the env host API pre-installed — the common entry point. *)
let create_chain ?fuel_per_action () =
  let chain = Chain.create ?fuel_per_action () in
  install chain;
  chain
