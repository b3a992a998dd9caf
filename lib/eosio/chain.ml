(** Local blockchain: accounts, contract deployment, and the transaction
    execution machinery (notifications, inline actions with whole-
    transaction rollback, deferred transactions).

    This replaces Nodeos in the paper's setup.  Consensus, networking and
    signatures are irrelevant to every experiment and are not modelled;
    authorisation is checked against the action's declared actors. *)

module Wasm = Wasai_wasm
module Interp = Wasm.Interp

exception Assert_failed of string
(** [eosio_assert] failure: aborts and rolls back the transaction. *)

exception Eosio_exit
(** [eosio_exit]: terminates the current contract cleanly. *)

type contract_impl =
  | Wasm_contract of Wasm.Ast.module_
  | Native_contract of (context -> unit)

and account = {
  acc_name : Name.t;
  mutable acc_contract : contract_impl option;
  mutable acc_abi : Abi.t option;
  mutable acc_executor : (context -> unit) option;
      (** alternative execution tier for a deployed Wasm contract (e.g. a
          closure-compiled module); must be observationally identical to
          the interpreter path.  Cleared whenever the code changes. *)
}

and t = {
  db : Database.t;
  accounts : (Name.t, account) Hashtbl.t;
  mutable block_num : int32;
  mutable block_prefix : int32;
  mutable head_time_us : int64;
  mutable fuel_per_action : int;
  mutable deferred : Action.transaction list;
  mutable extensions : extension list;
      (** extra import namespaces (instrumentation hooks) *)
  mutable console : Buffer.t;
  mutable running : context option;
      (** the action whose contract code is executing, read by host
          functions when they are called *)
}

and extension = t -> string -> string -> Interp.extern option

(** Per-action execution context handed to host functions and native
    contracts. *)
and context = {
  chain : t;
  ctx_receiver : Name.t;  (** the notified/executing account *)
  ctx_code : Name.t;  (** the account the action was sent to *)
  ctx_action : Action.t;
  ctx_notify : Name.t Queue.t;  (** recipients queued by require_recipient *)
  ctx_inline : Action.t Queue.t;  (** actions queued by send_inline *)
}

type tx_result = {
  tx_ok : bool;
  tx_error : string option;
  tx_actions_run : (Name.t * Name.t) list;
      (** (receiver, action) pairs that completed, in order *)
}

let create ?(fuel_per_action = 5_000_000) () =
  {
    db = Database.create ();
    accounts = Hashtbl.create 32;
    block_num = 1l;
    block_prefix = 0x5eed_f00dl;
    head_time_us = 1_600_000_000_000_000L;
    fuel_per_action;
    deferred = [];
    extensions = [];
    console = Buffer.create 256;
    running = None;
  }

let register_extension chain ext = chain.extensions <- ext :: chain.extensions

let resolver chain : Interp.resolver =
 fun mod_name item ->
  List.find_map (fun ext -> ext chain mod_name item) chain.extensions

let current chain =
  match chain.running with
  | Some ctx -> ctx
  | None -> invalid_arg "host function called with no action running"

let create_account chain name =
  match Hashtbl.find_opt chain.accounts name with
  | Some a -> a
  | None ->
      let a =
        {
          acc_name = name;
          acc_contract = None;
          acc_abi = None;
          acc_executor = None;
        }
      in
      Hashtbl.replace chain.accounts name a;
      a

let account chain name = Hashtbl.find_opt chain.accounts name
let is_account chain name = Hashtbl.mem chain.accounts name

(* Nodeos' [wasm_constraints]: at most 33 MiB of initial linear memory
   ([Memory.max_pages]) and 1,024 table elements. *)
let max_table_elements = 1024

(** Deploy a Wasm contract (validated first, as Nodeos does on setcode). *)
let set_code chain name (m : Wasm.Ast.module_) (abi : Abi.t) =
  Wasm.Validate.check_module m;
  let refuse fmt =
    Printf.ksprintf (fun s -> raise (Wasm.Validate.Invalid s)) fmt
  in
  List.iter
    (fun (mt : Wasm.Types.memory_type) ->
      if mt.mem_limits.lim_min > Wasm.Memory.max_pages then
        refuse "initial memory of %d pages is over Nodeos' %d-page limit"
          mt.mem_limits.lim_min Wasm.Memory.max_pages)
    m.memories;
  List.iter
    (fun (tt : Wasm.Types.table_type) ->
      if tt.tbl_limits.lim_min > max_table_elements then
        refuse "table of %d elements is over Nodeos' %d-element limit"
          tt.tbl_limits.lim_min max_table_elements)
    m.tables;
  let a = create_account chain name in
  a.acc_contract <- Some (Wasm_contract m);
  a.acc_abi <- Some abi;
  a.acc_executor <- None

let set_native chain name (f : context -> unit) (abi : Abi.t) =
  let a = create_account chain name in
  a.acc_contract <- Some (Native_contract f);
  a.acc_abi <- Some abi;
  a.acc_executor <- None

(** Install (or clear) an alternative execution tier for the account's
    deployed Wasm contract.  The executor receives the action context and
    must behave exactly like the interpreter path in [run_contract];
    [set_code]/[clear_code] reset it so it can never outlive the module
    it was built from. *)
let set_executor chain name (exec : (context -> unit) option) =
  match account chain name with
  | Some a -> a.acc_executor <- exec
  | None -> ()

(** Remove the contract, leaving the account (EOSIO's "abandoned" state:
    the code is replaced by an empty file). *)
let clear_code chain name =
  match account chain name with
  | Some a ->
      a.acc_contract <- None;
      a.acc_abi <- None;
      a.acc_executor <- None
  | None -> ()

let console_output chain = Buffer.contents chain.console

(* ------------------------------------------------------------------ *)
(* Action execution                                                    *)
(* ------------------------------------------------------------------ *)

let dispatch (ctx : context) =
  match account ctx.chain ctx.ctx_receiver with
  | None | Some { acc_contract = None; _ } ->
      (* No code: a plain account receiving an action or notification is a
         no-op (tokens still move because the token contract's own DB was
         already updated). *)
      ()
  | Some { acc_contract = Some (Native_contract f); _ } -> f ctx
  | Some { acc_contract = Some (Wasm_contract _); acc_executor = Some exec; _ }
    ->
      exec ctx
  | Some { acc_contract = Some (Wasm_contract m); _ } ->
      (* The env host API and the instrumentation hooks are both installed
         as extensions; see [Host.install]. *)
      let inst =
        Interp.instantiate ~fuel:ctx.chain.fuel_per_action (resolver ctx.chain)
          m
      in
      (try
         ignore
           (Interp.invoke_export inst "apply"
              [
                Wasm.Values.I64 ctx.ctx_receiver;
                Wasm.Values.I64 ctx.ctx_code;
                Wasm.Values.I64 ctx.ctx_action.Action.act_name;
              ])
       with Eosio_exit -> ())

(* Host functions are linked once per instance and read the executing
   action from [running], so it must name [ctx] for exactly the extent of
   the receiver's code, exceptions included. *)
let run_contract (ctx : context) =
  let chain = ctx.chain in
  let outer = chain.running in
  chain.running <- Some ctx;
  match dispatch ctx with
  | () -> chain.running <- outer
  | exception e ->
      chain.running <- outer;
      raise e

(** Execute one action: the receiver's contract first, then every queued
    notification (with [code] preserved, which is what makes Fake Notif
    possible).  Returns inline actions queued anywhere in the chain of
    contexts, plus the (receiver, action) pairs that ran. *)
let execute_action chain (act : Action.t) :
    Action.t list * (Name.t * Name.t) list =
  let inline = ref [] in
  let ran = ref [] in
  let notified = Hashtbl.create 8 in
  let queue = Queue.create () in
  Queue.add act.Action.act_account queue;
  Hashtbl.replace notified act.Action.act_account ();
  while not (Queue.is_empty queue) do
    let receiver = Queue.pop queue in
    let ctx =
      {
        chain;
        ctx_receiver = receiver;
        ctx_code = act.Action.act_account;
        ctx_action = act;
        ctx_notify = Queue.create ();
        ctx_inline = Queue.create ();
      }
    in
    run_contract ctx;
    ran := (receiver, act.Action.act_name) :: !ran;
    Queue.iter
      (fun n ->
        if not (Hashtbl.mem notified n) then begin
          Hashtbl.replace notified n ();
          Queue.add n queue
        end)
      ctx.ctx_notify;
    Queue.iter (fun a -> inline := a :: !inline) ctx.ctx_inline
  done;
  (List.rev !inline, List.rev !ran)

let advance_block chain =
  chain.block_num <- Int32.add chain.block_num 1l;
  chain.block_prefix <-
    Int64.to_int32
      (Wasai_support.Rand.next_u64
         (Wasai_support.Rand.create (Int64.of_int32 chain.block_num)));
  chain.head_time_us <- Int64.add chain.head_time_us 500_000L

(** Execute a transaction atomically: any assert/trap/exhaustion rolls the
    whole database back.  Deferred transactions spawned by the contract are
    queued on the chain, not executed here. *)
let push_transaction chain (tx : Action.transaction) : tx_result =
  advance_block chain;
  let snap = Database.snapshot chain.db in
  let deferred_snap = chain.deferred in
  let ran = ref [] in
  (* Inline actions expand depth-first, as in Nodeos: an action's inline
     children run before its siblings. *)
  let queue = ref tx.Action.tx_actions in
  match
    while !queue <> [] do
      match !queue with
      | [] -> ()
      | act :: rest ->
          queue := rest;
          let inline, executed = execute_action chain act in
          ran := !ran @ executed;
          queue := inline @ !queue
    done
  with
  | () -> { tx_ok = true; tx_error = None; tx_actions_run = !ran }
  | exception e ->
      Database.restore chain.db snap;
      (* Deferred transactions scheduled inside the failed transaction
         are rolled back with it. *)
      chain.deferred <- deferred_snap;
      let msg =
        match e with
        | Assert_failed m -> Printf.sprintf "eosio_assert: %s" m
        | Wasm.Values.Trap m -> Printf.sprintf "trap: %s" m
        | Interp.Exhaustion m -> Printf.sprintf "exhaustion: %s" m
        | Abi.Deserialize_error m -> Printf.sprintf "deserialize: %s" m
        | e -> raise e
      in
      { tx_ok = false; tx_error = Some msg; tx_actions_run = !ran }

(** Execute one action as its own transaction. *)
let push_action chain (act : Action.t) : tx_result =
  push_transaction chain { Action.tx_actions = [ act ] }

(** Run all queued deferred transactions; each is independent (a failed
    deferred transaction does not affect the others — that independence is
    precisely the Rollback patch in the paper's Listing 4). *)
let run_deferred chain : tx_result list =
  let txs = List.rev chain.deferred in
  chain.deferred <- [];
  List.map (push_transaction chain) txs
