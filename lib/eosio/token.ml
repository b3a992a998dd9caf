(** The [eosio.token] contract, implemented natively against the same chain
    interfaces a Wasm contract sees.

    The same code deployed under a different account is exactly the
    paper's fake-token attack vector: anyone may create a token whose
    symbol is "EOS" under their own contract account, and the [code]
    parameter of the victim's [apply] is the only way to tell them apart. *)

let accounts_tbl = Name.of_string "accounts"
let stat_tbl = Name.of_string "stat"

let le64 (v : int64) =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))

let read64 s = Abi.read_le s 0 8

(* Balances: scope = owner, table = "accounts", id = symbol code, value =
   amount (8 bytes LE).  Supply: scope = symbol, table = "stat". *)

let balance_of chain ~token ~owner ~symbol : int64 =
  match
    Database.get_row chain.Chain.db ~code:token ~scope:owner ~tbl:accounts_tbl
      ~id:symbol
  with
  | Some data -> read64 data
  | None -> 0L

let set_balance chain ~token ~owner ~symbol (v : int64) =
  Database.put_row chain.Chain.db ~code:token ~scope:owner ~tbl:accounts_tbl
    ~id:symbol ~data:(le64 v)

let issuer_of chain ~token ~symbol : Name.t option =
  match
    Database.get_row chain.Chain.db ~code:token ~scope:symbol ~tbl:stat_tbl
      ~id:symbol
  with
  | Some data when String.length data >= 16 -> Some (Abi.read_le data 8 8)
  | _ -> None

let assert_ cond msg = if not cond then raise (Chain.Assert_failed msg)

let do_create (ctx : Chain.context) (args : Abi.value list) =
  match args with
  | [ Abi.V_name issuer; Abi.V_asset max_supply ] ->
      let chain = ctx.Chain.chain in
      let token = ctx.Chain.ctx_receiver in
      let symbol = max_supply.Asset.symbol in
      assert_ (Asset.is_valid max_supply) "invalid supply";
      assert_
        (issuer_of chain ~token ~symbol = None)
        "token with symbol already exists";
      (* stat row: supply (8) | issuer (8) | max supply (8) *)
      Database.put_row chain.Chain.db ~code:token ~scope:symbol ~tbl:stat_tbl
        ~id:symbol
        ~data:(le64 0L ^ le64 issuer ^ le64 max_supply.Asset.amount)
  | _ -> raise (Chain.Assert_failed "create: bad arguments")

let do_issue (ctx : Chain.context) (args : Abi.value list) =
  match args with
  | [ Abi.V_name to_; Abi.V_asset quantity; Abi.V_string _memo ] ->
      let chain = ctx.Chain.chain in
      let token = ctx.Chain.ctx_receiver in
      let symbol = quantity.Asset.symbol in
      (match issuer_of chain ~token ~symbol with
       | None -> raise (Chain.Assert_failed "token with symbol does not exist")
       | Some issuer ->
           assert_
             (List.exists (Name.equal issuer) ctx.Chain.ctx_action.Action.act_auth)
             "issue: missing issuer authority";
           assert_ (Int64.compare quantity.Asset.amount 0L > 0)
             "must issue positive quantity";
           let bal = balance_of chain ~token ~owner:to_ ~symbol in
           set_balance chain ~token ~owner:to_ ~symbol
             (Int64.add bal quantity.Asset.amount))
  | _ -> raise (Chain.Assert_failed "issue: bad arguments")

let do_transfer (ctx : Chain.context) (args : Abi.value list) =
  match args with
  | [ Abi.V_name from; Abi.V_name to_; Abi.V_asset quantity; Abi.V_string _ ] ->
      let chain = ctx.Chain.chain in
      let token = ctx.Chain.ctx_receiver in
      let symbol = quantity.Asset.symbol in
      assert_ (not (Name.equal from to_)) "cannot transfer to self";
      if not (List.exists (Name.equal from) ctx.Chain.ctx_action.Action.act_auth)
      then
        raise
          (Chain.Assert_failed
             ("transfer: missing authority of " ^ Name.to_string from));
      assert_ (Chain.is_account chain to_) "to account does not exist";
      assert_ (Int64.compare quantity.Asset.amount 0L > 0)
        "must transfer positive quantity";
      let from_bal = balance_of chain ~token ~owner:from ~symbol in
      assert_
        (Int64.compare from_bal quantity.Asset.amount >= 0)
        "overdrawn balance";
      set_balance chain ~token ~owner:from ~symbol
        (Int64.sub from_bal quantity.Asset.amount);
      let to_bal = balance_of chain ~token ~owner:to_ ~symbol in
      set_balance chain ~token ~owner:to_ ~symbol
        (Int64.add to_bal quantity.Asset.amount);
      (* Notify both parties — steps 2 and 3 of the paper's Figure 1. *)
      Queue.add from ctx.Chain.ctx_notify;
      Queue.add to_ ctx.Chain.ctx_notify
  | _ -> raise (Chain.Assert_failed "transfer: bad arguments")

(** The token contract's apply.  On notifications (receiver != code) it
    does nothing, like the real contract. *)
let apply (ctx : Chain.context) =
  if Name.equal ctx.Chain.ctx_receiver ctx.Chain.ctx_code then begin
    let act = ctx.Chain.ctx_action in
    let dispatch def handler =
      handler ctx (Abi.deserialize def act.Action.act_data)
    in
    let n = act.Action.act_name in
    if Name.equal n Name.transfer then dispatch Abi.transfer_action do_transfer
    else if Name.equal n (Name.of_string "issue") then
      match Abi.find_action Abi.token_abi n with
      | Some def -> dispatch def do_issue
      | None -> assert false
    else if Name.equal n (Name.of_string "create") then
      match Abi.find_action Abi.token_abi n with
      | Some def -> dispatch def do_create
      | None -> assert false
    else raise (Chain.Assert_failed "token: unknown action")
  end

(** Deploy the token code under [account] (use [Name.eosio_token] for the
    official token, anything else for a fake one). *)
let deploy chain (token_account : Name.t) =
  Chain.set_native chain token_account apply Abi.token_abi

(** Deploy the official token, create the EOS currency and issue an initial
    supply to [treasury]. *)
let bootstrap chain ~(treasury : Name.t) ~(supply : int64) =
  deploy chain Name.eosio_token;
  ignore (Chain.create_account chain treasury);
  let max_supply = max supply 1_000_000_000_0000L in
  let create_act =
    Action.of_args ~account:Name.eosio_token ~name:(Name.of_string "create")
      ~args:
        [ Abi.V_name Name.eosio_token; Abi.V_asset (Asset.eos_of_units max_supply) ]
      ~auth:[ Name.eosio_token ]
  in
  let issue_act =
    Action.of_args ~account:Name.eosio_token ~name:(Name.of_string "issue")
      ~args:
        [
          Abi.V_name treasury;
          Abi.V_asset (Asset.eos_of_units supply);
          Abi.V_string "genesis";
        ]
      ~auth:[ Name.eosio_token ]
  in
  let r1 = Chain.push_action chain create_act in
  let r2 = Chain.push_action chain issue_act in
  assert_ r1.Chain.tx_ok "token create failed";
  assert_ r2.Chain.tx_ok "token issue failed"

(** Transfer convenience used throughout tests and the fuzzer. *)
let transfer_action ~token ~from ~to_ ~quantity ~memo : Action.t =
  Action.of_args ~account:token ~name:Name.transfer
    ~args:
      [ Abi.V_name from; Abi.V_name to_; Abi.V_asset quantity; Abi.V_string memo ]
    ~auth:[ from ]

let eos_balance chain ~owner =
  balance_of chain ~token:Name.eosio_token ~owner ~symbol:Asset.Symbol.eos
