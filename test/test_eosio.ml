(* Tests for the EOSIO substrate: names, assets, ABI codec, database,
   token semantics, transaction rollback, notifications, and a Wasm
   contract executing end-to-end on the chain. *)

open Wasai_eosio
module Wasm = Wasai_wasm

let n = Name.of_string

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let test_name_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Name.to_string (Name.of_string s)))
    [ "eosio"; "eosio.token"; "eosbet"; "a"; "zzzzzzzzzzzz"; "fake.token"; "" ]

let test_name_known_value () =
  (* Cross-checked with Nodeos: N(eosio) = 0x5530EA0000000000. *)
  Alcotest.(check int64) "N(eosio)" 0x5530EA0000000000L (Name.of_string "eosio")

let test_name_rejects_bad_chars () =
  Alcotest.(check bool) "uppercase rejected" true
    (match Name.of_string "EOS" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let qcheck_name_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun (len, seed) ->
          Wasai_support.Rand.eosio_name_string
            (Wasai_support.Rand.create (Int64.of_int seed))
            (1 + (len mod 12)))
        (pair small_nat int))
  in
  QCheck.Test.make ~name:"name roundtrip (random)" ~count:300
    (QCheck.make gen ~print:Fun.id)
    (fun s -> Name.to_string (Name.of_string s) = s)

(* ------------------------------------------------------------------ *)
(* Assets                                                              *)
(* ------------------------------------------------------------------ *)

let test_asset_parse_print () =
  let a = Asset.of_string "10.0000 EOS" in
  Alcotest.(check int64) "amount" 100000L a.Asset.amount;
  Alcotest.(check string) "print" "10.0000 EOS" (Asset.to_string a);
  let b = Asset.of_string "0.0001 EOS" in
  Alcotest.(check string) "small" "0.0001 EOS" (Asset.to_string b);
  let c = Asset.of_string "-3.5000 EOS" in
  Alcotest.(check string) "negative" "-3.5000 EOS" (Asset.to_string c)

let test_asset_symbol () =
  let s = Asset.Symbol.make ~precision:4 "EOS" in
  Alcotest.(check int) "precision" 4 (Asset.Symbol.precision s);
  Alcotest.(check string) "code" "EOS" (Asset.Symbol.code s);
  Alcotest.(check bool) "eos constant" true (Asset.Symbol.equal s Asset.Symbol.eos)

let test_asset_arith () =
  let a = Asset.eos_of_units 10L and b = Asset.eos_of_units 3L in
  Alcotest.(check int64) "add" 13L (Asset.add a b).Asset.amount;
  Alcotest.(check int64) "sub" 7L (Asset.sub a b).Asset.amount;
  let other = Asset.make 1L (Asset.Symbol.make ~precision:0 "SYS") in
  Alcotest.(check bool) "mismatch rejected" true
    (match Asset.add a other with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* ABI                                                                 *)
(* ------------------------------------------------------------------ *)

let transfer_args =
  [
    Abi.V_name (n "alice");
    Abi.V_name (n "bob");
    Abi.V_asset (Asset.of_string "1.0000 EOS");
    Abi.V_string "hi bob";
  ]

let test_abi_roundtrip () =
  let data = Abi.serialize transfer_args in
  Alcotest.(check int) "size" (8 + 8 + 16 + 1 + 6) (String.length data);
  let back = Abi.deserialize Abi.transfer_action data in
  Alcotest.(check bool) "roundtrip" true (back = transfer_args)

let test_abi_layout () =
  (* The paper's Table 2 layout: from@0, to@8, quantity@16, memo@32. *)
  let offs = Abi.static_offsets Abi.transfer_action in
  Alcotest.(check (list (pair string int)))
    "static offsets"
    [ ("from", 0); ("to", 8); ("quantity", 16); ("memo", 32) ]
    (List.map (fun (name, _, off) -> (name, off)) offs)

let test_abi_text_roundtrip () =
  let abi =
    {
      Abi.abi_actions =
        [
          Abi.transfer_action;
          {
            Abi.act_name = n "deposit";
            act_params = [ ("player", Abi.T_name); ("amount", Abi.T_u64) ];
          };
          { Abi.act_name = n "ping"; act_params = [] };
        ];
    }
  in
  let text = Abi.to_text abi in
  let abi' = Abi.of_text text in
  Alcotest.(check bool) "text roundtrip" true (abi' = abi);
  (* Comments and blank lines are tolerated. *)
  let abi'' = Abi.of_text ("# header\n\n" ^ text ^ "\n# trailing\n") in
  Alcotest.(check bool) "comments ignored" true (abi'' = abi)

let test_abi_text_rejects () =
  List.iter
    (fun src ->
      match Abi.of_text src with
      | _ -> Alcotest.failf "accepted %S" src
      | exception Abi.Parse_error _ -> ())
    [ "transfer"; "transfer(from:name"; "t(x:unknown_type)"; "BAD(x:name)" ]

let test_abi_truncated () =
  Alcotest.(check bool) "truncated rejected" true
    (match Abi.deserialize Abi.transfer_action "\x01\x02" with
     | _ -> false
     | exception Abi.Deserialize_error _ -> true)

let qcheck_abi_roundtrip =
  let gen =
    QCheck.Gen.(
      QCheck.Gen.map
        (fun (a, b, (amt, memo_seed)) ->
          [
            Abi.V_name (Int64.of_int (abs a));
            Abi.V_name (Int64.of_int (abs b));
            Abi.V_asset (Asset.eos_of_units (Int64.of_int amt));
            Abi.V_string
              (Wasai_support.Rand.ascii_string
                 (Wasai_support.Rand.create (Int64.of_int memo_seed))
                 (abs memo_seed mod 100));
          ])
        (triple int int (pair small_nat int)))
  in
  QCheck.Test.make ~name:"abi transfer roundtrip (random)" ~count:300
    (QCheck.make gen)
    (fun args ->
      Abi.deserialize Abi.transfer_action (Abi.serialize args) = args)

(* ------------------------------------------------------------------ *)
(* Database                                                            *)
(* ------------------------------------------------------------------ *)

let test_db_basic () =
  let db = Database.create () in
  let code = n "ctr" and scope = n "ctr" and tbl = n "tb" in
  let it = Database.store db ~code ~scope ~tbl ~id:5L ~data:"five" in
  Alcotest.(check string) "get" "five" (Database.get db it);
  Alcotest.(check bool) "find hits" true (Database.find db ~code ~scope ~tbl ~id:5L >= 0);
  Alcotest.(check int) "find misses" (-1) (Database.find db ~code ~scope ~tbl ~id:6L);
  Database.update db it ~data:"FIVE";
  Alcotest.(check string) "updated" "FIVE" (Database.get db it);
  Database.remove db it;
  Alcotest.(check int) "removed" (-1) (Database.find db ~code ~scope ~tbl ~id:5L)

let test_db_duplicate_store_traps () =
  let db = Database.create () in
  let code = n "c" and scope = n "c" and tbl = n "t" in
  ignore (Database.store db ~code ~scope ~tbl ~id:1L ~data:"x");
  Alcotest.(check bool) "duplicate traps" true
    (match Database.store db ~code ~scope ~tbl ~id:1L ~data:"y" with
     | _ -> false
     | exception Wasm.Values.Trap _ -> true)

let test_db_iteration () =
  let db = Database.create () in
  let code = n "c" and scope = n "c" and tbl = n "t" in
  List.iter
    (fun id -> ignore (Database.store db ~code ~scope ~tbl ~id ~data:(Int64.to_string id)))
    [ 10L; 30L; 20L ];
  let it0 = Database.lowerbound db ~code ~scope ~tbl ~id:0L in
  Alcotest.(check int64) "lowerbound first" 10L (Database.primary db it0);
  let it1, p1 = Database.next db it0 in
  Alcotest.(check int64) "next sorted" 20L p1;
  let it2, p2 = Database.next db it1 in
  Alcotest.(check int64) "next next" 30L p2;
  let it3, _ = Database.next db it2 in
  Alcotest.(check int) "exhausted" (-1) it3

let test_db_secondary_index () =
  let db = Database.create () in
  let code = n "c" and scope = n "c" and tbl = n "t" in
  (* Primary rows plus a secondary u64 index (e.g. balances by amount). *)
  List.iter
    (fun (primary, secondary) ->
      ignore
        (Database.store db ~code ~scope ~tbl ~id:primary
           ~data:(Int64.to_string primary));
      ignore (Database.idx64_store db ~code ~scope ~tbl ~primary ~secondary))
    [ (1L, 500L); (2L, 100L); (3L, 300L) ];
  let _, p = Database.idx64_find_secondary db ~code ~scope ~tbl ~secondary:300L in
  Alcotest.(check int64) "find by secondary" 3L p;
  let it, _ = Database.idx64_find_secondary db ~code ~scope ~tbl ~secondary:999L in
  Alcotest.(check int) "missing secondary" (-1) it;
  let _, p = Database.idx64_lowerbound db ~code ~scope ~tbl ~secondary:200L in
  Alcotest.(check int64) "lowerbound 200 -> 300's row" 3L p;
  (* Update row 2's secondary; the index must follow. *)
  Database.idx64_update db ~code ~scope ~tbl ~primary:2L ~secondary:700L;
  let it, _ = Database.idx64_find_secondary db ~code ~scope ~tbl ~secondary:100L in
  Alcotest.(check int) "old key gone" (-1) it;
  let _, p = Database.idx64_find_secondary db ~code ~scope ~tbl ~secondary:700L in
  Alcotest.(check int64) "new key found" 2L p;
  (* The index table participates in snapshots. *)
  let snap = Database.snapshot db in
  Database.idx64_remove db ~code ~scope ~tbl ~primary:3L;
  Database.restore db snap;
  let _, p = Database.idx64_find_secondary db ~code ~scope ~tbl ~secondary:300L in
  Alcotest.(check int64) "index restored with snapshot" 3L p

let test_db_snapshot () =
  let db = Database.create () in
  let code = n "c" and scope = n "c" and tbl = n "t" in
  ignore (Database.store db ~code ~scope ~tbl ~id:1L ~data:"before");
  let snap = Database.snapshot db in
  Database.put_row db ~code ~scope ~tbl ~id:1L ~data:"after";
  ignore (Database.store db ~code ~scope ~tbl ~id:2L ~data:"extra");
  Database.restore db snap;
  Alcotest.(check (option string)) "restored value" (Some "before")
    (Database.get_row db ~code ~scope ~tbl ~id:1L);
  Alcotest.(check (option string)) "extra gone" None
    (Database.get_row db ~code ~scope ~tbl ~id:2L)

let test_db_access_log () =
  let db = Database.create () in
  let log = ref [] in
  db.Database.on_access <- Some (fun a -> log := a :: !log);
  ignore (Database.store db ~code:(n "c") ~scope:(n "c") ~tbl:(n "t") ~id:1L ~data:"");
  ignore (Database.find db ~code:(n "c") ~scope:(n "c") ~tbl:(n "t") ~id:1L);
  let kinds = List.rev_map (fun a -> a.Database.acc_kind) !log in
  Alcotest.(check bool) "write then read" true
    (kinds = [ Database.Write; Database.Read ])

(* The database against a plain reference model: rows as a list of
   (table, id, bytes), snapshots as list values, and the accesses each
   operation must report.  Bytes come from a three-value alphabet, so
   many writes store the bytes a row already holds: such a write must
   report the same access and leave the same rows as any other write,
   and it must leave the store itself untouched. *)
type db_op =
  | Op_store of int * int64 * string  (** table, id, bytes *)
  | Op_put of int * int64 * string
  | Op_update of int * int64 * string  (** through [find] *)
  | Op_remove of int * int64  (** through [find] *)
  | Op_delete of int * int64
  | Op_get of int * int64
  | Op_idx_store of int * int64 * int64  (** table, primary, secondary *)
  | Op_idx_remove of int * int64
  | Op_idx_update of int * int64 * int64
  | Op_snapshot
  | Op_restore of int  (** a snapshot, counted from the newest *)
  | Op_clear

let db_tables =
  [| ("alice", "alice", "t"); ("alice", "bob", "t"); ("bob", "alice", "t");
     ("alice", "alice", "u") |]

let show_db_op = function
  | Op_store (t, id, d) -> Printf.sprintf "store %d %Ld %S" t id d
  | Op_put (t, id, d) -> Printf.sprintf "put %d %Ld %S" t id d
  | Op_update (t, id, d) -> Printf.sprintf "update %d %Ld %S" t id d
  | Op_remove (t, id) -> Printf.sprintf "remove %d %Ld" t id
  | Op_delete (t, id) -> Printf.sprintf "delete %d %Ld" t id
  | Op_get (t, id) -> Printf.sprintf "get %d %Ld" t id
  | Op_idx_store (t, p, s) -> Printf.sprintf "idx_store %d %Ld %Ld" t p s
  | Op_idx_remove (t, p) -> Printf.sprintf "idx_remove %d %Ld" t p
  | Op_idx_update (t, p, s) -> Printf.sprintf "idx_update %d %Ld %Ld" t p s
  | Op_snapshot -> "snapshot"
  | Op_restore i -> Printf.sprintf "restore %d" i
  | Op_clear -> "clear"

let gen_db_ops =
  let open QCheck.Gen in
  let tbl = int_bound (Array.length db_tables - 1) in
  let id = map Int64.of_int (int_bound 3) in
  let bytes = oneofl [ ""; "a"; "b" ] in
  list_size (int_range 1 40)
    (frequency
       [
         (3, map3 (fun t i d -> Op_store (t, i, d)) tbl id bytes);
         (4, map3 (fun t i d -> Op_put (t, i, d)) tbl id bytes);
         (3, map3 (fun t i d -> Op_update (t, i, d)) tbl id bytes);
         (1, map2 (fun t i -> Op_remove (t, i)) tbl id);
         (1, map2 (fun t i -> Op_delete (t, i)) tbl id);
         (2, map2 (fun t i -> Op_get (t, i)) tbl id);
         (2, map3 (fun t p s -> Op_idx_store (t, p, s)) tbl id id);
         (1, map2 (fun t p -> Op_idx_remove (t, p)) tbl id);
         (1, map3 (fun t p s -> Op_idx_update (t, p, s)) tbl id id);
         (2, return Op_snapshot);
         (2, map (fun i -> Op_restore i) (int_bound 3));
         (1, return Op_clear);
       ])

let qcheck_db_reference_model =
  let le64 v =
    String.init 8 (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show_db_op ops))
      gen_db_ops
  in
  QCheck.Test.make ~name:"database = reference model" ~count:300 arb
    (fun ops ->
      let db = Database.create () in
      let log = ref [] in
      db.Database.on_access <-
        Some
          (fun a ->
            log :=
              (a.Database.acc_kind, a.Database.acc_code, a.Database.acc_table)
              :: !log);
      let key t =
        let c, s, tb = db_tables.(t) in
        (n c, n s, n tb)
      in
      let idx_key t =
        let c, s, tb = key t in
        (c, s, Int64.logxor tb Int64.min_int)
      in
      (* Equal bytes in a new string: an unchanged store must come from
         comparing bytes, not from [Map.add] seeing the same value. *)
      let copy d = Bytes.to_string (Bytes.of_string d) in
      let model = ref [] and snaps = ref [] in
      let find k id = List.assoc_opt (k, id) !model in
      let set k id d = model := ((k, id), d) :: List.remove_assoc (k, id) !model in
      let del k id = model := List.remove_assoc (k, id) !model in
      let write (c, _, tb) = (Database.Write, c, tb)
      and read (c, _, tb) = (Database.Read, c, tb) in
      let rows_of_db () =
        List.concat_map
          (fun ((k : Database.table_key), m) ->
            List.map
              (fun (id, d) -> (((k.tk_code, k.tk_scope, k.tk_table), id), d))
              (Database.I64Map.bindings m))
          (Database.Table_map.bindings db.Database.tables)
      in
      let step op =
        log := [];
        let before = Database.snapshot db in
        let untouched = ref false in
        let expected =
          match op with
          | Op_store (t, id, d) ->
              let ((c, s, tb) as k) = key t in
              let dup = find k id <> None in
              let trapped =
                match Database.store db ~code:c ~scope:s ~tbl:tb ~id ~data:d with
                | _ -> false
                | exception Wasm.Values.Trap _ -> true
              in
              if trapped <> dup then failwith "store: trap differs";
              if not dup then set k id d;
              [ write k ]
          | Op_put (t, id, d) ->
              let ((c, s, tb) as k) = key t in
              untouched := find k id = Some d;
              Database.put_row db ~code:c ~scope:s ~tbl:tb ~id ~data:(copy d);
              set k id d;
              [ write k ]
          | Op_update (t, id, d) -> (
              let ((c, s, tb) as k) = key t in
              let it = Database.find db ~code:c ~scope:s ~tbl:tb ~id in
              match find k id with
              | None ->
                  if it <> -1 then failwith "find: hit on a missing row";
                  [ read k ]
              | Some old ->
                  untouched := old = d;
                  Database.update db it ~data:(copy d);
                  set k id d;
                  [ read k; write k ])
          | Op_remove (t, id) -> (
              let ((c, s, tb) as k) = key t in
              let it = Database.find db ~code:c ~scope:s ~tbl:tb ~id in
              match find k id with
              | None ->
                  if it <> -1 then failwith "find: hit on a missing row";
                  [ read k ]
              | Some _ ->
                  Database.remove db it;
                  del k id;
                  [ read k; write k ])
          | Op_delete (t, id) ->
              let ((c, s, tb) as k) = key t in
              Database.delete_row db ~code:c ~scope:s ~tbl:tb ~id;
              del k id;
              [ write k ]
          | Op_get (t, id) ->
              let ((c, s, tb) as k) = key t in
              if Database.get_row db ~code:c ~scope:s ~tbl:tb ~id <> find k id
              then failwith "get_row differs";
              [ read k ]
          | Op_idx_store (t, primary, secondary) ->
              let c, s, tb = key t in
              ignore
                (Database.idx64_store db ~code:c ~scope:s ~tbl:tb ~primary
                   ~secondary);
              set (idx_key t) primary (le64 secondary);
              [ write (idx_key t) ]
          | Op_idx_remove (t, primary) ->
              let c, s, tb = key t in
              Database.idx64_remove db ~code:c ~scope:s ~tbl:tb ~primary;
              del (idx_key t) primary;
              [ write (idx_key t) ]
          | Op_idx_update (t, primary, secondary) ->
              let c, s, tb = key t in
              Database.idx64_update db ~code:c ~scope:s ~tbl:tb ~primary
                ~secondary;
              set (idx_key t) primary (le64 secondary);
              [ write (idx_key t); write (idx_key t) ]
          | Op_snapshot ->
              snaps := (Database.snapshot db, !model) :: !snaps;
              []
          | Op_restore i ->
              (match List.nth_opt !snaps (i mod max 1 (List.length !snaps)) with
               | Some (snap, m) ->
                   Database.restore db snap;
                   model := m;
                   if Hashtbl.length db.Database.iterators <> 0 then
                     failwith "restore kept iterators"
               | None -> ());
              []
          | Op_clear ->
              Database.clear db;
              model := [];
              []
        in
        List.rev !log = expected
        && List.sort compare (rows_of_db ()) = List.sort compare !model
        && List.for_all
             (fun (_, m) -> not (Database.I64Map.is_empty m))
             (Database.Table_map.bindings db.Database.tables)
        && ((not !untouched) || Database.snapshot db == before)
      in
      List.for_all step ops)

(* ------------------------------------------------------------------ *)
(* Chain + token                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_chain () =
  let chain = Host.create_chain () in
  Token.bootstrap chain ~treasury:(n "treasury") ~supply:1_000_000_0000L;
  List.iter
    (fun a -> ignore (Chain.create_account chain (n a)))
    [ "alice"; "bob"; "eosbet" ];
  chain

let transfer chain ~from ~to_ ~amount ~memo =
  Chain.push_action chain
    (Token.transfer_action ~token:Name.eosio_token ~from ~to_
       ~quantity:(Asset.eos_of_units amount) ~memo)

let test_token_transfer () =
  let chain = fresh_chain () in
  let r = transfer chain ~from:(n "treasury") ~to_:(n "alice") ~amount:50_0000L ~memo:"" in
  Alcotest.(check bool) "tx ok" true r.Chain.tx_ok;
  Alcotest.(check int64) "alice credited" 50_0000L
    (Token.eos_balance chain ~owner:(n "alice"));
  (* Both parties are notified, in order: token, then from, then to. *)
  let receivers = List.map (fun (r, _) -> Name.to_string r) r.Chain.tx_actions_run in
  Alcotest.(check (list string)) "notification order"
    [ "eosio.token"; "treasury"; "alice" ] receivers

let test_token_overdraw_fails () =
  let chain = fresh_chain () in
  let r = transfer chain ~from:(n "alice") ~to_:(n "bob") ~amount:1L ~memo:"" in
  Alcotest.(check bool) "tx fails" false r.Chain.tx_ok;
  Alcotest.(check int64) "bob unchanged" 0L (Token.eos_balance chain ~owner:(n "bob"))

let test_token_missing_auth () =
  let chain = fresh_chain () in
  ignore (transfer chain ~from:(n "treasury") ~to_:(n "alice") ~amount:10L ~memo:"");
  let act =
    Action.of_args ~account:Name.eosio_token ~name:Name.transfer
      ~args:
        [
          Abi.V_name (n "alice");
          Abi.V_name (n "bob");
          Abi.V_asset (Asset.eos_of_units 5L);
          Abi.V_string "steal";
        ]
      ~auth:[ n "bob" ] (* bob tries to move alice's tokens *)
  in
  let r = Chain.push_action chain act in
  Alcotest.(check bool) "rejected" false r.Chain.tx_ok

let test_fake_token_is_distinct () =
  let chain = fresh_chain () in
  (* Attacker deploys the same token code under fake.token and issues EOS. *)
  Token.deploy chain (n "fake.token");
  ignore (Chain.create_account chain (n "attacker"));
  let push a = ignore (Chain.push_action chain a) in
  push
    (Action.of_args ~account:(n "fake.token") ~name:(n "create")
       ~args:
         [ Abi.V_name (n "attacker"); Abi.V_asset (Asset.eos_of_units 1_000_0000L) ]
       ~auth:[ n "fake.token" ]);
  push
    (Action.of_args ~account:(n "fake.token") ~name:(n "issue")
       ~args:
         [
           Abi.V_name (n "attacker");
           Abi.V_asset (Asset.eos_of_units 1_000_0000L);
           Abi.V_string "";
         ]
       ~auth:[ n "attacker" ]);
  (* Fake EOS balance lives under fake.token's database, not eosio.token's. *)
  Alcotest.(check int64) "no real EOS" 0L
    (Token.eos_balance chain ~owner:(n "attacker"));
  Alcotest.(check int64) "fake EOS issued" 1_000_0000L
    (Token.balance_of chain ~token:(n "fake.token") ~owner:(n "attacker")
       ~symbol:Asset.Symbol.eos);
  (* Transferring fake EOS to a victim notifies the victim with
     code = fake.token. *)
  let r =
    Chain.push_action chain
      (Token.transfer_action ~token:(n "fake.token") ~from:(n "attacker")
         ~to_:(n "eosbet") ~quantity:(Asset.eos_of_units 10L) ~memo:"gotcha")
  in
  Alcotest.(check bool) "fake transfer ok" true r.Chain.tx_ok

let test_rollback_restores_balances () =
  let chain = fresh_chain () in
  ignore (transfer chain ~from:(n "treasury") ~to_:(n "alice") ~amount:100L ~memo:"");
  (* Transaction with two actions: a valid transfer then a failing one.
     The first transfer must be rolled back. *)
  let tx =
    {
      Action.tx_actions =
        [
          Token.transfer_action ~token:Name.eosio_token ~from:(n "alice")
            ~to_:(n "bob") ~quantity:(Asset.eos_of_units 60L) ~memo:"";
          Token.transfer_action ~token:Name.eosio_token ~from:(n "alice")
            ~to_:(n "bob") ~quantity:(Asset.eos_of_units 60L) ~memo:"";
        ];
    }
  in
  let r = Chain.push_transaction chain tx in
  Alcotest.(check bool) "second transfer overdraws" false r.Chain.tx_ok;
  Alcotest.(check int64) "alice balance restored" 100L
    (Token.eos_balance chain ~owner:(n "alice"));
  Alcotest.(check int64) "bob got nothing" 0L
    (Token.eos_balance chain ~owner:(n "bob"))

let test_deferred_independent () =
  let chain = fresh_chain () in
  ignore (transfer chain ~from:(n "treasury") ~to_:(n "alice") ~amount:10L ~memo:"");
  chain.Chain.deferred <-
    [
      {
        Action.tx_actions =
          [
            Token.transfer_action ~token:Name.eosio_token ~from:(n "alice")
              ~to_:(n "bob") ~quantity:(Asset.eos_of_units 10_000L) ~memo:"";
          ];
      };
      {
        Action.tx_actions =
          [
            Token.transfer_action ~token:Name.eosio_token ~from:(n "alice")
              ~to_:(n "bob") ~quantity:(Asset.eos_of_units 5L) ~memo:"";
          ];
      };
    ];
  let results = Chain.run_deferred chain in
  (* deferred list is LIFO-appended: second pushed runs first after rev *)
  Alcotest.(check int) "two deferred" 2 (List.length results);
  Alcotest.(check int64) "good deferred applied" 5L
    (Token.eos_balance chain ~owner:(n "bob"))

let test_inline_depth_first () =
  (* Inline actions expand depth-first: A queues [B; C], B queues D;
     execution order must be A, B, D, C (Nodeos semantics — the ordering
     the Rollback exploit's balance check depends on). *)
  let chain = Host.create_chain () in
  let order = ref [] in
  let note name = order := name :: !order in
  let queue_inline ctx target =
    Queue.add
      (Action.make ~account:target ~name:(n "go") ~data:"" ~auth:[ target ])
      ctx.Chain.ctx_inline
  in
  Chain.set_native chain (n "aaa")
    (fun ctx ->
      note "A";
      queue_inline ctx (n "bbb");
      queue_inline ctx (n "ccc"))
    { Abi.abi_actions = [] };
  Chain.set_native chain (n "bbb")
    (fun ctx ->
      note "B";
      queue_inline ctx (n "ddd"))
    { Abi.abi_actions = [] };
  Chain.set_native chain (n "ccc") (fun _ -> note "C") { Abi.abi_actions = [] };
  Chain.set_native chain (n "ddd") (fun _ -> note "D") { Abi.abi_actions = [] };
  let r =
    Chain.push_action chain
      (Action.make ~account:(n "aaa") ~name:(n "go") ~data:"" ~auth:[ n "aaa" ])
  in
  Alcotest.(check bool) "tx ok" true r.Chain.tx_ok;
  Alcotest.(check (list string)) "depth-first order" [ "A"; "B"; "D"; "C" ]
    (List.rev !order)

let test_deferred_rolled_back_with_tx () =
  (* A deferred transaction scheduled inside a failing transaction must be
     discarded with it (regression: the lottery patch depends on this). *)
  let chain = Host.create_chain () in
  Chain.set_native chain (n "boom")
    (fun ctx ->
      chain.Chain.deferred <-
        {
          Action.tx_actions =
            [ Action.make ~account:(n "boom") ~name:(n "later") ~data:"" ~auth:[] ];
        }
        :: chain.Chain.deferred;
      if Name.equal ctx.Chain.ctx_action.Action.act_name (n "fail") then
        raise (Chain.Assert_failed "abort"))
    { Abi.abi_actions = [] };
  let r =
    Chain.push_action chain
      (Action.make ~account:(n "boom") ~name:(n "fail") ~data:"" ~auth:[])
  in
  Alcotest.(check bool) "tx failed" false r.Chain.tx_ok;
  Alcotest.(check int) "deferred discarded" 0 (List.length chain.Chain.deferred);
  let r2 =
    Chain.push_action chain
      (Action.make ~account:(n "boom") ~name:(n "okay") ~data:"" ~auth:[])
  in
  Alcotest.(check bool) "tx ok" true r2.Chain.tx_ok;
  Alcotest.(check int) "deferred kept on success" 1
    (List.length chain.Chain.deferred)

let test_fuel_bounds_contract () =
  (* A runaway contract exhausts its fuel; the transaction fails and the
     chain keeps working. *)
  let chain = Host.create_chain ~fuel_per_action:50_000 () in
  let b = Wasm.Builder.create () in
  let apply =
    Wasm.Builder.add_func b ~name:"apply"
      (Wasm.Types.func_type [ Wasm.Types.I64; Wasm.Types.I64; Wasm.Types.I64 ])
      [ Wasm.Builder.I.block [ Wasm.Builder.I.loop [ Wasm.Builder.I.br 0 ] ] ]
  in
  Wasm.Builder.export_func b "apply" apply;
  Chain.set_code chain (n "spin") (Wasm.Builder.build b) { Abi.abi_actions = [] };
  let r =
    Chain.push_action chain
      (Action.make ~account:(n "spin") ~name:(n "go") ~data:"" ~auth:[])
  in
  Alcotest.(check bool) "tx failed" false r.Chain.tx_ok;
  (match r.Chain.tx_error with
   | Some msg ->
       Alcotest.(check bool) "exhaustion reported" true
         (String.length msg >= 10 && String.sub msg 0 10 = "exhaustion")
   | None -> Alcotest.fail "expected an error");
  Alcotest.(check bool) "chain alive" true
    (Chain.push_action chain
       (Action.make ~account:(n "nobody") ~name:(n "noop") ~data:"" ~auth:[]))
      .Chain.tx_ok

(* ------------------------------------------------------------------ *)
(* A Wasm contract end-to-end on the chain                             *)
(* ------------------------------------------------------------------ *)

(* A contract with apply(receiver, code, action) that, on "transfer",
   reads the action data, requires the payer's auth and records the
   amount in its database table "log". *)
let build_logging_contract () =
  let open Wasm.Builder in
  let open Wasm.Builder.I in
  let b = create () in
  let i64t = Wasm.Types.I64 and i32t = Wasm.Types.I32 in
  let ft = Wasm.Types.func_type in
  let read_action_data =
    import_func b ~module_:"env" ~name:"read_action_data"
      (ft [ i32t; i32t ] ~results:[ i32t ])
  in
  let action_data_size =
    import_func b ~module_:"env" ~name:"action_data_size" (ft [] ~results:[ i32t ])
  in
  let require_auth = import_func b ~module_:"env" ~name:"require_auth" (ft [ i64t ]) in
  let db_store =
    import_func b ~module_:"env" ~name:"db_store_i64"
      (ft [ i64t; i64t; i64t; i64t; i32t; i32t ] ~results:[ i32t ])
  in
  add_memory b 1;
  let self = n "logger" in
  let apply =
    add_func b ~name:"apply" (ft [ i64t; i64t; i64t ])
      [
        (* if action == transfer *)
        local_get 2;
        i64 Name.transfer;
        i64_eq;
        if_
          [
            (* read_action_data(0, action_data_size()) *)
            i32 0; call action_data_size; call read_action_data; drop;
            (* require_auth(from = i64.load(0)) *)
            i32 0; i64_load (); call require_auth;
            (* db_store_i64(scope=self, table="log", payer=self,
               id=from, data=16..32 (quantity), len=16) *)
            i64 self; i64 (n "log"); i64 self;
            i32 0; i64_load ();
            i32 16; i32 16;
            call db_store; drop;
          ]
          [];
      ]
  in
  export_func b "apply" apply;
  build b

let test_wasm_contract_on_chain () =
  let chain = fresh_chain () in
  let m = build_logging_contract () in
  Chain.set_code chain (n "logger") m
    { Abi.abi_actions = [ Abi.transfer_action ] };
  ignore (Chain.create_account chain (n "logger"));
  let act =
    Action.of_args ~account:(n "logger") ~name:Name.transfer
      ~args:
        [
          Abi.V_name (n "alice");
          Abi.V_name (n "logger");
          Abi.V_asset (Asset.eos_of_units 77L);
          Abi.V_string "direct call";
        ]
      ~auth:[ n "alice" ]
  in
  let r = Chain.push_action chain act in
  Alcotest.(check bool) "tx ok" true r.Chain.tx_ok;
  (* Contract stored the quantity bytes under id = N(alice). *)
  (match
     Database.get_row chain.Chain.db ~code:(n "logger") ~scope:(n "logger")
       ~tbl:(n "log") ~id:(n "alice")
   with
   | Some data ->
       Alcotest.(check int) "16 bytes stored" 16 (String.length data);
       Alcotest.(check int64) "amount bytes" 77L (Abi.read_le data 0 8)
   | None -> Alcotest.fail "row missing");
  (* Without alice's auth the same action aborts. *)
  let bad = { act with Action.act_auth = [ n "bob" ] } in
  let r2 = Chain.push_action chain bad in
  Alcotest.(check bool) "missing auth rejected" false r2.Chain.tx_ok

let test_wasm_contract_notified_by_token () =
  let chain = fresh_chain () in
  let m = build_logging_contract () in
  Chain.set_code chain (n "logger") m
    { Abi.abi_actions = [ Abi.transfer_action ] };
  ignore (transfer chain ~from:(n "treasury") ~to_:(n "alice") ~amount:100L ~memo:"");
  (* A genuine transfer to the contract triggers its eosponser via
     notification; code = eosio.token. *)
  let r = transfer chain ~from:(n "alice") ~to_:(n "logger") ~amount:5L ~memo:"pay" in
  Alcotest.(check bool) "tx ok" true r.Chain.tx_ok;
  Alcotest.(check bool) "logger row written" true
    (Database.get_row chain.Chain.db ~code:(n "logger") ~scope:(n "logger")
       ~tbl:(n "log") ~id:(n "alice")
     <> None)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wasai_eosio"
    [
      ( "name",
        [
          Alcotest.test_case "roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "known value" `Quick test_name_known_value;
          Alcotest.test_case "bad chars" `Quick test_name_rejects_bad_chars;
          qc qcheck_name_roundtrip;
        ] );
      ( "asset",
        [
          Alcotest.test_case "parse/print" `Quick test_asset_parse_print;
          Alcotest.test_case "symbol" `Quick test_asset_symbol;
          Alcotest.test_case "arith" `Quick test_asset_arith;
        ] );
      ( "abi",
        [
          Alcotest.test_case "roundtrip" `Quick test_abi_roundtrip;
          Alcotest.test_case "table-2 layout" `Quick test_abi_layout;
          Alcotest.test_case "truncated" `Quick test_abi_truncated;
          Alcotest.test_case "text format roundtrip" `Quick test_abi_text_roundtrip;
          Alcotest.test_case "text format rejects" `Quick test_abi_text_rejects;
          qc qcheck_abi_roundtrip;
        ] );
      ( "database",
        [
          Alcotest.test_case "basic ops" `Quick test_db_basic;
          Alcotest.test_case "duplicate store" `Quick test_db_duplicate_store_traps;
          Alcotest.test_case "iteration" `Quick test_db_iteration;
          Alcotest.test_case "snapshot/restore" `Quick test_db_snapshot;
          Alcotest.test_case "secondary index" `Quick test_db_secondary_index;
          Alcotest.test_case "access log" `Quick test_db_access_log;
          qc qcheck_db_reference_model;
        ] );
      ( "chain",
        [
          Alcotest.test_case "token transfer + notify" `Quick test_token_transfer;
          Alcotest.test_case "overdraw fails" `Quick test_token_overdraw_fails;
          Alcotest.test_case "missing auth" `Quick test_token_missing_auth;
          Alcotest.test_case "fake token distinct" `Quick test_fake_token_is_distinct;
          Alcotest.test_case "tx rollback" `Quick test_rollback_restores_balances;
          Alcotest.test_case "deferred independent" `Quick test_deferred_independent;
          Alcotest.test_case "inline depth-first" `Quick test_inline_depth_first;
          Alcotest.test_case "deferred rollback" `Quick
            test_deferred_rolled_back_with_tx;
          Alcotest.test_case "fuel bounds contracts" `Quick
            test_fuel_bounds_contract;
        ] );
      ( "wasm-on-chain",
        [
          Alcotest.test_case "direct action" `Quick test_wasm_contract_on_chain;
          Alcotest.test_case "token notification" `Quick
            test_wasm_contract_notified_by_token;
        ] );
    ]
