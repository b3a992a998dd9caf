(** The chain's key-value store behind the [db_*_i64] host API.

    Rows live in tables addressed by (code, scope, table); each row is an
    id → bytes binding.  The whole store is one immutable map of
    immutable maps, so a snapshot is the current map itself and a
    rollback assigns it back — whole-transaction rollback (the Rollback
    vulnerability's substrate) copies nothing.

    Every operation is reported to [on_access]; WASAI's Engine listens to
    build the database-dependency graph (§3.3.2 of the paper). *)

module Values = Wasai_wasm.Values
module I64Map = Map.Make (Int64)

type table_key = { tk_code : Name.t; tk_scope : Name.t; tk_table : Name.t }

type access_kind = Read | Write

type access = {
  acc_kind : access_kind;
  acc_code : Name.t;
  acc_table : Name.t;
}

module Table_map = Map.Make (struct
  type t = table_key

  let compare a b =
    let c = Int64.compare a.tk_code b.tk_code in
    if c <> 0 then c
    else
      let c = Int64.compare a.tk_scope b.tk_scope in
      if c <> 0 then c else Int64.compare a.tk_table b.tk_table
end)

type iterator_target = { it_key : table_key; it_id : int64 }

type tables = string I64Map.t Table_map.t

type t = {
  mutable tables : tables;
  iterators : (int, iterator_target) Hashtbl.t;
  mutable next_iterator : int;
  mutable on_access : (access -> unit) option;
}

type snapshot = tables

let create () =
  {
    tables = Table_map.empty;
    iterators = Hashtbl.create 64;
    next_iterator = 0;
    on_access = None;
  }

let notify db kind key =
  match db.on_access with
  | None -> ()
  | Some f -> f { acc_kind = kind; acc_code = key.tk_code; acc_table = key.tk_table }

let table db key =
  match Table_map.find_opt key db.tables with
  | Some m -> m
  | None -> I64Map.empty

let set_table db key m =
  db.tables <-
    (if I64Map.is_empty m then Table_map.remove key db.tables
     else Table_map.add key m db.tables)

(* Bind [id] to [data], leaving the store untouched when the row already
   holds those bytes. *)
let write_row db key id data =
  let m = table db key in
  match I64Map.find_opt id m with
  | Some old when String.equal old data -> ()
  | _ -> set_table db key (I64Map.add id data m)

let fresh_iterator db target =
  let it = db.next_iterator in
  db.next_iterator <- it + 1;
  Hashtbl.replace db.iterators it target;
  it

let iterator_target db it =
  match Hashtbl.find_opt db.iterators it with
  | Some t -> t
  | None -> Values.trap "invalid database iterator %d" it

(* ------------------------------------------------------------------ *)
(* The db_*_i64 intrinsics                                             *)
(* ------------------------------------------------------------------ *)

(** Store a new row; traps if the id already exists (as Nodeos does). *)
let store db ~code ~scope ~tbl ~id ~(data : string) : int =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  notify db Write key;
  let m = table db key in
  if I64Map.mem id m then Values.trap "db_store_i64: duplicate primary key";
  set_table db key (I64Map.add id data m);
  fresh_iterator db { it_key = key; it_id = id }

(** Find a row by primary key; returns an iterator or -1. *)
let find db ~code ~scope ~tbl ~id : int =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  notify db Read key;
  if I64Map.mem id (table db key) then fresh_iterator db { it_key = key; it_id = id }
  else -1

(** First row with id >= [id]; returns an iterator or -1. *)
let lowerbound db ~code ~scope ~tbl ~id : int =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  notify db Read key;
  let m = table db key in
  match I64Map.find_first_opt (fun k -> Int64.unsigned_compare k id >= 0) m with
  | Some (k, _) -> fresh_iterator db { it_key = key; it_id = k }
  | None -> -1

let get db it : string =
  let t = iterator_target db it in
  notify db Read t.it_key;
  match I64Map.find_opt t.it_id (table db t.it_key) with
  | Some data -> data
  | None -> Values.trap "db_get_i64: stale iterator"

let update db it ~(data : string) =
  let t = iterator_target db it in
  notify db Write t.it_key;
  if not (I64Map.mem t.it_id (table db t.it_key)) then
    Values.trap "db_update_i64: stale iterator";
  write_row db t.it_key t.it_id data

let remove db it =
  let t = iterator_target db it in
  notify db Write t.it_key;
  set_table db t.it_key (I64Map.remove t.it_id (table db t.it_key))

(** Next row after the iterator's position: returns (iterator, primary) or
    (-1, 0). *)
let next db it : int * int64 =
  let t = iterator_target db it in
  notify db Read t.it_key;
  let m = table db t.it_key in
  match
    I64Map.find_first_opt (fun k -> Int64.unsigned_compare k t.it_id > 0) m
  with
  | Some (k, _) -> (fresh_iterator db { it_key = t.it_key; it_id = k }, k)
  | None -> (-1, 0L)

let primary db it = (iterator_target db it).it_id

(* ------------------------------------------------------------------ *)
(* Higher-level helpers (used by native contracts)                    *)
(* ------------------------------------------------------------------ *)

let get_row db ~code ~scope ~tbl ~id : string option =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  notify db Read key;
  I64Map.find_opt id (table db key)

let put_row db ~code ~scope ~tbl ~id ~(data : string) =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  notify db Write key;
  write_row db key id data

let delete_row db ~code ~scope ~tbl ~id =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  notify db Write key;
  set_table db key (I64Map.remove id (table db key))

let rows db ~code ~scope ~tbl : (int64 * string) list =
  let key = { tk_code = code; tk_scope = scope; tk_table = tbl } in
  I64Map.bindings (table db key)

(* ------------------------------------------------------------------ *)
(* Secondary indexes (db_idx64)                                        *)
(* ------------------------------------------------------------------ *)

(* Nodeos stores secondary u64 keys in parallel tables; a secondary entry
   maps the secondary key to the row's primary key.  We keep them in the
   same store under a derived table name so snapshots/rollback cover them
   for free: the index table of [t] is [t ^ idx-tag] in name space.  The
   derived name flips the top bit of the table name, which no ordinary
   12-character name uses. *)
let idx_table (tbl : Name.t) : Name.t = Int64.logxor tbl Int64.min_int

(* Entries: id = primary key, data = 8-byte LE secondary key.  Lookups by
   secondary scan the (small) table; fidelity over asymptotics. *)

let idx64_store db ~code ~scope ~tbl ~(primary : int64) ~(secondary : int64) :
    int =
  let data =
    String.init 8 (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical secondary (8 * i)) 0xFFL)))
  in
  let key = { tk_code = code; tk_scope = scope; tk_table = idx_table tbl } in
  notify db Write key;
  set_table db key (I64Map.add primary data (table db key));
  fresh_iterator db { it_key = key; it_id = primary }

let idx64_remove db ~code ~scope ~tbl ~(primary : int64) =
  delete_row db ~code ~scope ~tbl:(idx_table tbl) ~id:primary

let idx64_update db ~code ~scope ~tbl ~(primary : int64) ~(secondary : int64) =
  idx64_remove db ~code ~scope ~tbl ~primary;
  ignore (idx64_store db ~code ~scope ~tbl ~primary ~secondary)

let secondary_of (data : string) : int64 =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code data.[i]))
  done;
  !v

(** Find the first row whose secondary key equals [secondary]; returns
    (iterator, primary) or (-1, 0). *)
let idx64_find_secondary db ~code ~scope ~tbl ~(secondary : int64) :
    int * int64 =
  let key = { tk_code = code; tk_scope = scope; tk_table = idx_table tbl } in
  notify db Read key;
  let found =
    I64Map.fold
      (fun primary data acc ->
        match acc with
        | Some _ -> acc
        | None -> if secondary_of data = secondary then Some primary else None)
      (table db key) None
  in
  match found with
  | Some primary -> (fresh_iterator db { it_key = key; it_id = primary }, primary)
  | None -> (-1, 0L)

(** First row with secondary key >= [secondary] (by secondary, then
    primary). *)
let idx64_lowerbound db ~code ~scope ~tbl ~(secondary : int64) : int * int64 =
  let key = { tk_code = code; tk_scope = scope; tk_table = idx_table tbl } in
  notify db Read key;
  let best =
    I64Map.fold
      (fun primary data acc ->
        let s = secondary_of data in
        if Int64.unsigned_compare s secondary < 0 then acc
        else
          match acc with
          | Some (bs, bp)
            when Int64.unsigned_compare bs s < 0
                 || (bs = s && Int64.unsigned_compare bp primary <= 0) ->
              Some (bs, bp)
          | _ -> Some (s, primary))
      (table db key) None
  in
  match best with
  | Some (_, primary) ->
      (fresh_iterator db { it_key = key; it_id = primary }, primary)
  | None -> (-1, 0L)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* The store is immutable: a snapshot is the current map, and later
   writes build new maps beside it. *)
let snapshot db : snapshot = db.tables

let restore db (s : snapshot) =
  db.tables <- s;
  Hashtbl.reset db.iterators

(** Wipe all state (fresh local chain). *)
let clear db =
  db.tables <- Table_map.empty;
  Hashtbl.reset db.iterators;
  db.next_iterator <- 0
