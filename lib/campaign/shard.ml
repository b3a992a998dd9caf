(** Deterministic campaign sharding (see the interface for the contract).

    The hash must be stable across machines, OCaml versions and runs —
    it is written into journals and two fleet members must never disagree
    on an assignment — so it is spelled out here (FNV-1a 64-bit) instead
    of borrowing [Hashtbl.hash]. *)

type t = { sh_index : int; sh_count : int }

let make ~index ~count =
  if count < 1 then
    invalid_arg (Printf.sprintf "Shard.make: count %d < 1" count);
  if index < 0 || index >= count then
    invalid_arg
      (Printf.sprintf "Shard.make: index %d outside 0..%d" index (count - 1));
  { sh_index = index; sh_count = count }

let whole = { sh_index = 0; sh_count = 1 }
let is_whole t = t.sh_count = 1
let equal a b = a.sh_index = b.sh_index && a.sh_count = b.sh_count
let to_string t = Printf.sprintf "%d/%d" t.sh_index t.sh_count

let of_string s =
  match String.index_opt s '/' with
  | None -> Error (Printf.sprintf "shard %S: expected \"i/N\"" s)
  | Some slash -> (
      let index_s = String.sub s 0 slash in
      let count_s = String.sub s (slash + 1) (String.length s - slash - 1) in
      let nat = Wasai_support.Canonical.count in
      match (nat index_s, nat count_s) with
      | Some index, Some count -> (
          match make ~index ~count with
          | t -> Ok t
          | exception Invalid_argument msg -> Error msg)
      | _ -> Error (Printf.sprintf "shard %S: expected \"i/N\"" s))

(* FNV-1a, 64-bit: simple, well-distributed on short ASCII names, and
   trivially portable to a coordinator written in any language. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash (s : string) : int64 =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let assign ~count (name : string) : int =
  if count < 1 then
    invalid_arg (Printf.sprintf "Shard.assign: count %d < 1" count);
  Int64.to_int (Int64.unsigned_rem (hash name) (Int64.of_int count))

let member t name = assign ~count:t.sh_count name = t.sh_index
