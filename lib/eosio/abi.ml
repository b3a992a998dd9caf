(** Application Binary Interface of a contract: the action signatures the
    compiler emits next to the Wasm binary, and the binary (de)serialisation
    of action data.

    Serialisation layout (little-endian, matching the paper's Table 2):
    [name]/[u64] are 8 bytes, [u32] is 4 bytes, [asset] is 16 bytes
    (amount then symbol), [string] is one length byte followed by the
    content (strings are ≤ 255 bytes in every workload we model). *)

type param_type =
  | T_name
  | T_u64
  | T_u32
  | T_asset
  | T_string

type value =
  | V_name of Name.t
  | V_u64 of int64
  | V_u32 of int32
  | V_asset of Asset.t
  | V_string of string

type action_def = {
  act_name : Name.t;
  act_params : (string * param_type) list;
}

type t = { abi_actions : action_def list }

let find_action (abi : t) (name : Name.t) =
  List.find_opt (fun a -> Name.equal a.act_name name) abi.abi_actions

let string_of_param_type = function
  | T_name -> "name"
  | T_u64 -> "uint64"
  | T_u32 -> "uint32"
  | T_asset -> "asset"
  | T_string -> "string"

let type_of_value = function
  | V_name _ -> T_name
  | V_u64 _ -> T_u64
  | V_u32 _ -> T_u32
  | V_asset _ -> T_asset
  | V_string _ -> T_string

let string_of_value = function
  | V_name n -> Name.to_string n
  | V_u64 v -> Int64.to_string v
  | V_u32 v -> Int32.to_string v
  | V_asset a -> Asset.to_string a
  | V_string s -> Printf.sprintf "%S" s

(** Byte size of a serialised value. *)
let serialized_size = function
  | V_name _ | V_u64 _ -> 8
  | V_u32 _ -> 4
  | V_asset _ -> 16
  | V_string s -> 1 + String.length s

let add_le buf width (v : int64) =
  for i = 0 to width - 1 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

(** Serialise action arguments to the byte stream fed to the contract. *)
let serialize (args : value list) : string =
  let buf = Buffer.create 64 in
  List.iter
    (fun v ->
      match v with
      | V_name n -> add_le buf 8 n
      | V_u64 x -> add_le buf 8 x
      | V_u32 x -> add_le buf 4 (Int64.of_int32 x)
      | V_asset a ->
          add_le buf 8 a.Asset.amount;
          add_le buf 8 a.Asset.symbol
      | V_string s ->
          if String.length s > 255 then invalid_arg "Abi.serialize: string too long";
          Buffer.add_char buf (Char.chr (String.length s));
          Buffer.add_string buf s)
    args;
  Buffer.contents buf

let read_le (s : string) pos width : int64 =
  let v = ref 0L in
  for i = width - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

exception Deserialize_error of string

(** Deserialise a byte stream according to an action signature. *)
let deserialize (def : action_def) (data : string) : value list =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length data then
      raise (Deserialize_error
               (Printf.sprintf "action %s: data too short at offset %d"
                  (Name.to_string def.act_name) !pos))
  in
  List.map
    (fun (_, ty) ->
      match ty with
      | T_name ->
          need 8;
          let v = read_le data !pos 8 in
          pos := !pos + 8;
          V_name v
      | T_u64 ->
          need 8;
          let v = read_le data !pos 8 in
          pos := !pos + 8;
          V_u64 v
      | T_u32 ->
          need 4;
          let v = read_le data !pos 4 in
          pos := !pos + 4;
          V_u32 (Int64.to_int32 v)
      | T_asset ->
          need 16;
          let amount = read_le data !pos 8 in
          let symbol = read_le data (!pos + 8) 8 in
          pos := !pos + 16;
          V_asset (Asset.make amount symbol)
      | T_string ->
          need 1;
          let len = Char.code data.[!pos] in
          need (1 + len);
          let s = String.sub data (!pos + 1) len in
          pos := !pos + 1 + len;
          V_string s)
    def.act_params

(** Offsets of each parameter in the serialised stream.  Fixed-size
    parameters have static offsets; a parameter after a string does not,
    and the layout computation stops there (EOSIO contracts conventionally
    put strings last, as [transfer]'s [memo] does). *)
let static_offsets (def : action_def) : (string * param_type * int) list =
  let rec go off = function
    | [] -> []
    | (n, ty) :: rest -> (
        match ty with
        | T_name | T_u64 -> (n, ty, off) :: go (off + 8) rest
        | T_u32 -> (n, ty, off) :: go (off + 4) rest
        | T_asset -> (n, ty, off) :: go (off + 16) rest
        | T_string -> [ (n, ty, off) ])
  in
  go 0 def.act_params

(** The canonical [transfer(name from, name to, asset quantity, string memo)]
    signature every eosponser shares. *)
let transfer_action =
  {
    act_name = Name.transfer;
    act_params =
      [ ("from", T_name); ("to", T_name); ("quantity", T_asset); ("memo", T_string) ];
  }

(** The canonical profitable-contract ABI — [transfer] plus the
    deposit/setup/reveal trio the gambling-style templates share.  This is
    the single source of truth for the default action set: the CLI and
    campaign discovery fall back to it when a contract ships no ABI
    sidecar, and the benchmark generator builds its contracts against it. *)
let default_profitable =
  {
    abi_actions =
      [
        transfer_action;
        {
          act_name = Name.of_string "deposit";
          act_params = [ ("player", T_name); ("amount", T_u64) ];
        };
        { act_name = Name.of_string "setup"; act_params = [ ("value", T_u64) ] };
        {
          act_name = Name.of_string "reveal";
          act_params = [ ("player", T_name) ];
        };
      ];
  }

(* ------------------------------------------------------------------ *)
(* Textual ABI format                                                  *)
(* ------------------------------------------------------------------ *)

(* One action per line: [name(param:type,param:type)]; '#' comments. *)

exception Parse_error of string

let param_type_of_string = function
  | "name" -> T_name
  | "uint64" | "u64" -> T_u64
  | "uint32" | "u32" -> T_u32
  | "asset" -> T_asset
  | "string" -> T_string
  | s -> raise (Parse_error (Printf.sprintf "unknown type %S" s))

let parse_action_line (line : string) : action_def =
  match String.index_opt line '(' with
  | None -> raise (Parse_error ("missing '(' in " ^ line))
  | Some lp ->
      let rp =
        match String.rindex_opt line ')' with
        | Some i when i > lp -> i
        | _ -> raise (Parse_error ("missing ')' in " ^ line))
      in
      let name = String.trim (String.sub line 0 lp) in
      let params_s = String.sub line (lp + 1) (rp - lp - 1) in
      let params =
        if String.trim params_s = "" then []
        else
          String.split_on_char ',' params_s
          |> List.map (fun p ->
                 match String.split_on_char ':' (String.trim p) with
                 | [ n; ty ] -> (String.trim n, param_type_of_string (String.trim ty))
                 | _ -> raise (Parse_error ("bad parameter " ^ p)))
      in
      let act_name =
        try Name.of_string name
        with Invalid_argument msg ->
          raise (Parse_error (Printf.sprintf "bad action name %S (%s)" name msg))
      in
      { act_name; act_params = params }

(** Parse the textual ABI format. *)
let of_text (text : string) : t =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  { abi_actions = List.map parse_action_line lines }

let to_text (abi : t) : string =
  String.concat "\n"
    (List.map
       (fun a ->
         Printf.sprintf "%s(%s)"
           (Name.to_string a.act_name)
           (String.concat ","
              (List.map
                 (fun (n, ty) -> n ^ ":" ^ string_of_param_type ty)
                 a.act_params)))
       abi.abi_actions)
  ^ "\n"

let token_abi =
  {
    abi_actions =
      [
        transfer_action;
        {
          act_name = Name.of_string "issue";
          act_params = [ ("to", T_name); ("quantity", T_asset); ("memo", T_string) ];
        };
        {
          act_name = Name.of_string "create";
          act_params = [ ("issuer", T_name); ("maxsupply", T_asset) ];
        };
      ];
  }
