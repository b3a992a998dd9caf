(** Application Binary Interface of a contract: the action signatures the
    compiler emits next to the Wasm binary, plus the binary
    (de)serialisation of action data.

    Serialisation is little-endian: [name]/[u64] are 8 bytes, [u32] is 4,
    [asset] is 16 (amount then symbol), [string] is one length byte
    followed by the content (≤ 255 bytes), matching the memory layout of
    the paper's Table 2. *)

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

val find_action : t -> Name.t -> action_def option
val string_of_param_type : param_type -> string
val type_of_value : value -> param_type
val string_of_value : value -> string
val serialized_size : value -> int

val add_le : Buffer.t -> int -> int64 -> unit
(** Append a little-endian fixed-width integer. *)

val serialize : value list -> string
(** Serialise action arguments into the byte stream fed to contracts. *)

val read_le : string -> int -> int -> int64

exception Deserialize_error of string

val deserialize : action_def -> string -> value list

val static_offsets : action_def -> (string * param_type * int) list
(** Offsets of each parameter in the serialised stream, up to the first
    string (Table 2's layout). *)

(** {1 Textual ABI format}

    One action per line, e.g.
    [transfer(from:name,to:name,quantity:asset,memo:string)];
    ['#'] starts a comment. *)

exception Parse_error of string

val of_text : string -> t
(** Raises {!Parse_error}, and nothing else, on malformed text. *)

val to_text : t -> string

val transfer_action : action_def
(** The canonical [transfer] signature every eosponser shares. *)

val default_profitable : t
(** The canonical profitable-contract ABI:
    [transfer(from:name,to:name,quantity:asset,memo:string)] plus
    [deposit(player:name,amount:u64)], [setup(value:u64)] and
    [reveal(player:name)].  The CLI and campaign discovery use it when a
    contract ships no ABI sidecar; the benchmark generator emits its
    contracts against the same action set, so the fallback is always
    consistent with generated corpora. *)

val token_abi : t
