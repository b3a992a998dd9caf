(* Readers parse with the permissive stdlib converters, then keep the
   value only if the writer's format gives back the very same bytes. *)

let spelled ~parse ~print s =
  match parse s with Some x when print x = s -> Some x | _ -> None

let count s =
  match spelled ~parse:int_of_string_opt ~print:string_of_int s with
  | Some n when n >= 0 -> Some n
  | _ -> None

let int64 = spelled ~parse:Int64.of_string_opt ~print:Int64.to_string

let keyed key conv field =
  match String.index_opt field '=' with
  | Some i when String.sub field 0 i = key -> (
      let v = String.sub field (i + 1) (String.length field - i - 1) in
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: bad value %S" key v))
  | _ -> Error (Printf.sprintf "expected field %S, got %S" key field)

let hex_of_string s =
  let digit n = "0123456789abcdef".[n] in
  String.init
    (2 * String.length s)
    (fun i ->
      let c = Char.code s.[i / 2] in
      if i mod 2 = 0 then digit (c lsr 4) else digit (c land 0xf))

exception Bad_hex

let string_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | _ -> raise Bad_hex
    in
    match
      String.init (n / 2) (fun i ->
          Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
    with
    | bytes -> Ok bytes
    | exception Bad_hex -> Error "bad hex digit"
