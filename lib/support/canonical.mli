(** The one spelling of each number and byte string in the journal,
    corpus and serve wire grammars.  Their readers accept a value only
    in the spelling its writer's own format produces, so every line a
    reader accepts re-renders to the same bytes: [0x10], [1_000], [+5],
    [05], uppercase hex and [nan] are all refused where the writer
    prints [16], [1000], [5] or a lowercase digest. *)

val spelled :
  parse:(string -> 'a option) -> print:('a -> string) -> string -> 'a option
(** [spelled ~parse ~print s] is [parse s] when [print] renders that
    value back to exactly [s], else [None]. *)

val count : string -> int option
(** A non-negative integer as [%d] prints it. *)

val int64 : string -> int64 option
(** A signed 64-bit integer as [%Ld] prints it. *)

val keyed : string -> (string -> 'a option) -> string -> ('a, string) result
(** [keyed key conv field] reads the field [key=value] through
    [conv value]; the error names the key and what was found. *)

val hex_of_string : string -> string
(** Two lowercase hex digits per byte. *)

val string_of_hex : string -> (string, string) result
(** Strict inverse of {!hex_of_string}: an even number of digits, each
    one of [0-9a-f]. *)
