(** Deterministic splitmix64 pseudo-random generator.

    All corpus generation and fuzzing randomness flows through this module
    so experiments are exactly reproducible from a seed (the paper's
    benchmark is fixed; ours is regenerated deterministically). *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

(** Next raw 64-bit value. *)
let next_u64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Independent child generator; lets parallel corpus families share a root
    seed without correlating their streams. *)
let split t = create (next_u64 t)

let next_i32 t = Int64.to_int32 (next_u64 t)

(** Uniform int in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rand.int: bound must be positive";
  (* Keep 62 bits so the value is a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_u64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_u64 t) 1L = 1L

(** Biased coin: true with probability [p]. *)
let flip t ~p = float_of_int (int t 1_000_000) /. 1_000_000. < p

let choose t (xs : 'a list) =
  match xs with
  | [] -> invalid_arg "Rand.choose: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let choose_arr t (xs : 'a array) =
  if Array.length xs = 0 then invalid_arg "Rand.choose_arr: empty array";
  xs.(int t (Array.length xs))

(** Fisher-Yates shuffle (returns a fresh array). *)
let shuffle t xs =
  let a = Array.copy xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

(** Random lowercase base32-ish identifier of length [n] drawn from the
    EOSIO name alphabet (no dots). *)
let eosio_name_string t n =
  let alphabet = "abcdefghijklmnopqrstuvwxyz12345" in
  String.init n (fun _ -> alphabet.[int t (String.length alphabet)])

let ascii_string t n =
  String.init n (fun _ -> Char.chr (32 + int t 95))

(** Deterministic 64-bit mix of two values (a seed root and a per-target
    identity), used to derive scheduling-independent per-target RNG seeds:
    the result depends only on the pair, never on arrival order. *)
let mix a b =
  let t = create a in
  let h = next_u64 t in
  t.state <- Int64.logxor h b;
  next_u64 t
