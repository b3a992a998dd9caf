(** Bit-blasting: translate bitvector expressions to CNF (Tseitin
    encoding) over the {!Sat} solver.

    Every expression becomes an array of SAT literals, least-significant
    bit first.  Arithmetic uses ripple-carry adders, shift-add
    multiplication, restoring division and barrel shifters — standard
    circuits, adequate for the ≤64-bit constraints the fuzzer emits. *)

type ctx = {
  sat : Sat.t;
  mutable var_bits : (int, int array) Hashtbl.t;  (** expr var id → literals *)
  mutable cache : (int, int array) Hashtbl.t;  (** expr tag → literals *)
  true_lit : int;
}

(* Variable 0, asserted by a unit clause, is the constant-true literal. *)
let pin_true sat =
  let true_lit = Sat.lit_of_var (Sat.new_var sat) ~positive:true in
  ignore (Sat.add_clause sat [ true_lit ]);
  true_lit

let create () =
  let sat = Sat.create () in
  let true_lit = pin_true sat in
  { sat; var_bits = Hashtbl.create 64; cache = Hashtbl.create 256; true_lit }

(* Fresh tables rather than [Hashtbl.clear]: clearing an old table
   overwrites every bucket, and each overwritten chain is work for the
   major GC's write barrier. *)
let reset ctx =
  Sat.reset ctx.sat;
  ctx.var_bits <- Hashtbl.create 64;
  ctx.cache <- Hashtbl.create 256;
  ignore (pin_true ctx.sat)

let false_lit ctx = Sat.neg ctx.true_lit

let const_lit ctx b = if b then ctx.true_lit else false_lit ctx

let fresh ctx = Sat.lit_of_var (Sat.new_var ctx.sat) ~positive:true

let add2 ctx a b = ignore (Sat.add_clause2 ctx.sat a b)
let add3 ctx a b c = ignore (Sat.add_clause3 ctx.sat a b c)

(* ---- gates ---------------------------------------------------------- *)

let g_and ctx a b =
  if a = false_lit ctx || b = false_lit ctx then false_lit ctx
  else if a = ctx.true_lit then b
  else if b = ctx.true_lit then a
  else if a = b then a
  else if a = Sat.neg b then false_lit ctx
  else begin
    let v = fresh ctx in
    add2 ctx (Sat.neg v) a;
    add2 ctx (Sat.neg v) b;
    add3 ctx v (Sat.neg a) (Sat.neg b);
    v
  end

let g_or ctx a b = Sat.neg (g_and ctx (Sat.neg a) (Sat.neg b))

let g_xor ctx a b =
  if a = false_lit ctx then b
  else if b = false_lit ctx then a
  else if a = ctx.true_lit then Sat.neg b
  else if b = ctx.true_lit then Sat.neg a
  else if a = b then false_lit ctx
  else if a = Sat.neg b then ctx.true_lit
  else begin
    let v = fresh ctx in
    add3 ctx (Sat.neg v) a b;
    add3 ctx (Sat.neg v) (Sat.neg a) (Sat.neg b);
    add3 ctx v a (Sat.neg b);
    add3 ctx v (Sat.neg a) b;
    v
  end

(* mux: c ? a : b *)
let g_mux ctx c a b =
  if c = ctx.true_lit then a
  else if c = false_lit ctx then b
  else if a = b then a
  else begin
    let v = fresh ctx in
    add3 ctx (Sat.neg c) (Sat.neg a) v;
    add3 ctx (Sat.neg c) a (Sat.neg v);
    add3 ctx c (Sat.neg b) v;
    add3 ctx c b (Sat.neg v);
    v
  end

(* ---- word-level circuits -------------------------------------------- *)

let adder ctx ?(carry_in : int option) (a : int array) (b : int array) :
    int array =
  let w = Array.length a in
  let out = Array.make w 0 in
  let carry = ref (match carry_in with Some c -> c | None -> false_lit ctx) in
  for i = 0 to w - 1 do
    let axb = g_xor ctx a.(i) b.(i) in
    out.(i) <- g_xor ctx axb !carry;
    carry := g_or ctx (g_and ctx a.(i) b.(i)) (g_and ctx axb !carry)
  done;
  out

let negate_bits ctx (a : int array) : int array =
  let w = Array.length a in
  let inv = Array.map Sat.neg a in
  adder ctx ~carry_in:ctx.true_lit inv (Array.make w (false_lit ctx))

let subtract ctx a b = adder ctx ~carry_in:ctx.true_lit a (Array.map Sat.neg b)

let mul ctx (a : int array) (b : int array) : int array =
  let w = Array.length a in
  let acc = ref (Array.make w (false_lit ctx)) in
  for i = 0 to w - 1 do
    (* Partial product: (a << i) masked by b_i. *)
    let pp =
      Array.init w (fun j -> if j < i then false_lit ctx else g_and ctx a.(j - i) b.(i))
    in
    acc := adder ctx !acc pp
  done;
  !acc

(* a <u b as a single literal (lexicographic from LSB). *)
let ult ctx (a : int array) (b : int array) : int =
  let w = Array.length a in
  let lt = ref (false_lit ctx) in
  for i = 0 to w - 1 do
    let eqi = Sat.neg (g_xor ctx a.(i) b.(i)) in
    lt := g_or ctx (g_and ctx (Sat.neg a.(i)) b.(i)) (g_and ctx eqi !lt)
  done;
  !lt

let eq_bits ctx (a : int array) (b : int array) : int =
  let w = Array.length a in
  let acc = ref ctx.true_lit in
  for i = 0 to w - 1 do
    acc := g_and ctx !acc (Sat.neg (g_xor ctx a.(i) b.(i)))
  done;
  !acc

let is_zero ctx (a : int array) : int =
  let acc = ref ctx.true_lit in
  Array.iter (fun l -> acc := g_and ctx !acc (Sat.neg l)) a;
  !acc

let mux_bits ctx c (a : int array) (b : int array) : int array =
  Array.init (Array.length a) (fun i -> g_mux ctx c a.(i) b.(i))

(* Restoring division: returns (quotient, remainder); division by zero
   yields q = all-ones, r = a, matching Expr.eval_binop. *)
let udivrem ctx (a : int array) (b : int array) : int array * int array =
  let w = Array.length a in
  let q = Array.make w (false_lit ctx) in
  let r = ref (Array.make w (false_lit ctx)) in
  for i = w - 1 downto 0 do
    (* r = (r << 1) | a_i *)
    let shifted = Array.init w (fun j -> if j = 0 then a.(i) else !r.(j - 1)) in
    let geq = Sat.neg (ult ctx shifted b) in
    let diff = subtract ctx shifted b in
    q.(i) <- geq;
    r := mux_bits ctx geq diff shifted
  done;
  let bz = is_zero ctx b in
  let all_ones = Array.make w ctx.true_lit in
  (mux_bits ctx bz all_ones q, mux_bits ctx bz a !r)

(* Power-of-two barrel shifter; Wasm masks the amount to log2 w bits. *)
let log2 w = match w with 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3 | 16 -> 4 | 32 -> 5 | 64 -> 6 | _ -> invalid_arg "Bitblast: shift on non-power-of-two width"

let shifter ctx ~(kind : [ `Shl | `Lshr | `Ashr | `Rotl | `Rotr ])
    (a : int array) (amt : int array) : int array =
  let w = Array.length a in
  let stages = log2 w in
  let fill_bit = match kind with `Ashr -> a.(w - 1) | _ -> false_lit ctx in
  let cur = ref (Array.copy a) in
  for s = 0 to stages - 1 do
    let k = 1 lsl s in
    let c = !cur in
    let shifted =
      Array.init w (fun j ->
          match kind with
          | `Shl -> if j >= k then c.(j - k) else false_lit ctx
          | `Lshr | `Ashr -> if j + k < w then c.(j + k) else fill_bit
          | `Rotl -> c.((j - k + w) mod w)
          | `Rotr -> c.((j + k) mod w))
    in
    cur := mux_bits ctx amt.(s) shifted c
  done;
  !cur

let popcount ctx (a : int array) : int array =
  let w = Array.length a in
  let acc = ref (Array.make w (false_lit ctx)) in
  Array.iter
    (fun bit ->
      let one = Array.init w (fun j -> if j = 0 then bit else false_lit ctx) in
      acc := adder ctx !acc one)
    a;
  !acc

let count_zeros ctx ~(from_msb : bool) (a : int array) : int array =
  let w = Array.length a in
  let const_arr v =
    Array.init w (fun j ->
        const_lit ctx (Int64.logand (Int64.shift_right_logical (Int64.of_int v) j) 1L = 1L))
  in
  let res = ref (const_arr w) in
  let order = if from_msb then List.init w (fun i -> i) else List.init w (fun i -> w - 1 - i) in
  (* Fold so the bit with highest priority is applied last. *)
  List.iter
    (fun i ->
      let v = if from_msb then w - 1 - i else i in
      res := mux_bits ctx a.(i) (const_arr v) !res)
    order;
  !res

(* ---- expression translation ----------------------------------------- *)

let rec blast (ctx : ctx) (e : Expr.t) : int array =
  match Hashtbl.find_opt ctx.cache e.Expr.tag with
  | Some bits -> bits
  | None ->
      let bits = blast_uncached ctx e in
      Hashtbl.replace ctx.cache e.Expr.tag bits;
      bits

and blast_uncached ctx (e : Expr.t) : int array =
  let open Expr in
  match e.node with
  | Const (w, v) ->
      Array.init w (fun i ->
          const_lit ctx (Int64.logand (Int64.shift_right_logical v i) 1L = 1L))
  | Var v -> (
      match Hashtbl.find_opt ctx.var_bits v.vid with
      | Some bits -> bits
      | None ->
          let bits = Array.init v.vwidth (fun _ -> fresh ctx) in
          Hashtbl.replace ctx.var_bits v.vid bits;
          bits)
  | Unop (Not, a) -> Array.map Sat.neg (blast ctx a)
  | Unop (Neg, a) -> negate_bits ctx (blast ctx a)
  | Unop (Popcnt, a) -> popcount ctx (blast ctx a)
  | Unop (Clz, a) -> count_zeros ctx ~from_msb:true (blast ctx a)
  | Unop (Ctz, a) -> count_zeros ctx ~from_msb:false (blast ctx a)
  | Binop (op, a, b) -> blast_binop ctx op (blast ctx a) (blast ctx b)
  | Cmp (op, a, b) ->
      let ba = blast ctx a and bb = blast ctx b in
      [| blast_cmp ctx op ba bb |]
  | Ite (c, a, b) ->
      let bc = blast ctx c in
      mux_bits ctx bc.(0) (blast ctx a) (blast ctx b)
  | Extract (hi, lo, a) ->
      let ba = blast ctx a in
      Array.sub ba lo (hi - lo + 1)
  | Concat (hi, lo) ->
      let bl = blast ctx lo and bh = blast ctx hi in
      Array.append bl bh
  | Zext (w, a) ->
      let ba = blast ctx a in
      Array.init w (fun i -> if i < Array.length ba then ba.(i) else false_lit ctx)
  | Sext (w, a) ->
      let ba = blast ctx a in
      let msb = ba.(Array.length ba - 1) in
      Array.init w (fun i -> if i < Array.length ba then ba.(i) else msb)

and blast_binop ctx (op : Expr.binop) a b : int array =
  let w = Array.length a in
  match op with
  | Expr.Add -> adder ctx a b
  | Expr.Sub -> subtract ctx a b
  | Expr.Mul -> mul ctx a b
  | Expr.And -> Array.init w (fun i -> g_and ctx a.(i) b.(i))
  | Expr.Or -> Array.init w (fun i -> g_or ctx a.(i) b.(i))
  | Expr.Xor -> Array.init w (fun i -> g_xor ctx a.(i) b.(i))
  | Expr.Udiv -> fst (udivrem ctx a b)
  | Expr.Urem -> snd (udivrem ctx a b)
  | Expr.Sdiv ->
      let sa = a.(w - 1) and sb = b.(w - 1) in
      let abs_a = mux_bits ctx sa (negate_bits ctx a) a in
      let abs_b = mux_bits ctx sb (negate_bits ctx b) b in
      let q, _ = udivrem ctx abs_a abs_b in
      let sign = g_xor ctx sa sb in
      (* Division by zero must still yield all-ones (Expr.eval semantics). *)
      let bz = is_zero ctx b in
      let signed_q = mux_bits ctx sign (negate_bits ctx q) q in
      mux_bits ctx bz (Array.make w ctx.true_lit) signed_q
  | Expr.Srem ->
      let sa = a.(w - 1) and sb = b.(w - 1) in
      let abs_a = mux_bits ctx sa (negate_bits ctx a) a in
      let abs_b = mux_bits ctx sb (negate_bits ctx b) b in
      let _, r = udivrem ctx abs_a abs_b in
      let signed_r = mux_bits ctx sa (negate_bits ctx r) r in
      let bz = is_zero ctx b in
      mux_bits ctx bz a signed_r
  | Expr.Shl -> shifter ctx ~kind:`Shl a b
  | Expr.Lshr -> shifter ctx ~kind:`Lshr a b
  | Expr.Ashr -> shifter ctx ~kind:`Ashr a b
  | Expr.Rotl -> shifter ctx ~kind:`Rotl a b
  | Expr.Rotr -> shifter ctx ~kind:`Rotr a b

and blast_cmp ctx (op : Expr.cmp) a b : int =
  let w = Array.length a in
  let flip_msb (x : int array) =
    Array.init w (fun i -> if i = w - 1 then Sat.neg x.(i) else x.(i))
  in
  match op with
  | Expr.Eq -> eq_bits ctx a b
  | Expr.Ult -> ult ctx a b
  | Expr.Ule -> Sat.neg (ult ctx b a)
  | Expr.Slt -> ult ctx (flip_msb a) (flip_msb b)
  | Expr.Sle -> Sat.neg (ult ctx (flip_msb b) (flip_msb a))

(** Assert a width-1 expression true. *)
let assert_true ctx (e : Expr.t) =
  let bits = blast ctx e in
  ignore (Sat.add_clause ctx.sat [ bits.(0) ])

(** Extract the value of an expression variable from the SAT model. *)
let model_of_var ctx (v : Expr.var) : int64 =
  match Hashtbl.find_opt ctx.var_bits v.vid with
  | None -> 0L  (* unconstrained *)
  | Some bits ->
      let r = ref 0L in
      for i = Array.length bits - 1 downto 0 do
        let lit = bits.(i) in
        let var_val = Sat.model_value ctx.sat (Sat.var_of_lit lit) in
        let bit_val = if lit land 1 = 0 then var_val else not var_val in
        (* Constant lits resolve through the pinned true variable. *)
        r := Int64.logor (Int64.shift_left !r 1) (if bit_val then 1L else 0L)
      done;
      !r
