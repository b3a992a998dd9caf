(** Bitvector expressions (widths 1–64), the constraint language of the
    symbolic executor.

    This stands in for Z3's BitVec terms (the sealed container has no Z3);
    booleans are width-1 vectors.  Expressions are hash-consed: every node
    is interned in a per-domain table, so structurally equal expressions
    built in one domain are physically shared, carry a precomputed hash,
    width and variable-occurrence bit, and a process-unique [tag] that
    downstream passes (bit-blasting, substitution) use as a memoization
    key.  Smart constructors fold constants aggressively and normalize
    operand order so that fully concrete replays never reach the solver
    and recurring constraints share one representative. *)

type width = int

type var = {
  vid : int;
  vname : string;
  vwidth : width;
}

type unop =
  | Not  (** bitwise complement *)
  | Neg  (** two's complement negation *)
  | Popcnt
  | Clz
  | Ctz

type binop =
  | Add | Sub | Mul
  | Udiv | Urem | Sdiv | Srem
  | And | Or | Xor
  | Shl | Lshr | Ashr
  | Rotl | Rotr

type cmp = Eq | Ult | Slt | Ule | Sle

type t = {
  node : node;
  tag : int;
  hkey : int;
  ewidth : width;
  evars : bool;
}

and node =
  | Const of width * int64  (** value masked to width *)
  | Var of var
  | Unop of unop * t
  | Binop of binop * t * t
  | Cmp of cmp * t * t  (** width-1 result *)
  | Ite of t * t * t  (** condition has width 1 *)
  | Extract of int * int * t  (** [Extract (hi, lo, e)], bits lo..hi inclusive *)
  | Concat of t * t  (** [Concat (hi, lo)]: hi bits above lo bits *)
  | Zext of width * t
  | Sext of width * t

(* ------------------------------------------------------------------ *)
(* Widths and masking                                                  *)
(* ------------------------------------------------------------------ *)

let mask width (v : int64) =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let width_of e = e.ewidth

(** Interpret a masked value of [width] bits as a signed int64. *)
let to_signed width (v : int64) =
  if width >= 64 then v
  else
    let sign_bit = Int64.shift_left 1L (width - 1) in
    if Int64.logand v sign_bit = 0L then v
    else Int64.sub v (Int64.shift_left 1L width)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

let hash e = e.hkey

let unop_rank = function Not -> 0 | Neg -> 1 | Popcnt -> 2 | Clz -> 3 | Ctz -> 4

let binop_rank = function
  | Add -> 0 | Sub -> 1 | Mul -> 2
  | Udiv -> 3 | Urem -> 4 | Sdiv -> 5 | Srem -> 6
  | And -> 7 | Or -> 8 | Xor -> 9
  | Shl -> 10 | Lshr -> 11 | Ashr -> 12
  | Rotl -> 13 | Rotr -> 14

let cmp_rank = function Eq -> 0 | Ult -> 1 | Slt -> 2 | Ule -> 3 | Sle -> 4

(* Structural hash built from the children's [hkey]s, so it is O(1) per
   node, deterministic given variable ids, and equal for structurally
   equal expressions whether or not they are physically shared. *)
let hash_node n =
  let comb h x = ((h * 65599) + x) land 0x3FFFFFFF in
  match n with
  | Const (w, v) ->
      comb (comb 1 w)
        (Int64.to_int (Int64.logxor v (Int64.shift_right_logical v 31))
        land 0x3FFFFFFF)
  | Var v -> comb 2 v.vid
  | Unop (op, a) -> comb (comb 3 (unop_rank op)) a.hkey
  | Binop (op, a, b) -> comb (comb (comb 4 (binop_rank op)) a.hkey) b.hkey
  | Cmp (op, a, b) -> comb (comb (comb 5 (cmp_rank op)) a.hkey) b.hkey
  | Ite (c, a, b) -> comb (comb (comb 6 c.hkey) a.hkey) b.hkey
  | Extract (hi, lo, a) -> comb (comb (comb 7 hi) lo) a.hkey
  | Concat (a, b) -> comb (comb 8 a.hkey) b.hkey
  | Zext (w, a) -> comb (comb 9 w) a.hkey
  | Sext (w, a) -> comb (comb 10 w) a.hkey

(* Shallow equality for the intern table: children compare by physical
   identity because they are already interned. *)
let node_shallow_equal n1 n2 =
  match (n1, n2) with
  | Const (w1, v1), Const (w2, v2) -> w1 = w2 && Int64.equal v1 v2
  | Var v1, Var v2 -> v1.vid = v2.vid
  | Unop (o1, a1), Unop (o2, a2) -> o1 = o2 && a1 == a2
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
  | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
  | Extract (h1, l1, a1), Extract (h2, l2, a2) ->
      h1 = h2 && l1 = l2 && a1 == a2
  | Concat (a1, b1), Concat (a2, b2) -> a1 == a2 && b1 == b2
  | Zext (w1, a1), Zext (w2, a2) -> w1 = w2 && a1 == a2
  | Sext (w1, a1), Sext (w2, a2) -> w1 = w2 && a1 == a2
  | _ -> false

module Node_tbl = Hashtbl.Make (struct
  type nonrec t = node

  let equal = node_shallow_equal
  let hash = hash_node
end)

let node_width = function
  | Const (w, _) -> w
  | Var v -> v.vwidth
  | Unop (_, a) -> a.ewidth
  | Binop (_, a, _) -> a.ewidth
  | Cmp _ -> 1
  | Ite (_, a, _) -> a.ewidth
  | Extract (hi, lo, _) -> hi - lo + 1
  | Concat (a, b) -> a.ewidth + b.ewidth
  | Zext (w, _) | Sext (w, _) -> w

let node_evars = function
  | Const _ -> false
  | Var _ -> true
  | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a) -> a.evars
  | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) -> a.evars || b.evars
  | Ite (c, a, b) -> c.evars || a.evars || b.evars

(* Tags come from a global atomic so they are unique process-wide: an
   expression built at module-initialization time (e.g. [true_]) can be
   mixed into any domain's terms without colliding in tag-keyed memo
   tables.  The intern tables themselves are per-domain (expressions
   never migrate between campaign workers), strong — GC-driven sharing
   would make the ==-shortcuts nondeterministic — and bounded only by
   [hashcons_compact] at session boundaries. *)
let tag_counter = Atomic.make 0

let intern_tbl : t Node_tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Node_tbl.create 4096)

let intern (n : node) : t =
  let tbl = Domain.DLS.get intern_tbl in
  match Node_tbl.find_opt tbl n with
  | Some e -> e
  | None ->
      let e =
        {
          node = n;
          tag = Atomic.fetch_and_add tag_counter 1 + 1;
          hkey = hash_node n;
          ewidth = node_width n;
          evars = node_evars n;
        }
      in
      Node_tbl.add tbl n e;
      e

let hashcons_stats () =
  (Node_tbl.length (Domain.DLS.get intern_tbl), Atomic.get tag_counter)

(* A session's variables are its own, so nodes interned by earlier
   sessions are mostly garbage the table keeps alive.  The default bound
   also keeps the table's bucket array small: marking it pushes about
   one mark-stack entry per bucket, and the OCaml 5.1 runtime compresses
   a mark stack above 1/32 of the heap in an address-dependent way,
   which makes GC counts differ between identical runs. *)
let hashcons_compact ?(threshold = 1 lsl 14) () =
  let tbl = Domain.DLS.get intern_tbl in
  if Node_tbl.length tbl > threshold then Node_tbl.reset tbl

(* Structural equality: physical identity is the common case within a
   domain; the deep fallback (variables by id) keeps equality exact for
   expressions interned on different sides of a compaction or domain
   boundary.  [hkey] prunes almost all unequal comparisons. *)
let rec equal a b =
  a == b
  || a.hkey = b.hkey && a.ewidth = b.ewidth
     &&
     match (a.node, b.node) with
     | Const (w1, v1), Const (w2, v2) -> w1 = w2 && Int64.equal v1 v2
     | Var v1, Var v2 -> v1.vid = v2.vid
     | Unop (o1, x), Unop (o2, y) -> o1 = o2 && equal x y
     | Binop (o1, x1, y1), Binop (o2, x2, y2) ->
         o1 = o2 && equal x1 x2 && equal y1 y2
     | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
         o1 = o2 && equal x1 x2 && equal y1 y2
     | Ite (c1, x1, y1), Ite (c2, x2, y2) ->
         equal c1 c2 && equal x1 x2 && equal y1 y2
     | Extract (h1, l1, x), Extract (h2, l2, y) ->
         h1 = h2 && l1 = l2 && equal x y
     | Concat (x1, y1), Concat (x2, y2) -> equal x1 x2 && equal y1 y2
     | Zext (w1, x), Zext (w2, y) | Sext (w1, x), Sext (w2, y) ->
         w1 = w2 && equal x y
     | _ -> false

let node_rank = function
  | Const _ -> 0 | Var _ -> 1 | Unop _ -> 2 | Binop _ -> 3 | Cmp _ -> 4
  | Ite _ -> 5 | Extract _ -> 6 | Concat _ -> 7 | Zext _ -> 8 | Sext _ -> 9

(* Deterministic structural order used to canonicalize commutative
   operands.  Deliberately blind to [vid] and [tag] (both depend on
   allocation order, which is scheduling-dependent under parallel
   campaigns): variables compare by width then name.  Distinct variables
   may therefore compare equal — callers must keep the original operand
   order on ties so the result stays deterministic. *)
let rec struct_compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Const (w1, v1), Const (w2, v2) ->
        let c = Int.compare w1 w2 in
        if c <> 0 then c else Int64.unsigned_compare v1 v2
    | Var v1, Var v2 ->
        let c = Int.compare v1.vwidth v2.vwidth in
        if c <> 0 then c else String.compare v1.vname v2.vname
    | Unop (o1, x), Unop (o2, y) ->
        let c = Int.compare (unop_rank o1) (unop_rank o2) in
        if c <> 0 then c else struct_compare x y
    | Binop (o1, x1, y1), Binop (o2, x2, y2) ->
        let c = Int.compare (binop_rank o1) (binop_rank o2) in
        if c <> 0 then c
        else
          let c = struct_compare x1 x2 in
          if c <> 0 then c else struct_compare y1 y2
    | Cmp (o1, x1, y1), Cmp (o2, x2, y2) ->
        let c = Int.compare (cmp_rank o1) (cmp_rank o2) in
        if c <> 0 then c
        else
          let c = struct_compare x1 x2 in
          if c <> 0 then c else struct_compare y1 y2
    | Ite (c1, x1, y1), Ite (c2, x2, y2) ->
        let c = struct_compare c1 c2 in
        if c <> 0 then c
        else
          let c = struct_compare x1 x2 in
          if c <> 0 then c else struct_compare y1 y2
    | Extract (h1, l1, x), Extract (h2, l2, y) ->
        let c = Int.compare h1 h2 in
        if c <> 0 then c
        else
          let c = Int.compare l1 l2 in
          if c <> 0 then c else struct_compare x y
    | Concat (x1, y1), Concat (x2, y2) ->
        let c = struct_compare x1 x2 in
        if c <> 0 then c else struct_compare y1 y2
    | Zext (w1, x), Zext (w2, y) | Sext (w1, x), Sext (w2, y) ->
        let c = Int.compare w1 w2 in
        if c <> 0 then c else struct_compare x y
    | _ -> Int.compare (node_rank a.node) (node_rank b.node)

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)
(* ------------------------------------------------------------------ *)

(* Atomic so concurrent fuzzing domains never mint duplicate ids; verdicts
   do not depend on the numeric id values, only on their uniqueness. *)
let var_counter = Atomic.make 0

let fresh_var ?(name = "v") width : var =
  { vid = Atomic.fetch_and_add var_counter 1 + 1; vname = name; vwidth = width }

let var v = intern (Var v)

(* ------------------------------------------------------------------ *)
(* Constant evaluation of operations                                    *)
(* ------------------------------------------------------------------ *)

let eval_unop w (op : unop) (a : int64) : int64 =
  let a = mask w a in
  match op with
  | Not -> mask w (Int64.lognot a)
  | Neg -> mask w (Int64.neg a)
  | Popcnt ->
      let n = ref 0L in
      for i = 0 to w - 1 do
        if Int64.logand (Int64.shift_right_logical a i) 1L = 1L then
          n := Int64.add !n 1L
      done;
      !n
  | Clz ->
      let rec go i =
        if i < 0 then Int64.of_int w
        else if Int64.logand (Int64.shift_right_logical a i) 1L = 1L then
          Int64.of_int (w - 1 - i)
        else go (i - 1)
      in
      go (w - 1)
  | Ctz ->
      let rec go i =
        if i >= w then Int64.of_int w
        else if Int64.logand (Int64.shift_right_logical a i) 1L = 1L then
          Int64.of_int i
        else go (i + 1)
      in
      go 0

let eval_binop w (op : binop) (a : int64) (b : int64) : int64 =
  let a = mask w a and b = mask w b in
  let sa = to_signed w a and sb = to_signed w b in
  let shift_amt = Int64.to_int (Int64.unsigned_rem b (Int64.of_int w)) in
  match op with
  | Add -> mask w (Int64.add a b)
  | Sub -> mask w (Int64.sub a b)
  | Mul -> mask w (Int64.mul a b)
  | Udiv -> if b = 0L then mask w (-1L) else mask w (Int64.unsigned_div a b)
  | Urem -> if b = 0L then a else mask w (Int64.unsigned_rem a b)
  | Sdiv ->
      if b = 0L then mask w (-1L)
      else if sa = Int64.min_int && sb = -1L then mask w sa
      else mask w (Int64.div sa sb)
  | Srem ->
      if b = 0L then a
      else if sa = Int64.min_int && sb = -1L then 0L
      else mask w (Int64.rem sa sb)
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> mask w (Int64.shift_left a shift_amt)
  | Lshr -> Int64.shift_right_logical a shift_amt
  | Ashr -> mask w (Int64.shift_right (to_signed w a) shift_amt)
  | Rotl ->
      if shift_amt = 0 then a
      else
        mask w
          (Int64.logor
             (Int64.shift_left a shift_amt)
             (Int64.shift_right_logical a (w - shift_amt)))
  | Rotr ->
      if shift_amt = 0 then a
      else
        mask w
          (Int64.logor
             (Int64.shift_right_logical a shift_amt)
             (Int64.shift_left a (w - shift_amt)))

let eval_cmp w (op : cmp) (a : int64) (b : int64) : bool =
  let a = mask w a and b = mask w b in
  match op with
  | Eq -> Int64.equal a b
  | Ult -> Int64.unsigned_compare a b < 0
  | Ule -> Int64.unsigned_compare a b <= 0
  | Slt -> Int64.compare (to_signed w a) (to_signed w b) < 0
  | Sle -> Int64.compare (to_signed w a) (to_signed w b) <= 0

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                   *)
(* ------------------------------------------------------------------ *)

let const width v = intern (Const (width, mask width v))
let bool_ b = const 1 (if b then 1L else 0L)
let true_ = bool_ true
let false_ = bool_ false
let is_true e = match e.node with Const (1, 1L) -> true | _ -> false
let is_false e = match e.node with Const (1, 0L) -> true | _ -> false

let unop op e =
  match (op, e.node) with
  | _, Const (w, v) -> const w (eval_unop w op v)
  | Not, Unop (Not, inner) -> inner
  | Neg, Unop (Neg, inner) -> inner
  | _ -> intern (Unop (op, e))

let rec binop op a b =
  let w = a.ewidth in
  match (a.node, b.node) with
  | Const (_, va), Const (_, vb) -> const w (eval_binop w op va vb)
  | _ -> (
      match (op, a.node, b.node) with
      (* Identity / absorption rules keep replay expressions small. *)
      | Add, _, Const (_, 0L) -> a
      | Add, Const (_, 0L), _ -> b
      | Sub, _, Const (_, 0L) -> a
      | Sub, _, _ when equal a b -> const w 0L
      (* Subtraction by a constant becomes addition of its negation, so
         constant chains reassociate through one rule. *)
      | Sub, _, Const (wc, c) -> binop Add (const wc (Int64.neg c)) a
      | Mul, _, Const (_, 0L) | Mul, Const (_, 0L), _ -> const w 0L
      | Mul, _, Const (_, 1L) -> a
      | Mul, Const (_, 1L), _ -> b
      | And, _, Const (_, 0L) | And, Const (_, 0L), _ -> const w 0L
      | And, _, Const (w', m) when m = mask w' (-1L) -> a
      | And, Const (w', m), _ when m = mask w' (-1L) -> b
      | And, _, _ when equal a b -> a
      | Or, _, Const (_, 0L) -> a
      | Or, Const (_, 0L), _ -> b
      | Or, _, Const (w', m) when m = mask w' (-1L) -> const w (mask w (-1L))
      | Or, Const (w', m), _ when m = mask w' (-1L) -> const w (mask w (-1L))
      | Or, _, _ when equal a b -> a
      | Xor, _, Const (_, 0L) -> a
      | Xor, Const (_, 0L), _ -> b
      | Xor, _, _ when equal a b -> const w 0L
      | (Shl | Lshr | Ashr), _, Const (_, 0L) -> a
      | (Udiv | Sdiv), _, Const (_, 1L) -> a
      | (Urem | Srem), _, Const (_, 1L) -> const w 0L
      (* Constant-on-left normalisation for commutative ops (recursing
         exposes the reassociation rule below to the swapped pair). *)
      | (Add | Mul | And | Or | Xor), _, Const _ -> binop op b a
      (* Reassociate c1 ⋄ (c2 ⋄ e) -> (c1⋄c2) ⋄ e. *)
      | ( (Add | Mul | And | Or | Xor),
          Const (w1, c1),
          Binop (op', { node = Const (_, c2); _ }, e) )
        when op' = op ->
          binop op (const w1 (eval_binop w1 op c1 c2)) e
      | _ ->
          (* Canonical operand order for commutative ops; ties (e.g. two
             variables with the same name and width) keep the original
             order, so the choice never depends on vid or tag. *)
          let a, b =
            match op with
            | Add | Mul | And | Or | Xor ->
                if struct_compare a b > 0 then (b, a) else (a, b)
            | _ -> (a, b)
          in
          intern (Binop (op, a, b)))

let rec cmp op a b =
  let w = a.ewidth in
  match (a.node, b.node) with
  | Const (_, va), Const (_, vb) -> bool_ (eval_cmp w op va vb)
  | _ when equal a b -> (
      match op with Eq | Ule | Sle -> true_ | Ult | Slt -> false_)
  (* popcnt(y) == 0 <=> y == 0, and clz/ctz(y) == width <=> y == 0:
     undoes popcount-encoded equality tests without a counting circuit. *)
  | Unop (Popcnt, y), Const (_, 0L) when op = Eq -> cmp Eq y (const w 0L)
  | Const (_, 0L), Unop (Popcnt, y) when op = Eq -> cmp Eq y (const w 0L)
  | Unop ((Clz | Ctz), y), Const (_, c) when op = Eq && c = Int64.of_int w ->
      cmp Eq y (const w 0L)
  (* (c1 + e) == c2  <=>  e == c2 - c1 *)
  | Binop (Add, { node = Const (w1, c1); _ }, e), Const (_, c2) when op = Eq ->
      cmp Eq e (const w1 (Int64.sub c2 c1))
  (* (e xor c1) == c2  <=>  e == c1 xor c2 *)
  | Binop (Xor, { node = Const (w1, c1); _ }, e), Const (_, c2) when op = Eq ->
      cmp Eq e (const w1 (Int64.logxor c1 c2))
  (* zext(e) == c  <=>  e == c when c fits, else false *)
  | Zext (_, e), Const (_, c) when op = Eq ->
      if Int64.equal (mask e.ewidth c) c then cmp Eq e (const e.ewidth c)
      else false_
  (* b == 1:1  <=>  b, and b == 0:1  <=>  not b (as [not_] builds it):
     exposes a flipped branch's inner [x == c] to the solver's quick path. *)
  | _, Const (1, v) when op = Eq ->
      if v = 1L then a else binop Xor (const 1 1L) a
  (* Constant-on-right normalisation for equality. *)
  | Const _, _ when op = Eq -> cmp Eq b a
  | _ ->
      let a, b =
        match (op, a.node, b.node) with
        | Eq, Const _, _ | Eq, _, Const _ -> (a, b)
        | Eq, _, _ when struct_compare a b > 0 -> (b, a)
        | _ -> (a, b)
      in
      intern (Cmp (op, a, b))

(* Boolean connectives over width-1 vectors. *)
let not_ e =
  match e.node with
  | Const (1, v) -> bool_ (v = 0L)
  | _ -> binop Xor e (const 1 1L)

let ite c a b =
  match c.node with
  | Const (1, 1L) -> a
  | Const (1, 0L) -> b
  | _ -> (
      if equal a b then a
      else
        match (a.node, b.node) with
        | Const (1, 1L), Const (1, 0L) -> c
        | Const (1, 0L), Const (1, 1L) -> not_ c
        | _ -> intern (Ite (c, a, b)))

let rec extract hi lo e =
  let w = e.ewidth in
  if lo = 0 && hi = w - 1 then e
  else
    match e.node with
    | Const (_, v) -> const (hi - lo + 1) (Int64.shift_right_logical v lo)
    | Extract (_, lo', inner) -> extract (hi + lo') (lo + lo') inner
    | Concat (_, b) when hi < b.ewidth -> extract hi lo b
    | Concat (a, b) when lo >= b.ewidth ->
        extract (hi - b.ewidth) (lo - b.ewidth) a
    | Zext (_, inner) when hi < inner.ewidth -> extract hi lo inner
    | Zext (_, inner) when lo >= inner.ewidth -> const (hi - lo + 1) 0L
    | _ -> intern (Extract (hi, lo, e))

let concat hi lo =
  match (hi.node, lo.node) with
  | Const (wh, vh), Const (wl, vl) ->
      const (wh + wl) (Int64.logor (Int64.shift_left vh wl) vl)
  (* Adjacent slices of one term merge, so a word reloaded byte by byte
     is that word again. *)
  | Extract (h1, l1, x), Extract (h2, l2, y) when l1 = h2 + 1 && equal x y ->
      extract h1 l2 x
  | _ -> intern (Concat (hi, lo))

let rec zext w e =
  let we = e.ewidth in
  if w = we then e
  else
    match e.node with
    | Const (_, v) -> const w v
    | Zext (w', inner) when w' >= inner.ewidth -> zext w inner
    | _ -> intern (Zext (w, e))

let rec sext w e =
  let we = e.ewidth in
  if w = we then e
  else
    match e.node with
    | Const (_, v) -> const w (to_signed we v)
    | Sext (w', inner) when w' >= inner.ewidth -> sext w inner
    | Zext (w', inner) when w' > inner.ewidth -> zext w inner
    | _ -> intern (Sext (w, e))

let and_ a b =
  if is_false a || is_false b then false_
  else if is_true a then b
  else if is_true b then a
  else binop And a b

let or_ a b =
  if is_true a || is_true b then true_
  else if is_false a then b
  else if is_false b then a
  else binop Or a b

let conj = List.fold_left and_ true_
let eq a b = cmp Eq a b
let ne a b = not_ (cmp Eq a b)

(* ------------------------------------------------------------------ *)
(* Traversals                                                           *)
(* ------------------------------------------------------------------ *)

(* All traversals are DAG-aware: nodes are visited once, keyed by tag.
   Subtrees without variables are skipped outright via [evars]. *)

let iter_vars f e =
  let seen = Hashtbl.create 64 in
  let rec go e =
    if e.evars && not (Hashtbl.mem seen e.tag) then begin
      Hashtbl.add seen e.tag ();
      match e.node with
      | Const _ -> ()
      | Var v -> f v
      | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a) -> go a
      | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) ->
          go a;
          go b
      | Ite (c, a, b) ->
          go c;
          go a;
          go b
    end
  in
  go e

let vars e =
  let tbl = Hashtbl.create 16 in
  iter_vars (fun v -> Hashtbl.replace tbl v.vid v) e;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let contains_var_memo (memo : (int, bool) Hashtbl.t) pred e =
  let rec go e =
    if not e.evars then false
    else
      match Hashtbl.find_opt memo e.tag with
      | Some r -> r
      | None ->
          let r =
            match e.node with
            | Const _ -> false
            | Var v -> pred v
            | Unop (_, a) | Extract (_, _, a) | Zext (_, a) | Sext (_, a) ->
                go a
            | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) -> go a || go b
            | Ite (c, a, b) -> go c || go a || go b
          in
          Hashtbl.add memo e.tag r;
          r
  in
  go e

let contains_var pred e = contains_var_memo (Hashtbl.create 64) pred e
let has_any_var e = e.evars

(** Substitute variables by [f] in each expression; [None] keeps the
    variable.  One memo, keyed by tag, serves the whole list. *)
let subst_all (f : var -> t option) (es : t list) : t list =
  let memo = Hashtbl.create 64 in
  let rec go e =
    if not e.evars then e
    else
      match Hashtbl.find_opt memo e.tag with
      | Some r -> r
      | None ->
          let r =
            match e.node with
            | Const _ -> e
            | Var v -> ( match f v with Some e' -> e' | None -> e)
            | Unop (op, a) -> unop op (go a)
            | Binop (op, a, b) -> binop op (go a) (go b)
            | Cmp (op, a, b) -> cmp op (go a) (go b)
            | Ite (c, a, b) -> ite (go c) (go a) (go b)
            | Extract (hi, lo, a) -> extract hi lo (go a)
            | Concat (a, b) -> concat (go a) (go b)
            | Zext (w, a) -> zext w (go a)
            | Sext (w, a) -> sext w (go a)
          in
          Hashtbl.add memo e.tag r;
          r
  in
  List.map go es

(** Evaluate under a full assignment; raises [Not_found] on unassigned
    variables. *)
let eval (env : (int, int64) Hashtbl.t) (e : t) : int64 =
  let memo = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo e.tag with
    | Some v -> v
    | None ->
        let v =
          match e.node with
          | Const (_, v) -> v
          | Var v -> mask v.vwidth (Hashtbl.find env v.vid)
          | Unop (op, a) -> eval_unop a.ewidth op (go a)
          | Binop (op, a, b) -> eval_binop a.ewidth op (go a) (go b)
          | Cmp (op, a, b) ->
              if eval_cmp a.ewidth op (go a) (go b) then 1L else 0L
          | Ite (c, a, b) -> if go c = 1L then go a else go b
          | Extract (hi, lo, a) ->
              mask (hi - lo + 1) (Int64.shift_right_logical (go a) lo)
          | Concat (a, b) ->
              Int64.logor (Int64.shift_left (go a) b.ewidth) (go b)
          | Zext (w, a) -> mask w (go a)
          | Sext (w, a) -> mask w (to_signed a.ewidth (go a))
        in
        Hashtbl.add memo e.tag v;
        v
  in
  go e

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)
(* ------------------------------------------------------------------ *)

let string_of_unop = function
  | Not -> "not" | Neg -> "neg" | Popcnt -> "popcnt" | Clz -> "clz" | Ctz -> "ctz"

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*"
  | Udiv -> "/u" | Urem -> "%u" | Sdiv -> "/s" | Srem -> "%s"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Shl -> "<<" | Lshr -> ">>u" | Ashr -> ">>s"
  | Rotl -> "rotl" | Rotr -> "rotr"

let string_of_cmp = function
  | Eq -> "==" | Ult -> "<u" | Slt -> "<s" | Ule -> "<=u" | Sle -> "<=s"

let rec to_string e =
  match e.node with
  | Const (w, v) -> Printf.sprintf "%Ld:%d" v w
  | Var v -> Printf.sprintf "%s#%d:%d" v.vname v.vid v.vwidth
  | Unop (op, e) -> Printf.sprintf "%s(%s)" (string_of_unop op) (to_string e)
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (string_of_binop op) (to_string b)
  | Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (to_string a) (string_of_cmp op) (to_string b)
  | Ite (c, a, b) ->
      Printf.sprintf "ite(%s, %s, %s)" (to_string c) (to_string a) (to_string b)
  | Extract (hi, lo, e) -> Printf.sprintf "%s[%d:%d]" (to_string e) hi lo
  | Concat (a, b) -> Printf.sprintf "(%s ++ %s)" (to_string a) (to_string b)
  | Zext (w, e) -> Printf.sprintf "zext%d(%s)" w (to_string e)
  | Sext (w, e) -> Printf.sprintf "sext%d(%s)" w (to_string e)

let pp fmt e = Format.pp_print_string fmt (to_string e)
