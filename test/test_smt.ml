(* Tests for the SMT substrate: SAT solver, expression semantics,
   bit-blasting correctness against the evaluator, and the two-tier
   solver. *)

open Wasai_smt

(* ------------------------------------------------------------------ *)
(* SAT                                                                  *)
(* ------------------------------------------------------------------ *)

let lit v ~pos = Sat.lit_of_var v ~positive:pos

let test_sat_basic () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  ignore (Sat.add_clause s [ lit a ~pos:true; lit b ~pos:true ]);
  ignore (Sat.add_clause s [ lit a ~pos:false ]);
  Alcotest.(check bool) "sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "a false" false (Sat.model_value s a);
  Alcotest.(check bool) "b true" true (Sat.model_value s b)

let test_sat_unsat () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  ignore (Sat.add_clause s [ lit a ~pos:true; lit b ~pos:true ]);
  ignore (Sat.add_clause s [ lit a ~pos:true; lit b ~pos:false ]);
  ignore (Sat.add_clause s [ lit a ~pos:false; lit b ~pos:true ]);
  ignore (Sat.add_clause s [ lit a ~pos:false; lit b ~pos:false ]);
  Alcotest.(check bool) "unsat" true (Sat.solve s = Sat.Unsat)

(* Pigeonhole principle PHP(n+1, n): always unsat, needs real conflict
   analysis to finish quickly. *)
let pigeonhole n =
  let s = Sat.create () in
  let v = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Sat.new_var s)) in
  (* Every pigeon in some hole. *)
  for p = 0 to n do
    ignore
      (Sat.add_clause s (List.init n (fun h -> lit v.(p).(h) ~pos:true)))
  done;
  (* No two pigeons share a hole. *)
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        ignore
          (Sat.add_clause s [ lit v.(p1).(h) ~pos:false; lit v.(p2).(h) ~pos:false ])
      done
    done
  done;
  Sat.solve s

let test_sat_pigeonhole () =
  Alcotest.(check bool) "php(5,4) unsat" true (pigeonhole 4 = Sat.Unsat);
  Alcotest.(check bool) "php(7,6) unsat" true (pigeonhole 6 = Sat.Unsat)

(* Random 3-SAT near the phase transition: whatever the answer, a SAT
   answer must come with a genuine model. *)
let qcheck_random_3sat =
  QCheck.Test.make ~name:"random 3-SAT models are genuine" ~count:60
    QCheck.(pair (int_bound 1000000) (int_range 8 20))
    (fun (seed, nv) ->
      let rng = Wasai_support.Rand.create (Int64.of_int seed) in
      let s = Sat.create () in
      let vars = Array.init nv (fun _ -> Sat.new_var s) in
      let ncl = int_of_float (4.0 *. float_of_int nv) in
      let clauses = ref [] in
      for _ = 1 to ncl do
        let cl =
          List.init 3 (fun _ ->
              lit vars.(Wasai_support.Rand.int rng nv)
                ~pos:(Wasai_support.Rand.bool rng))
        in
        clauses := cl :: !clauses;
        ignore (Sat.add_clause s cl)
      done;
      match Sat.solve s with
      | Sat.Unsat | Sat.Unknown -> true
      | Sat.Sat ->
          List.for_all
            (fun cl ->
              List.exists
                (fun l ->
                  let v = Sat.var_of_lit l in
                  let positive = l land 1 = 0 in
                  Sat.model_value s v = positive)
                cl)
            !clauses)

(* The list-free [add_clause2]/[add_clause3] share [add_clause]'s
   normalisation.  Few variables make duplicates, complementary pairs and
   literals already fixed by an earlier unit common; both solvers must
   then agree on every answer, and with brute force. *)
let qcheck_fixed_arity_clauses =
  QCheck.Test.make ~name:"add_clause2/3 = add_clause" ~count:300
    QCheck.(
      pair (int_range 1 5)
        (list_of_size Gen.(int_range 1 24)
           (list_of_size Gen.(int_range 1 3) (pair (int_bound 4) bool))))
    (fun (nv, stream) ->
      let clauses =
        List.map (List.map (fun (v, pos) -> lit (v mod nv) ~pos)) stream
      in
      let by_list = Sat.create () and by_arity = Sat.create () in
      for _ = 1 to nv do
        ignore (Sat.new_var by_list);
        ignore (Sat.new_var by_arity)
      done;
      let adds_agree =
        List.for_all
          (fun cl ->
            let fixed =
              match cl with
              | [ a; b ] -> Sat.add_clause2 by_arity a b
              | [ a; b; c ] -> Sat.add_clause3 by_arity a b c
              | _ -> Sat.add_clause by_arity cl
            in
            Sat.add_clause by_list cl = fixed)
          clauses
      in
      let answer = Sat.solve by_list and answer' = Sat.solve by_arity in
      let vars = List.init nv Fun.id in
      (* [value v] is variable [v]'s truth value. *)
      let satisfies value =
        List.for_all
          (List.exists (fun l -> value (Sat.var_of_lit l) = (l land 1 = 0)))
          clauses
      in
      let brute_force =
        List.exists
          (fun bits -> satisfies (fun v -> (bits lsr v) land 1 = 1))
          (List.init (1 lsl nv) Fun.id)
      in
      adds_agree && answer = answer'
      && Sat.num_vars by_list = Sat.num_vars by_arity
      && List.for_all
           (fun v -> Sat.model_value by_list v = Sat.model_value by_arity v)
           vars
      && (answer = Sat.Sat) = brute_force
      && (answer <> Sat.Sat || satisfies (Sat.model_value by_list)))

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

let test_expr_fold () =
  let open Expr in
  Alcotest.(check bool) "const fold add" true
    (binop Add (const 32 7L) (const 32 5L) = const 32 12L);
  Alcotest.(check bool) "mask wraps" true
    (binop Add (const 8 255L) (const 8 1L) = const 8 0L);
  Alcotest.(check bool) "eq fold" true (cmp Eq (const 64 3L) (const 64 3L) = true_);
  let v = var (fresh_var ~name:"x" 64) in
  Alcotest.(check bool) "x + 0 = x" true (binop Add v (const 64 0L) = v);
  Alcotest.(check bool) "x * 0 = 0" true (binop Mul v (const 64 0L) = const 64 0L);
  Alcotest.(check bool) "not not x = x" true (unop Not (unop Not v) = v)

let test_expr_invert_rules () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  (* ((x + 5) == 12) folds to (x == 7). *)
  let e = cmp Eq (binop Add (var x) (const 64 5L)) (const 64 12L) in
  (match e.node with
   | Cmp (Eq, { node = Var v; _ }, { node = Const (_, 7L); _ }) ->
       Alcotest.(check int) "var preserved" x.vid v.vid
   | _ -> Alcotest.failf "unexpected shape: %s" (to_string e));
  (* ((x ^ c) == d) folds to (x == c^d). *)
  let e2 = cmp Eq (binop Xor (const 64 0xFFL) (var x)) (const 64 0x0FL) in
  match e2.node with
  | Cmp (Eq, { node = Var _; _ }, { node = Const (_, 0xF0L); _ }) -> ()
  | _ -> Alcotest.failf "unexpected shape: %s" (to_string e2)

let test_expr_signedness () =
  let open Expr in
  Alcotest.(check int64) "to_signed 8-bit" (-1L) (to_signed 8 255L);
  Alcotest.(check bool) "slt signed" true
    (cmp Slt (const 8 255L) (const 8 1L) = true_);
  Alcotest.(check bool) "ult unsigned" true
    (cmp Ult (const 8 1L) (const 8 255L) = true_)

let test_expr_popcnt_clz () =
  let open Expr in
  Alcotest.(check bool) "popcnt" true (unop Popcnt (const 64 0xF0F0L) = const 64 8L);
  Alcotest.(check bool) "clz 32" true (unop Clz (const 32 1L) = const 32 31L);
  Alcotest.(check bool) "ctz" true (unop Ctz (const 32 8L) = const 32 3L);
  Alcotest.(check bool) "clz 0" true (unop Clz (const 16 0L) = const 16 16L)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                         *)
(* ------------------------------------------------------------------ *)

let test_hashcons_sharing () =
  let open Expr in
  let x = var (fresh_var ~name:"hx" 64) and y = var (fresh_var ~name:"hy" 64) in
  (* Commutative operands are canonically ordered, so both spellings
     intern to the same physical node. *)
  Alcotest.(check bool) "x+y == y+x physically" true
    (binop Add x y == binop Add y x);
  Alcotest.(check bool) "nested rebuilds share" true
    (binop Mul (binop Add x y) x == binop Mul (binop Add y x) x);
  Alcotest.(check bool) "hash agrees across spellings" true
    (hash (binop And x y) = hash (binop And y x));
  Alcotest.(check bool) "equal across spellings" true
    (equal (binop Or x y) (binop Or y x));
  (* Idempotence / annihilation folds. *)
  Alcotest.(check bool) "x & x = x" true (binop And x x == x);
  Alcotest.(check bool) "x | x = x" true (binop Or x x == x);
  Alcotest.(check bool) "x ^ x = 0" true (binop Xor x x == const 64 0L);
  Alcotest.(check bool) "x - x = 0" true (binop Sub x x == const 64 0L);
  Alcotest.(check bool) "x <= x reflexive" true (cmp Ule x x == true_);
  Alcotest.(check bool) "x < x irreflexive" true (cmp Ult x x == false_);
  Alcotest.(check bool) "double negation" true (unop Not (unop Not x) == x)

(* Property: building an expression through the interning, normalizing
   smart constructors never changes its concrete semantics.  The naive
   side is a plain ADT tree evaluated directly with [eval_unop] & co.;
   the hash-consed side goes through every rewrite rule and the memoized
   DAG evaluator. *)
type ntree =
  | N_x
  | N_y
  | N_const of int64
  | N_unop of Expr.unop * ntree
  | N_binop of Expr.binop * ntree * ntree
  | N_ite of ntree * ntree * ntree  (** ite (c <u a) a b, as in [gen_expr] *)

let all_binops =
  Expr.
    [
      Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Udiv; Urem; Sdiv; Srem;
      Rotl; Rotr;
    ]

let all_unops = Expr.[ Not; Neg; Popcnt; Clz; Ctz ]

let gen_ntree =
  let open QCheck.Gen in
  fix
    (fun self n ->
      if n <= 0 then
        oneof
          [ return N_x; return N_y; map (fun v -> N_const (Int64.of_int v)) int ]
      else
        frequency
          [
            (1, return N_x);
            (1, return N_y);
            ( 4,
              map3
                (fun op a b -> N_binop (op, a, b))
                (oneofl all_binops) (self (n / 2)) (self (n / 2)) );
            ( 2,
              map2 (fun op a -> N_unop (op, a)) (oneofl all_unops)
                (self (n - 1)) );
            ( 1,
              map3
                (fun c a b -> N_ite (c, a, b))
                (self (n / 2)) (self (n / 2)) (self (n / 2)) );
          ])
    4

let rec build_expr width x y = function
  | N_x -> Expr.var x
  | N_y -> Expr.var y
  | N_const c -> Expr.const width c
  | N_unop (op, a) -> Expr.unop op (build_expr width x y a)
  | N_binop (op, a, b) ->
      Expr.binop op (build_expr width x y a) (build_expr width x y b)
  | N_ite (c, a, b) ->
      let c = build_expr width x y c
      and a = build_expr width x y a
      and b = build_expr width x y b in
      Expr.ite (Expr.cmp Expr.Ult c a) a b

let rec naive_eval width xv yv = function
  | N_x -> Expr.mask width xv
  | N_y -> Expr.mask width yv
  | N_const c -> Expr.mask width c
  | N_unop (op, a) -> Expr.eval_unop width op (naive_eval width xv yv a)
  | N_binop (op, a, b) ->
      Expr.eval_binop width op (naive_eval width xv yv a)
        (naive_eval width xv yv b)
  | N_ite (c, a, b) ->
      let cv = naive_eval width xv yv c and av = naive_eval width xv yv a in
      if Expr.eval_cmp width Expr.Ult cv av then av
      else naive_eval width xv yv b

let qcheck_hashcons_eval_identity width =
  let x = Expr.fresh_var ~name:"nx" width in
  let y = Expr.fresh_var ~name:"ny" width in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "hash-consed normal form = naive tree (width %d)" width)
    ~count:400
    (QCheck.make
       QCheck.Gen.(
         triple gen_ntree (map Int64.of_int int) (map Int64.of_int int)))
    (fun (t, xv, yv) ->
      let e = build_expr width x y t in
      let env = Hashtbl.create 4 in
      Hashtbl.replace env x.Expr.vid xv;
      Hashtbl.replace env y.Expr.vid yv;
      Expr.eval env e = naive_eval width xv yv t)

(* Property: the two rules that hand replay's flips to the quick path
   keep the naive bit semantics.  A width-1 [b] compared with [1:1] or
   [0:1] (either side, up to three times) evaluates like the boolean
   test, and no such comparison survives at the top.  A concat of slices
   of x, y and x + y (adjacent or not, one term or several, covering the
   whole width or part of it, nested either way) evaluates like the
   shifted-and-or'd slices, and a full adjacent chain of one term is
   physically that term. *)
type slice = { sl_term : int; sl_lo : int; sl_len : int }
(** bits [sl_lo .. sl_lo + sl_len - 1] of term [sl_term] (x, y, x + y) *)

type flip_case =
  | F_bool of int * [ `P | `Bit of int | `Cmp of Expr.cmp * ntree * ntree * bool ]
    * (bool * bool) list  (** width index, [b], [(v, const on left)] *)
  | F_concat of int * slice list * bool
      (** width index, slices low to high, nested with the high part
          outermost (as a byte-wise load builds it) *)

let qcheck_flip_normal_forms =
  let widths = [| 8; 16; 32; 64 |] in
  let xs = Array.map (Expr.fresh_var ~name:"fx") widths in
  let ys = Array.map (Expr.fresh_var ~name:"fy") widths in
  let p = Expr.fresh_var ~name:"fp" 1 in
  let gen_bool =
    let open QCheck.Gen in
    int_bound 3 >>= fun wi ->
    let b =
      frequency
        [
          (1, return `P);
          (1, map (fun k -> `Bit (k mod widths.(wi))) nat);
          ( 4,
            map3
              (fun op (ta, tb) neg -> `Cmp (op, ta, tb, neg))
              (oneofl Expr.[ Eq; Ult; Slt; Ule; Sle ])
              (pair gen_ntree gen_ntree) bool );
        ]
    in
    map2 (fun b vs -> F_bool (wi, b, vs)) b
      (list_size (int_range 1 3) (pair bool bool))
  in
  let gen_concat =
    let open QCheck.Gen in
    int_bound 3 >>= fun wi ->
    let w = widths.(wi) in
    bool >>= fun full ->
    (if full then return (0, w)
     else
       int_bound (w - 1) >>= fun a ->
       map (fun b -> (a, b)) (int_range (a + 1) w))
    >>= fun (a, b) ->
    map (fun cuts -> List.sort_uniq compare (a :: b :: cuts))
      (list_size (int_bound 4) (int_range a b))
    >>= fun bounds ->
    let rec segments = function
      | lo :: (hi :: _ as rest) -> (lo, hi - lo) :: segments rest
      | _ -> []
    in
    int_bound 2 >>= fun main ->
    let slice (lo, len) =
      map2
        (fun other shift ->
          {
            sl_term = (match other with Some t -> t | None -> main);
            sl_lo = (match shift with Some s -> s mod (w - len + 1) | None -> lo);
            sl_len = len;
          })
        (frequency [ (3, return None); (1, map Option.some (int_bound 2)) ])
        (frequency [ (3, return None); (1, map Option.some nat) ])
    in
    map2
      (fun slices outer_high -> F_concat (wi, slices, outer_high))
      (flatten_l (List.map slice (segments bounds)))
      bool
  in
  let print (case, xv, yv) =
    Printf.sprintf "x=%Ld y=%Ld: %s" xv yv
      (match case with
       | F_bool (wi, _, vs) ->
           Printf.sprintf "width-1 term over width %d, %d comparisons"
             widths.(wi) (List.length vs)
       | F_concat (wi, slices, outer_high) ->
           Printf.sprintf "concat over width %d, %s outermost: %s" widths.(wi)
             (if outer_high then "high" else "low")
             (String.concat " "
                (List.map
                   (fun s ->
                     Printf.sprintf "t%d[%d+%d]" s.sl_term s.sl_lo s.sl_len)
                   slices)))
  in
  QCheck.Test.make ~name:"flip normal forms = naive bits" ~count:600
    (QCheck.make ~print
       QCheck.Gen.(
         triple
           (frequency [ (1, gen_bool); (1, gen_concat) ])
           (map Int64.of_int int) (map Int64.of_int int)))
    (fun (case, xv, yv) ->
      let env = Hashtbl.create 4 in
      Hashtbl.replace env p.Expr.vid (Int64.logand xv 1L);
      match case with
      | F_bool (wi, b, vs) ->
          let w = widths.(wi) and x = xs.(wi) and y = ys.(wi) in
          Hashtbl.replace env x.Expr.vid xv;
          Hashtbl.replace env y.Expr.vid yv;
          let e, naive =
            match b with
            | `P -> (Expr.var p, Int64.logand xv 1L = 1L)
            | `Bit k ->
                ( Expr.extract k k (Expr.var x),
                  Int64.logand (Int64.shift_right_logical xv k) 1L = 1L )
            | `Cmp (op, ta, tb, neg) ->
                let c =
                  Expr.cmp op (build_expr w x y ta) (build_expr w x y tb)
                in
                ( (if neg then Expr.not_ c else c),
                  Expr.eval_cmp w op (naive_eval w xv yv ta)
                    (naive_eval w xv yv tb)
                  <> neg )
          in
          let e, naive =
            List.fold_left
              (fun (e, naive) (v, const_left) ->
                let k = Expr.const 1 (if v then 1L else 0L) in
                ( (if const_left then Expr.cmp Expr.Eq k e
                   else Expr.cmp Expr.Eq e k),
                  naive = v ))
              (e, naive) vs
          in
          let unwrapped =
            match e.Expr.node with
            | Expr.Cmp (Expr.Eq, _, { Expr.node = Expr.Const (1, _); _ }) ->
                false
            | _ -> true
          in
          unwrapped && Expr.eval env e = if naive then 1L else 0L
      | F_concat (wi, slices, outer_high) ->
          let w = widths.(wi) and x = xs.(wi) and y = ys.(wi) in
          Hashtbl.replace env x.Expr.vid xv;
          Hashtbl.replace env y.Expr.vid yv;
          let terms =
            Expr.[| var x; var y; binop Add (var x) (var y) |]
          in
          let values =
            [| Expr.mask w xv; Expr.mask w yv; Expr.mask w (Int64.add xv yv) |]
          in
          let piece s =
            Expr.extract (s.sl_lo + s.sl_len - 1) s.sl_lo terms.(s.sl_term)
          in
          let e =
            if outer_high then
              List.fold_left (fun acc s -> Expr.concat (piece s) acc)
                (piece (List.hd slices)) (List.tl slices)
            else
              match List.rev slices with
              | top :: rest ->
                  List.fold_left (fun acc s -> Expr.concat acc (piece s))
                    (piece top) rest
              | [] -> assert false
          in
          let naive, _ =
            List.fold_left
              (fun (acc, shift) s ->
                let bits =
                  Expr.mask s.sl_len
                    (Int64.shift_right_logical values.(s.sl_term) s.sl_lo)
                in
                (Int64.logor acc (Int64.shift_left bits shift), shift + s.sl_len))
              (0L, 0) slices
          in
          let t0 = (List.hd slices).sl_term in
          let adjacent, covered =
            List.fold_left
              (fun (ok, at) s ->
                (ok && s.sl_term = t0 && s.sl_lo = at, at + s.sl_len))
              (true, 0) slices
          in
          Expr.eval env e = naive
          && ((not (adjacent && covered = w)) || e == terms.(t0)))

(* ------------------------------------------------------------------ *)
(* Bit-blasting vs. evaluator                                           *)
(* ------------------------------------------------------------------ *)

(* Generate random expressions over two variables. *)
let gen_expr width =
  let open QCheck.Gen in
  let binops =
    Expr.
      [
        Add; Sub; Mul; And; Or; Xor; Shl; Lshr; Ashr; Udiv; Urem; Sdiv; Srem;
        Rotl; Rotr;
      ]
  in
  let unops = Expr.[ Not; Neg; Popcnt; Clz; Ctz ] in
  fun (x : Expr.var) (y : Expr.var) ->
    fix
      (fun self n ->
        if n <= 0 then
          oneof
            [
              return (Expr.var x);
              return (Expr.var y);
              map (fun v -> Expr.const width (Int64.of_int v)) int;
            ]
        else
          frequency
            [
              (1, return (Expr.var x));
              (1, return (Expr.var y));
              ( 4,
                map3
                  (fun op a b -> Expr.binop op a b)
                  (oneofl binops) (self (n / 2)) (self (n / 2)) );
              ( 2,
                map2 (fun op a -> Expr.unop op a) (oneofl unops) (self (n - 1)) );
              ( 1,
                map3
                  (fun c a b -> Expr.ite (Expr.cmp Expr.Ult c a) a b)
                  (self (n / 2)) (self (n / 2)) (self (n / 2)) );
            ])
      4

let blast_agrees_with_eval ?(count = 150) width =
  let x = Expr.fresh_var ~name:"x" width in
  let y = Expr.fresh_var ~name:"y" width in
  let gen =
    QCheck.Gen.(
      triple (gen_expr width x y) (map Int64.of_int int) (map Int64.of_int int))
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "bitblast = eval (width %d)" width)
    ~count
    (QCheck.make gen ~print:(fun (e, a, b) ->
         Printf.sprintf "%s with x=%Ld y=%Ld" (Expr.to_string e) a b))
    (fun (e, xv, yv) ->
      let env = Hashtbl.create 4 in
      Hashtbl.replace env x.Expr.vid xv;
      Hashtbl.replace env y.Expr.vid yv;
      let expected = Expr.eval env e in
      (* Pin x and y, assert e == expected: must be SAT. *)
      let pin =
        Expr.
          [
            cmp Eq (var x) (const width xv);
            cmp Eq (var y) (const width yv);
          ]
      in
      let c_eq = Expr.cmp Expr.Eq e (Expr.const width expected) in
      let ctx = Bitblast.create () in
      List.iter (Bitblast.assert_true ctx) (c_eq :: pin);
      match Sat.solve ctx.Bitblast.sat with
      | Sat.Sat -> (
          (* And e != expected must be UNSAT. *)
          let ctx2 = Bitblast.create () in
          List.iter (Bitblast.assert_true ctx2)
            (Expr.not_ c_eq :: pin);
          match Sat.solve ctx2.Bitblast.sat with
          | Sat.Unsat -> true
          | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Solver                                                               *)
(* ------------------------------------------------------------------ *)

let sorted_model (m : Solver.model) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

let test_solver_quick_path () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 and y = fresh_var ~name:"y" 64 in
  let session = Solver.Session.create () in
  let cs =
    [
      cmp Eq (var x) (const 64 42L);
      cmp Eq (binop Add (var y) (const 64 1L)) (const 64 100L);
    ]
  in
  (match Solver.check ~session cs with
  | Solver.Sat m ->
      Alcotest.(check bool) "model validates" true (Solver.validate_model cs m);
      Alcotest.(check int64) "x" 42L (Hashtbl.find m x.vid);
      Alcotest.(check int64) "y" 99L (Hashtbl.find m y.vid)
  | _ -> Alcotest.fail "expected sat");
  let st = Solver.Session.stats session in
  Alcotest.(check int) "went through quick path" 1 st.Solver.st_quick;
  Alcotest.(check int) "no blasting" 0 st.Solver.st_blasted

let test_solver_blast_path () =
  let open Expr in
  let x = fresh_var ~name:"x" 32 in
  (* popcnt(x) == 17 and x < 2^20: genuinely needs the circuit. *)
  let cs =
    [
      cmp Eq (unop Popcnt (var x)) (const 32 17L);
      cmp Ult (var x) (const 32 0x100000L);
    ]
  in
  match Solver.check cs with
  | Solver.Sat m ->
      Alcotest.(check bool) "model validates" true (Solver.validate_model cs m);
      let xv = Hashtbl.find m x.vid in
      let pc = Expr.eval_unop 32 Expr.Popcnt xv in
      Alcotest.(check int64) "model has 17 bits set" 17L pc;
      Alcotest.(check bool) "bound respected" true
        (Int64.unsigned_compare (Expr.mask 32 xv) 0x100000L < 0)
  | _ -> Alcotest.fail "expected sat"

let test_solver_mul_equation () =
  let open Expr in
  let x = fresh_var ~name:"x" 16 in
  let cs = [ cmp Eq (binop Mul (var x) (const 16 3L)) (const 16 21L) ] in
  match Solver.check cs with
  | Solver.Sat m ->
      Alcotest.(check bool) "model validates" true (Solver.validate_model cs m);
      let xv = Expr.mask 16 (Hashtbl.find m x.vid) in
      Alcotest.(check int64) "3x = 21 (mod 2^16)" 21L
        (Expr.mask 16 (Int64.mul xv 3L))
  | _ -> Alcotest.fail "expected sat"

let test_solver_unsat () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  match
    Solver.check
      [
        cmp Ult (var x) (const 64 2L);
        cmp Ult (const 64 5L) (var x);
      ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_conflicting_equalities () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  match
    Solver.check [ cmp Eq (var x) (const 64 1L); cmp Eq (var x) (const 64 2L) ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat via quick path contradiction"

let test_solver_budget_unknown () =
  let open Expr in
  (* A 24-bit factoring-flavoured instance with a conflict budget of 1
     should exhaust. *)
  let x = fresh_var ~name:"x" 24 and y = fresh_var ~name:"y" 24 in
  let product = binop Mul (var x) (var y) in
  let cs =
    [
      cmp Eq product (const 24 (Int64.of_int 0x7F4C2D));
      cmp Ult (const 24 1L) (var x);
      cmp Ult (const 24 1L) (var y);
    ]
  in
  match Solver.check ~conflict_budget:1 cs with
  | Solver.Unknown -> ()
  | Solver.Sat m ->
      (* found before first conflict: acceptable *)
      Alcotest.(check bool) "model validates" true (Solver.validate_model cs m)
  | Solver.Unsat -> Alcotest.fail "cannot be unsat before exploring"

let test_solver_popcount_unsat () =
  let open Expr in
  (* No 32-bit value has 33 set bits. *)
  let x = fresh_var ~name:"x" 32 in
  match Solver.check [ cmp Eq (unop Popcnt (var x)) (const 32 33L) ] with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solver_division_semantics () =
  let open Expr in
  (* x / 0 is all-ones in our semantics: (x udiv 0) == 2^16-1 must be SAT
     for every x, and == 0 must be UNSAT. *)
  let x = fresh_var ~name:"x" 16 in
  let cs = [ cmp Eq (binop Udiv (var x) (const 16 0L)) (const 16 0xFFFFL) ] in
  (match Solver.check cs with
  | Solver.Sat m ->
      Alcotest.(check bool) "model validates" true (Solver.validate_model cs m)
  | _ -> Alcotest.fail "div-by-zero convention should be satisfiable");
  match
    Solver.check [ cmp Eq (binop Udiv (var x) (const 16 0L)) (const 16 0L) ]
  with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

(* Replay's flips of equality branches reach the quick path.  Replay
   tests an i32 as [nonzero], an i32 comparison is a zext'd width-1
   [Cmp], and a flip negates the recorded condition; a word reloaded
   from memory is the concat of the bytes its store sliced off.  Each
   query must be decided without bit-blasting, with the model a direct
   bit-blast of the same constraints gives. *)
let test_solver_replay_flips () =
  let open Expr in
  let module Memmodel = Wasai_symbolic.Memmodel in
  let nonzero e = not_ (cmp Eq e (const (width_of e) 0L)) in
  let i32 b = zext 32 b in
  let x = fresh_var ~name:"from" 64 in
  let c1 = const 64 0x5530EA033482A600L and c2 = const 64 0x3A3D42B7L in
  let mem = Memmodel.create () in
  Memmodel.store mem ~addr:64 ~width_bytes:8 (var x);
  let reloaded = Memmodel.load mem ~addr:64 ~width_bytes:8 in
  let queries =
    [
      (* [if (from == c1)] not taken, flipped *)
      ("untaken eq", [ not_ (not_ (nonzero (i32 (eq (var x) c1)))) ]);
      (* [if (from != c1)] taken, flipped *)
      ("taken ne", [ not_ (nonzero (i32 (ne (var x) c1))) ]);
      (* an untaken [from == c2] on the path, then the flip above *)
      ( "prefix and flip",
        [ not_ (nonzero (i32 (eq (var x) c2))); nonzero (i32 (eq (var x) c1)) ]
      );
      ("reloaded word", [ nonzero (i32 (eq reloaded c1)) ]);
    ]
  in
  List.iter
    (fun (name, cs) ->
      let session = Solver.Session.create () in
      let m =
        match Solver.check ~session cs with
        | Solver.Sat m -> m
        | _ -> Alcotest.failf "%s: expected sat" name
      in
      let st = Solver.Session.stats session in
      Alcotest.(check (pair int int))
        (name ^ ": quick, not blasted") (1, 0)
        (st.Solver.st_quick, st.Solver.st_blasted);
      Alcotest.(check bool) (name ^ ": model validates") true
        (Solver.validate_model cs m);
      let ctx = Bitblast.create () in
      List.iter (Bitblast.assert_true ctx) cs;
      Alcotest.(check bool) (name ^ ": direct blast sat") true
        (Sat.solve ctx.Bitblast.sat = Sat.Sat);
      Alcotest.(check (list (pair int int64)))
        (name ^ ": model = direct blast's")
        [ (x.vid, Bitblast.model_of_var ctx x) ]
        (sorted_model m))
    queries

let test_validate_model () =
  let open Expr in
  let x = fresh_var ~name:"x" 64 in
  let cs = [ cmp Eq (var x) (const 64 9L) ] in
  let good = Hashtbl.create 1 in
  Hashtbl.replace good x.vid 9L;
  let bad = Hashtbl.create 1 in
  Hashtbl.replace bad x.vid 8L;
  Alcotest.(check bool) "good model" true (Solver.validate_model cs good);
  Alcotest.(check bool) "bad model" false (Solver.validate_model cs bad)

let qcheck_solver_models_validate =
  QCheck.Test.make ~name:"solver models satisfy constraints" ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (a, b) ->
      let open Expr in
      let x = fresh_var ~name:"x" 32 in
      let cs =
        [
          cmp Eq
            (binop And (var x) (const 32 0xFFL))
            (const 32 (Int64.of_int b));
          cmp Ule (const 32 (Int64.of_int a)) (var x);
        ]
      in
      match Solver.check cs with
      | Solver.Sat m -> Solver.validate_model cs m
      | Solver.Unsat -> false (* always satisfiable *)
      | Solver.Unknown -> true)

(* ------------------------------------------------------------------ *)
(* Session                                                              *)
(* ------------------------------------------------------------------ *)

(* Every session query is solved, so the counters say which tier
   answered: a starved blast counts blasted and unknown on each ask; a
   constant-false query is refuted before any tier and counts nothing; a
   quick-path contradiction counts only as a query (a "miss"), and no
   query is ever a hit. *)
let test_session_counters () =
  let open Expr in
  let x = fresh_var ~name:"ux" 24 and y = fresh_var ~name:"uy" 24 in
  let cs =
    [
      cmp Eq (binop Mul (var x) (var y)) (const 24 (Int64.of_int 0x7F4C2D));
      cmp Ult (const 24 1L) (var x);
      cmp Ult (const 24 1L) (var y);
    ]
  in
  let s = Solver.Session.create ~conflict_budget:1 () in
  let unknown () =
    match Solver.check ~session:s cs with
    | Solver.Unknown -> ()
    | _ -> Alcotest.fail "expected unknown under a one-conflict budget"
  in
  unknown ();
  unknown ();
  let st = Solver.Session.stats s in
  Alcotest.(check int) "both blasted" 2 st.Solver.st_blasted;
  Alcotest.(check int) "both unknown" 2 st.Solver.st_unknown;
  Alcotest.(check int) "both misses" 2 st.Solver.st_cache_misses;
  Alcotest.(check int) "no hits" 0 st.Solver.st_cache_hits;
  let s = Solver.Session.create () in
  (match Solver.check ~session:s [ cmp Eq (const 8 1L) (const 8 2L) ] with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "constant-false not unsat");
  Alcotest.(check bool) "constant-false counts nothing" true
    (Solver.Session.stats s = Solver.stats_zero);
  (match
     Solver.check ~session:s
       [ cmp Eq (var x) (const 24 1L); cmp Eq (var x) (const 24 2L) ]
   with
   | Solver.Unsat -> ()
   | _ -> Alcotest.fail "contradiction not unsat");
  Alcotest.(check bool) "contradiction counts one miss" true
    (Solver.Session.stats s = { Solver.stats_zero with st_cache_misses = 1 })

(* The engine's adaptive retuning halves and doubles the session budget
   mid-run: the accessor pair must round-trip any positive value and
   reject the degenerate ones. *)
let test_session_budget_roundtrip () =
  let s = Solver.Session.create ~conflict_budget:20_000 () in
  Alcotest.(check int) "initial" 20_000 (Solver.Session.conflict_budget s);
  Solver.Session.set_conflict_budget s 1_250;
  Alcotest.(check int) "halved repeatedly" 1_250
    (Solver.Session.conflict_budget s);
  Solver.Session.set_conflict_budget s 80_000;
  Alcotest.(check int) "doubled past the default" 80_000
    (Solver.Session.conflict_budget s);
  (match Solver.Session.set_conflict_budget s 0 with
   | () -> Alcotest.fail "budget 0 accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "rejected set leaves budget unchanged" 80_000
    (Solver.Session.conflict_budget s)

let test_session_budget_precedence () =
  let open Expr in
  let x = fresh_var ~name:"bx" 24 and y = fresh_var ~name:"by" 24 in
  let cs =
    [
      cmp Eq (binop Mul (var x) (var y)) (const 24 (Int64.of_int 0x5E3F71));
      cmp Ult (const 24 1L) (var x);
      cmp Ult (const 24 1L) (var y);
    ]
  in
  (* An explicit per-call budget overrides the session's: a starvation
     budget of 1 must exhaust even though the session carries the
     (ample) default. *)
  let s = Solver.Session.create () in
  match Solver.check ~session:s ~conflict_budget:1 cs with
  | Solver.Unknown -> ()
  | Solver.Sat m ->
      (* decided before the first conflict: acceptable *)
      Alcotest.(check bool) "model validates" true (Solver.validate_model cs m)
  | Solver.Unsat -> Alcotest.fail "cannot be unsat before exploring"

(* ------------------------------------------------------------------ *)
(* Per-session SAT arena                                                *)
(* ------------------------------------------------------------------ *)

let same_result a b =
  match (a, b) with
  | Solver.Sat m, Solver.Sat m' -> sorted_model m = sorted_model m'
  | Solver.Unsat, Solver.Unsat | Solver.Unknown, Solver.Unknown -> true
  | _ -> false

type arena_query =
  | Pinned  (** x pinned, e == e(x, y) at a random point: Sat *)
  | Free  (** e1 <u e2: any verdict *)
  | Contra  (** c and not c: Unsat *)
  | Starved  (** 32-bit factoring under a one-conflict budget: Unknown *)

(* A session reuses one arena for every blasted query.  Sent through
   one session, a random stream of Sat, Unsat and budget-starved
   queries must get exactly the verdicts and models that fresh
   sessionless calls give: a reset arena leaks nothing between
   queries. *)
let qcheck_arena_parity ~count width =
  let x = Expr.fresh_var ~name:"ax" width and y = Expr.fresh_var ~name:"ay" width in
  let fx = Expr.fresh_var ~name:"fx" 32 and fy = Expr.fresh_var ~name:"fy" 32 in
  let budget = 200 in
  let build (kind, e1, e2, xv, yv) =
    let open Expr in
    match kind with
    | Pinned ->
        let env = Hashtbl.create 2 in
        Hashtbl.replace env x.vid xv;
        Hashtbl.replace env y.vid yv;
        ( [ eq (var x) (const width xv); eq e1 (const width (eval env e1)) ],
          budget )
    | Free -> ([ cmp Ult e1 e2 ], budget)
    | Contra ->
        let c = cmp Ult e1 e2 in
        ([ c; not_ c ], budget)
    | Starved ->
        (* 65521 * 65519, both prime. *)
        ( [
            eq (binop Mul (var fx) (var fy)) (const 32 4292870399L);
            cmp Ult (const 32 1L) (var fx);
            cmp Ult (const 32 1L) (var fy);
            cmp Ult (var fx) (const 32 0x10000L);
            cmp Ult (var fy) (const 32 0x10000L);
          ],
          1 )
  in
  let gen_query =
    QCheck.Gen.(
      map3
        (fun kind (e1, e2) (xv, yv) ->
          (kind, e1, e2, Int64.of_int xv, Int64.of_int yv))
        (oneofl [ Pinned; Free; Contra; Starved ])
        (pair (gen_expr width x y) (gen_expr width x y))
        (pair int int))
  in
  let print qs =
    String.concat "\n"
      (List.map
         (fun q ->
           String.concat " && " (List.map Expr.to_string (fst (build q))))
         qs)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "arena reuse = fresh check (width %d)" width)
    ~count
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 2 6) gen_query))
    (fun qs ->
      let session =
        Solver.Session.create ~conflict_budget:budget ()
      in
      List.for_all
        (fun ((kind, _, _, _, _) as q) ->
          let cs, conflict_budget = build q in
          let fresh = Solver.check ~conflict_budget cs in
          let reused = Solver.check ~session ~conflict_budget cs in
          let expected =
            match (kind, fresh) with
            | (Pinned | Free), Solver.Sat m -> Solver.validate_model cs m
            | Pinned, Solver.Unknown | Free, _ -> true
            | Contra, Solver.Unsat | Starved, Solver.Unknown -> true
            | _ -> false
          in
          expected && same_result fresh reused)
        qs)

(* Random constraint sets over two 8-bit variables, all sent through one
   long-lived session (arena reused): Sat exactly when
   enumerating all 2^16 assignments finds a model, and every Sat model
   re-evaluates true. *)
let qcheck_session_brute_force =
  let x = Expr.fresh_var ~name:"bx" 8 and y = Expr.fresh_var ~name:"by" 8 in
  let session = Solver.Session.create () in
  let gen_constraint =
    QCheck.Gen.(
      quad
        (oneofl Expr.[ Eq; Ult; Slt; Ule; Sle ])
        gen_ntree gen_ntree bool)
  in
  let to_expr (op, a, b, negated) =
    let c = Expr.cmp op (build_expr 8 x y a) (build_expr 8 x y b) in
    if negated then Expr.not_ c else c
  in
  let holds xv yv (op, a, b, negated) =
    Expr.eval_cmp 8 op (naive_eval 8 xv yv a) (naive_eval 8 xv yv b) <> negated
  in
  let satisfiable cs =
    let rec go xv yv =
      if xv > 255 then false
      else if yv > 255 then go (xv + 1) 0
      else
        List.for_all (holds (Int64.of_int xv) (Int64.of_int yv)) cs
        || go xv (yv + 1)
    in
    go 0 0
  in
  QCheck.Test.make ~name:"session answers = brute force (two 8-bit vars)"
    ~count:100
    (QCheck.make
       ~print:(fun cs ->
         String.concat " && " (List.map (fun c -> Expr.to_string (to_expr c)) cs))
       QCheck.Gen.(list_size (int_range 1 3) gen_constraint))
    (fun cs ->
      let constraints = List.map to_expr cs in
      match Solver.check ~session constraints with
      | Solver.Sat m -> satisfiable cs && Solver.validate_model constraints m
      | Solver.Unsat -> not (satisfiable cs)
      | Solver.Unknown -> false)

(* Steady-state blasting reuses the session's arena instead of building
   a context per query.  The query is shaped like a flipped transfer
   branch: a memo-length byte, an amount range and a flipped equality,
   all left to bit-blasting.  Rebuilding the context per query allocates
   about 22k minor words here; reusing the arena, whose gates add their
   clauses without building lists, about 2k. *)
let test_arena_allocation_guard () =
  let open Expr in
  let len = fresh_var ~name:"memo_len" 32 in
  let amount = fresh_var ~name:"amount" 64 in
  let cs =
    [
      cmp Ult (extract 7 0 (var len)) (const 8 33L);
      cmp Slt (const 64 0L) (var amount);
      cmp Sle (var amount) (const 64 1_000_000L);
      ne (var amount) (const 64 5_000L);
    ]
  in
  let s = Solver.Session.create () in
  ignore (Solver.check ~session:s cs);
  let before = Gc.minor_words () in
  let r = Solver.check ~session:s cs in
  let words = Gc.minor_words () -. before in
  (match r with
   | Solver.Sat m ->
       Alcotest.(check bool) "model validates" true (Solver.validate_model cs m)
   | _ -> Alcotest.fail "expected sat");
  Alcotest.(check int) "both solves blasted" 2
    (Solver.Session.stats s).Solver.st_blasted;
  let bound = 10_000. in
  if words > bound then
    Alcotest.failf "re-solve allocated %.0f minor words (bound %.0f)" words
      bound


let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wasai_smt"
    [
      ( "sat",
        [
          Alcotest.test_case "basic" `Quick test_sat_basic;
          Alcotest.test_case "unsat" `Quick test_sat_unsat;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          qc qcheck_random_3sat;
          qc qcheck_fixed_arity_clauses;
        ] );
      ( "expr",
        [
          Alcotest.test_case "constant folding" `Quick test_expr_fold;
          Alcotest.test_case "inversion rules" `Quick test_expr_invert_rules;
          Alcotest.test_case "signedness" `Quick test_expr_signedness;
          Alcotest.test_case "popcnt/clz/ctz" `Quick test_expr_popcnt_clz;
        ] );
      ( "hashcons",
        [
          Alcotest.test_case "physical sharing" `Quick test_hashcons_sharing;
          qc (qcheck_hashcons_eval_identity 8);
          qc (qcheck_hashcons_eval_identity 32);
          qc (qcheck_hashcons_eval_identity 64);
          qc qcheck_flip_normal_forms;
        ] );
      ( "bitblast",
        [
          qc (blast_agrees_with_eval 8);
          qc (blast_agrees_with_eval 16);
          qc (blast_agrees_with_eval 32);
          qc (blast_agrees_with_eval ~count:15 64);
          Alcotest.test_case "width-1 booleans blast" `Quick (fun () ->
              let open Expr in
              let p = fresh_var ~name:"p" 1 and q = fresh_var ~name:"q" 1 in
              (* p && !q, q == 0: satisfiable with p=1,q=0. *)
              let cs = [ and_ (var p) (not_ (var q)); cmp Eq (var q) (const 1 0L) ] in
              match Solver.check cs with
              | Solver.Sat m ->
                  Alcotest.(check bool) "model validates" true
                    (Solver.validate_model cs m);
                  Alcotest.(check int64) "p" 1L (Hashtbl.find m p.vid)
              | _ -> Alcotest.fail "expected sat");
        ] );
      ( "solver",
        [
          Alcotest.test_case "quick path" `Quick test_solver_quick_path;
          Alcotest.test_case "popcount via blast" `Quick test_solver_blast_path;
          Alcotest.test_case "mul equation" `Quick test_solver_mul_equation;
          Alcotest.test_case "unsat interval" `Quick test_solver_unsat;
          Alcotest.test_case "conflicting equalities" `Quick
            test_solver_conflicting_equalities;
          Alcotest.test_case "budget => unknown" `Quick test_solver_budget_unknown;
          Alcotest.test_case "popcount unsat" `Quick test_solver_popcount_unsat;
          Alcotest.test_case "division semantics" `Quick
            test_solver_division_semantics;
          Alcotest.test_case "replay flips take the quick path" `Quick
            test_solver_replay_flips;
          Alcotest.test_case "validate_model" `Quick test_validate_model;
          qc qcheck_solver_models_validate;
        ] );
      ( "session",
        [
          Alcotest.test_case "query counters" `Quick test_session_counters;
          Alcotest.test_case "explicit budget wins" `Quick
            test_session_budget_precedence;
          Alcotest.test_case "budget accessor round-trip" `Quick
            test_session_budget_roundtrip;
        ] );
      ( "arena",
        [
          qc (qcheck_arena_parity ~count:60 8);
          qc (qcheck_arena_parity ~count:6 32);
          qc (qcheck_arena_parity ~count:3 64);
          qc qcheck_session_brute_force;
          Alcotest.test_case "steady-state allocation" `Quick
            test_arena_allocation_guard;
        ] );
    ]
