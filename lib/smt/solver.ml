(** Constraint solving entry point.

    [check] decides a conjunction of width-1 constraints and produces a
    model (variable id → value).  Two tiers:

    1. a propagation quick-path that solves the very common
       "variable (or invertible 1-var term) equals constant" chains the
       complicated-verification contracts produce, without touching SAT;
    2. full bit-blasting + CDCL for everything else, under a deterministic
       conflict budget standing in for the paper's 3,000 ms Z3 cap.

    Accounting is per {!Session}: each engine run (one target) owns a
    session carrying its conflict budget, counters and verdict memo.
    Blasted session queries reuse one bit-blasting arena per domain, so
    campaign workers never contend on shared state. *)

type model = (int, int64) Hashtbl.t
(** expr variable id → value *)

type result =
  | Sat of model
  | Unsat
  | Unknown  (** budget exhausted *)

type stats = {
  st_quick : int;
  st_blasted : int;
  st_unknown : int;
  st_cache_hits : int;
  st_cache_misses : int;
}

let stats_zero =
  { st_quick = 0; st_blasted = 0; st_unknown = 0; st_cache_hits = 0; st_cache_misses = 0 }

let stats_add a b =
  {
    st_quick = a.st_quick + b.st_quick;
    st_blasted = a.st_blasted + b.st_blasted;
    st_unknown = a.st_unknown + b.st_unknown;
    st_cache_hits = a.st_cache_hits + b.st_cache_hits;
    st_cache_misses = a.st_cache_misses + b.st_cache_misses;
  }

(* ------------------------------------------------------------------ *)
(* Quick path                                                          *)
(* ------------------------------------------------------------------ *)

(* Try to rewrite [e == value] into an assignment of a single variable.
   Handles the invertible wrappers the calling convention and the popcount
   obfuscation produce around inputs. *)
let rec invert (e : Expr.t) (value : int64) : (Expr.var * int64) option =
  let open Expr in
  match e.node with
  | Var v -> Some (v, mask v.vwidth value)
  | Zext (_, inner) ->
      (* Invertible iff the value fits in the inner width. *)
      let wi = width_of inner in
      if mask wi value = value then invert inner value else None
  | Sext (w, inner) ->
      let wi = width_of inner in
      if mask w (to_signed wi (mask wi value)) = mask w value then
        invert inner (mask wi value)
      else None
  | Extract (hi, lo, inner) when lo = 0 && hi = width_of inner - 1 ->
      invert inner value
  | Binop (Add, { node = Const (w, c); _ }, inner) ->
      invert inner (mask w (Int64.sub value c))
  | Binop (Xor, { node = Const (_, c); _ }, inner) ->
      invert inner (Int64.logxor value c)
  | Binop (Sub, inner, { node = Const (w, c); _ }) ->
      invert inner (mask w (Int64.add value c))
  | _ -> None

(* One round of propagation: pick off constraints of the form
   [invertible == const]; substitute; repeat to fixpoint. *)
let quick_path (constraints : Expr.t list) :
    [ `Solved of model | `Contradiction | `Residual of Expr.t list * model ] =
  let model : model = Hashtbl.create 8 in
  let known v =
    match Hashtbl.find_opt model v.Expr.vid with
    | Some value -> Some (Expr.const v.Expr.vwidth value)
    | None -> None
  in
  let rec loop (cs : Expr.t list) =
    (* Substituting an empty model changes no node, so the first round
       skips it: a smart constructor applied to its own output's
       children returns that output. *)
    let cs =
      if Hashtbl.length model = 0 then cs else Expr.subst_all known cs
    in
    if List.exists Expr.is_false cs then `Contradiction
    else begin
      let cs = List.filter (fun c -> not (Expr.is_true c)) cs in
      let progress = ref false in
      let residual =
        List.filter
          (fun c ->
            match c.Expr.node with
            | Expr.Cmp (Expr.Eq, lhs, { Expr.node = Expr.Const (_, value); _ })
            | Expr.Cmp (Expr.Eq, { Expr.node = Expr.Const (_, value); _ }, lhs)
              -> (
                match invert lhs value with
                | Some (v, assigned) when not (Hashtbl.mem model v.Expr.vid) ->
                    Hashtbl.replace model v.Expr.vid assigned;
                    progress := true;
                    false
                | _ -> true)
            | _ -> true)
          cs
      in
      if residual = [] then `Solved model
      else if !progress then loop residual
      else `Residual (residual, model)
    end
  in
  loop constraints

(* ------------------------------------------------------------------ *)
(* Full check                                                          *)
(* ------------------------------------------------------------------ *)

(* [ctx] must be fresh: just created, or reset. *)
let blast_check ~conflict_budget (ctx : Bitblast.ctx)
    (constraints : Expr.t list) (pre_model : model) : result =
  List.iter (Bitblast.assert_true ctx) constraints;
  match Sat.solve ~conflict_budget ctx.Bitblast.sat with
  | Sat.Unsat -> Unsat
  | Sat.Unknown -> Unknown
  | Sat.Sat ->
      let model = Hashtbl.copy pre_model in
      (* Collect every variable mentioned in the constraints. *)
      let seen = Hashtbl.create 16 in
      List.iter
        (fun c ->
          Expr.iter_vars
            (fun v ->
              if not (Hashtbl.mem seen v.Expr.vid) then begin
                Hashtbl.replace seen v.Expr.vid ();
                Hashtbl.replace model v.Expr.vid (Bitblast.model_of_var ctx v)
              end)
            c)
        constraints;
      Sat model

let default_conflict_budget = 50_000

(* One bit-blasting arena per domain, made by the domain's first blasted
   session query and reset in place for each later one, across session
   boundaries too: a reset arena numbers variables and clauses exactly
   as a fresh one, so reuse changes no answer and no model.  Its arrays
   stay at the largest query's size the domain has blasted. *)
let arena_key : Bitblast.ctx Domain.DLS.key =
  Domain.DLS.new_key Bitblast.create

let domain_arena () =
  let ctx = Domain.DLS.get arena_key in
  Bitblast.reset ctx;
  ctx

(* The tier that decides a query, as the counters and spans see it.  A
   quick-path contradiction is its own tier: it counts only as a query. *)
type tier = Quick | Contradiction | Blasted

(* A query's tier and answer, or [None] for a constant-false query. *)
type decided = (tier * result) option

(* Decide a conjunction with no constant-false member.  [arena] supplies
   the bit-blasting context, only when the quick path leaves a residue. *)
let decide ~budget ~arena (constraints : Expr.t list) : result * tier =
  match quick_path constraints with
  | `Solved model -> (Sat model, Quick)
  | `Contradiction -> (Unsat, Contradiction)
  | `Residual (residual, model) ->
      (blast_check ~conflict_budget:budget (arena ()) residual model, Blasted)

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  (* A decided query: its key is the conflict budget followed by the
     constraints' node tags, in order. *)
  type entry = { me_key : int array; me_result : result; me_tier : tier }

  type t = {
    mutable sx_budget : int;
    mutable sx_quick : int;
    mutable sx_blasted : int;
    mutable sx_unknown : int;
    mutable sx_queries : int;  (** queries that reached the quick path *)
    sx_memo : (int, entry list) Hashtbl.t;  (** key hash -> entries *)
    mutable sx_memo_words : int;  (** key words stored in [sx_memo] *)
  }

  let memo_max_words = 32_768

  let create ?(conflict_budget = default_conflict_budget) () =
    (* One session is one target's run: nodes interned by earlier
       targets are mostly garbage the table keeps alive, while the
       constraints within this run share subterms.  Compacting here,
       never mid-run, keeps that sharing. *)
    Expr.hashcons_compact ();
    {
      sx_budget = conflict_budget;
      sx_quick = 0;
      sx_blasted = 0;
      sx_unknown = 0;
      sx_queries = 0;
      sx_memo = Hashtbl.create 64;
      sx_memo_words = 0;
    }

  let conflict_budget t = t.sx_budget

  let set_conflict_budget t budget =
    if budget < 1 then
      invalid_arg
        (Printf.sprintf "Solver.Session.set_conflict_budget: budget %d < 1"
           budget);
    t.sx_budget <- budget

  let stats t =
    {
      st_quick = t.sx_quick;
      st_blasted = t.sx_blasted;
      st_unknown = t.sx_unknown;
      st_cache_hits = 0;
      st_cache_misses = t.sx_queries;
    }

  (* A memo hit counts as the tier that first decided the query, so the
     counters read as if every query had been solved. *)
  let count t tier result =
    t.sx_queries <- t.sx_queries + 1;
    match tier with
    | Quick -> t.sx_quick <- t.sx_quick + 1
    | Contradiction -> ()
    | Blasted -> (
        t.sx_blasted <- t.sx_blasted + 1;
        match result with
        | Unknown -> t.sx_unknown <- t.sx_unknown + 1
        | Sat _ | Unsat -> ())

  let recount t (d : decided) =
    Option.iter (fun (tier, result) -> count t tier result) d

  (* The key is exact: node tags are process-unique and never reused,
     the session lives on one domain, and the intern table is compacted
     only when a session is created, so within a session equal tags are
     one node. *)
  let key_hash budget (constraints : Expr.t list) =
    List.fold_left
      (fun h (c : Expr.t) ->
        ((h * 0x100000001b3) lxor c.Expr.tag) land max_int)
      budget constraints

  let key_matches key budget constraints =
    let n = Array.length key in
    let rec go i = function
      | [] -> i = n
      | (c : Expr.t) :: rest ->
          i < n && key.(i) = c.Expr.tag && go (i + 1) rest
    in
    key.(0) = budget && go 1 constraints

  let find t h budget constraints =
    match Hashtbl.find_opt t.sx_memo h with
    | None -> None
    | Some entries ->
        List.find_opt (fun e -> key_matches e.me_key budget constraints) entries

  (* Remember a decided query, unless its key would take the memo past
     [memo_max_words]: a full memo still answers what it holds. *)
  let add t h budget constraints result tier =
    let words = 1 + List.length constraints in
    if t.sx_memo_words + words <= memo_max_words then begin
      let key =
        Array.of_list
          (budget :: List.map (fun (c : Expr.t) -> c.Expr.tag) constraints)
      in
      let entry = { me_key = key; me_result = result; me_tier = tier } in
      let others = Option.value ~default:[] (Hashtbl.find_opt t.sx_memo h) in
      Hashtbl.replace t.sx_memo h (entry :: others);
      t.sx_memo_words <- t.sx_memo_words + words
    end
end

let stage_of_tier = function
  | Quick | Contradiction -> Wasai_telemetry.Telemetry.Solver_quick
  | Blasted -> Wasai_telemetry.Telemetry.Solver_blast

(** Decide the conjunction of [constraints], and say how it was
    counted. *)
let check_decided ?session ?conflict_budget (constraints : Expr.t list) :
    result * decided =
  let module T = Wasai_telemetry.Telemetry in
  let t0 = T.start () in
  let budget =
    match (conflict_budget, session) with
    | Some b, _ -> b
    | None, Some s -> Session.conflict_budget s
    | None, None -> default_conflict_budget
  in
  if List.exists Expr.is_false constraints then begin
    T.stop T.Solver_quick t0;
    (Unsat, None)
  end
  else
    match session with
    | None ->
        let result, tier = decide ~budget ~arena:Bitblast.create constraints in
        T.stop (stage_of_tier tier) t0;
        (result, Some (tier, result))
    | Some s -> (
        let h = Session.key_hash budget constraints in
        match Session.find s h budget constraints with
        | Some e ->
            Session.count s e.Session.me_tier e.Session.me_result;
            T.stop T.Solver_cache t0;
            (e.Session.me_result, Some (e.Session.me_tier, e.Session.me_result))
        | None ->
            let result, tier = decide ~budget ~arena:domain_arena constraints in
            Session.count s tier result;
            Session.add s h budget constraints result tier;
            T.stop (stage_of_tier tier) t0;
            (result, Some (tier, result)))

let check ?session ?conflict_budget constraints =
  fst (check_decided ?session ?conflict_budget constraints)

(** Verify a model against constraints (defence in depth for the solver,
    used by the tests; the engine does not re-check models). *)
let validate_model (constraints : Expr.t list) (model : model) : bool =
  let env = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace env k v) model;
  List.for_all
    (fun c ->
      (* Unassigned variables default to zero. *)
      Expr.iter_vars
        (fun v ->
          if not (Hashtbl.mem env v.Expr.vid) then
            Hashtbl.replace env v.Expr.vid 0L)
        c;
      match Expr.eval env c with 1L -> true | _ -> false)
    constraints
