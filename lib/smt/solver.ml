(** Constraint solving entry point.

    [check] decides a conjunction of width-1 constraints and produces a
    model (variable id → value).  Two tiers:

    1. a propagation quick-path that solves the very common
       "variable (or invertible 1-var term) equals constant" chains the
       complicated-verification contracts produce, without touching SAT;
    2. full bit-blasting + CDCL for everything else, under a deterministic
       conflict budget standing in for the paper's 3,000 ms Z3 cap.

    Accounting and caching are per {!Session}: each engine run (one
    target) owns a session carrying its conflict budget, counters, a
    bounded LRU of decided constraint sets and the bit-blasting arena its
    queries reuse, so campaign workers never contend on shared state and
    never share cached verdicts across domains. *)

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
    let cs = Expr.subst_all known cs in
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

(* Decide without any session bookkeeping; the second component says
   which tier produced the answer so callers can tally.  [arena] is
   called once, and only when the query reaches bit-blasting. *)
let solve_raw ~conflict_budget ~(arena : unit -> Bitblast.ctx)
    (constraints : Expr.t list) :
    result * [ `Trivial | `Quick | `Blasted | `Blast_unknown ] =
  if List.exists Expr.is_false constraints then (Unsat, `Trivial)
  else
    match quick_path constraints with
    | `Solved model -> (Sat model, `Quick)
    | `Contradiction -> (Unsat, `Trivial)
    | `Residual (residual, model) -> (
        match blast_check ~conflict_budget (arena ()) residual model with
        | Unknown -> (Unknown, `Blast_unknown)
        | r -> (r, `Blasted))

let default_conflict_budget = 50_000

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  (* Cached verdicts store models as plain assoc snapshots so a hit can
     hand every caller a fresh hashtable (callers may extend models). *)
  type verdict = C_sat of (int * int64) list | C_unsat

  type entry = { ce_verdict : verdict; mutable ce_stamp : int }

  type t = {
    mutable sx_budget : int;
    sx_capacity : int;
    sx_cache : (int list, entry) Hashtbl.t;
    mutable sx_clock : int;
    mutable sx_quick : int;
    mutable sx_blasted : int;
    mutable sx_unknown : int;
    mutable sx_hits : int;
    mutable sx_misses : int;
    mutable sx_subsumed : int;
    mutable sx_arena : Bitblast.ctx option;
  }

  let create ?(conflict_budget = default_conflict_budget)
      ?(cache_capacity = 512) () =
    (* A session boundary is the only safe point to bound the per-domain
       hash-consing table: compacting mid-session would degrade sharing
       between a cached constraint set and its re-built twin. *)
    Expr.hashcons_compact ();
    {
      sx_budget = conflict_budget;
      sx_capacity = max 0 cache_capacity;
      sx_cache = Hashtbl.create 64;
      sx_clock = 0;
      sx_quick = 0;
      sx_blasted = 0;
      sx_unknown = 0;
      sx_hits = 0;
      sx_misses = 0;
      sx_subsumed = 0;
      sx_arena = None;
    }

  let conflict_budget t = t.sx_budget

  (* One bit-blasting arena per session, made by its first blasted query
     and reset in place for each later one: a reset arena numbers
     variables and clauses exactly as a fresh one, so reuse changes no
     answer and no model. *)
  let arena t () =
    match t.sx_arena with
    | Some ctx ->
        Bitblast.reset ctx;
        ctx
    | None ->
        let ctx = Bitblast.create () in
        t.sx_arena <- Some ctx;
        ctx

  (* Retuning the budget mid-session is sound with respect to the verdict
     cache: Sat and Unsat are budget-independent (a model or a refutation
     stays valid under any budget), and Unknown — the only budget-
     dependent verdict — is never cached. *)
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
      st_cache_hits = t.sx_hits;
      st_cache_misses = t.sx_misses;
    }

  let subsumed t = t.sx_subsumed

  (* The cache key is the multiset of constraint identities, canonicalised
     by sorting the (interned) tags.  Tag values are scheduling-dependent,
     but multiset equality is not: within one session, two queries collide
     iff they assert structurally identical constraint sets, so the
     hit/miss pattern — and therefore every verdict — is a pure function
     of the target, independent of --jobs (sessions are never shared
     across domains). *)
  let key_of (constraints : Expr.t list) : int list =
    List.sort Int.compare (List.map Expr.tag constraints)

  (* [small] is a sub-multiset of [big]; both ascending-sorted. *)
  let rec is_submultiset (small : int list) (big : int list) : bool =
    match (small, big) with
    | [], _ -> true
    | _ :: _, [] -> false
    | s :: small', b :: big' ->
        if s = b then is_submultiset small' big'
        else if s > b then is_submultiset small big'
        else false

  (* Unsat-subset subsumption: a conjunction only grows stronger, so any
     cached Unsat set contained in the query refutes the query too.  The
     fold asks only whether {e some} such entry exists — an
     iteration-order-independent question, so the determinism contract
     survives even though tag values (and hence Hashtbl layout) are
     scheduling-dependent.  For the same reason the matching entry's LRU
     stamp is deliberately {e not} refreshed, and the subsumed query is
     not inserted: both would make cache evolution depend on which entry
     the iteration found. *)
  let subsumes_unsat t (key : int list) : bool =
    Hashtbl.fold
      (fun k e acc ->
        acc || (e.ce_verdict = C_unsat && is_submultiset k key))
      t.sx_cache false

  let find t key =
    if t.sx_capacity = 0 then begin
      t.sx_misses <- t.sx_misses + 1;
      None
    end
    else
      match Hashtbl.find_opt t.sx_cache key with
      | Some e ->
          t.sx_clock <- t.sx_clock + 1;
          e.ce_stamp <- t.sx_clock;
          t.sx_hits <- t.sx_hits + 1;
          Some e.ce_verdict
      | None ->
          if subsumes_unsat t key then begin
            t.sx_hits <- t.sx_hits + 1;
            t.sx_subsumed <- t.sx_subsumed + 1;
            Some C_unsat
          end
          else begin
            t.sx_misses <- t.sx_misses + 1;
            None
          end

  let add t key verdict =
    if t.sx_capacity > 0 then begin
      if
        Hashtbl.length t.sx_cache >= t.sx_capacity
        && not (Hashtbl.mem t.sx_cache key)
      then begin
        (* Evict the least-recently-used entry (O(capacity) scan; the
           capacity is small and eviction only runs once the cache is
           full). *)
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, stamp) when stamp <= e.ce_stamp -> acc
              | _ -> Some (k, e.ce_stamp))
            t.sx_cache None
        in
        match victim with
        | Some (k, _) -> Hashtbl.remove t.sx_cache k
        | None -> ()
      end;
      t.sx_clock <- t.sx_clock + 1;
      Hashtbl.replace t.sx_cache key { ce_verdict = verdict; ce_stamp = t.sx_clock }
    end

  let snapshot_model (m : model) : (int * int64) list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []

  let hydrate_model (assoc : (int * int64) list) : model =
    let m = Hashtbl.create (List.length assoc) in
    List.iter (fun (k, v) -> Hashtbl.replace m k v) assoc;
    m
end

(** Decide the conjunction of [constraints]. *)
let check ?session ?conflict_budget (constraints : Expr.t list) : result =
  let module T = Wasai_telemetry.Telemetry in
  let t0 = T.start () in
  let stage_of_tier = function
    | `Trivial | `Quick -> T.Solver_quick
    | `Blasted | `Blast_unknown -> T.Solver_blast
  in
  let budget =
    match (conflict_budget, session) with
    | Some b, _ -> b
    | None, Some s -> Session.conflict_budget s
    | None, None -> default_conflict_budget
  in
  match session with
  | None ->
      let result, tier =
        solve_raw ~conflict_budget:budget ~arena:Bitblast.create constraints
      in
      T.stop (stage_of_tier tier) t0;
      result
  | Some s -> (
      if List.exists Expr.is_false constraints then begin
        T.stop T.Solver_quick t0;
        Unsat
      end
      else
        let key = Session.key_of constraints in
        match Session.find s key with
        | Some (Session.C_sat assoc) ->
            let m = Sat (Session.hydrate_model assoc) in
            T.stop T.Solver_cache t0;
            m
        | Some Session.C_unsat ->
            T.stop T.Solver_cache t0;
            Unsat
        | None ->
            let result, tier =
              solve_raw ~conflict_budget:budget ~arena:(Session.arena s)
                constraints
            in
            (match tier with
            | `Trivial -> ()
            | `Quick -> s.Session.sx_quick <- s.Session.sx_quick + 1
            | `Blasted -> s.Session.sx_blasted <- s.Session.sx_blasted + 1
            | `Blast_unknown ->
                s.Session.sx_blasted <- s.Session.sx_blasted + 1;
                s.Session.sx_unknown <- s.Session.sx_unknown + 1);
            (match result with
            | Sat m ->
                Session.add s key (Session.C_sat (Session.snapshot_model m))
            | Unsat -> Session.add s key Session.C_unsat
            | Unknown ->
                (* Unknown is a budget artefact, not a verdict: never
                   cache it, so a later query under a bigger budget can
                   still decide the set. *)
                ());
            T.stop (stage_of_tier tier) t0;
            result)

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
