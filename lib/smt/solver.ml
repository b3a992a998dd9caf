(** Constraint solving entry point.

    [check] decides a conjunction of width-1 constraints and produces a
    model (variable id → value).  Two tiers:

    1. a propagation quick-path that solves the very common
       "variable (or invertible 1-var term) equals constant" chains the
       complicated-verification contracts produce, without touching SAT;
    2. full bit-blasting + CDCL for everything else, under a deterministic
       conflict budget standing in for the paper's 3,000 ms Z3 cap.

    Accounting is per {!Session}: each engine run (one target) owns a
    session carrying its conflict budget, counters and the bit-blasting
    arena its queries reuse, so campaign workers never contend on shared
    state. *)

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

let default_conflict_budget = 50_000

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = {
    mutable sx_budget : int;
    mutable sx_quick : int;
    mutable sx_blasted : int;
    mutable sx_unknown : int;
    mutable sx_queries : int;  (** queries that reached the quick path *)
    mutable sx_arena : Bitblast.ctx option;
  }

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
      sx_arena = None;
    }

  let conflict_budget t = t.sx_budget

  (* One bit-blasting arena per session, made by its first blasted query
     and reset in place for each later one: a reset arena numbers
     variables and clauses exactly as a fresh one, so reuse changes no
     answer and no model. *)
  let arena t =
    match t.sx_arena with
    | Some ctx ->
        Bitblast.reset ctx;
        ctx
    | None ->
        let ctx = Bitblast.create () in
        t.sx_arena <- Some ctx;
        ctx

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
end

(** Decide the conjunction of [constraints]. *)
let check ?session ?conflict_budget (constraints : Expr.t list) : result =
  let module T = Wasai_telemetry.Telemetry in
  let t0 = T.start () in
  let budget =
    match (conflict_budget, session) with
    | Some b, _ -> b
    | None, Some s -> Session.conflict_budget s
    | None, None -> default_conflict_budget
  in
  let count f = Option.iter f session in
  if List.exists Expr.is_false constraints then begin
    T.stop T.Solver_quick t0;
    Unsat
  end
  else begin
    count (fun s -> s.Session.sx_queries <- s.Session.sx_queries + 1);
    match quick_path constraints with
    | `Solved model ->
        count (fun s -> s.Session.sx_quick <- s.Session.sx_quick + 1);
        T.stop T.Solver_quick t0;
        Sat model
    | `Contradiction ->
        T.stop T.Solver_quick t0;
        Unsat
    | `Residual (residual, model) ->
        let ctx =
          match session with
          | Some s -> Session.arena s
          | None -> Bitblast.create ()
        in
        let result = blast_check ~conflict_budget:budget ctx residual model in
        count (fun s ->
            s.Session.sx_blasted <- s.Session.sx_blasted + 1;
            match result with
            | Unknown -> s.Session.sx_unknown <- s.Session.sx_unknown + 1
            | Sat _ | Unsat -> ());
        T.stop T.Solver_blast t0;
        result
  end

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
