(** Constraint flipping and adaptive-seed generation (§3.4.4).

    For every conditional state on the executed path whose condition
    involves symbolic input, build the constraint set

      payload sanity  ∧  pins  ∧  path-prefix (as taken)  ∧  ¬condition

    keeping assert conditions positive, and solve.  Each model concretises
    to a new seed's argument vector. *)

module Expr = Wasai_smt.Expr
module Solver = Wasai_smt.Solver

type candidate = {
  cand_index : int;  (** index of the flipped conditional in the path *)
  cand_site : int;
  cand_flipped_dir : bool option;
      (** direction the flip targets, for branch conditionals *)
  cand_cond : Expr.t;  (** the conditional as taken *)
  cand_prefix : Expr.t list;
      (** the input-mentioning conditions before it, newest first *)
}

(** Enumerate flip candidates for a replayed path. *)
let candidates (r : Replay.result) : candidate list =
  let input_vars = r.Replay.r_inputs.Convention.in_vars in
  (* "Does this condition mention symbolic input?", asked once per path
     entry.  Conditions share subterms along a path, and hash-consing
     makes the per-node answer stable, so one tag-keyed memo serves the
     whole path. *)
  let memo = Hashtbl.create 256 in
  let mentions e =
    Expr.contains_var_memo memo (fun v -> Hashtbl.mem input_vars v.Expr.vid) e
  in
  let out = ref [] and prefix = ref [] in
  List.iteri
    (fun i (cs : Replay.cond_state) ->
      if mentions cs.Replay.cs_cond then begin
        (* Only branches are flipped; asserts must stay satisfied.  The
           condition must involve symbolic input (§3.4.4). *)
        if cs.Replay.cs_kind <> Replay.K_assert then
          out :=
            {
              cand_index = i;
              cand_site = cs.Replay.cs_site;
              cand_flipped_dir =
                (match cs.Replay.cs_kind with
                 | Replay.K_branch -> Some (not cs.Replay.cs_taken)
                 | Replay.K_brtable | Replay.K_assert -> None);
              cand_cond = cs.Replay.cs_cond;
              cand_prefix = !prefix;
            }
            :: !out;
        prefix := cs.Replay.cs_cond :: !prefix
      end)
    r.Replay.r_path;
  (* Deepest conditional first: the newest frontier is the most
     valuable flip, and under a per-execution solve budget it must
     not starve behind branches already explored. *)
  !out

(** The path prefix as taken, then the negated conditional. *)
let query (c : candidate) : Expr.t list =
  List.rev_append c.cand_prefix [ Expr.not_ c.cand_cond ]

type solved_seed = {
  seed_args : Wasai_eosio.Abi.value list;
  seed_flipped_site : int;
}

(* §3.4.4: "we mutate one parameter in ρ⃗" — every input variable that does
   not occur in the flipped condition is pinned to its current concrete
   value.  Those values executed the path prefix, so pinning cannot make
   the constraint set unsatisfiable spuriously, and it keeps solved seeds
   from clobbering unrelated parameters (e.g. zeroing [from] and breaking
   its own authorisation). *)
let pin_constraints (inp : Convention.inputs)
    ~(current : Wasai_eosio.Abi.value list) ~(free : (int, unit) Hashtbl.t) :
    Expr.t list =
  let module Abi = Wasai_eosio.Abi in
  let current = Array.of_list current in
  let pin (v : Expr.var) (value : int64) acc =
    if Hashtbl.mem free v.Expr.vid then acc
    else Expr.cmp Expr.Eq (Expr.var v) (Expr.const v.Expr.vwidth value) :: acc
  in
  List.concat
    (List.mapi
       (fun i (_, _, sp) ->
         let cur () = if i < Array.length current then Some current.(i) else None in
         match ((sp : Convention.sym_param), cur ()) with
         | Convention.SP_scalar v, Some (Abi.V_name x | Abi.V_u64 x) ->
             pin v x []
         | Convention.SP_scalar v, Some (Abi.V_u32 x) ->
             pin v (Int64.of_int32 x) []
         | Convention.SP_asset { amount; symbol }, Some (Abi.V_asset a) ->
             pin amount a.Wasai_eosio.Asset.amount
               (pin symbol a.Wasai_eosio.Asset.symbol [])
         | Convention.SP_string { len; content }, Some (Abi.V_string s) ->
             let acc = pin len (Int64.of_int (String.length s)) [] in
             let acc = ref acc in
             Array.iteri
               (fun k v ->
                 if k < String.length s then
                   acc := pin v (Int64.of_int (Char.code s.[k])) !acc)
               content;
             !acc
         | _ -> [])
       inp.Convention.in_params)

(** Solve candidates (up to [max_solved]), concretising each model into a
    fresh argument vector.  [current] is the executed seed's arguments,
    used for unconstrained parameters. *)
let solve ?session ?conflict_budget ?(max_solved = 8)
    ?(skip = fun (_ : candidate) -> false) (r : Replay.result)
    ~(current : Wasai_eosio.Abi.value list) : solved_seed list =
  (* Standalone calls (no session) keep the historical 20k default; with
     a session and no override, the session's budget applies. *)
  let conflict_budget =
    match (conflict_budget, session) with
    | None, None -> Some 20_000
    | cb, _ -> cb
  in
  let inp = r.Replay.r_inputs in
  let solved = ref [] in
  let count = ref 0 in
  (* A query is built only for a candidate that is kept. *)
  List.iter
    (fun c ->
      if !count < max_solved && not (skip c) then
        (* Negation keeps the flipped condition's variables. *)
        let free = Hashtbl.create 8 in
        Expr.iter_vars
          (fun v -> Hashtbl.replace free v.Expr.vid ())
          c.cand_cond;
        let pins = pin_constraints inp ~current ~free in
        match
          Solver.check ?session ?conflict_budget
            (inp.Convention.in_sanity @ pins @ query c)
        with
        | Solver.Sat model ->
            incr count;
            let args = Convention.concretize inp model ~current in
            solved :=
              { seed_args = args; seed_flipped_site = c.cand_site } :: !solved
        | Solver.Unsat | Solver.Unknown -> ())
    (candidates r);
  List.rev !solved
