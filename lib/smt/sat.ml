(** CDCL SAT solver (MiniSat-style): two-literal watching, first-UIP
    conflict analysis, VSIDS branching with an activity heap, and Luby
    restarts.  A conflict budget stands in for the paper's 3,000 ms
    per-query cap: deterministic, so experiments reproduce exactly.

    Literal encoding: variable [v] (0-based) has positive literal [2v] and
    negative literal [2v+1]; negation is [lxor 1].

    The solver holds no OCaml pointers besides its vectors: clauses live
    back to back in one flat literal store and are named by their offset
    in it, so watch lists, reasons and the trail are all int arrays.  A
    solver reused across queries ({!reset}) therefore never writes a
    pointer into an old array, which keeps the GC's write barrier and
    marking work out of steady-state solving. *)

type result = Sat | Unsat | Unknown

(* Growable int vectors. *)
module Vec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = Array.make 16 0; size = 0 }

  let push v x =
    if v.size = Array.length v.data then begin
      let bigger = Array.make (2 * v.size) 0 in
      Array.blit v.data 0 bigger 0 v.size;
      v.data <- bigger
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let size v = v.size
  let shrink v n = if v.size <> n then v.size <- n
end

(* A clause is the offset [c] of its header in [lits]: [lits.(c)] is its
   length and its literals follow, the watched two first. *)
let no_reason = -1

type t = {
  mutable nvars : int;
  lits : Vec.t;  (** every clause, problem and learnt, back to back *)
  mutable watches : Vec.t array;
      (** indexed by literal; clauses to visit when it becomes true, i.e.
          those watching its negation.  [no_watches] until the literal's
          first watch *)
  mutable assign : int array;  (** -1 unassigned, else 0/1 *)
  mutable level : int array;
  mutable reason : int array;  (** implying clause, or [no_reason] *)
  mutable activity : float array;
  mutable polarity : bool array;  (** phase saving *)
  mutable seen : bool array;  (** [analyze] scratch; all false between calls *)
  trail : Vec.t;  (** assigned literals in order *)
  trail_lim : Vec.t;  (** decision-level boundaries *)
  mutable qhead : int;
  mutable var_inc : float;
  (* Activity-ordered heap of candidate decision variables. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;  (** -1 when not in heap *)
  mutable ok : bool;
  mutable conflicts : int;
}

(* The one watch list every literal starts with.  It is shared by all
   solvers and never written: [watch] swaps in a literal's own vector on
   its first push, so growing [watches] allocates no vectors at all. *)
let no_watches = { Vec.data = [||]; size = 0 }

let create () =
  {
    nvars = 0;
    lits = Vec.create ();
    watches = Array.make 2 no_watches;
    assign = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 no_reason;
    activity = Array.make 1 0.0;
    polarity = Array.make 1 false;
    seen = Array.make 1 false;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    heap = Array.make 1 0;
    heap_size = 0;
    heap_pos = Array.make 1 (-1);
    ok = true;
    conflicts = 0;
  }

(* ---- variable/literal helpers ------------------------------------- *)

let lit_of_var v ~positive = if positive then 2 * v else (2 * v) + 1
let var_of_lit l = l lsr 1
let neg l = l lxor 1

(* Value of a literal: -1 unassigned, 0 false, 1 true. *)
let lit_value s l =
  let a = s.assign.(var_of_lit l) in
  if a < 0 then -1 else a lxor (l land 1)

(* ---- heap --------------------------------------------------------- *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best))
  then best := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_size = Array.length s.heap then begin
      let bigger = Array.make (2 * s.heap_size) 0 in
      Array.blit s.heap 0 bigger 0 s.heap_size;
      s.heap <- bigger
    end;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_pos.(v) <- -1;
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

(* ---- variable allocation ------------------------------------------ *)

let grow_array a n dflt =
  let b = Array.make n dflt in
  Array.blit a 0 b 0 (Array.length a);
  b

let new_var s : int =
  let v = s.nvars in
  s.nvars <- v + 1;
  if s.nvars > Array.length s.assign then begin
    let n = 2 * s.nvars in
    s.assign <- grow_array s.assign n (-1);
    s.level <- grow_array s.level n 0;
    s.reason <- grow_array s.reason n no_reason;
    s.activity <- grow_array s.activity n 0.0;
    s.polarity <- grow_array s.polarity n false;
    s.seen <- grow_array s.seen n false;
    s.heap_pos <- grow_array s.heap_pos n (-1);
    s.watches <- grow_array s.watches (2 * n) no_watches
  end;
  heap_insert s v;
  v

(* Only the first [nvars] variable slots and [2 * nvars] watch lists were
   ever written, so clearing them leaves every array as [create] made it,
   at the capacity it has grown to. *)
let reset s =
  Array.fill s.assign 0 s.nvars (-1);
  Array.fill s.level 0 s.nvars 0;
  Array.fill s.reason 0 s.nvars no_reason;
  Array.fill s.activity 0 s.nvars 0.0;
  Array.fill s.polarity 0 s.nvars false;
  Array.fill s.seen 0 s.nvars false;
  Array.fill s.heap_pos 0 s.nvars (-1);
  for l = 0 to (2 * s.nvars) - 1 do
    Vec.shrink s.watches.(l) 0
  done;
  Vec.shrink s.lits 0;
  Vec.shrink s.trail 0;
  Vec.shrink s.trail_lim 0;
  s.nvars <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.heap_size <- 0;
  s.ok <- true;
  s.conflicts <- 0

(* ---- assignment --------------------------------------------------- *)

let decision_level s = Vec.size s.trail_lim

let enqueue s l reason =
  let v = var_of_lit l in
  s.assign.(v) <- 1 lxor (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* ---- clauses ------------------------------------------------------ *)

let watch s l c =
  let ws = s.watches.(l) in
  if ws == no_watches then begin
    let ws = Vec.create () in
    s.watches.(l) <- ws;
    Vec.push ws c
  end
  else Vec.push ws c

(* Append a clause of at least two literals to the store. *)
let store s (lits : int list) : int =
  let c = Vec.size s.lits in
  Vec.push s.lits (List.length lits);
  List.iter (Vec.push s.lits) lits;
  c

let watch_clause s c =
  let lits = s.lits.Vec.data in
  watch s (neg lits.(c + 1)) c;
  watch s (neg lits.(c + 2)) c

(** Add a clause; returns false if the instance is already unsat. *)
let add_clause s (lits : int list) : bool =
  if not s.ok then false
  else begin
    (* Remove duplicates and true/false literals at level 0.  Sorted, a
       literal [2v] and its negation [2v+1] are neighbours. *)
    let lits = List.sort_uniq Int.compare lits in
    let rec tautology = function
      | [] -> false
      | [ l ] -> lit_value s l = 1
      | l :: (l' :: _ as rest) ->
          lit_value s l = 1 || l' = neg l || tautology rest
    in
    if tautology lits then true
    else begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] ->
          s.ok <- false;
          false
      | [ l ] ->
          enqueue s l no_reason;
          true
      | _ ->
          watch_clause s (store s lits);
          true
    end
  end

(* ---- propagation --------------------------------------------------- *)

(* Returns the conflicting clause, or [no_reason]. *)
let propagate s : int =
  let confl = ref no_reason in
  while !confl = no_reason && s.qhead < Vec.size s.trail do
    let l = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    let nl = neg l in
    (* Clauses watching (neg l) may become unit/conflicting.  No clause
       is stored while propagating, so [lits] stays the live store. *)
    let lits = s.lits.Vec.data in
    let ws = s.watches.(l) in
    let n = Vec.size ws in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = ws.Vec.data.(!i) in
      incr i;
      (* Make sure the false literal is the second watch. *)
      if lits.(c + 1) = nl then begin
        lits.(c + 1) <- lits.(c + 2);
        lits.(c + 2) <- nl
      end;
      if lit_value s lits.(c + 1) = 1 then begin
        (* Clause satisfied; keep the watch. *)
        ws.Vec.data.(!keep) <- c;
        incr keep
      end
      else begin
        (* Look for a new watch. *)
        let last = c + lits.(c) in
        let found = ref false in
        let k = ref (c + 3) in
        while (not !found) && !k <= last do
          let lk = lits.(!k) in
          if lit_value s lk <> 0 then begin
            lits.(!k) <- lits.(c + 2);
            lits.(c + 2) <- lk;
            watch s (neg lk) c;
            found := true
          end;
          incr k
        done;
        if not !found then begin
          (* Unit or conflict. *)
          ws.Vec.data.(!keep) <- c;
          incr keep;
          if lit_value s lits.(c + 1) = 0 then begin
            (* Conflict: keep the remaining watches, then stop. *)
            while !i < n do
              ws.Vec.data.(!keep) <- ws.Vec.data.(!i);
              incr keep;
              incr i
            done;
            s.qhead <- Vec.size s.trail;
            confl := c
          end
          else enqueue s lits.(c + 1) c
        end
      end
    done;
    Vec.shrink ws !keep
  done;
  !confl

(* ---- conflict analysis --------------------------------------------- *)

(** First-UIP learning; returns (learnt clause lits with asserting literal
    first, backtrack level).  Every variable marked in [s.seen] is either
    resolved away (and unmarked) or ends up in the learnt clause, so
    unmarking the learnt literals restores the all-false array. *)
let analyze s (confl : int) : int list * int =
  let seen = s.seen in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (Vec.size s.trail - 1) in
  let btlevel = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    assert (!confl <> no_reason);
    let lits = s.lits.Vec.data and c = !confl in
    for k = c + 1 to c + lits.(c) do
      let q = lits.(k) in
      if q <> !p then begin
        let v = var_of_lit q in
        if (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= decision_level s then incr counter
          else begin
            learnt := q :: !learnt;
            if s.level.(v) > !btlevel then btlevel := s.level.(v)
          end
        end
      end
    done;
    (* Select next literal to look at. *)
    let rec skip () =
      let l = Vec.get s.trail !idx in
      if not seen.(var_of_lit l) then begin
        decr idx;
        skip ()
      end
      else l
    in
    let l = skip () in
    decr idx;
    p := l;
    confl := s.reason.(var_of_lit l);
    seen.(var_of_lit l) <- false;
    decr counter;
    if !counter = 0 then continue_ := false
  done;
  List.iter (fun q -> seen.(var_of_lit q) <- false) !learnt;
  (neg !p :: !learnt, !btlevel)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = var_of_lit l in
      s.polarity.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- no_reason;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

let record_learnt s lits =
  match lits with
  | [ l ] -> enqueue s l no_reason
  | l :: _ ->
      let c = store s lits in
      (* Second watch should be a literal from the conflict level. *)
      let a = s.lits.Vec.data in
      let max_i = ref (c + 2) in
      for i = c + 3 to c + a.(c) do
        if s.level.(var_of_lit a.(i)) > s.level.(var_of_lit a.(!max_i)) then
          max_i := i
      done;
      let tmp = a.(c + 2) in
      a.(c + 2) <- a.(!max_i);
      a.(!max_i) <- tmp;
      watch_clause s c;
      enqueue s l c
  | [] -> s.ok <- false

(* ---- decisions ----------------------------------------------------- *)

let rec pick_branch_var s : int option =
  if s.heap_size = 0 then None
  else
    let v = heap_pop s in
    if s.assign.(v) < 0 then Some v else pick_branch_var s

(* The i-th element (1-based) of the Luby restart sequence. *)
let rec luby_seq i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby_seq (i - (1 lsl (!k - 1)) + 1)

(* ---- main loop ----------------------------------------------------- *)

let solve ?(conflict_budget = 200_000) (s : t) : result =
  if not s.ok then Unsat
  else begin
    let budget_exhausted = ref false in
    let answer = ref None in
    let restart_count = ref 0 in
    if propagate s <> no_reason then answer := Some Unsat;
    while !answer = None && not !budget_exhausted do
      incr restart_count;
      let restart_limit = 100 * luby_seq !restart_count in
      let local_conflicts = ref 0 in
      let done_ = ref false in
      while not !done_ do
        let confl = propagate s in
        if confl <> no_reason then begin
          s.conflicts <- s.conflicts + 1;
          incr local_conflicts;
          if decision_level s = 0 then begin
            answer := Some Unsat;
            done_ := true
          end
          else begin
            let learnt, btlevel = analyze s confl in
            cancel_until s btlevel;
            record_learnt s learnt;
            var_decay s;
            if s.conflicts >= conflict_budget then begin
              budget_exhausted := true;
              done_ := true
            end
            else if !local_conflicts >= restart_limit then begin
              cancel_until s 0;
              done_ := true
            end
          end
        end
        else
          match pick_branch_var s with
          | None ->
              answer := Some Sat;
              done_ := true
          | Some v ->
              Vec.push s.trail_lim (Vec.size s.trail);
              enqueue s (lit_of_var v ~positive:s.polarity.(v)) no_reason
      done
    done;
    match !answer with
    | Some Sat -> Sat
    | Some r ->
        cancel_until s 0;
        r
    | None ->
        cancel_until s 0;
        Unknown
  end

(** Value of a variable in the satisfying assignment (call after
    [solve] = Sat; unassigned variables default to false). *)
let model_value s v = v < s.nvars && s.assign.(v) = 1

let num_vars s = s.nvars
let num_conflicts s = s.conflicts
