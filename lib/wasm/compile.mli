(** Closure-compiled execution tier.

    Translates a validated module once into threaded OCaml closures —
    preallocated local frames, an operand-stack array reused across
    payloads, fuel folded into straight-line-segment entry checks, and
    optional direct unboxed callbacks for selected host imports
    ([fast_host]).  Observationally identical to {!Interp}: same results,
    same trap/exhaustion messages at the same instruction, same host-call
    order, same fuel on every embedder-visible path.  Functions the
    compiler does not cover (or that [exclude] vetoes) transparently fall
    back to the interpreter, together with everything they call. *)

(** Direct unboxed callback for a one-parameter, no-result host import —
    the shape of the instrumentation hooks.  Calls to a matching import
    compile to a plain OCaml call, bypassing the resolver's boxed
    argument lists.  The callback must behave exactly like the host
    function the instance's resolver binds for the same import,
    unconditionally: supply one only when any conditional behaviour of
    the resolver-bound hook (e.g. a receiver guard) is statically known
    to take the same branch for every call through this instance. *)
type fast_host =
  | Fast_i32 of (int32 -> unit)
  | Fast_i64 of (int64 -> unit)
  | Fast_f32 of (float -> unit)
  | Fast_f64 of (float -> unit)

type prepared
(** A module compiled to closures, plus the operand stack reused across
    payloads.  One [prepared] is confined to one domain at a time. *)

val prepare :
  ?fast_host:(string -> string -> fast_host option) ->
  ?exclude:(Ast.instr -> bool) ->
  Ast.module_ ->
  prepared
(** Compile a validated module.  [fast_host mod_name item] may supply a
    direct callback for an import (ignored unless the import's type
    matches the callback's shape).  [exclude] forces any function
    containing a matching instruction onto the interpreter fallback —
    the per-opcode safety valve, also used by the parity tests to
    exercise fallback boundaries. *)

val module_of : prepared -> Ast.module_

val function_counts : prepared -> int * int
(** (compiled, fallback) function counts. *)

type session
(** One instantiation of a prepared module: the analogue of
    {!Interp.instance} for the compiled tier. *)

val instantiate :
  ?fuel:int -> ?max_depth:int -> prepared -> Interp.resolver -> session
(** Allocate an instance through {!Interp.alloc_instance} (identical
    import resolution, memory/global/table/segment setup and trap
    behaviour) and run the start function, if any, through the compiled
    code.  Defaults match {!Interp.instantiate}. *)

val instance : session -> Interp.instance
(** The underlying instance: memory, globals, fuel and depth accounting
    are shared with any interpreter-executed fallback functions. *)

val invoke : session -> int -> Values.value list -> Values.value list
(** Invoke the function at an absolute index. *)

val invoke_export : session -> string -> Values.value list -> Values.value list
(** Invoke an exported function by name; traps if absent, with the same
    message as {!Interp.invoke_export}. *)

type pool
(** An instance pool over one {!prepared} module.  Instantiating a fresh
    instance per action is allocator churn (a new linear memory per
    payload); the pool keeps one live session and returns it to the
    exact post-allocation state before each reuse — globals
    re-evaluated, memory restored from the pre-start image, fuel and
    depth reset, start function re-run.  The image holds the page count
    and only the written prefix of the fresh memory (its data
    segments), not a copy of every page.  Imports are linked once, at
    the first acquisition, against the pool's resolver: its host
    functions must read any per-action state when called, never capture
    it at link time.  Observationally identical to a fresh
    {!instantiate} per acquisition. *)

val pool : prepared -> Interp.resolver -> pool
(** A pool whose instances link against [resolver]. *)

val with_session :
  pool -> ?fuel:int -> ?max_depth:int -> (session -> 'a) -> 'a
(** Run [f] with a session for this pool's module.  Reuses the pooled
    instance when possible; falls back to a fresh {!instantiate} against
    the pool's resolver when the module imports its memory, when the
    pool is already in use (re-entrant nested actions), or when
    [max_depth] differs from the pooled instance's.  Exceptions from [f]
    (and from linking or the start function) propagate unchanged. *)

val release : pool -> unit
(** Hand the pooled instance's linear memory to the calling domain as
    its spare ({!Memory.release}) and forget the instance: the domain's
    next {!Memory.create} of the same size (typically the next target's
    pool instantiating) reuses the pages, and a later {!with_session} on
    this pool instantiates afresh.  A session obtained from the pool
    before the release traps on any memory access.  Raises
    [Invalid_argument] while a {!with_session} on the pool is
    running. *)
