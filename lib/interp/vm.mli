(** The flat VM execution engine.

    Executes the opcode arrays produced by {!Lower}: contiguous code, a
    recycled frame array, reusable path buffers feeding
    {!Ppp_profile.Path_profile.Intern}, and fuel charged once per
    straight-line segment with an exact remainder bill on exhaustion.
    Byte-identical in observable behavior to the reference tree-walker —
    the differential suite in [test/test_engine_diff.ml] holds it to
    that. Use {!Interp.run}, which dispatches here by default. *)

val run :
  ?cache:Lower.cache -> config:Engine.config -> Ppp_ir.Ir.program -> Engine.outcome
(** [cache] memoizes structural lowering across runs (see {!Lower.cache}).
    Without it the VM uses a cache of its own, so repeated runs of the
    same program value lower it once; a run nested inside another (a
    tier planner that runs a program) lowers cold instead.
    @raise Engine.Runtime_error on a genuine dynamic fault. *)
