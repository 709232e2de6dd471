(** The end-to-end experiment pipeline of Section 7: run the original
    program, apply edge-profile-guided inlining and unrolling (re-profiling
    in between, as a staged optimizer would), then instrument the
    optimized program with PP / TPP / PPP, run it, and score the result.

    All profiles use "self" advice (Section 7.2): the edge profile given
    to the instrumenter comes from the same input the overhead run uses.

    Each interpreter run collects only what its outcome's readers
    consume, since tracing ground-truth paths costs more than counting
    edges. The original program's profile run (["edge-profile"]) and
    the base run of the optimized program (["base-run"]) count edges and
    trace paths: Table 1, the instrumenters and the measured truth read
    both. The re-profiles that only feed an optimizer (["re-profile"]
    before unrolling, ["sb-profile"] after superblock formation) count
    edges only. The instrumented runs of {!evaluate} (["overhead-run"])
    and {!reoptimize} are read only for their costs and frequency
    tables, so they collect neither, and their outcomes carry no
    profiles; {!tiered_run} keeps the default collection.

    Every pipeline run works against a {!Ppp_session.Session}: a
    content-addressed store of per-routine analyses (CFG views,
    dominators, loop nests, flow contexts, definite-flow DPs, structural
    lowerings, placement decisions) shared by all phases and all four
    profiling methods, and carried across re-optimization generations.
    Callers may pass their own session (e.g. one warmed on a previous
    generation, or a disabled one to measure the uncached cost); by
    default each [prepare] creates a fresh enabled session, so results
    are identical with and without an explicit session. *)

val hot_threshold : float
(** Section 8.1's hotness bar: 0.00125 of total program flow. *)

val metric : Ppp_profile.Metric.t
(** The paper's flow accounting ([Branch_flow]). *)

type opt_flags = {
  superblocks : bool;
      (** straighten each routine's hottest decoded trace
          ({!Ppp_opt.Superblock}) before inlining — only meaningful for
          {!prepare_with_profile}/{!reoptimize}, which have a decoded
          path profile to drive it *)
  layout : bool;
      (** derive a hot-path-first block emission order from the base
          run's path profile and carry it in [prepared.layout] *)
  max_trace : int;  (** trace-length bound passed to {!Ppp_opt.Superblock.form} *)
}

val default_flags : opt_flags
(** Everything off, [max_trace = 32] — the seed pipeline, byte-for-byte. *)

type prepared = {
  bench_name : string;
  original : Ppp_ir.Ir.program;
  optimized : Ppp_ir.Ir.program;
  orig_outcome : Ppp_interp.Interp.outcome;
      (** the profile run before inlining. After {!prepare} and
          {!prepare_unoptimized} it is the run of [original], with edges
          and paths. After {!prepare_with_profile} it is the re-profile
          of the inlined program and carries edges only, so its
          [path_profile] is [None]. *)
  base_outcome : Ppp_interp.Interp.outcome;
      (** run of [optimized], with edges and paths *)
  inline_stats : Ppp_opt.Inline.stats;
  unroll_stats : Ppp_opt.Unroll.stats;
  superblock_stats : Ppp_opt.Superblock.stats;
      (** what superblock formation did (empty unless the [superblocks]
          flag was on and a decoded profile drove the preparation) *)
  layout : (string, int array) Hashtbl.t option;
      (** hot-path-first block emission orders from the base run's path
          profile, when the [layout] flag was on and any routine deviates
          from source order; feed to [Interp.config.layout]. A pure
          placement hint — outcomes are byte-identical either way. *)
  confidence : float;
      (** trust in the guiding profile: 1.0 for freshly collected, the
          matched fraction for one salvaged from a stale dump *)
  diagnostics : Ppp_resilience.Diagnostic.t list;
      (** problems absorbed while preparing (fuel exhaustion, profile
          salvage); the pipeline degrades gracefully rather than raising *)
  session : Ppp_session.Session.t;
      (** the analysis store every later evaluation draws from *)
  view_memo : (string, Ppp_ir.Cfg_view.t) Hashtbl.t;
      (** name-indexed front of the session's views (internal memo) *)
  phase_ms : (string * float) list;
      (** wall-clock milliseconds per preparation phase, in order —
          nondeterministic, so never included in machine-readable
          artifacts unless explicitly requested *)
}

val decisions : prepared -> Ppp_opt.Decision.t list
(** The typed decision log of the preparation: every trace superblock
    formation straightened, every call site the inliner spliced and
    every loop the unroller replicated, in pass order. *)

val prepare :
  ?session:Ppp_session.Session.t ->
  ?flags:opt_flags ->
  name:string ->
  Ppp_ir.Ir.program ->
  prepared
(** @raise Ppp_interp.Interp.Runtime_error if the program faults.
    Fuel exhaustion does not raise: the phase keeps its partial profile
    and records an [Exhausted] diagnostic. [flags] (default
    {!default_flags}) can only enable [layout] here — superblock
    formation needs a decoded profile, which a fresh preparation does
    not have. *)

val prepare_unoptimized :
  ?session:Ppp_session.Session.t -> name:string -> Ppp_ir.Ir.program -> prepared
(** Skip inlining and unrolling (for comparisons on original code). *)

val prepare_with_profile :
  ?session:Ppp_session.Session.t ->
  ?flags:opt_flags ->
  name:string ->
  loaded:Ppp_profile.Profile_io.loaded ->
  Ppp_ir.Ir.program ->
  prepared
(** Drive inlining from a previously saved (possibly stale, possibly
    partially salvaged) profile instead of a fresh profiling run — the
    offline-advice half of a staged optimizer. The inliner's hotness bar
    is raised in proportion to distrust ([1 / matched_fraction]), the
    loaded profile's diagnostics are carried into
    [prepared.diagnostics], and [prepared.confidence] is set to the
    matched fraction so {!evaluate} degrades its placement thresholds.

    With [flags.superblocks], the loaded profile's hot paths first
    straighten each routine's hottest trace ({!Ppp_opt.Superblock.form});
    a program that actually changed is re-profiled (phase ["sb-profile"])
    so inlining consumes edge counts for the bodies it sees, and traces
    the current CFG can no longer follow become [Stale] warning
    diagnostics rather than silent skips. *)

val prepare_ms : prepared -> float
(** Total wall-clock milliseconds of the preparation phases. *)

val views : prepared -> string -> Ppp_ir.Cfg_view.t
(** CFG views of the optimized program's routines, memoized through the
    session. *)

val actual_profile : prepared -> Ppp_profile.Path_profile.program
val total_flow : prepared -> Ppp_profile.Metric.t -> int

(** {2 Path-characteristics rows (Tables 1 and 2)} *)

type path_stats = {
  dyn_paths : int;
  avg_branches : float;
  avg_instrs : float;
}

val path_stats_of_outcome :
  ?session:Ppp_session.Session.t ->
  Ppp_ir.Ir.program ->
  Ppp_interp.Interp.outcome ->
  path_stats
(** The outcome must have traced paths (see [orig_outcome]).
    @raise Invalid_argument if its [path_profile] is [None]. *)

type hot_stats = {
  distinct_paths : int;
  hot_count : int;
  hot_flow_pct : float;
}

val hot_stats : prepared -> threshold:float -> hot_stats

(** {2 Evaluating one profiling method (Figures 9-13)} *)

type evaluation = {
  config_name : string;
  overhead : float;  (** instrumentation cost / base cost (Figure 12) *)
  accuracy : float;  (** Figure 9 *)
  coverage : float;  (** Figure 10 *)
  frac_paths_instrumented : float;  (** Figure 11 *)
  frac_paths_hashed : float;  (** Figure 11, striped portion *)
  static_actions : int;
  routines_instrumented : int;
  routines_total : int;
  estimated : Ppp_flow.Score.est list;
      (** the estimated profile the scores were computed from, exposed so
          {!Ppp_quality} can compare it path-by-path against the measured
          truth *)
}

val evaluate :
  ?overflow_policy:Ppp_interp.Instr_rt.Table.overflow_policy ->
  ?sampling:Ppp_interp.Sampling.spec ->
  prepared ->
  Ppp_core.Config.t ->
  evaluation
(** Instrument with the given configuration, rerun, decode, and score.
    Analyses and placement decisions flow through [prepared.session], so
    evaluating several methods (or re-evaluating one) shares every
    memoizable artifact; results are identical to a cold evaluation.
    When [prepared.confidence < 1] the configuration is first passed
    through {!Ppp_core.Config.degrade}, weakening profile-driven
    placement decisions in proportion to distrust. [overflow_policy]
    (default [Drop]) selects how frequency tables absorb unattributable
    path executions during the overhead run. [sampling] runs the
    overhead run under bursty sampled collection
    ({!Ppp_interp.Sampling}); recovered counts are scaled back by the
    inverse rate ({!Ppp_interp.Instr_rt.scaled_count}) before scoring,
    so [overhead] reflects the sampled cost while [estimated] holds
    full-run estimates. *)

val evaluate_edge_profile : prepared -> evaluation
(** Edge profiling as the estimator: potential-flow hot paths
    (Section 6.1), definite-flow coverage, zero overhead (Section 2). *)

(** {2 Tiered execution}

    The in-VM analogue of the two-pass instrument-then-optimize flow:
    one run starts instrumented, and a {!Ppp_interp.Tier} controller
    swaps hot routines onto optimized re-lowerings mid-run. *)

val tier_planner :
  prepared -> Ppp_core.Instrument.t -> Ppp_interp.Tier.planner
(** The incremental pipeline slice the controller invokes mid-run on
    just the firing routine: decode its live path counters through
    [inst]'s placement plans, weight the paths with the paper's flow
    metric, and derive a hot-path-first block order
    ({!Ppp_interp.Layout.order_for}); [None] when the counters order the
    routine identically to source (the swap then just strips
    instrumentation). Touches no other routine, so the interpreter is
    never blocked on analysis of untouched code. *)

type tiered = {
  t_outcome : Ppp_interp.Interp.outcome;
  t_decisions : Ppp_interp.Tier.decision list;
      (** = [t_outcome.tier_decisions], the swap log in firing order *)
  t_invalidated : string list;
      (** the swapped routines, whose session artifacts were point-
          invalidated ({!Ppp_session.Session.invalidate}): their profile
          froze at the swap, so placements/layouts derived from it are
          stale for the next generation *)
  t_instrumented : Ppp_core.Instrument.t;
}

val tiered_run :
  ?threshold:int ->
  ?budget:int ->
  ?sampling:Ppp_interp.Sampling.spec ->
  prepared ->
  Ppp_core.Config.t ->
  tiered
(** Instrument [prepared.optimized] under [config] (through the session,
    like {!evaluate}), then execute ONE run with the tier controller
    armed: routines start instrumented, and those whose trip count
    (frame entries plus path-ending back edges) crosses [threshold]
    (default
    {!Ppp_interp.Tier.default_threshold}) re-lower hot-path-first with
    instrumentation stripped, up to [budget] swaps (default unlimited).
    Program outcome is byte-identical to the untiered instrumented run;
    [instr_cost] drops as routines retire their instrumentation.
    [sampling] composes: tier swaps win the variant resolution once
    fired, and a routine that has tiered up takes no more burst ticks. *)

(** {2 Iterative re-optimization} *)

type generation = {
  gen : int;  (** 1-based *)
  prep : prepared;
  dirty : string list;
      (** routines the optimizers touched this generation, in program
          order — exactly the set whose artifacts the session invalidated *)
  reinstrumented : int;  (** routines re-planned by the instrumenter *)
  reused_plans : int;
      (** routines whose placement was carried over unchanged from an
          earlier generation (sticky reuse) *)
  matched_fraction : float;
      (** how much of the previous generation's saved profile survived
          the {!Ppp_profile.Profile_io} round-trip (1.0 for the first
          generation, which profiles fresh) *)
  instr_overhead : float;  (** overhead of this generation's instrumented run *)
  decisions : Ppp_opt.Decision.t list;
      (** this generation's full optimizer decision log *)
  decision_diff : Ppp_opt.Decision.diff;
      (** placements gained/lost/kept vs the previous generation;
          generation 1 diffs against the empty log, so everything is
          "added" and stability is vacuously 1.0 *)
}

val reoptimize :
  ?session:Ppp_session.Session.t ->
  ?config:Ppp_core.Config.t ->
  ?flags:opt_flags ->
  ?iterations:int ->
  ?sampling:Ppp_interp.Sampling.spec ->
  ?decay:float ->
  name:string ->
  Ppp_ir.Ir.program ->
  generation list
(** Run [iterations] (default 1) optimize–profile–re-instrument
    generations against one shared session. Generation 1 profiles fresh;
    each later generation saves the previous generation's profile,
    reloads it against the previous optimized program through the
    stale-matching loader, re-optimizes, and re-instruments under
    [config] (default PPP) with {e sticky} placement reuse — only
    routines dirtied by superblock formation, inlining or unrolling are
    re-planned, every untouched routine keeps its instrumentation. The
    generation's instrumented run is executed end-to-end
    ([instr_overhead]), under the generation's block layout when
    [flags.layout] is on. [flags.superblocks] feeds each generation's
    decoded hot paths into {!Ppp_opt.Superblock.form} from generation 2
    onward — the paper's loop, closed.

    [sampling] and [decay] switch the loop to {e drift} mode, modelling
    a fleet's profile store instead of the lab's pristine hand-off: every
    generation's dump is kept, and each later generation reloads the
    exponentially age-decayed merge of all of them
    ({!Ppp_profile.Profile_io.Raw.merge_decayed}; [decay] defaults to 1.0
    — plain accumulation — when only [sampling] is given). With
    [sampling], the generation's instrumented run is collected bursty
    and its contribution to the store is the decoded tables scaled back
    by the inverse rate — full-run {e estimates}, not truth — while edge
    counts ride along at full fidelity (the paper takes cheap edge
    profiling as given). Dumps from older generations describe older
    CFGs, so the merge exercises {!Ppp_resilience.Stale_match} and
    [matched_fraction] reports what survived. Omitting both keeps the
    seed loop byte-for-byte.
    @raise Invalid_argument unless [0.0 < decay <= 1.0]. *)

(** {2 Layout evaluation (the i-cache / taken-branch proxy)} *)

type layout_proxy = {
  lp_transfers : int;
      (** dynamic intra-routine control transfers, weighted by true edge
          frequency (returns and calls excluded — layout cannot move
          them) *)
  lp_taken : int;  (** ... whose target is not the next opcode *)
  lp_local : int;
      (** ... whose displacement stays within
          [Ppp_interp.Cost.locality_window] *)
  lp_score : float;  (** {!Ppp_flow.Score.layout_score} of the above *)
}

type closed_loop = {
  cl_routines_straightened : int;
  cl_duplicated : int;
  cl_merged : int;
  cl_mismatches : int;
  cl_base : layout_proxy;  (** transformed program, source order *)
  cl_laid : layout_proxy;  (** transformed program, path-guided order *)
  cl_taken_drop : bool;
      (** taken-transfer mass strictly dropped — the acceptance signal
          the bench gate floors *)
  cl_improvement : float;
}

type layout_eval = {
  le_base : layout_proxy;  (** [prepared.optimized] in source order *)
  le_oracle : layout_proxy;
      (** laid out from the measured path profile — the ceiling *)
  le_oracle_improvement : float;
  le_methods : (string * layout_proxy * float) list;
      (** per profiling method: proxy under the layout its {e estimated}
          profile dictates, and its improvement over [le_base] *)
  le_closed_loop : closed_loop;
}

val layout_eval :
  prepared -> estimates:(string * Ppp_flow.Score.est list) list -> layout_eval
(** Score block layouts on [prepared.optimized] with the base run's true
    edge frequencies: source order, the oracle order (from the measured
    path profile), and the order each method's estimated profile implies.
    Then close the loop: straighten the hottest estimated trace per
    routine (the ["ppp"] entry of [estimates] when present, else the
    measured truth), run the transformed program fresh, lay it out from
    that run's own profile, and compare proxies. One deterministic VM
    run plus cost-model arithmetic — safe inside byte-identical bench
    documents. *)
