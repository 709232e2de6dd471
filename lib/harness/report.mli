(** Text rendering of the paper's tables and figures.

    Each function prints one table or figure's data in rows matching the
    paper's layout, with INT / FP / overall averages where the paper has
    them. All take the prepared benchmarks (see {!Pipeline.prepare}), so
    one expensive preparation can feed every report. *)

type prepared_bench = {
  spec : Ppp_workloads.Spec.bench;
  prep : Pipeline.prepared;
}

val prepare_all :
  ?scale:int -> ?names:string list -> ?cache:bool -> unit -> prepared_bench list
(** Build and prepare the (selected) benchmarks; default scale 1 and all
    benchmarks. Each benchmark gets its own {!Ppp_session.Session}
    (reachable as [prep.session]) shared by every later evaluation;
    [cache:false] runs with disabled sessions — same results, no
    memoization. *)

type evals = {
  edge : Pipeline.evaluation;
  pp : Pipeline.evaluation;
  tpp : Pipeline.evaluation;
  ppp : Pipeline.evaluation;
}
(** One full evaluation pass (edge profiling plus the three path
    profilers) for a benchmark. *)

val evals_of : prepared_bench -> evals
(** Evaluate a benchmark under every method, memoized per benchmark
    name; Figures 9–13 and the JSON output all share this pass. *)

val layout_of : prepared_bench -> Pipeline.layout_eval
(** The benchmark's {!Pipeline.layout_eval} — source order vs the oracle
    layout vs each method's estimated layout, plus the closed
    superblock+layout loop — derived from the {!evals_of} estimates and
    memoized per benchmark name. *)

(** {2 Sampling sweep}

    Accuracy vs overhead of PPP under bursty sampled collection
    ({!Ppp_interp.Sampling}), swept over rates 1, 1/4, 1/16, 1/64 and
    1/256 at the default burst with a fixed seed — fully deterministic,
    so the points are safe in the sharded bench document and the
    baseline. *)

val sweep_denoms : int list
(** The swept rate denominators, ascending: [1; 4; 16; 64; 256]. *)

type sample_point = {
  sp_denom : int;
  sp_overhead : float;  (** instrumented overhead at this rate *)
  sp_overlap_full : float;
      (** weighted overlap (0–100) vs the unsampled PPP estimate *)
  sp_overlap_truth : float;
      (** weighted overlap (0–100) vs the measured truth *)
  sp_tv_full : float;
      (** total-variation distance (0–1) vs the unsampled estimate *)
}

val sampling_of : prepared_bench -> sample_point list
(** One point per {!sweep_denoms} entry, memoized per benchmark name.
    The rate-1 point reuses the {!evals_of} PPP evaluation, so its
    overlaps are exactly 100. *)

val sampling_report : Format.formatter -> prepared_bench list -> unit
(** Per-benchmark overlap/overhead at every swept rate, with per-rate
    averages — the accuracy-vs-overhead curve of the sampled collector. *)

(** {2 Tiered execution vs the two-pass flow}

    One run with the {!Ppp_interp.Tier} controller armed — routines
    start instrumented, hot ones swap onto optimized re-lowerings
    mid-run — against the two-pass instrument-then-optimize flow the
    rest of the bench measures. Deterministic. *)

val tier_threshold : int
(** Trip threshold the bench arms the controller with
    ({!Ppp_interp.Tier.default_threshold}). *)

type tiered_stats = {
  tt_threshold : int;
  tt_routines : int;
  tt_swapped : int;  (** routines that tiered up during the run *)
  tt_reordered : int;  (** ... onto a non-source block order *)
  tt_untiered_instr_cost : int;
      (** instrumentation cost of the same run without the controller *)
  tt_tiered_instr_cost : int;
  tt_saving : float;  (** fraction of instrumentation cost retired *)
  tt_base_score : float;
      (** {!Ppp_interp.Layout.program_proxy} score in source order *)
  tt_swapped_score : float;  (** ... under the orders the swaps installed *)
  tt_improvement : float;
}

val tiered_of : prepared_bench -> tiered_stats
(** Execute the tiered run and the untiered instrumented run (sharing
    one instrumentation through the session), score the installed block
    orders with the i-cache proxy, and memoize per benchmark name. *)

val tiered_report : Format.formatter -> prepared_bench list -> unit
(** Per-benchmark swap counts, instrumentation-cost savings and layout
    proxy scores of the tiered run. *)

(** {2 Drift sweep}

    The re-optimization loop fed a fleet's profile store — every
    generation's sampled dump merged with exponential age decay
    ({!Pipeline.reoptimize}'s drift mode) — against the same loop on
    pristine full-instrumentation hand-offs. The reported number is
    {!Ppp_opt.Decision.stability} churn: what placement stability costs
    when profiles are sampled and stale. Deterministic (fixed seed and
    decay). *)

val drift_iterations : int
(** Generations per loop (3). *)

val drift_decay : float
(** Exponential age weight of the drift store's merge (0.5). *)

val drift_denom : int
(** Sampling rate denominator of the drift loop's collector (16). *)

type drift_gen = {
  dg_gen : int;  (** 2-based: generation 1's diff is vacuous *)
  dg_full_stability : float;
  dg_drift_stability : float;
  dg_full_overhead : float;
  dg_drift_overhead : float;
  dg_drift_matched : float;
      (** count mass surviving the decayed merge + stale matching *)
}

type drift_stats = {
  dr_gens : drift_gen list;
  dr_full_stability : float;  (** at generation 2 — see {!drift_of} *)
  dr_drift_stability : float;
  dr_churn_gap : float;  (** full - drift at generation 2 *)
}

val drift_of : prepared_bench -> drift_stats
(** Run both loops ({!drift_iterations} generations each, superblocks
    and layout on) from the benchmark's original program and compare
    per-generation decision stability; memoized per benchmark name.
    The summary fields read generation 2, where both loops re-optimize
    the same starting program and the stability difference is purely
    the profile store's doing; later generations (reported in
    [dr_gens]) re-optimize already-optimized programs whose decision
    keys have all moved, depressing stability structurally in both
    loops alike. *)

val drift_report : Format.formatter -> prepared_bench list -> unit
(** Per-benchmark stability at every generation of both loops, with the
    churn gap and fleet averages. *)

val bench_json_one :
  ?throughput:(string -> Ppp_obs.Jsonx.t option) ->
  ?sampling:bool ->
  ?tiered:bool ->
  ?drift:bool ->
  prepared_bench ->
  Ppp_obs.Jsonx.t
(** One benchmark's row of the machine-readable [BENCH_*.json] record —
    what a shard worker computes and sends back when the harness runs
    under [-j]: per-method overhead / accuracy / coverage (and the
    secondary statistics) and the layout proxy scores, plus whatever
    [throughput] returns for the benchmark (per-engine Minstr/s, when
    the driver's [--throughput] mode ran; never under [-j]). The
    optional sections are deterministic, so safe under [-j], and opt-in
    because each costs extra evaluations: [sampling] (default [false])
    adds the sweep object (burst, seed, and per swept rate its overhead,
    [overlap_vs_full], [overlap_vs_truth] and [tv_vs_full]); [tiered]
    (default [false]) the tiered object ({!tiered_stats}); [drift]
    (default [false]) the drift object (loop parameters, per-generation
    stability/overhead/matched fractions, and the generation-2 summary
    the bench floor reads). *)

val bench_json_wrap : ?scale:int -> ?seed:int -> Ppp_obs.Jsonx.t list -> Ppp_obs.Jsonx.t
(** Assemble {!bench_json_one} rows (in benchmark order) into the full
    document; [seed] records the PRNG seed a sharded run derived its
    per-item seeds from. *)

val table1 : Format.formatter -> prepared_bench list -> unit
(** Dynamic path characteristics with and without inlining and
    unrolling. *)

val table2 : Format.formatter -> prepared_bench list -> unit
(** Distinct paths; hot paths and their flow at the 0.125% and 1%
    thresholds. *)

val fig9_10_11 : Format.formatter -> prepared_bench list -> unit
(** Accuracy (Figure 9), coverage (Figure 10) and fraction of dynamic
    paths instrumented with the hashed portion (Figure 11) for edge
    profiling, PP, TPP and PPP — they share one evaluation pass, so they
    are printed together. *)

val fig12 : Format.formatter -> prepared_bench list -> unit
(** Runtime overheads of PP, TPP and PPP. *)

val layout_report : Format.formatter -> prepared_bench list -> unit
(** Per-benchmark taken-transfer / locality proxy scores: source order,
    the oracle layout, the layouts edge profiling and PPP estimate, and
    the closed superblock+layout loop, with the drop count and aggregate
    improvements the bench gate floors. *)

val fig13 : Format.formatter -> prepared_bench list -> unit
(** Leave-one-out ablation of PPP's techniques, normalized to TPP, on
    the benchmarks where PPP improves on TPP by more than 5% of TPP's
    overhead (the paper's selection rule). *)

val section8_1 : Format.formatter -> prepared_bench list -> unit
(** The prose numbers of Section 8.1: average edge-profile accuracy and
    attribution (coverage). *)
