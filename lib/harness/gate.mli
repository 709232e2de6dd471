(** The performance-regression gate: compare two [BENCH_*.json]
    documents (rows from {!Report.bench_json_one}) and report every
    benchmark metric that regressed by more than a tolerance.

    The gated metrics are the rows of {!table}: a JSON path into a
    benchmark's row, a direction and the label a failure carries. A
    [Ceiling] fails when the current value exceeds the baseline's by
    more than the tolerance, a [Floor] when it sinks more than the
    tolerance below it. They are all deterministic cost-model or
    layout-proxy figures except [throughput.ratio], the VM-vs-reference
    wall-clock speedup, which is gated only when both documents carry a
    [throughput] section.

    A metric the baseline has and the current document lacks is
    reported, never skipped: a warning by default, a failure under
    [strict]. A missing section ([sampling], [tiered], ...) or sampling
    rate is reported once, under its own name. Benchmarks present in
    the baseline but missing from the current document, and schema
    mismatches, are failures too — a gate that silently compares
    nothing is worse than no gate. Benchmarks only in the current
    document are ignored (adding a workload is not a regression). *)

type failure = {
  bench : string;
  metric : string;  (** a row's label, e.g. ["ppp.overhead"] *)
  baseline : float;
  current : float;  (** NaN when the metric is missing under strict *)
}

type warning = { bench : string; metric : string }
(** A metric the baseline carries but the current document lacks: the
    gate compared nothing for it. Reported, never silently skipped. *)

type result = { failures : failure list; warnings : warning list }

type direction = Ceiling | Floor

type step =
  | Key of string  (** an object member *)
  | Rate
      (** each element of a [rates] array, paired with the current
          document's element of the same [denom] *)

type row = { path : step list; direction : direction; label : string }
(** A path starts with its section's key. In the label of a row whose
    path crosses a [Rate], [*] stands for that rate, e.g.
    ["sampling.*.overhead"] fails as ["sampling.1/4.overhead"]; a rate
    the current document lacks is reported as ["sampling.1/4.rate"]. *)

val table : row list
(** Every gated metric: [methods.{pp,tpp,ppp}.overhead] (ceilings),
    [throughput.ratio], [layout.methods.ppp.improvement] and
    [layout.closed_loop.improvement] (floors), the per-rate sampling
    [overhead] (ceiling) and [overlap_vs_full] / [overlap_vs_truth]
    (floors), [tiered.instr_saving] and [tiered.layout.improvement]
    (floors), and [drift.drift_stability] (a floor). *)

val run :
  ?strict:bool ->
  baseline:Ppp_obs.Jsonx.t ->
  current:Ppp_obs.Jsonx.t ->
  pct:float ->
  unit ->
  result
(** Evaluate {!table} on every baseline benchmark. A regression is a
    move beyond [pct] percent of the baseline value in the row's bad
    direction, with a 1e-9 absolute floor so zero baselines don't trip
    on rounding; [failures = []] means the gate passes. Metrics present
    in the baseline but absent from the current document become
    {!warning}s; with [strict] (default false) they become failures
    (with [current = nan]) instead. *)

val check_floors :
  floors:Ppp_obs.Jsonx.t -> report:Ppp_obs.Jsonx.t -> failure list
(** Gate a [pppc report] document (schema ["ppp-quality/1"]) against a
    committed floors document (schema ["ppp-quality-floors/1"],
    [{"methods":{"ppp":{"min_overlap":97.0},...}}]): each listed
    method's worst-workload overlap percentage must be at least its
    floor. A method or summary entry missing from the report fails
    (current [nan]) — a floor that gates nothing is a failure, not a
    pass. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_failures : Format.formatter -> failure list -> unit
val pp_warning : Format.formatter -> warning -> unit
