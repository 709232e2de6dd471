(** Process-parallel collection: a fork-based worker pool and the
    sharded profile collector built on it.

    Parallelism comes from [Unix.fork] rather than OCaml 5 domains, for
    containment: each worker has its own address space, so a crash, a
    signal or an [exit] in one cannot take the run down, and
    process-global state (the VM's own lowering cache, the metrics
    registry) needs no locking. [jobs] workers each take every [jobs]-th
    item and stream back [Marshal]-ed results over a pipe. Determinism is the
    whole point — results come back indexed, every item's PRNG seed is
    derived from the pool seed and the item's {e index} (never from the
    worker count or wall clock), and a worker that dies surfaces as a
    located {!Ppp_resilience.Diagnostic} with kind [Shard_lost] rather
    than poisoning the run — so the output of a [-j 8] run is the same
    value a [-j 1] run produces, minus exactly the items whose worker
    crashed. *)

val derive_seed : int -> int -> int
(** [derive_seed base index]: the per-item seed. A pure mix of [base]
    and [index] only, so it is independent of the number of jobs and of
    scheduling order. *)

val map :
  jobs:int ->
  ?seed:int ->
  ?timeout_s:float ->
  f:(seed:int -> 'a -> 'b) ->
  'a list ->
  ('b, Ppp_resilience.Diagnostic.t) result list
(** Apply [f] to every item across [max 1 (min jobs (length items))]
    forked workers; the result list is in item order regardless of
    completion order. An exception escaping [f], or a worker dying
    outright (crash, signal, [exit]), yields [Error] with a [Shard_lost]
    diagnostic locating the item (its index is reported in the
    diagnostic's [line] field). Worker stdout is routed to [/dev/null]
    so shard chatter cannot interleave with the parent's output; [f]
    must not rely on mutating parent state (it runs in a child
    process).

    All pipe I/O is EINTR-safe and short-read/short-write tolerant on
    both sides ({!Ppp_resilience.Robust_io}). [timeout_s], when given,
    is a per-worker wall-clock budget measured while the parent drains
    that worker's stream: a worker that stalls past it is killed
    ([SIGKILL]) and each of its undelivered items becomes a located
    [Shard_lost] diagnostic instead of blocking the merge forever;
    items it already delivered are kept. *)

(** {2 Sharded workload collection}

    The machinery behind [pppc collect bench:all -j N]: one worker item
    per workload, each producing a canonical v2 dump plus (optionally) a
    metrics snapshot; the parent parses the dumps back, prefixes every
    routine with ["BENCH/"] so the 18 programs coexist in one namespace,
    and merges them with {!Ppp_profile.Profile_io.Raw.merge}. Because
    collection is deterministic and the merge is order-independent, the
    merged dump is byte-identical across [-j] levels. *)

val collect_sampled :
  ?cache:Ppp_interp.Lower.cache ->
  spec:Ppp_interp.Sampling.spec ->
  Ppp_ir.Ir.program ->
  Ppp_profile.Profile_io.Raw.t
(** Collect one program's profile under bursty sampled PPP
    instrumentation: an edge-only run supplies the instrumenter's self
    advice, the instrumented run alternates bursts per [spec], and the
    recovered path counts are scaled back by the inverse rate
    ({!Ppp_interp.Instr_rt.scaled_count}). The resulting dump carries
    the exact edge profile plus full-run path {e estimates} — it merges
    uniformly with unsampled dumps. Deterministic for a given
    [(spec, program)] pair. *)

type collected = {
  raw : Ppp_profile.Profile_io.Raw.t;
      (** the merged profile; its diagnostics cover parse/merge issues *)
  shards : (string * string) list;
      (** delivered shards, in workload order: (bench name, canonical
          v2 dump text) — what [--shard-dir] writes out *)
  shard_metrics : (string * Ppp_obs.Metrics.snapshot) list;
      (** per-shard metrics snapshots (empty when [metrics] is off) *)
  metrics : Ppp_obs.Metrics.snapshot;
      (** the {!Ppp_obs.Metrics.merge} of all delivered shards *)
  lost : Ppp_resilience.Diagnostic.t list;
      (** one [Shard_lost] diagnostic per workload whose worker died *)
}

val collect_workloads :
  jobs:int ->
  ?scale:int ->
  ?metrics:bool ->
  ?warm:bool ->
  ?sampling:Ppp_interp.Sampling.spec ->
  ?timeout_s:float ->
  Ppp_workloads.Spec.bench list ->
  collected
(** Run every workload under the pool ([metrics] defaults to [false];
    when on, each worker enables and resets {!Ppp_obs.Metrics} before
    its run, so shard snapshots are disjoint and their merge is
    [-j]-invariant). With [warm] (default [false]) the parent builds
    each workload and fills a {!Ppp_session.Session} — analyses plus
    structural lowering — before forking, so workers inherit the warm
    artifacts copy-on-write and skip re-lowering; the collected output
    is byte-identical either way.

    With [sampling], each workload is collected under bursty sampled PPP
    instrumentation ({!Ppp_interp.Sampling}) instead of the engine's
    exact path tracer: a cheap edge-only run supplies self advice, the
    instrumented run alternates bursts at a rate of [1/denom], and the
    dump carries the exact edge profile plus inverse-rate path
    {e estimates} ({!Ppp_interp.Instr_rt.scaled_count}), so sampled
    shards merge uniformly with unsampled ones. The spec's [seed] acts
    as the pool seed: each workload samples under
    [derive_seed seed index], so the merged dump stays byte-identical
    across [-j] levels. *)
