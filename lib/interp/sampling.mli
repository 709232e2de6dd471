(** Bursty sampling controller for profile collection.

    This is the *collection*-side sampling mode (metric family
    [rt.sample.*], CLI flag [--sample-rate]); it is unrelated to
    {!Telemetry}'s ring sampling, which snapshots observability counters
    and keeps its own vocabulary.

    A sampled run alternates bursts of fully-instrumented execution with
    gaps in which instrumented routines execute their *uninstrumented*
    opcode stream. With sampling rate [1/denom] and burst length [B], the
    controller is on for [B] ticks out of every [denom * B]; a tick is a
    unit of path collection — a frame entry or a path-ending loop back
    edge of an instrumented routine that has not tiered up, the only
    places whose stream a burst decision can change — so over a long
    run roughly [1/denom] of the instrumented routines' dynamic paths
    are recorded. Routines the instrumentation skipped and routines
    already tiered up take no tick, so tiering shifts the burst
    schedule of the routines still collecting.
    Recovered counts are scaled back by [denom]
    (see {!Instr_rt.scaled_count}) to estimate the full profile.

    The on/off phase is seeded (SplitMix64), so a given [(spec, program)]
    pair replays byte-identically, while distinct shard seeds decorrelate
    which paths each member of a fleet observes. *)

type spec = {
  denom : int;  (** sampling rate denominator: record 1 of every [denom] ticks. [<= 1] means always on. *)
  burst : int;  (** consecutive on-ticks per burst; {!infinite_burst} never turns off once on. *)
  seed : int;  (** phase seed; distinct seeds start the burst cycle at decorrelated offsets. *)
}

val infinite_burst : int
(** Burst length meaning "once on, never turn off" ([max_int]). With
    [denom = 1] this reproduces unsampled collection exactly. *)

val spec : ?burst:int -> ?seed:int -> denom:int -> unit -> spec
(** [spec ~denom ()] with [burst] defaulting to {!default_burst} and
    [seed] to 0. Raises [Invalid_argument] if [denom < 1] or
    [burst < 1]. *)

val default_burst : int
(** Default burst length (4 ticks) — short enough that single-frame
    hot-loop workloads still interleave on and off stretches. *)

type t
(** A live controller: one per run, mutable. *)

val start : spec -> t
(** Fresh controller with its phase drawn from the seed: the first tick
    lands uniformly within one on/off period. *)

val tick : t -> bool
(** Advance one tick and return whether collection is on for the unit of
    execution beginning now. Constant-time: one decrement on the fast
    path, a branch only at burst boundaries. *)

val on_ticks : t -> int
(** Ticks answered "on" so far. *)

val off_ticks : t -> int
(** Ticks answered "off" so far. *)

val bursts : t -> int
(** Number of bursts entered so far (counting an initial on-phase). *)

val parse_rate : string -> (int, string) result
(** Parse a [--sample-rate] argument: ["1"] or ["1/16"] (or a bare
    denominator ["16"]) to the denominator. *)

val rate_to_string : int -> string
(** [1 -> "1"], [16 -> "1/16"]. *)
