(** The pre-lowering pass: compiles each routine into the contiguous
    opcode array executed by {!Vm}.

    Everything resolvable ahead of time is resolved at lower time:
    operand shapes become distinct opcodes, array names become direct
    [int array] references, per-instruction charges are batched into one
    {!op.Fuel} opcode per straight-line segment (with a parallel per-op
    cost table for the exact remainder bill on fuel exhaustion),
    terminators are fused with their edge bookkeeping, and each edge's
    instrumentation is specialized into {!pre_action}s with the frequency
    table already in hand. Lowering also decides which terminators do
    edge work at all (the [_prof] opcodes) and where a frame may change
    streams (the [_res] opcodes), so the VM has no run-wide profiling,
    sampling or tiering switch. Register indices are validated here so the VM
    can use unchecked register accesses; an out-of-range index lowers to
    a lazily-faulting {!op.Trap}, and unknown array/routine names lower
    to opcodes raising the reference engine's exact errors. *)

type arr = { arr_name : string; data : int array }

type pre_action =
  | Set_reg of int
  | Add_reg of int
  | Bump of Instr_rt.Table.t
  | Bump_plus of Instr_rt.Table.t * int
  | Bump_const of Instr_rt.Table.t * int
  | Bump_none  (** counting action on an uninstrumented routine *)

type edge_ops = {
  edge : int;
  ends_path : bool;
  acts : pre_action array;
  acts_cost : int;  (** precomputed total {!Cost.action} of the list *)
  act_kinds : int array;  (** {!Instr_rt.action_index} per action *)
}

type op =
  | Fuel of { count : int; cost : int }
      (** charge the next [count] ops (total [cost]) in one update *)
  | Mov_i of { dst : int; imm : int }
  | Mov_r of { dst : int; src : int }
  | Bin_rr of { dst : int; op : Ppp_ir.Ir.binop; a : int; b : int }
  | Bin_ri of { dst : int; op : Ppp_ir.Ir.binop; a : int; imm : int }
  | Bin_ir of { dst : int; op : Ppp_ir.Ir.binop; imm : int; b : int }
  | Bin_ii of { dst : int; op : Ppp_ir.Ir.binop; ia : int; ib : int }
  | Load_r of { dst : int; data : int array; arr : arr; idx : int }
  | Load_i of { dst : int; data : int array; arr : arr; idx : int }
  | Store_rr of { data : int array; arr : arr; idx : int; src : int }
  | Store_ri of { data : int array; arr : arr; idx : int; imm : int }
  | Store_ir of { data : int array; arr : arr; iidx : int; src : int }
  | Store_ii of { data : int array; arr : arr; iidx : int; imm : int }
      (** [data == arr.data]: the backing array is inlined in the opcode
          so the hot path skips one indirection; [arr] carries the name
          and is only touched on a bounds error *)
  | Out_r of { src : int }
  | Out_i of { imm : int }
  | Call of {
      dst : int;
      callee : int;
      arg_regs : int array;
      arg_vals : int array;
    }
      (** [dst = -1] discards the result; [callee] is a plan index.
          Argument [i] comes from register [arg_regs.(i)] when that is
          [>= 0], else from the immediate [arg_vals.(i)]. *)
  | Unknown_array of { name : string }
  | Unknown_routine of { name : string }
  | Trap of { msg : string }
  | Jump of { target : int; edge : edge_ops }
      (** also a branch on an immediate condition *)
  | Branch_r of {
      cond : int;
      then_ : int;
      then_edge : edge_ops;
      else_ : int;
      else_edge : edge_ops;
    }
  | Return_r of { src : int; edge : edge_ops }
  | Return_i of { imm : int; edge : edge_ops }
  | Return_none of { edge : edge_ops }
  | Jump_prof of { target : int; edge : edge_ops }
      (** The [_prof] forms are the same terminators doing edge work:
          {!Vm} runs [traverse] (edge count, path trace, instrumentation
          actions) on the taken edge first. Lowering picks them when the
          run counts edges or traces paths, or when the terminator has an
          edge with actions; every other terminator dispatches without
          edge work. *)
  | Branch_r_prof of {
      cond : int;
      then_ : int;
      then_edge : edge_ops;
      else_ : int;
      else_edge : edge_ops;
    }
  | Return_r_prof of { src : int; edge : edge_ops }
  | Return_i_prof of { imm : int; edge : edge_ops }
  | Return_none_prof of { edge : edge_ops }
  | Jump_res of { target : int; edge : edge_ops }
      (** The resolving forms: edge work (none if the edge has none),
          then {!Vm}'s sampling/tier re-decision on a taken edge that
          ends a path. Lowering gives them to the path-ending [Jump] and
          [Branch_r] terminators of the variants whose stream can still
          change (those with [v_resolves]) and to no other terminator. *)
  | Branch_r_res of {
      cond : int;
      then_ : int;
      then_edge : edge_ops;
      else_ : int;
      else_edge : edge_ops;
    }

(** One lowered body of a routine. A plan carries a whole table of
    these: the [Instrumented]/[Plain] pair produced by specialization
    (identical length, offsets and costs — only terminators differ, in
    their actions and in whether they do edge work or resolve, so bursty
    sampling swaps a frame between them mid-run with every pc still
    valid), plus any [Optimized] generations minted by
    {!tier_up} (full re-lowerings under a hot-path-first block order
    with instrumentation stripped; same block set and per-block opcode
    runs, so a frame crosses onto one at any block boundary by mapping
    its position through the two [v_offsets] tables). *)
type variant_kind = Instrumented | Plain | Optimized of int

type variant = {
  v_kind : variant_kind;
  v_code : op array;
  v_costs : int array;  (** per-op charge, parallel to [v_code] *)
  v_offsets : int array;  (** block index -> offset of its first op *)
  v_resolves : bool;
      (** the stream can still change: set on an instrumented routine's
          [Instrumented] variant when the run samples or tiers, and on
          its [Plain] twin when it samples; never on an [Optimized]
          generation, nor on what an order-less {!tier_up} installs.
          Frame entry trips and ticks only into such a variant. *)
}

type plan = {
  routine : Ppp_ir.Ir.routine;
  view : Ppp_ir.Cfg_view.t;
  mutable variants : variant array;
      (** every lowered body of this routine; grown by {!tier_up} *)
  v_instr : int;
      (** the variant new frames enter while collecting; [= v_plain]
          when the routine is uninstrumented *)
  v_plain : int;  (** the uninstrumented stream *)
  mutable cur : int;
      (** the variant new frames resolve to once tiered: starts at
          [v_instr]; a tier-up swap moves it. [cur <> v_instr] is the
          "routine has tiered up" test at both variant-resolution
          points ({!Vm} frame entry and back-edge OSR). *)
  r_id : int;  (** this routine's plan index in its program *)
  nregs : int;
  edge_counts : Ppp_profile.Edge_profile.t option;
  intern : Ppp_profile.Path_profile.Intern.table option;
}

type program = {
  plans : plan array;
  index : (string, int) Hashtbl.t;
  main : int;
  arrays : (string, arr) Hashtbl.t;
}

(** {2 Block layout} *)

val valid_order : nblocks:int -> int array -> bool
(** [valid_order ~nblocks order] holds when [order] is a permutation of
    [0 .. nblocks-1] with the entry block first — the only orders the
    lowering will honor ([order.(0) = 0] keeps every frame's first opcode
    at offset 0, the invariant {!Vm} starts frames on). Invalid orders
    are ignored defensively, never an error: layout is a hint. *)

val is_identity_order : int array -> bool
(** Whether [order] is [0; 1; ...; n-1] — i.e. source order, the layout
    every routine gets without a hint. Identity orders are normalized to
    "no layout" so structurally cached plans are shared. *)

(** {2 Structural-plan cache}

    Lowering is split into a {e structural} half (the full opcode array
    with empty instrumentation actions — pure in the routine body) and a
    {e specialization} step that rebuilds only the terminator opcodes to
    attach a run's instrumentation pre-actions. A cache memoizes
    structural plans across runs. An entry is reused only for the
    physically same routine value (IR values are never mutated in
    place) under the same block order and environment signature; the
    signature covers the routine name order and the array set, because
    Call opcodes embed callee plan indices and Load/Store opcodes embed
    backing-array refs, and a change to it flushes the cache. A
    structurally equal but physically new routine (e.g. re-parsed from
    text) is lowered again. A cache holds one program environment at a
    time, and its plans share backing arrays with the run using them,
    so a cache must not serve two runs at once. Mutable run state
    (array contents, edge counters, intern tables) is recreated or
    wiped per run, so cached runs are byte-identical to cold ones.

    Cache traffic is observable through the [session.lower.*] metrics:
    [hit], [miss] (one per structural lowering, cached or not),
    [specialize], and [env_flush]. *)

type cache

val create_cache : unit -> cache

val set_analysis : cache -> (Ppp_ir.Ir.routine -> Ppp_ir.Cfg_view.t * Ppp_cfg.Loop.t) -> unit
(** Provide the CFG view and loop nest for routines being lowered, so a
    session's memoized analyses are reused instead of recomputed on a
    structural miss. The callback must return artifacts for exactly the
    routine given. *)

val program :
  ?cache:cache ->
  config:Engine.config ->
  instr_tables:Instr_rt.state ->
  Ppp_ir.Ir.program ->
  program
(** Lower every routine, reusing structural plans from [cache] where
    they are valid (see above); without [cache] every routine is lowered
    cold. Raises {!Engine.Runtime_error} if
    [main] is unknown (matching the reference engine). *)

val tier_up : ?cache:cache -> program -> idx:int -> order:int array option -> gen:int -> unit
(** Mid-run tier-up of routine [idx]: retire its instrumented variant
    for optimized generation [gen]. With a genuine (valid,
    non-identity) [order], re-lowers the routine under that block order
    — against the program's live arrays, so it is safe mid-execution —
    and appends the result to the variant table (its terminators do
    edge work only if the run counts edges or traces paths); otherwise
    the plain variant already is the optimized body, unless it resolves
    (a sampled run's), in which case a source-order re-lowering that
    does not is appended instead. Only the plan's [cur] slot
    moves: frames in flight keep their entry-time variant until their
    next OSR point, and no other routine is touched. [cache] supplies
    memoized CFG/loop analyses, never code (the order is baked into
    opcodes, so tier-up lowerings are not cached). Counts one
    [session.lower.tier_up] per re-lowering. *)
