(* The pre-lowering pass: compile each routine into a contiguous opcode
   array the VM can dispatch on without touching the AST again.
   Lowering resolves everything resolvable ahead of time:

   - operand shapes become distinct opcodes (register indices and
     immediates inlined, no [Ir.operand] match at runtime);
   - array names become direct [int array] references;
   - per-instruction fuel/cost charges are batched: each straight-line
     run of pure instructions is prefixed by a single [Fuel] opcode
     carrying the run's instruction count and total cost (the parallel
     [costs] array keeps the per-op charges so fuel exhaustion can bill
     an exact remainder — see [Vm]);
   - terminators are fused with their edge bookkeeping: the edge id,
     whether it ends the current path, the specialized instrumentation
     actions and their precomputed total cost all sit in the opcode;
   - whether a terminator does edge work at all is decided here too:
     each comes in a plain form and a [_prof] form, and only the latter
     makes the VM call [traverse]. A terminator is [_prof] when the run
     counts edges or traces paths, or when one of its edges carries
     instrumentation actions, so uninstrumented routines, off-burst
     frames and tiered-up code pay nothing per edge;
   - so is where a frame may change streams: a path-ending [Jump] or
     [Branch_r] takes a resolving [_res] form (edge work, then the VM's
     sampling/tier re-decision) only in a variant whose stream can still
     change — an instrumented routine's [Instrumented] variant when the
     run samples or tiers, and its [Plain] twin when it samples. Every
     other terminator reads no sampling or tier state;
   - register indices are validated here, so the VM may use unchecked
     register accesses; an out-of-range index lowers to a [Trap] that
     faults only if executed, like the reference engine's lazy error.

   Calls and unknown names stay lazy: a [Call] charges for itself (it can
   push a frame, so it cannot sit inside a batched segment), and unknown
   arrays/routines lower to raising opcodes with the reference engine's
   exact messages.

   Lowering is split in two so its expensive half can be memoized across
   runs: the *structural* plan (everything above, with empty
   instrumentation actions) depends only on the routine body, its
   register file, and the program environment (routine order, arrays);
   *specialization* rebuilds just the terminator opcodes to attach the
   run's instrumentation pre-actions. A {!cache} keeps structural plans
   warm between runs of the same routine values; mutable run state
   (edge counters, path intern tables, array contents) is always fresh,
   so a cached run is byte-identical to a cold one. *)

module Graph = Ppp_cfg.Graph
module Loop = Ppp_cfg.Loop
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Obs = Ppp_obs.Metrics

let m_lower_hit = Obs.counter "session.lower.hit"
let m_lower_miss = Obs.counter "session.lower.miss"
let m_lower_specialize = Obs.counter "session.lower.specialize"
let m_lower_env_flush = Obs.counter "session.lower.env_flush"

type arr = { arr_name : string; data : int array }

(* [Instr_rt.action] with the table resolved: the VM's traverse loop
   matches on these without the per-action table-option match. *)
type pre_action =
  | Set_reg of int
  | Add_reg of int
  | Bump of Instr_rt.Table.t (* Count_r / Count_checked *)
  | Bump_plus of Instr_rt.Table.t * int (* Count_r_plus / Count_checked_plus *)
  | Bump_const of Instr_rt.Table.t * int (* Count_const *)
  | Bump_none (* counting action on an uninstrumented routine *)

type edge_ops = {
  edge : int;
  ends_path : bool;
  acts : pre_action array;
  acts_cost : int; (* total Cost.action of the list *)
  act_kinds : int array; (* Instr_rt.action_index per action, for metrics *)
}

type op =
  | Fuel of { count : int; cost : int }
      (* charge for the next [count] ops at once; total cost [cost] *)
  | Mov_i of { dst : int; imm : int }
  | Mov_r of { dst : int; src : int }
  | Bin_rr of { dst : int; op : Ir.binop; a : int; b : int }
  | Bin_ri of { dst : int; op : Ir.binop; a : int; imm : int }
  | Bin_ir of { dst : int; op : Ir.binop; imm : int; b : int }
  | Bin_ii of { dst : int; op : Ir.binop; ia : int; ib : int }
  | Load_r of { dst : int; data : int array; arr : arr; idx : int }
  | Load_i of { dst : int; data : int array; arr : arr; idx : int }
  | Store_rr of { data : int array; arr : arr; idx : int; src : int }
  | Store_ri of { data : int array; arr : arr; idx : int; imm : int }
  | Store_ir of { data : int array; arr : arr; iidx : int; src : int }
  | Store_ii of { data : int array; arr : arr; iidx : int; imm : int }
      (* data == arr.data, inlined so the hot path skips an indirection;
         arr is only touched on a bounds error *)
  | Out_r of { src : int }
  | Out_i of { imm : int }
  | Call of {
      dst : int;
      callee : int;
      arg_regs : int array;
      arg_vals : int array;
    }
      (* dst = -1 when the result is discarded; callee = plan index;
         arg i reads register arg_regs.(i) when >= 0, else the
         immediate arg_vals.(i) *)
  | Unknown_array of { name : string }
  | Unknown_routine of { name : string }
  | Trap of { msg : string }
      (* ill-formed instruction (register out of range); faults lazily *)
  | Jump of { target : int; edge : edge_ops }
      (* also a branch on an immediate condition: one arm, still
         branch-priced through the cost table *)
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
  (* The same terminators doing edge work: the VM runs [traverse] on the
     taken edge before transferring control. *)
  | Jump_prof of { target : int; edge : edge_ops }
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
  (* The resolving forms: edge work (a no-op when the edge has none),
     then the VM's re-decision on every taken edge that ends a path. *)
  | Jump_res of { target : int; edge : edge_ops }
  | Branch_r_res of {
      cond : int;
      then_ : int;
      then_edge : edge_ops;
      else_ : int;
      else_edge : edge_ops;
    }

(* A routine may carry several lowered bodies at once — the variant
   table. [Instrumented] and [Plain] are the specialize_code pair:
   identical length, offsets and costs (only terminators differ, in
   their actions and in whether they do edge work or resolve), so bursty
   sampling swaps a frame between them mid-run with every pc still
   valid. [Optimized] generations are full re-lowerings under a
   hot-path-first block order with instrumentation stripped: same block
   set, same per-block opcode runs (segments never span blocks), only
   placement differs, so a frame crosses onto one at any block boundary
   by mapping its target through the two offset tables. *)
type variant_kind = Instrumented | Plain | Optimized of int

type variant = {
  v_kind : variant_kind;
  v_code : op array;
  v_costs : int array;
      (* per-op charge, parallel to [v_code] (0 for Fuel); the exact
         remainder bill when fuel runs out mid-segment *)
  v_offsets : int array; (* block index -> offset of its first op *)
  v_resolves : bool;
      (* its stream can still change: frame entry trips and ticks, and
         its path-ending Jump/Branch_r take the [_res] forms *)
}

type plan = {
  routine : Ir.routine;
  view : Cfg_view.t;
  mutable variants : variant array;
      (* every lowered body of this routine; grown by [tier_up] *)
  v_instr : int;
      (* the variant new frames enter while collecting: the specialized
         [Instrumented] stream, or [v_plain] when uninstrumented *)
  v_plain : int; (* the uninstrumented stream *)
  mutable cur : int;
      (* the variant new frames resolve to once tiered: starts at
         [v_instr]; a tier-up swap retargets it at an [Optimized]
         generation (or [v_plain] when only stripping instrumentation).
         [cur <> v_instr] is the "this routine has tiered up" test both
         the frame-entry and back-edge OSR resolution points use. *)
  r_id : int; (* this routine's plan index in its program *)
  nregs : int;
  edge_counts : Edge_profile.t option;
  intern : Path_profile.Intern.table option;
}

type program = {
  plans : plan array;
  index : (string, int) Hashtbl.t; (* routine name -> plan index *)
  main : int;
  arrays : (string, arr) Hashtbl.t;
}

let compile_action table act =
  match (act, table) with
  | Instr_rt.Set_r v, _ -> Set_reg v
  | Instr_rt.Add_r v, _ -> Add_reg v
  | (Instr_rt.Count_r | Instr_rt.Count_checked), Some t -> Bump t
  | ( (Instr_rt.Count_r_plus v | Instr_rt.Count_checked_plus v),
      Some t ) ->
      Bump_plus (t, v)
  | Instr_rt.Count_const v, Some t -> Bump_const (t, v)
  | ( ( Instr_rt.Count_r | Instr_rt.Count_checked | Instr_rt.Count_r_plus _
      | Instr_rt.Count_checked_plus _ | Instr_rt.Count_const _ ),
      None ) ->
      Bump_none

(* A block emission order is usable only if it is a genuine permutation
   of the routine's blocks that keeps the entry block at opcode offset 0
   (both engines start every frame at pc 0). Anything else — stale
   table from an older program, wrong length, duplicate entries — is
   silently ignored rather than trusted: layout is an optimization hint,
   never a correctness input. *)
let valid_order ~nblocks order =
  Array.length order = nblocks
  && nblocks > 0
  && order.(0) = 0
  &&
  let seen = Array.make nblocks false in
  Array.for_all
    (fun b ->
      b >= 0 && b < nblocks
      &&
      if seen.(b) then false
      else begin
        seen.(b) <- true;
        true
      end)
    order

let is_identity_order order =
  let n = Array.length order in
  let rec go i = i >= n || (order.(i) = i && go (i + 1)) in
  go 0

(* Lower one routine structurally: full opcode array, costs and edge
   bookkeeping, but every edge's action list empty. Instrumentation is
   attached later by [specialize_plan], so this half is pure in the
   routine body and can be cached across runs.

   [order], when given, is the block emission order (a validated
   permutation with the entry first): the hot path's blocks land
   contiguously and cold blocks sink to the array tail. Only opcode
   *placement* changes — [block_offset] is recorded per block and the
   target-patching pass below resolves branch targets through it, so
   the executed instruction stream is identical for every order. *)
let lower_structural ?analysis ?order ~arrays ~routine_index (r : Ir.routine) =
  let view, loops =
    match analysis with
    | Some f -> f r
    | None ->
        let view = Cfg_view.of_routine r in
        let g = Cfg_view.graph view in
        (view, Loop.compute g ~root:(Cfg_view.entry view))
  in
  let g = Cfg_view.graph view in
  let nedges = Graph.num_edges g in
  let is_back = Array.make (max 1 nedges) false in
  List.iter (fun e -> is_back.(e) <- true) (Loop.breakable_edges loops);
  let edge_ops ~ends_path e =
    { edge = e; ends_path; acts = [||]; acts_cost = 0; act_kinds = [||] }
  in
  (* Emission: [pending] accumulates the current straight-line run of
     pure ops (with their individual charges); [flush] prefixes it with
     one Fuel op covering the run plus, optionally, the terminator. *)
  let ops_rev = ref [] in
  let costs_rev = ref [] in
  let n_ops = ref 0 in
  let emit op cost =
    ops_rev := op :: !ops_rev;
    costs_rev := cost :: !costs_rev;
    incr n_ops
  in
  let pending = ref [] in
  let pend op cost = pending := (op, cost) :: !pending in
  let flush ~term =
    let items = List.rev !pending in
    pending := [];
    let items = match term with None -> items | Some oc -> items @ [ oc ] in
    match items with
    | [] -> ()
    | _ ->
        let count = List.length items in
        let cost = List.fold_left (fun acc (_, c) -> acc + c) 0 items in
        emit (Fuel { count; cost }) 0;
        List.iter (fun (op, c) -> emit op c) items
  in
  let ok_reg x = x >= 0 && x < r.Ir.nregs in
  let ok_operand = function Ir.Reg x -> ok_reg x | Ir.Imm _ -> true in
  let ill_formed (ins : Ir.instr) =
    (* The checks mirror Ppp_ir.Check's register-range rules; anything
       that fails them may not be executed with unchecked accesses. *)
    match ins with
    | Ir.Mov (d, v) -> not (ok_reg d && ok_operand v)
    | Ir.Binop (d, _, a, b) -> not (ok_reg d && ok_operand a && ok_operand b)
    | Ir.Load (d, _, idx) -> not (ok_reg d && ok_operand idx)
    | Ir.Store (_, idx, v) -> not (ok_operand idx && ok_operand v)
    | Ir.Call (dst, _, args) ->
        not
          (Option.fold ~none:true ~some:ok_reg dst
          && List.for_all ok_operand args)
    | Ir.Out v -> not (ok_operand v)
  in
  let arr_of name = Hashtbl.find_opt arrays name in
  let lower_instr (ins : Ir.instr) =
    let c = Cost.instr ins in
    if ill_formed ins then
      pend
        (Trap
           {
             msg =
               Format.asprintf "routine %s: register out of range (nregs=%d)"
                 r.Ir.name r.Ir.nregs;
           })
        c
    else
      match ins with
      | Ir.Mov (d, Ir.Imm i) -> pend (Mov_i { dst = d; imm = i }) c
      | Ir.Mov (d, Ir.Reg s) -> pend (Mov_r { dst = d; src = s }) c
      | Ir.Binop (d, op, a, b) -> (
          match (a, b) with
          | Ir.Reg a, Ir.Reg b -> pend (Bin_rr { dst = d; op; a; b }) c
          | Ir.Reg a, Ir.Imm b -> pend (Bin_ri { dst = d; op; a; imm = b }) c
          | Ir.Imm a, Ir.Reg b -> pend (Bin_ir { dst = d; op; imm = a; b }) c
          | Ir.Imm a, Ir.Imm b -> pend (Bin_ii { dst = d; op; ia = a; ib = b }) c)
      | Ir.Load (d, name, idx) -> (
          match arr_of name with
          | None -> pend (Unknown_array { name }) c
          | Some arr -> (
              let data = arr.data in
              match idx with
              | Ir.Reg s -> pend (Load_r { dst = d; data; arr; idx = s }) c
              | Ir.Imm i -> pend (Load_i { dst = d; data; arr; idx = i }) c))
      | Ir.Store (name, idx, v) -> (
          match arr_of name with
          | None -> pend (Unknown_array { name }) c
          | Some arr -> (
              let data = arr.data in
              match (idx, v) with
              | Ir.Reg i, Ir.Reg s ->
                  pend (Store_rr { data; arr; idx = i; src = s }) c
              | Ir.Reg i, Ir.Imm m ->
                  pend (Store_ri { data; arr; idx = i; imm = m }) c
              | Ir.Imm i, Ir.Reg s ->
                  pend (Store_ir { data; arr; iidx = i; src = s }) c
              | Ir.Imm i, Ir.Imm m ->
                  pend (Store_ii { data; arr; iidx = i; imm = m }) c)
          )
      | Ir.Out (Ir.Reg s) -> pend (Out_r { src = s }) c
      | Ir.Out (Ir.Imm i) -> pend (Out_i { imm = i }) c
      | Ir.Call (dst, callee, args) -> (
          (* A call can push a frame, so it charges for itself: close the
             current segment first. *)
          flush ~term:None;
          match Hashtbl.find_opt routine_index callee with
          | None -> emit (Unknown_routine { name = callee }) c
          | Some idx ->
              emit
                (Call
                   {
                     dst = (match dst with Some d -> d | None -> -1);
                     callee = idx;
                     arg_regs =
                       Array.of_list
                         (List.map
                            (function Ir.Reg r -> r | Ir.Imm _ -> -1)
                            args);
                     arg_vals =
                       Array.of_list
                         (List.map
                            (function Ir.Reg _ -> 0 | Ir.Imm v -> v)
                            args);
                   })
                c)
  in
  let lower_term bi (b : Ir.block) =
    let c = Cost.terminator b.Ir.term in
    match b.Ir.term with
    | Ir.Jump l ->
        let e = Cfg_view.jump_edge view bi in
        flush
          ~term:(Some (Jump { target = l; edge = edge_ops ~ends_path:is_back.(e) e }, c))
    | Ir.Branch (cond, l1, l2) -> (
        let e1 = Cfg_view.branch_edge view bi ~taken:true in
        let e2 = Cfg_view.branch_edge view bi ~taken:false in
        let then_edge = edge_ops ~ends_path:is_back.(e1) e1 in
        let else_edge = edge_ops ~ends_path:is_back.(e2) e2 in
        match cond with
        | Ir.Reg cr when ok_reg cr ->
            flush
              ~term:
                (Some
                   ( Branch_r
                       { cond = cr; then_ = l1; then_edge; else_ = l2; else_edge },
                     c ))
        | Ir.Reg _ ->
            flush
              ~term:
                (Some
                   ( Trap
                       {
                         msg =
                           Format.asprintf
                             "routine %s: register out of range (nregs=%d)"
                             r.Ir.name r.Ir.nregs;
                       },
                     c ))
        | Ir.Imm v ->
            let target, edge =
              if v <> 0 then (l1, then_edge) else (l2, else_edge)
            in
            flush ~term:(Some (Jump { target; edge }, c)))
    | Ir.Return v -> (
        let e = Cfg_view.return_edge view bi in
        let edge = edge_ops ~ends_path:true e in
        match v with
        | Some (Ir.Reg s) when ok_reg s ->
            flush ~term:(Some (Return_r { src = s; edge }, c))
        | Some (Ir.Reg _) ->
            flush
              ~term:
                (Some
                   ( Trap
                       {
                         msg =
                           Format.asprintf
                             "routine %s: register out of range (nregs=%d)"
                             r.Ir.name r.Ir.nregs;
                       },
                     c ))
        | Some (Ir.Imm i) -> flush ~term:(Some (Return_i { imm = i; edge }, c))
        | None -> flush ~term:(Some (Return_none { edge }, c)))
  in
  let nblocks = Array.length r.Ir.blocks in
  let block_offset = Array.make nblocks 0 in
  let emission =
    match order with
    | Some o when valid_order ~nblocks o -> o
    | _ -> Array.init nblocks (fun i -> i)
  in
  Array.iter
    (fun bi ->
      let b = r.Ir.blocks.(bi) in
      block_offset.(bi) <- !n_ops;
      Array.iter lower_instr b.Ir.instrs;
      lower_term bi b)
    emission;
  let code = Array.of_list (List.rev !ops_rev) in
  let costs = Array.of_list (List.rev !costs_rev) in
  (* Second pass: patch block-index targets to opcode offsets. *)
  let code =
    Array.map
      (function
        | Jump { target; edge } -> Jump { target = block_offset.(target); edge }
        | Branch_r { cond; then_; then_edge; else_; else_edge } ->
            Branch_r
              {
                cond;
                then_ = block_offset.(then_);
                then_edge;
                else_ = block_offset.(else_);
                else_edge;
              }
        | op -> op)
      code
  in
  {
    routine = r;
    view;
    variants =
      [| { v_kind = Plain; v_code = code; v_costs = costs;
           v_offsets = block_offset; v_resolves = false } |];
    v_instr = 0;
    v_plain = 0;
    cur = 0;
    r_id =
      (match Hashtbl.find_opt routine_index r.Ir.name with
      | Some i -> i
      | None -> 0);
    nregs = r.Ir.nregs;
    edge_counts = None;
    intern = None;
  }

let structural_variant (p : plan) = p.variants.(p.v_plain)

(* Rebuild only the terminator opcodes of a structural stream: [spec]
   attaches each edge's instrumentation actions, and a terminator takes
   its [_prof] form when any of its edges does work — every edge when
   the run counts edges or traces paths ([counting]), otherwise the
   edges with actions. With [resolving], a Jump or Branch_r with a
   path-ending edge takes its [_res] form instead. Everything else —
   including the Fuel segmentation and the per-op cost table — is
   instrumentation-independent (action costs are charged by
   [Vm.traverse] from [acts_cost]), so the arrays are shared. *)
let specialize_code ~counting ~resolving ~spec code =
  let work (eo : edge_ops) = counting || Array.length eo.acts > 0 in
  let res (eo : edge_ops) = resolving && eo.ends_path in
  Array.map
    (function
      | Jump { target; edge } ->
          let edge = spec edge in
          if res edge then Jump_res { target; edge }
          else if work edge then Jump_prof { target; edge }
          else Jump { target; edge }
      | Branch_r { cond; then_; then_edge; else_; else_edge } ->
          let then_edge = spec then_edge and else_edge = spec else_edge in
          if res then_edge || res else_edge then
            Branch_r_res { cond; then_; then_edge; else_; else_edge }
          else if work then_edge || work else_edge then
            Branch_r_prof { cond; then_; then_edge; else_; else_edge }
          else Branch_r { cond; then_; then_edge; else_; else_edge }
      | Return_r { src; edge } ->
          let edge = spec edge in
          if work edge then Return_r_prof { src; edge } else Return_r { src; edge }
      | Return_i { imm; edge } ->
          let edge = spec edge in
          if work edge then Return_i_prof { imm; edge } else Return_i { imm; edge }
      | Return_none { edge } ->
          let edge = spec edge in
          if work edge then Return_none_prof { edge } else Return_none { edge }
      | op -> op)
    code

(* [ri]'s actions for one edge, with the frequency table resolved. *)
let attach_actions ~ri ~table (eo : edge_ops) =
  match ri.Instr_rt.edge_actions.(eo.edge) with
  | [] -> eo
  | src_acts ->
      {
        eo with
        acts = Array.of_list (List.map (compile_action table) src_acts);
        acts_cost = Cost.actions ~table:ri.Instr_rt.table src_acts;
        act_kinds = Array.of_list (List.map Instr_rt.action_index src_acts);
      }

(* Edge counting and path tracing are run-wide: a plan whose run does
   either has every variant's terminators do edge work; otherwise only
   an [Instrumented] stream's do. *)
let counts (plan : plan) = plan.edge_counts <> None || plan.intern <> None

(* [plan]'s uninstrumented stream built from structural variant [v],
   resolving when it is a sampled routine's off-burst twin. *)
let plain_variant ?(resolving = false) plan v =
  if counts plan || resolving then
    {
      v with
      v_code =
        specialize_code ~counting:(counts plan) ~resolving ~spec:Fun.id v.v_code;
      v_resolves = resolving;
    }
  else v

(* ------------------------------------------------------------------ *)
(* Structural-plan cache.

   A cached plan is valid for the physically same routine value under
   the same environment signature and block order: IR values are never
   mutated in place, and Call opcodes embed callee *plan indices* and
   Load/Store opcodes embed backing-array refs, so any change to the
   routine name order or the array set flushes the whole cache. *)

type centry = {
  c_routine : Ir.routine;
  c_order : int array option;
      (* block emission order the plan was lowered under; [None] for the
         source order. Offsets are baked into the opcodes, so a plan is
         only reusable under the exact same order. *)
  splan : plan;
}

type cache = {
  structs : (string, centry) Hashtbl.t;
  cached_arrays : (string, arr) Hashtbl.t;
  mutable env_sig : int;
  mutable analysis : (Ir.routine -> Ppp_ir.Cfg_view.t * Loop.t) option;
}

let create_cache () =
  {
    structs = Hashtbl.create 17;
    cached_arrays = Hashtbl.create 7;
    env_sig = min_int;
    analysis = None;
  }

let set_analysis c f = c.analysis <- Some f

let env_signature (p : Ir.program) =
  let h = ref 17 in
  let mix x = h := (!h * 1000003) lxor Hashtbl.hash x in
  mix p.Ir.main;
  List.iter (fun (r : Ir.routine) -> mix r.Ir.name) p.Ir.routines;
  List.iter
    (fun (name, size) ->
      mix name;
      mix size)
    p.Ir.arrays;
  !h

let program ?cache ~(config : Engine.config) ~instr_tables (p : Ir.program) =
  let analysis, arrays, structs =
    match cache with
    | None -> (None, Hashtbl.create 7, None)
    | Some c ->
        let s = env_signature p in
        if c.env_sig <> s then begin
          if Hashtbl.length c.structs > 0 then Obs.incr m_lower_env_flush;
          Hashtbl.reset c.structs;
          Hashtbl.reset c.cached_arrays;
          c.env_sig <- s
        end;
        (c.analysis, c.cached_arrays, Some c.structs)
  in
  (* Cached structural plans embed these exact array refs, so the slots
     are kept and their contents wiped at the start of every run. *)
  List.iter
    (fun (name, size) ->
      match Hashtbl.find_opt arrays name with
      | Some a when Array.length a.data = size -> Array.fill a.data 0 size 0
      | _ ->
          Hashtbl.replace arrays name
            { arr_name = name; data = Array.make size 0 })
    p.Ir.arrays;
  let index = Hashtbl.create 17 in
  List.iteri (fun i (r : Ir.routine) -> Hashtbl.replace index r.Ir.name i) p.Ir.routines;
  (* The requested emission order, validated and with the identity
     normalized away: a layout that changes nothing shares the plain
     plan (and its cache entry) instead of forking it. *)
  let order_of (r : Ir.routine) =
    match config.Engine.layout with
    | None -> None
    | Some tbl -> (
        match Hashtbl.find_opt tbl r.Ir.name with
        | Some o
          when valid_order ~nblocks:(Array.length r.Ir.blocks) o
               && not (is_identity_order o) ->
            Some o
        | _ -> None)
  in
  (* Only an instrumented routine's stream can change mid-run, and only
     when the run samples (instrumented <-> plain at every burst
     boundary) or tiers (instrumented -> optimized, once). *)
  let sampled = config.Engine.sampling <> None in
  let tiered = config.Engine.tier <> None in
  let lower ?order r =
    Obs.incr m_lower_miss;
    lower_structural ?analysis ?order ~arrays ~routine_index:index r
  in
  let structural (r : Ir.routine) =
    let order = order_of r in
    match structs with
    | None -> lower ?order r
    | Some tbl -> (
        match Hashtbl.find_opt tbl r.Ir.name with
        | Some e when e.c_routine == r && e.c_order = order ->
            Obs.incr m_lower_hit;
            e.splan
        | _ ->
            let splan = lower ?order r in
            Hashtbl.replace tbl r.Ir.name { c_routine = r; c_order = order; splan };
            splan)
  in
  let plans =
    Array.of_list
      (List.map
         (fun (r : Ir.routine) ->
           let splan = structural r in
           let nedges = Graph.num_edges (Cfg_view.graph splan.view) in
           let plan =
             {
               splan with
               edge_counts =
                 (if config.Engine.collect_edges then
                    Some (Edge_profile.create ~nedges)
                  else None);
               intern =
                 (if config.Engine.trace_paths then
                    Some (Path_profile.Intern.create ())
                  else None);
             }
           in
           let sv = structural_variant splan in
           (* The run's variant table is always a fresh array (and the
              plan a fresh record): [tier_up] swaps [cur] and appends
              variants mid-run, and neither may leak into the cached
              structural plan shared with the next run. *)
           let variants, v_instr, v_plain =
             match config.Engine.instrumentation with
             | None -> ([| plain_variant plan sv |], 0, 0)
             | Some instr -> (
                 match Hashtbl.find_opt instr r.Ir.name with
                 | None -> ([| plain_variant plan sv |], 0, 0)
                 | Some ri ->
                     let table = Hashtbl.find_opt instr_tables r.Ir.name in
                     Obs.incr m_lower_specialize;
                     let resolving = sampled || tiered in
                     let icode =
                       specialize_code ~counting:(counts plan) ~resolving
                         ~spec:(attach_actions ~ri ~table)
                         sv.v_code
                     in
                     ( [|
                         { sv with v_kind = Instrumented; v_code = icode;
                           v_resolves = resolving };
                         plain_variant ~resolving:sampled plan sv;
                       |],
                       0,
                       1 ))
           in
           { plan with variants; v_instr; v_plain; cur = v_instr })
         p.Ir.routines)
  in
  let main =
    match Hashtbl.find_opt index p.Ir.main with
    | Some i -> i
    | None -> Engine.error "unknown routine %s" p.Ir.main
  in
  { plans; index; main; arrays }

(* ------------------------------------------------------------------ *)
(* Mid-run tier-up: retire routine [idx]'s instrumented variant for an
   optimized generation. With a genuine block order this re-lowers the
   routine structurally (against the program's live array refs — only
   opcode placement changes, never contents) and appends the result to
   the variant table. With no order the plain variant already is the
   optimized body (instrumentation stripped, current placement kept),
   unless it resolves (a sampled run's off-burst twin): a tiered routine
   never changes stream again, so it then gets a source-order
   re-lowering that does not. Either way only [cur] moves: frames in
   flight keep their entry-time variant until their next back-edge OSR
   point, and the swap never touches any other routine's plan. *)

let m_lower_tier = Obs.counter "session.lower.tier_up"

let tier_up ?cache (prog : program) ~idx ~order ~gen =
  let plan = prog.plans.(idx) in
  let r = plan.routine in
  let order =
    match order with
    | Some o
      when valid_order ~nblocks:(Array.length r.Ir.blocks) o
           && not (is_identity_order o) ->
        Some o
    | _ -> None
  in
  if order = None && not plan.variants.(plan.v_plain).v_resolves then
    plan.cur <- plan.v_plain
  else begin
    Obs.incr m_lower_tier;
    let analysis = Option.bind cache (fun c -> c.analysis) in
    let splan =
      lower_structural ?analysis ?order ~arrays:prog.arrays
        ~routine_index:prog.index r
    in
    let v = plain_variant plan (structural_variant splan) in
    plan.variants <-
      Array.append plan.variants [| { v with v_kind = Optimized gen } |];
    plan.cur <- Array.length plan.variants - 1
  end
