module Graph = Ppp_cfg.Graph
module Loop = Ppp_cfg.Loop
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile

exception Runtime_error = Engine.Runtime_error

let error = Engine.error

type config = Engine.config = {
  fuel : int;
  collect_edges : bool;
  trace_paths : bool;
  instrumentation : Instr_rt.t option;
  overflow_policy : Instr_rt.Table.overflow_policy;
  telemetry : Telemetry.t option;
  layout : (string, int array) Hashtbl.t option;
  sampling : Sampling.spec option;
  tier : Tier.spec option;
}

let default_config = Engine.default_config

type termination = Engine.termination =
  | Finished
  | Out_of_fuel of { stack_depth : int }

type outcome = Engine.outcome = {
  return_value : int option;
  output : int list;
  base_cost : int;
  instr_cost : int;
  dyn_instrs : int;
  dyn_paths : int;
  termination : termination;
  edge_profile : Edge_profile.program option;
  path_profile : Path_profile.program option;
  instr_state : Instr_rt.state option;
  tier_decisions : Tier.decision list;
}

let overhead = Engine.overhead
let exec_binop = Engine.exec_binop

(* ------------------------------------------------------------------ *)
(* The reference engine: a direct tree-walk over the IR. It is the
   executable specification the flat VM is differentially tested
   against, so it stays deliberately simple — one charge per
   instruction, a frame list, a path-edge list per frame. *)

(* Per-routine execution plan, precomputed once per run. *)
type plan = {
  routine : Ir.routine;
  view : Cfg_view.t;
  p_index : int; (* position in the program's routine list — the same
                    index the VM's plan array (and the tier controller)
                    uses for this routine *)
  p_resolving : bool; (* the routine is instrumented and the run samples
                         or tiers: its stream can change until it tiers
                         up (the VM's [v_resolves] on its instrumented
                         variant) *)
  is_back : bool array; (* edge -> ends the current path *)
  edge_counts : Edge_profile.t option;
  trace : Path_profile.t option;
  actions : Instr_rt.action array array; (* edge -> actions ([||] = none) *)
  action_costs : int array array; (* parallel to [actions] *)
  table : Instr_rt.Table.t option;
}

(* The stream a frame executes, mirroring the VM's [f_var]: the
   instrumented variant (on-burst, actions live), its plain twin
   (off-burst), or the routine's post-swap stream (entered after the
   swap, or crossed onto it at a back-edge OSR point). *)
type stream = On | Off | Tiered

type frame = {
  plan : plan;
  regs : int array;
  mutable block : int;
  mutable ip : int;
  mutable stream : stream;
  mutable path_reg : int;
  mutable path_rev : int list;
  ret_to : Ir.reg option; (* caller register receiving our return value *)
}

type state = {
  plans : (string, plan) Hashtbl.t;
  arrays : (string, int array) Hashtbl.t;
  mutable stack : frame list;
  mutable fuel : int;
  mutable base_cost : int;
  mutable instr_cost : int;
  mutable dyn_instrs : int;
  mutable dyn_paths : int;
  mutable out_rev : int list;
  trace_on : bool;
  obs_on : bool; (* metrics flag, latched at run start *)
  sampler : Sampling.t option; (* bursty collection sampling, None = off *)
  tier : Tier.t option; (* tier controller, mirrored 1:1 with the VM *)
  mutable obs_calls : int;
  obs_actions : int array; (* executions per Instr_rt.action kind *)
}

let make_plan (config : config) instr_tables ~index (r : Ir.routine) =
  let view = Cfg_view.of_routine r in
  let g = Cfg_view.graph view in
  let nedges = Graph.num_edges g in
  let loops = Loop.compute g ~root:(Cfg_view.entry view) in
  let is_back = Array.make (max 1 nedges) false in
  List.iter (fun e -> is_back.(e) <- true) (Loop.breakable_edges loops);
  let edge_counts =
    if config.collect_edges then Some (Edge_profile.create ~nedges) else None
  in
  let trace = if config.trace_paths then Some (Path_profile.create ()) else None in
  let actions, action_costs, table =
    match config.instrumentation with
    | None -> (Array.make (max 1 nedges) [||], Array.make (max 1 nedges) [||], None)
    | Some instr -> (
        match Hashtbl.find_opt instr r.name with
        | None ->
            (Array.make (max 1 nedges) [||], Array.make (max 1 nedges) [||], None)
        | Some ri ->
            let acts = Array.map Array.of_list ri.Instr_rt.edge_actions in
            let costs =
              Array.map
                (Array.map (Cost.action ~table:ri.Instr_rt.table))
                acts
            in
            let tbl =
              match Hashtbl.find_opt instr_tables r.name with
              | Some t -> Some t
              | None -> None
            in
            (acts, costs, tbl))
  in
  let p_resolving =
    (config.sampling <> None || config.tier <> None)
    &&
    match config.instrumentation with
    | None -> false
    | Some instr -> Hashtbl.mem instr r.name
  in
  {
    routine = r;
    view;
    p_index = index;
    p_resolving;
    is_back;
    edge_counts;
    trace;
    actions;
    action_costs;
    table;
  }

let eval regs = function Ir.Reg r -> regs.(r) | Ir.Imm i -> i

(* Traverse a CFG edge: bookkeeping for edge profiles, ground-truth path
   tracing, and instrumentation. [ends_path] is true for back edges and
   return edges. *)
let traverse st frame e ~ends_path =
  let plan = frame.plan in
  (match plan.edge_counts with Some c -> Edge_profile.incr c e | None -> ());
  if st.trace_on then begin
    frame.path_rev <- e :: frame.path_rev;
    if ends_path then begin
      (match plan.trace with
      | Some t -> Path_profile.record t (List.rev frame.path_rev)
      | None -> ());
      st.dyn_paths <- st.dyn_paths + 1;
      frame.path_rev <- []
    end
  end;
  (* Off-burst, the frame behaves as if uninstrumented: no actions, no
     instr cost. Mirrors the VM executing the plain opcode stream, whose
     edge_ops carry empty action lists. *)
  let acts = if frame.stream = On then plan.actions.(e) else [||] in
  if Array.length acts > 0 then begin
    let costs = plan.action_costs.(e) in
    for i = 0 to Array.length acts - 1 do
      st.instr_cost <- st.instr_cost + costs.(i);
      if st.obs_on then begin
        let k = Instr_rt.action_index acts.(i) in
        st.obs_actions.(k) <- st.obs_actions.(k) + 1
      end;
      match acts.(i) with
      | Instr_rt.Set_r v -> frame.path_reg <- v
      | Instr_rt.Add_r v -> frame.path_reg <- frame.path_reg + v
      | Instr_rt.Count_r -> (
          match plan.table with
          | Some t -> Instr_rt.Table.bump t frame.path_reg
          | None -> ())
      | Instr_rt.Count_r_plus v | Instr_rt.Count_checked_plus v -> (
          match plan.table with
          | Some t -> Instr_rt.Table.bump t (frame.path_reg + v)
          | None -> ())
      | Instr_rt.Count_const v -> (
          match plan.table with
          | Some t -> Instr_rt.Table.bump t v
          | None -> ())
      | Instr_rt.Count_checked -> (
          match plan.table with
          | Some t -> Instr_rt.Table.bump t frame.path_reg
          | None -> ())
    done
  end

let run_reference ~(config : config) (p : Ir.program) =
  Engine.validate_call_arities p;
  let instr_tables =
    match config.instrumentation with
    | Some instr -> Instr_rt.init_state ~policy:config.overflow_policy instr
    | None -> Hashtbl.create 1
  in
  let plans = Hashtbl.create 17 in
  List.iteri
    (fun i r ->
      Hashtbl.replace plans r.Ir.name (make_plan config instr_tables ~index:i r))
    p.routines;
  let arrays = Hashtbl.create 7 in
  List.iter (fun (name, size) -> Hashtbl.replace arrays name (Array.make size 0)) p.arrays;
  (* Same normalization as the VM: sampling only gates instrumentation
     actions, so it is inert without instrumentation. *)
  let sampler =
    match (config.sampling, config.instrumentation) with
    | Some spec, Some _ -> Some (Sampling.start spec)
    | _ -> None
  in
  (* Same normalization again for tiering (see [Vm.run]). *)
  let nroutines = List.length p.routines in
  let tier =
    match (config.tier, config.instrumentation) with
    | Some spec, Some _ -> Some (Tier.start spec ~nroutines)
    | _ -> None
  in
  let st =
    {
      plans;
      arrays;
      stack = [];
      fuel = config.fuel;
      base_cost = 0;
      instr_cost = 0;
      dyn_instrs = 0;
      dyn_paths = 0;
      out_rev = [];
      trace_on = config.trace_paths;
      obs_on = Engine.Obs.enabled ();
      sampler;
      tier;
      obs_calls = 0;
      obs_actions = Array.make Instr_rt.num_action_kinds 0;
    }
  in
  let tiered (plan : plan) =
    match st.tier with Some tc -> Tier.is_tiered tc plan.p_index | None -> false
  in
  (* The mirror of [Vm.step], for a resolving routine that has not tiered
     up: the trip — on a fire, the controller decides from the routine's
     live path counters, as in [Vm.tier_fire]; only resolving routines
     trip and their tier-up always changes the executing stream (the
     VM's [cur <> v_instr]), so [tiered] is the whole mirror of the
     swap — then the tick, whether or not the trip fired. *)
  let step (plan : plan) =
    (match st.tier with
    | Some tc when Tier.trip tc plan.p_index ->
        let counters =
          match plan.table with
          | None -> []
          | Some t ->
              let acc = ref [] in
              Instr_rt.Table.iter_nonzero t (fun k c -> acc := (k, c) :: !acc);
              List.rev !acc
        in
        ignore
          (Tier.fire tc ~idx:plan.p_index ~name:plan.routine.Ir.name ~counters)
    | _ -> ());
    match st.sampler with None -> true | Some s -> Sampling.tick s
  in
  let new_frame name ret_to =
    let plan =
      match Hashtbl.find_opt st.plans name with
      | Some pl -> pl
      | None -> error "unknown routine %s" name
    in
    (* The frame-entry variant-resolution point, in the VM's canonical
       order: (1) [step], only while the routine's stream can still
       change; (2) the resolution — a tiered routine's frames run its
       post-swap stream with instrumentation off, otherwise the burst
       decision picks between the instrumented and plain streams. *)
    let on = if plan.p_resolving && not (tiered plan) then step plan else true in
    let swapped = tiered plan in
    (match st.tier with
    | Some tc -> if swapped then Tier.note_entry_swap tc
    | None -> ());
    {
      plan;
      regs = Array.make plan.routine.Ir.nregs 0;
      block = 0;
      ip = 0;
      stream = (if swapped then Tiered else if on then On else Off);
      path_reg = 0;
      path_rev = [];
      ret_to;
    }
  in
  (* The back-edge variant-resolution point, mirroring [Vm.redecide]
     move for move. The caller reaches it only where the VM executes a
     resolving terminator: a path-ending back edge of a resolving
     routine, in a frame not yet on the post-swap stream. [step] first
     while the routine has not tiered up, then the resolution. A swap
     wins over the burst decision: the first back edge a pre-swap frame
     takes after its routine tiers up crosses it onto the post-swap
     stream (OSR) and turns instrumentation off for good. The traversed
     edge's old path is already recorded, so the new mode applies from
     the path beginning at the loop header. On a sampling off->on swap,
     re-arm the path register with the initialization suffix (the
     actions after the last counting one) of the instrumented edge — the
     count itself belongs to the off-burst stretch and is not
     recorded. *)
  let redecide frame e =
    let plan = frame.plan in
    let on = if tiered plan then true else step plan in
    if tiered plan then begin
      (match st.tier with Some tc -> Tier.note_osr_swap tc | None -> ());
      frame.stream <- Tiered
    end
    else if on <> (frame.stream = On) then
      if not on then frame.stream <- Off
      else begin
        frame.stream <- On;
        let acts = plan.actions.(e) in
        let n = Array.length acts in
        let rec after_last_count i acc =
          if i >= n then acc
          else
            match acts.(i) with
            | Instr_rt.Set_r _ | Instr_rt.Add_r _ ->
                after_last_count (i + 1) acc
            | _ -> after_last_count (i + 1) (i + 1)
        in
        let i0 = after_last_count 0 0 in
        frame.path_reg <- 0;
        for i = i0 to n - 1 do
          match acts.(i) with
          | Instr_rt.Set_r v -> frame.path_reg <- v
          | Instr_rt.Add_r v -> frame.path_reg <- frame.path_reg + v
          | _ -> ()
        done
      end
  in
  (* Whether taking edge [e] passes the resolution point: the VM's [_res]
     terminators sit on the path-ending edges of resolving variants. *)
  let resolves frame e =
    frame.plan.is_back.(e) && frame.plan.p_resolving && frame.stream <> Tiered
  in
  let return_value = ref None in
  let main_frame = new_frame p.main None in
  st.stack <- [ main_frame ];
  let charge c =
    st.base_cost <- st.base_cost + c;
    st.dyn_instrs <- st.dyn_instrs + 1;
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise Engine.Exhausted
  in
  let array_ref name idx =
    let arr =
      match Hashtbl.find_opt st.arrays name with
      | Some a -> a
      | None -> error "unknown array %s" name
    in
    if idx < 0 || idx >= Array.length arr then
      error "array %s index %d out of bounds (size %d)" name idx (Array.length arr);
    arr
  in
  let exec_frame frame =
    let blocks = frame.plan.routine.Ir.blocks in
    let block = blocks.(frame.block) in
    if frame.ip < Array.length block.Ir.instrs then begin
      let ins = block.Ir.instrs.(frame.ip) in
      frame.ip <- frame.ip + 1;
      charge (Cost.instr ins);
      match ins with
      | Ir.Mov (d, v) -> frame.regs.(d) <- eval frame.regs v
      | Ir.Binop (d, op, a, b) ->
          frame.regs.(d) <- exec_binop op (eval frame.regs a) (eval frame.regs b)
      | Ir.Load (d, arr, idx) ->
          let i = eval frame.regs idx in
          frame.regs.(d) <- (array_ref arr i).(i)
      | Ir.Store (arr, idx, v) ->
          let i = eval frame.regs idx in
          (array_ref arr i).(i) <- eval frame.regs v
      | Ir.Out v -> st.out_rev <- eval frame.regs v :: st.out_rev
      | Ir.Call (dst, callee, args) ->
          st.base_cost <- st.base_cost + Cost.call_overhead;
          if st.obs_on then st.obs_calls <- st.obs_calls + 1;
          let callee_frame = new_frame callee dst in
          List.iteri (fun i a -> callee_frame.regs.(i) <- eval frame.regs a) args;
          st.stack <- callee_frame :: st.stack
    end
    else begin
      charge (Cost.terminator block.Ir.term);
      let view = frame.plan.view in
      match block.Ir.term with
      | Ir.Jump l ->
          let e = Cfg_view.jump_edge view frame.block in
          traverse st frame e ~ends_path:frame.plan.is_back.(e);
          if resolves frame e then redecide frame e;
          frame.block <- l;
          frame.ip <- 0
      | Ir.Branch (c, l1, l2) ->
          let taken = eval frame.regs c <> 0 in
          let e = Cfg_view.branch_edge view frame.block ~taken in
          traverse st frame e ~ends_path:frame.plan.is_back.(e);
          if resolves frame e then redecide frame e;
          frame.block <- (if taken then l1 else l2);
          frame.ip <- 0
      | Ir.Return v ->
          let e = Cfg_view.return_edge view frame.block in
          traverse st frame e ~ends_path:true;
          let value = Option.map (eval frame.regs) v in
          st.stack <- List.tl st.stack;
          (match st.stack with
          | caller :: _ -> (
              match (frame.ret_to, value) with
              | Some d, Some x -> caller.regs.(d) <- x
              | Some d, None -> caller.regs.(d) <- 0
              | None, _ -> ())
          | [] -> return_value := value)
    end
  in
  let termination =
    (* Fuel exhaustion is an expected production condition, not a fault:
       stop where we are and report everything collected so far. *)
    try
      while st.stack <> [] do
        exec_frame (List.hd st.stack)
      done;
      Finished
    with Engine.Exhausted -> Out_of_fuel { stack_depth = List.length st.stack }
  in
  let edge_profile =
    if config.collect_edges then begin
      let prog = Edge_profile.create_program p in
      Hashtbl.iter
        (fun name plan ->
          match plan.edge_counts with
          | Some c ->
              Graph.iter_edges (Cfg_view.graph plan.view) (fun e ->
                  Edge_profile.add (Edge_profile.routine prog name) e
                    (Edge_profile.freq c e))
          | None -> ())
        st.plans;
      Some prog
    end
    else None
  in
  let path_profile =
    if config.trace_paths then begin
      let prog = Path_profile.create_program p in
      Hashtbl.iter
        (fun name plan ->
          match plan.trace with
          | Some t ->
              let dst = Path_profile.routine prog name in
              Path_profile.iter t (fun path n -> Path_profile.add dst path n)
          | None -> ())
        st.plans;
      Some prog
    end
    else None
  in
  if st.obs_on then begin
    Engine.flush_metrics ~fuel:config.fuel ~termination ~fuel_left:st.fuel
      ~base_cost:st.base_cost ~instr_cost:st.instr_cost
      ~dyn_instrs:st.dyn_instrs ~dyn_paths:st.dyn_paths ~calls:st.obs_calls
      ~actions:st.obs_actions;
    (match st.sampler with
    | Some s ->
        Instr_rt.flush_sample_metrics ~on_ticks:(Sampling.on_ticks s)
          ~off_ticks:(Sampling.off_ticks s) ~bursts:(Sampling.bursts s)
    | None -> ());
    match st.tier with Some tc -> Tier.flush_metrics tc | None -> ()
  end;
  {
    return_value = !return_value;
    output = List.rev st.out_rev;
    base_cost = st.base_cost;
    instr_cost = st.instr_cost;
    dyn_instrs = st.dyn_instrs;
    dyn_paths = st.dyn_paths;
    termination;
    edge_profile;
    path_profile;
    instr_state = (if Option.is_some config.instrumentation then Some instr_tables else None);
    tier_decisions =
      (match st.tier with Some tc -> Tier.decisions tc | None -> []);
  }

(* ------------------------------------------------------------------ *)

type engine = Vm | Reference

let run ?(config = default_config) ?(engine = Vm) ?cache (p : Ir.program) =
  match engine with
  | Vm -> Vm.run ?cache ~config p
  | Reference -> run_reference ~config p
