(* Path-guided block layout for the pre-lowered VM, and the i-cache /
   taken-branch proxy that measures what it buys.

   The layout side is BOLT's placement recipe scaled to this IR: per
   routine, pick the hottest recorded path, emit its blocks back to back
   (so the hot trace executes fall-through), then the remaining blocks
   by decreasing heat, with never-executed blocks exiled to the array
   tail. The order is a pure emission hint for [Lower] — branch targets
   are patched through [block_offset], so VM outcomes are byte-identical
   under any layout (the differential suite asserts exactly that).

   The proxy side replaces wall-clock i-cache measurement, which this
   interpreter cannot do honestly: walk a lowered routine's code array
   and charge every intra-routine control transfer with its edge
   frequency, splitting the mass into *taken* transfers (target is not
   the next opcode) and *local* ones (displacement within
   [Cost.locality_window]). Lower taken mass and higher local mass is
   what hot-path fall-through buys on a real front end. *)

module Graph = Ppp_cfg.Graph
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile

type t = (string, int array) Hashtbl.t

let sat_add a b = if a > max_int - b then max_int else a + b

(* The blocks a path visits, in trace order: the sources of its edges
   plus the destination of the last edge (the block the path ends in,
   which fall-through placement wants adjacent too). Nodes are mapped
   through [block_of_node], which drops the virtual exit. Edge ids that
   do not exist in this view — a stale or hand-built path — are cut off
   at the first offender; layout degrades, it never faults. *)
let trace_blocks view path =
  let g = Cfg_view.graph view in
  let nedges = Graph.num_edges g in
  let block n acc =
    match Cfg_view.block_of_node view n with Some b -> b :: acc | None -> acc
  in
  let rec go acc = function
    | [] -> List.rev acc
    | e :: rest when e >= 0 && e < nedges ->
        let acc = block (Graph.src g e) acc in
        if rest = [] then List.rev (block (Graph.dst g e) acc) else go acc rest
    | _ :: _ -> List.rev acc
  in
  go [] path

(* The emission order of one routine given its recorded paths
   [(path, weight)]: entry, then the hottest path's trace, then the rest
   by heat. Returns [None] when the order would be the identity (or the
   routine is trivial), so callers can skip storing no-op layouts. *)
let order_for ~view paths =
  let r = Cfg_view.routine view in
  let nblocks = Array.length r.Ir.blocks in
  if nblocks <= 1 || paths = [] then None
  else begin
    let heat = Array.make nblocks 0 in
    List.iter
      (fun (p, w) ->
        List.iter
          (fun b -> if b >= 0 && b < nblocks then heat.(b) <- sat_add heat.(b) w)
          (trace_blocks view p))
      paths;
    (* Hottest path, with a total tie-break (weight desc, then the edge
       list itself) so the order never depends on input arrangement. *)
    let best =
      List.fold_left
        (fun acc (p, w) ->
          match acc with
          | None -> Some (p, w)
          | Some (bp, bw) ->
              if w > bw || (w = bw && compare p bp < 0) then Some (p, w)
              else acc)
        None paths
    in
    let order = Array.make nblocks (-1) in
    let placed = Array.make nblocks false in
    let n = ref 0 in
    let place b =
      if not placed.(b) then begin
        placed.(b) <- true;
        order.(!n) <- b;
        incr n
      end
    in
    place 0;
    (match best with
    | Some (p, _) -> List.iter place (trace_blocks view p)
    | None -> ());
    (* Remaining blocks by heat, hottest first; the cold (zero-heat)
       tail keeps source order. *)
    Array.init nblocks (fun i -> i)
    |> Array.to_list
    |> List.filter (fun b -> not placed.(b))
    |> List.stable_sort (fun a b -> compare heat.(b) heat.(a))
    |> List.iter place;
    if Lower.is_identity_order order then None else Some order
  end

(* A whole-program layout from a recorded path profile, presented as the
   [(routine, path, weight)] triples [Path_profile.hot_paths] (or a
   [Score.est] list) yields. Identity orders are omitted from the table:
   an absent routine lowers in source order. *)
let of_hot_paths ~views entries =
  let by_routine = Hashtbl.create 17 in
  List.iter
    (fun (name, path, w) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_routine name)
      in
      Hashtbl.replace by_routine name ((path, w) :: prev))
    entries;
  let table : t = Hashtbl.create 17 in
  Hashtbl.iter
    (fun name paths ->
      match order_for ~view:(views name) (List.rev paths) with
      | Some order -> Hashtbl.replace table name order
      | None -> ())
    by_routine;
  table

(* {2 The taken-transfer / locality proxy} *)

type proxy = {
  transfers : int; (* dynamic intra-routine control transfers *)
  taken : int; (* ... whose target is not the next opcode *)
  local : int; (* ... whose displacement is within the window *)
}

let empty_proxy = { transfers = 0; taken = 0; local = 0 }

let add_proxy a b =
  {
    transfers = sat_add a.transfers b.transfers;
    taken = sat_add a.taken b.taken;
    local = sat_add a.local b.local;
  }

(* Charge one lowered routine against an edge-frequency lookup. Returns
   and calls are excluded: inter-routine transfers cost the same under
   every intra-routine layout, so counting them would only dilute the
   signal the layout can actually move. *)
let proxy_of_plan (plan : Lower.plan) ~freq =
  let transfers = ref 0 and taken = ref 0 and local = ref 0 in
  let window = Cost.locality_window in
  let charge ~at ~target f =
    if f > 0 then begin
      transfers := sat_add !transfers f;
      if target <> at + 1 then taken := sat_add !taken f;
      if abs (target - (at + 1)) <= window then local := sat_add !local f
    end
  in
  Array.iteri
    (fun at op ->
      match op with
      | Lower.Jump { target; edge }
      | Lower.Jump_prof { target; edge }
      | Lower.Jump_res { target; edge } ->
          charge ~at ~target (freq edge.Lower.edge)
      | Lower.Branch_r { then_; then_edge; else_; else_edge; _ }
      | Lower.Branch_r_prof { then_; then_edge; else_; else_edge; _ }
      | Lower.Branch_r_res { then_; then_edge; else_; else_edge; _ } ->
          charge ~at ~target:then_ (freq then_edge.Lower.edge);
          charge ~at ~target:else_ (freq else_edge.Lower.edge)
      | _ -> ())
    plan.Lower.variants.(plan.Lower.cur).Lower.v_code;
  { transfers = !transfers; taken = !taken; local = !local }

(* The program-wide proxy of [p] under block layout [layout] (identity
   when [None]), charged with the true edge frequencies of [ep]. Pure
   cost-model arithmetic over a fresh lowering — deterministic, no
   execution, safe for sharded byte-identical documents. *)
let program_proxy ?layout (p : Ir.program) ~(ep : Edge_profile.program) =
  let config = { Engine.default_config with Engine.layout } in
  let lowered =
    Lower.program ~config
      ~instr_tables:(Instr_rt.init_state (Instr_rt.no_instrumentation ()))
      p
  in
  Array.fold_left
    (fun acc (plan : Lower.plan) ->
      let name = plan.Lower.routine.Ir.name in
      match Edge_profile.routine ep name with
      | exception Not_found -> acc
      | prof -> add_proxy acc (proxy_of_plan plan ~freq:(Edge_profile.freq prof)))
    empty_proxy lowered.Lower.plans
