(* Tiered in-VM re-optimization, tested as a transparency contract plus a
   protocol contract. Transparency: a tiered run — routines swapping from
   their instrumented variant to an optimized re-lowering mid-run, at
   frame entries and loop back-edge OSR points — must be byte-identical
   in program outcome to the untiered run, on every workload, method and
   fuel budget; what tiering IS allowed to change is instr_cost and the
   frozen frequency tables. Protocol: the two engines must agree on the
   FULL digest (tables, costs, and the tier decision log) under any
   tier/sampling combination, which pins down the canonical resolution
   order (trip, tick, tier-override — trips and ticks only in routines
   that have not tiered up) and the frames-keep-their-variant rule; and
   the session must be point-invalidated for exactly the swapped
   routines. *)

module Graph = Ppp_cfg.Graph
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Interp = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Sampling = Ppp_interp.Sampling
module Tier = Ppp_interp.Tier
module Obs = Ppp_obs.Metrics
module Spec = Ppp_workloads.Spec
module Gen = Ppp_workloads.Gen
module Config = Ppp_core.Config
module Instrument = Ppp_core.Instrument
module Session = Ppp_session.Session
module Pipeline = Ppp_harness.Pipeline

(* The program-outcome digest: everything the program itself observes or
   produces. Instrumentation cost and table state are excluded — they
   are the only things a tier swap is allowed to change. *)
let outcome_digest (p : Ir.program) (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  pf "ret=%s\n"
    (match o.Interp.return_value with
    | None -> "-"
    | Some v -> string_of_int v);
  pf "out=%s\n" (String.concat "," (List.map string_of_int o.Interp.output));
  pf "base=%d dyn_instrs=%d dyn_paths=%d\n" o.Interp.base_cost
    o.Interp.dyn_instrs o.Interp.dyn_paths;
  pf "term=%s\n"
    (match o.Interp.termination with
    | Interp.Finished -> "finished"
    | Interp.Out_of_fuel { stack_depth } ->
        Printf.sprintf "out_of_fuel(depth=%d)" stack_depth);
  let routines =
    List.sort compare
      (List.map (fun (r : Ir.routine) -> r.Ir.name) p.Ir.routines)
  in
  (match o.Interp.edge_profile with
  | None -> pf "edges=none\n"
  | Some ep ->
      List.iter
        (fun name ->
          let view = Cfg_view.of_routine (Ir.routine p name) in
          let n = Graph.num_edges (Cfg_view.graph view) in
          pf "edges %s:" name;
          for e = 0 to n - 1 do
            pf " %d" (Edge_profile.routine_freq ep name e)
          done;
          pf "\n")
        routines);
  (match o.Interp.path_profile with
  | None -> pf "paths=none\n"
  | Some pp ->
      List.iter
        (fun name ->
          let t = Path_profile.routine pp name in
          let entries =
            Path_profile.fold t ~init:[] ~f:(fun acc path n ->
                (path, n) :: acc)
            |> List.sort compare
          in
          pf "paths %s:" name;
          List.iter
            (fun (path, n) ->
              pf " [%s]=%d"
                (String.concat "-" (List.map string_of_int path))
                n)
            entries;
          pf "\n")
        routines);
  Buffer.contents b

(* The full digest adds what tiering IS allowed to change, plus the
   decision log itself; used for the cross-engine agreement check, which
   must hold bit for bit even for the frozen tables. *)
let full_digest p (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  pf "%s" (outcome_digest p o);
  pf "instr=%d\n" o.Interp.instr_cost;
  (match o.Interp.instr_state with
  | None -> pf "tables=none\n"
  | Some state ->
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) state [] in
      List.iter
        (fun name ->
          let t = Hashtbl.find state name in
          let entries = ref [] in
          Instr_rt.Table.iter_nonzero t (fun k n ->
              entries := (k, n) :: !entries);
          pf "table %s:" name;
          List.iter
            (fun (k, n) -> pf " %d=%d" k n)
            (List.sort compare !entries);
          pf " cold=%d lost=%d total=%d\n" (Instr_rt.Table.cold t)
            (Instr_rt.Table.lost t)
            (Instr_rt.Table.dynamic_total t))
        (List.sort compare names));
  List.iter
    (fun (d : Tier.decision) ->
      pf "tier %s trips=%d gen=%d reordered=%b\n" d.Tier.d_routine
        d.Tier.d_trips d.Tier.d_gen d.Tier.d_reordered)
    o.Interp.tier_decisions;
  Buffer.contents b

let prior_edges p =
  match
    (Interp.run ~engine:Interp.Reference ~config:Interp.default_config p)
      .Interp.edge_profile
  with
  | Some ep -> ep
  | None -> Alcotest.fail "no edge profile from the prior run"

let methods p =
  let ep = prior_edges p in
  [
    ("none", None);
    ("pp", Some (Instrument.instrument p ep Config.pp).Instrument.rt);
    ("tpp", Some (Instrument.instrument p ep Config.tpp).Instrument.rt);
    ("ppp", Some (Instrument.instrument p ep Config.ppp).Instrument.rt);
  ]

(* A deliberately adversarial planner: entry first, every other block in
   reverse — a genuine re-lowering for any routine with >= 3 blocks, so
   OSR crossings have to map offsets across structurally different code
   arrays. Deterministic and engine-blind (it sees only what [Tier.fire]
   passes). *)
let reversal_planner (p : Ir.program) : Tier.planner =
  let nblocks = Hashtbl.create 17 in
  List.iter
    (fun (r : Ir.routine) ->
      Hashtbl.replace nblocks r.Ir.name (Array.length r.Ir.blocks))
    p.Ir.routines;
 fun ~routine ~counters:_ ->
  match Hashtbl.find_opt nblocks routine with
  | Some n when n >= 3 ->
      Some (Array.init n (fun i -> if i = 0 then 0 else n - i))
  | _ -> None

let tier_specs p =
  [
    ("strip", Tier.spec ~threshold:2 ());
    ("reorder", Tier.spec ~threshold:2 ~plan:(reversal_planner p) ());
    ("budget1", Tier.spec ~threshold:1 ~budget:1 ~plan:(reversal_planner p) ());
  ]

(* The transparency + agreement check for one workload: for every
   method, fuel budget and tier spec, the tiered run's program outcome
   equals the untiered run's (per engine), and the two engines agree on
   the full digest, decision log included. *)
let check_workload name p =
  List.iter
    (fun (mname, instrumentation) ->
      List.iter
        (fun (fname, fuel) ->
          let base_config =
            { Interp.default_config with Interp.instrumentation; fuel }
          in
          let base_vm =
            outcome_digest p (Interp.run ~engine:Interp.Vm ~config:base_config p)
          in
          List.iter
            (fun (sname, spec) ->
              let config =
                { base_config with Interp.tier = Some spec }
              in
              let vm = Interp.run ~engine:Interp.Vm ~config p in
              let r = Interp.run ~engine:Interp.Reference ~config p in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s/%s transparent" name mname fname
                   sname)
                base_vm (outcome_digest p vm);
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s/%s engines agree" name mname fname
                   sname)
                (full_digest p r) (full_digest p vm))
            (tier_specs p))
        [ ("full", Interp.default_config.Interp.fuel); ("starved", 5_000) ])
    (methods p)

let workload_case (bench : Spec.bench) =
  Alcotest.test_case bench.Spec.bench_name `Quick (fun () ->
      check_workload bench.Spec.bench_name (bench.Spec.build ~scale:1))

(* Walk fuel through a band that crosses many swap points: every
   exhaustion boundary must land identically with and without tiering,
   and across engines — the OSR retarget may never lose or duplicate a
   charge. *)
let fuel_walk () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let spec = Tier.spec ~threshold:2 ~plan:(reversal_planner p) () in
  for fuel = 400 to 460 do
    let base_config =
      { Interp.default_config with Interp.instrumentation; fuel }
    in
    let config = { base_config with Interp.tier = Some spec } in
    let vm = Interp.run ~engine:Interp.Vm ~config p in
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d transparent" fuel)
      (outcome_digest p (Interp.run ~engine:Interp.Vm ~config:base_config p))
      (outcome_digest p vm);
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d engines agree" fuel)
      (full_digest p (Interp.run ~engine:Interp.Reference ~config p))
      (full_digest p vm)
  done

(* Sampling composes with tiering: ticks are consumed only at the
   decision points of routines that have not tiered up (a tier-up stops
   its routine ticking, so it shifts the burst schedule of the routines
   still collecting — identically in both engines), swaps win the
   resolution, and no frame ever executes a stale variant — all
   observable as program-outcome transparency plus bitwise cross-engine
   agreement on the sampled tables. *)
let sampling_composition () =
  List.iter
    (fun bench_name ->
      let p = (Spec.find bench_name).Spec.build ~scale:1 in
      let instrumentation =
        Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
      in
      List.iter
        (fun sampling ->
          List.iter
            (fun (sname, tier) ->
              List.iter
                (fun fuel ->
                  let base_config =
                    {
                      Interp.default_config with
                      Interp.instrumentation;
                      fuel;
                      sampling;
                    }
                  in
                  let config = { base_config with Interp.tier = Some tier } in
                  let vm = Interp.run ~engine:Interp.Vm ~config p in
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/fuel=%d transparent" bench_name
                       sname fuel)
                    (outcome_digest p
                       (Interp.run ~engine:Interp.Vm ~config:base_config p))
                    (outcome_digest p vm);
                  Alcotest.(check string)
                    (Printf.sprintf "%s/%s/fuel=%d engines agree" bench_name
                       sname fuel)
                    (full_digest p
                       (Interp.run ~engine:Interp.Reference ~config p))
                    (full_digest p vm))
                [ Interp.default_config.Interp.fuel; 5_000 ])
            (tier_specs p))
        [
          None;
          Some (Sampling.spec ~denom:4 ~burst:2 ~seed:11 ());
          Some (Sampling.spec ~denom:16 ~seed:7 ());
        ])
    [ "vpr"; "crafty" ]

(* QCheck: over random programs and random tier parameters, swaps at
   arbitrary call boundaries and back edges preserve the program
   outcome, and the engines agree on the full digest — i.e. frames in
   flight keep their entry-time variant and the controller's log is a
   pure function of the run. *)
let qcheck_swap_protocol =
  QCheck.Test.make ~count:60 ~name:"tier swap protocol on random programs"
    QCheck.(triple small_nat small_nat bool)
    (fun (seed, t, reorder) ->
      let p = Gen.program ~seed in
      let threshold = 1 + (t mod 5) in
      let instrumentation =
        Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
      in
      let spec =
        if reorder then Tier.spec ~threshold ~plan:(reversal_planner p) ()
        else Tier.spec ~threshold ()
      in
      let base_config =
        { Interp.default_config with Interp.instrumentation; fuel = 50_000 }
      in
      let config = { base_config with Interp.tier = Some spec } in
      let vm = Interp.run ~engine:Interp.Vm ~config p in
      let transparent =
        outcome_digest p (Interp.run ~engine:Interp.Vm ~config:base_config p)
        = outcome_digest p vm
      in
      let agree =
        full_digest p (Interp.run ~engine:Interp.Reference ~config p)
        = full_digest p vm
      in
      if not transparent then
        QCheck.Test.fail_report "tiered run changed the program outcome";
      if not agree then
        QCheck.Test.fail_report "engines disagree under tiering";
      true)

(* The controller's own arithmetic: one fire per routine at the exact
   threshold crossing, budget spent per swap, and a denied crossing
   counted once — never per subsequent trip. *)
let controller_accounting () =
  let spec = Tier.spec ~threshold:3 ~budget:1 () in
  let t = Tier.start spec ~nroutines:2 in
  Alcotest.(check bool) "below threshold" false (Tier.trip t 0);
  Alcotest.(check bool) "still below" false (Tier.trip t 0);
  Alcotest.(check bool) "crossing fires" true (Tier.trip t 0);
  ignore (Tier.fire t ~idx:0 ~name:"a" ~counters:[]);
  Alcotest.(check bool) "tiered" true (Tier.is_tiered t 0);
  Alcotest.(check bool) "no refire" false (Tier.trip t 0);
  for _ = 1 to 2 do
    Alcotest.(check bool) "b below" false (Tier.trip t 1)
  done;
  Alcotest.(check bool) "b denied: budget spent" false (Tier.trip t 1);
  Alcotest.(check bool) "denial is once, not per trip" false (Tier.trip t 1);
  Alcotest.(check int) "one decision" 1 (List.length (Tier.decisions t));
  Alcotest.(check int) "one swap" 1 (Tier.swaps t);
  (match Tier.decisions t with
  | [ d ] ->
      Alcotest.(check string) "routine" "a" d.Tier.d_routine;
      Alcotest.(check int) "trips at fire" 3 d.Tier.d_trips;
      Alcotest.(check bool) "no planner, no reorder" false d.Tier.d_reordered
  | _ -> Alcotest.fail "expected exactly one decision");
  (match Tier.spec ~threshold:0 () with
  | _ -> Alcotest.fail "threshold 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Tier.spec ~budget:(-1) () with
  | _ -> Alcotest.fail "negative budget must be rejected"
  | exception Invalid_argument _ -> ()

(* The pipeline wrapper: one tiered run is outcome-identical to the
   two-pass instrumented run, retires instrumentation (instr_cost can
   only shrink), logs decisions for the hot routines, and point-
   invalidates the session for exactly the swapped set. *)
let tiered_run_pipeline () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let prepared = Pipeline.prepare ~name:"vpr" p in
  let ev = Pipeline.evaluate prepared Config.ppp in
  let before = (Session.stats prepared.Pipeline.session).Session.invalidations in
  let t = Pipeline.tiered_run ~threshold:2 prepared Config.ppp in
  let after = (Session.stats prepared.Pipeline.session).Session.invalidations in
  Alcotest.(check bool) "hot workload tiers up" true
    (t.Pipeline.t_decisions <> []);
  Alcotest.(check (list string)) "invalidated exactly the swapped routines"
    (List.map (fun (d : Tier.decision) -> d.Tier.d_routine)
       t.Pipeline.t_decisions)
    t.Pipeline.t_invalidated;
  Alcotest.(check int) "one session invalidation per swapped routine"
    (List.length t.Pipeline.t_invalidated)
    (after - before);
  (* Same instrumented program, so the tiered single run must agree with
     the two-pass flow on the program outcome... *)
  let untiered =
    Interp.run
      ~config:
        {
          Interp.default_config with
          Interp.instrumentation =
            Some t.Pipeline.t_instrumented.Instrument.rt;
        }
      prepared.Pipeline.optimized
  in
  Alcotest.(check string) "outcome identical to the two-pass run"
    (outcome_digest prepared.Pipeline.optimized untiered)
    (outcome_digest prepared.Pipeline.optimized t.Pipeline.t_outcome);
  (* ... while spending strictly less on instrumentation. *)
  Alcotest.(check bool) "instrumentation cost shrinks" true
    (t.Pipeline.t_outcome.Interp.instr_cost < untiered.Interp.instr_cost);
  ignore ev

(* The tier.* metric family flows through the flush like every other
   engine counter, from both engines identically. *)
let tier_metrics () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let config =
    {
      Interp.default_config with
      Interp.instrumentation;
      tier = Some (Tier.spec ~threshold:2 ~plan:(reversal_planner p) ());
    }
  in
  let family engine =
    Obs.set_enabled true;
    Obs.reset ();
    ignore (Interp.run ~engine ~config p);
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    List.map
      (fun k -> (k, Option.value ~default:0 (Obs.counter_value s ("tier." ^ k))))
      [ "trips"; "swaps"; "reorders"; "denied_budget"; "entry_swaps"; "osr_swaps" ]
  in
  let vm = family Interp.Vm in
  Alcotest.(check bool) "trips counted" true (List.assoc "trips" vm > 0);
  Alcotest.(check bool) "swaps counted" true (List.assoc "swaps" vm > 0);
  Alcotest.(check (list (pair string int))) "families identical across engines"
    vm
    (family Interp.Reference)

(* A planner may run a program itself. That nested run starts while the
   tiered run holds the VM's lowering cache, whose plans share backing
   arrays with it, so it must lower without the cache. Running a copy of
   the same program (same routine names, same arrays) inside every
   decision must leave the tiered run byte-identical. *)
let nested_planner_run () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let copy = Ppp_ir.Parse.program_of_string (Ppp_ir.Pp_ir.to_string p) in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let plan = reversal_planner p in
  let nested = ref 0 in
  let nesting : Tier.planner =
   fun ~routine ~counters ->
    ignore (Interp.run copy);
    incr nested;
    plan ~routine ~counters
  in
  let tiered plan =
    let config =
      {
        Interp.default_config with
        Interp.instrumentation;
        tier = Some (Tier.spec ~threshold:2 ~plan ());
      }
    in
    full_digest p (Interp.run ~config p)
  in
  let plain = tiered plan in
  Alcotest.(check string) "nested runs leave the tiered run unchanged" plain
    (tiered nesting);
  Alcotest.(check bool) "the planner ran nested programs" true (!nested > 0)

(* Only a routine whose stream can still change trips and ticks: one PPP
   instrumented and that has not tiered up. So the tier budget goes to
   instrumented routines, and a program PPP skips entirely makes no tier
   decision and takes no sampling tick. Checked in both engines. *)
let skipped_routines_never_resolve () =
  let pipeline_run name ~sampling ~tier =
    let prepared =
      Pipeline.prepare_unoptimized ~name ((Spec.find name).Spec.build ~scale:1)
    in
    let inst = (Pipeline.tiered_run prepared Config.ppp).Pipeline.t_instrumented in
    let config =
      {
        Interp.default_config with
        Interp.instrumentation = Some inst.Instrument.rt;
        sampling;
        tier =
          Option.map
            (fun (threshold, budget) ->
              Tier.spec ~threshold ~budget
                ~plan:(Pipeline.tier_planner prepared inst) ())
            tier;
      }
    in
    let run engine =
      Obs.set_enabled true;
      Obs.reset ();
      let o = Interp.run ~engine ~config prepared.Pipeline.optimized in
      let s = Obs.snapshot () in
      Obs.set_enabled false;
      let n k = Option.value ~default:0 (Obs.counter_value s k) in
      (o, n "tier.trips", n "rt.sample.on_ticks" + n "rt.sample.off_ticks")
    in
    let vm = run Interp.Vm and r = run Interp.Reference in
    let digest (o, trips, ticks) =
      Printf.sprintf "%strips=%d ticks=%d\n"
        (full_digest prepared.Pipeline.optimized o) trips ticks
    in
    Alcotest.(check string) (name ^ ": engines agree") (digest r) (digest vm);
    (inst, vm)
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let _, (untiered, _, _) = pipeline_run "gap" ~sampling:None ~tier:None in
      let inst, (gap, _, _) =
        pipeline_run "gap" ~sampling:None ~tier:(Some (4, 1))
      in
      Alcotest.(check (list string)) "gap: PPP instruments only gcd" [ "gcd" ]
        (Hashtbl.fold (fun k _ acc -> k :: acc) inst.Instrument.rt []);
      Alcotest.(check (list string)) "gap: the one budget unit tiers gcd"
        [ "gcd" ]
        (List.map (fun (d : Tier.decision) -> d.Tier.d_routine)
           gap.Interp.tier_decisions);
      Alcotest.(check bool) "gap: tiering retires instrumentation cost" true
        (gap.Interp.instr_cost < untiered.Interp.instr_cost);
      let inst, _ = pipeline_run "mcf" ~sampling:None ~tier:None in
      Alcotest.(check int) "mcf: PPP instruments no routine" 0
        (Hashtbl.length inst.Instrument.rt);
      List.iter
        (fun (what, sampling, tier) ->
          let _, (o, trips, ticks) = pipeline_run "mcf" ~sampling ~tier in
          Alcotest.(check int) ("mcf " ^ what ^ ": no tier decision") 0
            (List.length o.Interp.tier_decisions);
          Alcotest.(check int) ("mcf " ^ what ^ ": no trip") 0 trips;
          Alcotest.(check int) ("mcf " ^ what ^ ": no tick") 0 ticks)
        [
          ("tiered", None, Some (4, 2));
          ("sampled 1/4", Some (Sampling.spec ~denom:4 ~seed:1 ()), None);
        ])

let suite =
  List.map workload_case Spec.all
  @ [
      Alcotest.test_case "fuel walk across swap points" `Quick fuel_walk;
      Alcotest.test_case "sampling composes with tiering" `Quick
        sampling_composition;
      QCheck_alcotest.to_alcotest qcheck_swap_protocol;
      Alcotest.test_case "controller accounting" `Quick controller_accounting;
      Alcotest.test_case "pipeline tiered_run + session invalidation" `Quick
        tiered_run_pipeline;
      Alcotest.test_case "tier.* metrics" `Quick tier_metrics;
      Alcotest.test_case "nested run in a planner" `Quick nested_planner_run;
      Alcotest.test_case "skipped routines never trip or tick" `Quick
        skipped_routines_never_resolve;
    ]
