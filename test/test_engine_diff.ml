(* Differential testing of the two execution engines: the flat VM must be
   byte-identical to the reference tree-walker on every observable — return
   value, output, base/instrumentation cost, termination, edge profiles,
   path profiles, frequency-table state, and the interp.*/rt.* metrics —
   across all 18 workloads x {none, PP, TPP, PPP} x {full, starved fuel},
   plus QCheck-generated random programs and a fine-grained fuel sweep
   that walks the exhaustion point through batched segments. One case
   diffs the VM against itself instead: collection flags off vs on. *)

module Graph = Ppp_cfg.Graph
module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Edge_profile = Ppp_profile.Edge_profile
module Path_profile = Ppp_profile.Path_profile
module Interp = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Lower = Ppp_interp.Lower
module Spec = Ppp_workloads.Spec
module Gen = Ppp_workloads.Gen
module Config = Ppp_core.Config
module Instrument = Ppp_core.Instrument
module Obs = Ppp_obs.Metrics
module Sampling = Ppp_interp.Sampling

(* Render everything observable about an outcome into one canonical
   string; two engines agree iff their digests are equal, and Alcotest
   shows both sides on a mismatch. *)
let digest (p : Ir.program) (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.bprintf b fmt in
  pf "ret=%s\n"
    (match o.Interp.return_value with
    | None -> "-"
    | Some v -> string_of_int v);
  pf "out=%s\n" (String.concat "," (List.map string_of_int o.Interp.output));
  pf "base=%d instr=%d dyn_instrs=%d dyn_paths=%d\n" o.Interp.base_cost
    o.Interp.instr_cost o.Interp.dyn_instrs o.Interp.dyn_paths;
  (pf "term=%s\n"
     (match o.Interp.termination with
     | Interp.Finished -> "finished"
     | Interp.Out_of_fuel { stack_depth } ->
         Printf.sprintf "out_of_fuel(depth=%d)" stack_depth));
  let routines =
    List.sort compare (List.map (fun (r : Ir.routine) -> r.Ir.name) p.Ir.routines)
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
            Path_profile.fold t ~init:[] ~f:(fun acc path n -> (path, n) :: acc)
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
  (match o.Interp.instr_state with
  | None -> pf "tables=none\n"
  | Some state ->
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) state [] in
      List.iter
        (fun name ->
          let t = Hashtbl.find state name in
          let entries = ref [] in
          Instr_rt.Table.iter_nonzero t (fun k n -> entries := (k, n) :: !entries);
          pf "table %s:" name;
          List.iter (fun (k, n) -> pf " %d=%d" k n) (List.sort compare !entries);
          pf " cold=%d lost=%d overflow=%d saturated=%b total=%d\n"
            (Instr_rt.Table.cold t) (Instr_rt.Table.lost t)
            (Instr_rt.Table.overflow t)
            (Instr_rt.Table.saturated t)
            (Instr_rt.Table.dynamic_total t))
        (List.sort compare names));
  Buffer.contents b

let check_diff label config p =
  let r = Interp.run ~engine:Interp.Reference ~config p in
  let v = Interp.run ~engine:Interp.Vm ~config p in
  Alcotest.(check string) label (digest p r) (digest p v)

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

let check_program name p =
  List.iter
    (fun (mname, instrumentation) ->
      List.iter
        (fun (fname, fuel) ->
          let config =
            { Interp.default_config with Interp.instrumentation; fuel }
          in
          check_diff (Printf.sprintf "%s/%s/%s" name mname fname) config p)
        [ ("full", Interp.default_config.Interp.fuel); ("starved", 5_000) ])
    (methods p)

let workload_case (bench : Spec.bench) =
  Alcotest.test_case bench.Spec.bench_name `Quick (fun () ->
      check_program bench.Spec.bench_name (bench.Spec.build ~scale:1))

(* Walk the exhaustion point instruction by instruction through the
   first few thousand charges: every off-by-one in segment batching or
   the remainder bill shows up here. *)
let fuel_sweep () =
  let p = (Spec.find "bzip2").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  for fuel = 1 to 120 do
    let config = { Interp.default_config with Interp.instrumentation; fuel } in
    check_diff (Printf.sprintf "fuel=%d" fuel) config p
  done;
  List.iter
    (fun fuel ->
      let config = { Interp.default_config with Interp.instrumentation; fuel } in
      check_diff (Printf.sprintf "fuel=%d" fuel) config p)
    [ 503; 2_000; 10_007; 60_013 ]

(* The overflow-bin policy mutates tables on unattributable paths; make
   sure that state machine agrees across engines too. *)
let overflow_policy () =
  let p = (Spec.find "perlbmk").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.pp).Instrument.rt
  in
  List.iter
    (fun cap ->
      let config =
        {
          Interp.default_config with
          Interp.instrumentation;
          overflow_policy = Instr_rt.Table.Overflow_bin { cap };
        }
      in
      check_diff (Printf.sprintf "overflow cap=%d" cap) config p)
    [ 1; 16; Instr_rt.Table.default_overflow_cap ]

(* With edge collection and tracing off (the benchmark configuration)
   the engines must still agree on costs, termination and table state,
   with and without instrumentation: here only the terminators [Lower]
   marks as doing edge work run any. *)
let bare_config () =
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      List.iter
        (fun (mname, instrumentation) ->
          let config =
            {
              Interp.default_config with
              Interp.collect_edges = false;
              trace_paths = false;
              instrumentation;
            }
          in
          check_diff
            (Printf.sprintf "%s/%s/bare" bench.Spec.bench_name mname)
            config p)
        (methods p))
    Spec.all

(* Collection is a pure observer, which lets the pipeline's
   instrumented runs collect nothing and its re-profiles count edges
   only: on every workload under PP, PPP and PPP sampled at 1/4, a run
   with both collection flags off must match one with both on in result,
   output, costs, termination and frequency tables, and a run that only
   counts edges must also have the default run's edge profile. *)
let collection_flags () =
  let sampled = Some (Sampling.spec ~denom:4 ~seed:17 ()) in
  let without_paths (o : Interp.outcome) =
    { o with Interp.dyn_paths = 0; path_profile = None }
  in
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      let ep = prior_edges p in
      let rt c = Some (Instrument.instrument p ep c).Instrument.rt in
      List.iter
        (fun (mname, instrumentation, sampling) ->
          let run collect_edges trace_paths =
            Interp.run
              ~config:
                {
                  Interp.default_config with
                  Interp.collect_edges;
                  trace_paths;
                  instrumentation;
                  sampling;
                }
              p
          in
          let full = run true true in
          let label what =
            Printf.sprintf "%s/%s: %s" bench.Spec.bench_name mname what
          in
          Alcotest.(check string) (label "nothing collected")
            (digest p { (without_paths full) with Interp.edge_profile = None })
            (digest p (run false false));
          Alcotest.(check string) (label "edges only")
            (digest p (without_paths full))
            (digest p (run true false)))
        [
          ("pp", rt Config.pp, None);
          ("ppp", rt Config.ppp, None);
          ("ppp@1/4", rt Config.ppp, sampled);
        ])
    Spec.all

(* [Lower] alone decides which terminators do edge work (the [_prof]
   forms): with counting and tracing off, only terminators with an
   instrumented edge do, so a routine PPP skipped and the plain stream
   of one it instrumented do none; with either on, every terminator of
   every variant does, tier-up generations included. *)
let lowered_edge_work () =
  (* (terminators doing edge work, terminators whose edge work differs
     from "an edge of it has actions", all terminators) *)
  let census (v : Lower.variant) =
    let acts (eo : Lower.edge_ops) = Array.length eo.Lower.acts > 0 in
    Array.fold_left
      (fun (w, odd, n) op ->
        let term prof instrumented =
          ( (if prof then w + 1 else w),
            (if prof <> instrumented then odd + 1 else odd),
            n + 1 )
        in
        match op with
        | Lower.Jump_prof { edge; _ }
        | Lower.Return_r_prof { edge; _ }
        | Lower.Return_i_prof { edge; _ }
        | Lower.Return_none_prof { edge } ->
            term true (acts edge)
        | Lower.Branch_r_prof { then_edge; else_edge; _ } ->
            term true (acts then_edge || acts else_edge)
        | Lower.Jump { edge; _ }
        | Lower.Return_r { edge; _ }
        | Lower.Return_i { edge; _ }
        | Lower.Return_none { edge } ->
            term false (acts edge)
        | Lower.Branch_r { then_edge; else_edge; _ } ->
            term false (acts then_edge || acts else_edge)
        | _ -> (w, odd, n))
      (0, 0, 0) v.Lower.v_code
  in
  let skipped = ref 0 and instrumented = ref 0 and tiered = ref 0 in
  let idle = ref 0 (* instrumented-stream terminators without edge work *) in
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      let rt = (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt in
      let lower ~collect_edges ~trace_paths =
        let config =
          {
            Interp.default_config with
            Interp.collect_edges;
            trace_paths;
            instrumentation = Some rt;
          }
        in
        Lower.program ~config ~instr_tables:(Instr_rt.init_state rt) p
      in
      let label (plan : Lower.plan) what =
        Printf.sprintf "%s/%s: %s" bench.Spec.bench_name
          plan.Lower.routine.Ir.name what
      in
      (* A genuine re-layout (the entry first, the rest reversed), so the
         tier-up below re-lowers instead of reusing the plain stream. *)
      let tier_up prog (plan : Lower.plan) =
        let n = Array.length plan.Lower.routine.Ir.blocks in
        let order = Array.init n (fun i -> if i = 0 then 0 else n - i) in
        Lower.tier_up prog ~idx:plan.Lower.r_id ~order:(Some order) ~gen:1;
        plan.Lower.variants.(plan.Lower.cur)
      in
      let quiet = lower ~collect_edges:false ~trace_paths:false in
      Array.iter
        (fun (plan : Lower.plan) ->
          let plain = plan.Lower.variants.(plan.Lower.v_plain) in
          let w, _, _ = census plain in
          Alcotest.(check int) (label plan "plain stream does no edge work") 0 w;
          if Hashtbl.mem rt plan.Lower.routine.Ir.name then begin
            incr instrumented;
            let w, odd, n = census plan.Lower.variants.(plan.Lower.v_instr) in
            idle := !idle + n - w;
            Alcotest.(check int)
              (label plan "instrumented stream: edge work iff actions")
              0 odd
          end
          else begin
            incr skipped;
            Alcotest.(check int) (label plan "one variant") 1
              (Array.length plan.Lower.variants)
          end;
          if Array.length plan.Lower.routine.Ir.blocks > 2 then begin
            let w, _, _ = census (tier_up quiet plan) in
            Alcotest.(check int) (label plan "quiet tier-up does no edge work") 0 w
          end)
        quiet.Lower.plans;
      List.iter
        (fun (collect_edges, trace_paths) ->
          let prog = lower ~collect_edges ~trace_paths in
          Array.iter
            (fun (plan : Lower.plan) ->
              let all_work what v =
                let w, _, n = census v in
                Alcotest.(check int) (label plan what) n w
              in
              Array.iter (all_work "counted variant does edge work") plan.Lower.variants;
              if Array.length plan.Lower.routine.Ir.blocks > 2 then begin
                incr tiered;
                all_work "counted tier-up does edge work" (tier_up prog plan)
              end)
            prog.Lower.plans)
        [ (true, false); (false, true) ])
    Spec.all;
  Alcotest.(check bool) "PPP skips some routines" true (!skipped > 0);
  Alcotest.(check bool) "PPP instruments some routines" true (!instrumented > 0);
  Alcotest.(check bool) "some routines tier up" true (!tiered > 0);
  Alcotest.(check bool) "instrumented streams skip idle edges" true (!idle > 0)

(* [Lower] alone decides where a frame may change streams (the [_res]
   forms): exactly on the path-ending Jump/Branch_r terminators of an
   instrumented routine's [Instrumented] variant when the run samples or
   tiers, and of its [Plain] twin when it samples; nowhere else — not in
   a routine PPP skipped, not in a run that does neither, and not in
   whatever a tier-up installs, with or without a block order. *)
let lowered_resolution_points () =
  (* (resolving terminators, terminators whose form disagrees with
     [expected], terminators with a path-ending Jump/Branch_r edge) *)
  let census ~expected (v : Lower.variant) =
    Array.fold_left
      (fun (r, odd, n) op ->
        let term res ends =
          ( (if res then r + 1 else r),
            (if res <> (expected && ends) then odd + 1 else odd),
            if ends then n + 1 else n )
        in
        match op with
        | Lower.Jump_res { edge; _ } -> term true edge.Lower.ends_path
        | Lower.Jump { edge; _ } | Lower.Jump_prof { edge; _ } ->
            term false edge.Lower.ends_path
        | Lower.Branch_r_res { then_edge; else_edge; _ } ->
            term true (then_edge.Lower.ends_path || else_edge.Lower.ends_path)
        | Lower.Branch_r { then_edge; else_edge; _ }
        | Lower.Branch_r_prof { then_edge; else_edge; _ } ->
            term false (then_edge.Lower.ends_path || else_edge.Lower.ends_path)
        | _ -> (r, odd, n))
      (0, 0, 0) v.Lower.v_code
  in
  let resolving = ref 0 and orderless = ref 0 and ordered = ref 0 in
  List.iter
    (fun (bench : Spec.bench) ->
      let p = bench.Spec.build ~scale:1 in
      let rt = (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt in
      List.iter
        (fun (sampled, tiered) ->
          let lower () =
            let config =
              {
                Interp.default_config with
                Interp.collect_edges = false;
                trace_paths = false;
                instrumentation = Some rt;
                sampling =
                  (if sampled then Some (Sampling.spec ~denom:4 ~seed:1 ())
                   else None);
                tier = (if tiered then Some (Ppp_interp.Tier.spec ()) else None);
              }
            in
            Lower.program ~config ~instr_tables:(Instr_rt.init_state rt) p
          in
          let label (plan : Lower.plan) what =
            Printf.sprintf "%s/%s (sampled=%b tiered=%b): %s"
              bench.Spec.bench_name plan.Lower.routine.Ir.name sampled tiered
              what
          in
          let check_variant plan what ~expected (v : Lower.variant) =
            let r, odd, _ = census ~expected v in
            resolving := !resolving + r;
            Alcotest.(check bool) (label plan (what ^ ": v_resolves")) expected
              v.Lower.v_resolves;
            Alcotest.(check int) (label plan (what ^ ": _res iff path-ending"))
              0 odd
          in
          let prog = lower () in
          Array.iter
            (fun (plan : Lower.plan) ->
              let instrumented = Hashtbl.mem rt plan.Lower.routine.Ir.name in
              Array.iter
                (fun (v : Lower.variant) ->
                  let expected =
                    instrumented
                    &&
                    match v.Lower.v_kind with
                    | Lower.Instrumented -> sampled || tiered
                    | Lower.Plain -> sampled
                    | Lower.Optimized _ -> false
                  in
                  check_variant plan "lowered variant" ~expected v)
                plan.Lower.variants)
            prog.Lower.plans;
          (* Tier-up lands on a body that never resolves, order or not;
             under sampling an order-less one cannot reuse the resolving
             plain twin. Each tier-up gets a fresh lowering. *)
          Array.iter
            (fun (plan : Lower.plan) ->
              if Hashtbl.mem rt plan.Lower.routine.Ir.name then begin
                let n = Array.length plan.Lower.routine.Ir.blocks in
                List.iter
                  (fun order ->
                    let prog = lower () in
                    let plan = prog.Lower.plans.(plan.Lower.r_id) in
                    Lower.tier_up prog ~idx:plan.Lower.r_id ~order ~gen:1;
                    let v = plan.Lower.variants.(plan.Lower.cur) in
                    let what =
                      if order = None then "order-less tier-up"
                      else "ordered tier-up"
                    in
                    if order = None then incr orderless else incr ordered;
                    check_variant plan what ~expected:false v;
                    if order = None then
                      Alcotest.(check bool)
                        (label plan (what ^ " reuses the plain twin"))
                        (not sampled)
                        (plan.Lower.cur = plan.Lower.v_plain))
                  (None
                  ::
                  (if n > 2 then
                     [ Some (Array.init n (fun i -> if i = 0 then 0 else n - i)) ]
                   else []))
              end)
            prog.Lower.plans)
        [ (false, false); (true, false); (false, true); (true, true) ])
    Spec.all;
  Alcotest.(check bool) "some terminators resolve" true (!resolving > 0);
  Alcotest.(check bool) "order-less tier-ups covered" true (!orderless > 0);
  Alcotest.(check bool) "ordered tier-ups covered" true (!ordered > 0)

(* The interp.* and rt.* metrics streams must be engine-invariant. *)
let metrics_diff () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let config = { Interp.default_config with Interp.instrumentation } in
  let snapshot engine =
    Obs.set_enabled true;
    Obs.reset ();
    ignore (Interp.run ~engine ~config p);
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    List.filter_map
      (fun (name, v) ->
        match v with
        | Obs.Counter n
          when n > 0
               && (String.length name >= 7 && String.sub name 0 7 = "interp."
                  || (String.length name >= 3 && String.sub name 0 3 = "rt.")) ->
            Some (Printf.sprintf "%s=%d" name n)
        | _ -> None)
      s
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = snapshot Interp.Reference in
      let v = snapshot Interp.Vm in
      Alcotest.(check (list string)) "interp.*/rt.* counters" r v)

(* Without [?cache] the VM reuses the lowering of the program value it
   ran last, and identity, not name, decides a hit. Three programs share
   every routine name and the array set: a workload, its text round trip
   (structurally equal, physically new) and a copy with one immediate
   changed. Runs alternating between them must each match the reference
   engine, and only a rerun of the same value may skip lowering. *)
let cacheless_reruns () =
  let p = (Spec.find "vpr").Spec.build ~scale:1 in
  let reparsed = Ppp_ir.Parse.program_of_string (Ppp_ir.Pp_ir.to_string p) in
  let bumped =
    let first = ref true in
    let bump (b : Ir.block) =
      let instrs =
        Array.map
          (function
            | Ir.Mov (d, Ir.Imm n) when !first ->
                first := false;
                Ir.Mov (d, Ir.Imm (n + 1))
            | i -> i)
          b.Ir.instrs
      in
      { b with Ir.instrs }
    in
    let main = Ir.routine p p.Ir.main in
    let main' = { main with Ir.blocks = Array.map bump main.Ir.blocks } in
    { p with Ir.routines = List.map (fun r -> if r == main then main' else r) p.Ir.routines }
  in
  let instrumentation =
    Some (Instrument.instrument p (prior_edges p) Config.ppp).Instrument.rt
  in
  let config = { Interp.default_config with Interp.instrumentation } in
  let digest_of q = digest q (Interp.run ~engine:Interp.Reference ~config q) in
  Alcotest.(check bool) "the changed immediate is observable" false
    (digest_of p = digest_of bumped);
  for round = 1 to 2 do
    List.iter
      (fun (name, q) -> check_diff (Printf.sprintf "round %d/%s" round name) config q)
      [ ("workload", p); ("round trip", reparsed); ("one immediate changed", bumped) ]
  done;
  let lowerings q =
    Obs.set_enabled true;
    Obs.reset ();
    ignore (Interp.run ~config q);
    let s = Obs.snapshot () in
    Obs.set_enabled false;
    let n k = Option.value ~default:0 (Obs.counter_value s ("session.lower." ^ k)) in
    (n "hit", n "miss")
  in
  let nroutines = List.length p.Ir.routines in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      ignore (lowerings p);
      Alcotest.(check (pair int int)) "a rerun of the same value only hits"
        (nroutines, 0) (lowerings p);
      Alcotest.(check (pair int int)) "an equal but new value lowers again"
        (0, nroutines) (lowerings reparsed))

let qcheck_diff =
  QCheck.Test.make ~count:40 ~name:"random programs: Vm = Reference"
    QCheck.(small_int)
    (fun seed ->
      let p = Gen.program ~seed in
      check_program (Printf.sprintf "gen(seed=%d)" seed) p;
      (* Also starve the generated program near its actual cost, where
         exhaustion lands mid-program rather than never. *)
      let full = Interp.run ~engine:Interp.Reference p in
      let fuel = max 1 (full.Interp.dyn_instrs / 2) in
      check_diff
        (Printf.sprintf "gen(seed=%d)/half-fuel" seed)
        { Interp.default_config with Interp.fuel }
        p;
      true)

let suite =
  List.map workload_case Spec.all
  @ [
      Alcotest.test_case "fuel sweep" `Quick fuel_sweep;
      Alcotest.test_case "overflow policy" `Quick overflow_policy;
      Alcotest.test_case "bare config" `Quick bare_config;
      Alcotest.test_case "collection flags" `Quick collection_flags;
      Alcotest.test_case "lowering decides edge work" `Quick lowered_edge_work;
      Alcotest.test_case "lowering decides resolution points" `Quick
        lowered_resolution_points;
      Alcotest.test_case "metrics" `Quick metrics_diff;
      QCheck_alcotest.to_alcotest qcheck_diff;
      Alcotest.test_case "cacheless reruns" `Quick cacheless_reruns;
    ]
