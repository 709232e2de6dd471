(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 8) on the synthetic SPEC2000 workloads
   from the deterministic cost model, and writes them as one
   machine-readable document that CI gates. Wall-clock time is measured
   by the repository benchmark (perfbench/), not here; the one timed
   path left is --throughput.

   Usage:
     main.exe                      all tables and figures
     main.exe table1|table2|fig9|fig10|fig11|fig12|fig13|sec8.1
     main.exe sampling|tiered|drift|tables
     main.exe --scale N ...        larger inputs (default 1)
     main.exe --bench a,b,c ...    restrict to some benchmarks
     main.exe --json FILE ...      machine-readable results (default
                                   BENCH_results.json; --no-json to skip)
     main.exe -j N | --shards N    evaluate benchmarks across N worker
                                   processes (machine-readable only: no
                                   tables, no throughput; the JSON is
                                   byte-identical at every -j)
     main.exe --seed N             PRNG seed recorded in the JSON and fed
                                   to shard workers (default 0)
     main.exe --smoke              machine-readable only, without forking
     main.exe --throughput         measure raw engine throughput (Minstr/s,
                                   VM and reference) per benchmark and
                                   record it in the JSON; ignored under -j
     main.exe --min-vm-ratio R     exit 1 if any benchmark's VM/reference
                                   throughput ratio is below R, or if no
                                   throughput was measured (needs
                                   --throughput, without -j)
     main.exe --min-layout-wins N  exit 1 unless at least N benchmarks'
                                   closed superblock+layout loop strictly
                                   drops taken transfers, and PPP's
                                   aggregate layout improvement is at
                                   least edge profiling's (reads the
                                   assembled JSON, so it works under -j)
     main.exe --sampling-sweep     evaluate PPP under bursty sampled
                                   collection at rates 1, 1/4, 1/16,
                                   1/64, 1/256 and record the
                                   accuracy-vs-overhead curve per
                                   benchmark in the JSON (deterministic,
                                   so it works under -j; the "sampling"
                                   action prints the table)
     main.exe --sweep-floor OV,OH  exit 1 unless some sampled rate
                                   (denom > 1) averages, across the
                                   swept benchmarks, overlap vs the
                                   unsampled estimate >= OV%% at
                                   overhead <= OH%% (reads the assembled
                                   JSON; fails if --sampling-sweep did
                                   not run)
     main.exe --tiered             run each benchmark once with the tier
                                   controller armed and record swap
                                   counts, instrumentation-cost savings
                                   and layout-proxy scores in the JSON
                                   (deterministic, so it works under -j;
                                   the "tiered" action prints the table)
     main.exe --min-tiered-wins N  exit 1 unless the tiered run retires
                                   instrumentation cost against the
                                   two-pass flow on at least N
                                   benchmarks (reads the assembled JSON;
                                   fails if --tiered did not run)
     main.exe --drift-sweep        run the re-optimization loop twice
                                   per benchmark — pristine profile
                                   hand-offs vs a sampled store merged
                                   with exponential decay — and record
                                   per-generation decision stability in
                                   the JSON (deterministic, so it works
                                   under -j; the "drift" action prints
                                   the table)
     main.exe --drift-floor S      exit 1 unless the drift loop's
                                   minimum decision stability, averaged
                                   across the swept benchmarks, is at
                                   least S%% (reads the assembled JSON;
                                   fails if --drift-sweep did not run)
     main.exe --baseline F --gate P [--strict]
                                   compare against a previous BENCH_*.json
                                   and exit 1 if any metric of the gate
                                   table (Ppp_harness.Gate) regressed by
                                   more than P%; --strict also fails on a
                                   metric the baseline has and the
                                   current document lacks
     main.exe --no-cache           disable the per-benchmark analysis
                                   session (every analysis recomputed);
                                   results are byte-identical, only the
                                   preparation work and wall time differ *)

module H = Ppp_harness.Pipeline
module R = Ppp_harness.Report
module Interp = Ppp_interp.Interp

let fmt = Format.std_formatter

(* {2 Engine throughput: Minstr/s per engine}

   Raw interpreted instructions per second, per engine, on the optimized
   program with profiling bookkeeping off — the number the pre-lowered
   VM exists to improve. Each engine gets a warm-up run (which also
   yields the exact dyn_instrs of the workload and, for the VM, leaves
   the program lowered in the VM's own cache, so timed runs do not
   re-lower it), then repeated timed runs until [min_time] seconds
   total; the best run is reported so a single scheduler hiccup cannot
   poison the figure. *)

let throughput_one ~min_time (pb : R.prepared_bench) =
  let p = pb.R.prep.H.optimized in
  let config =
    { Interp.default_config with collect_edges = false; trace_paths = false }
  in
  let measure engine =
    let warm = Interp.run ~engine ~config p in
    let instrs = float_of_int warm.Interp.dyn_instrs in
    let best = ref 0.0 in
    let spent = ref 0.0 in
    while !spent < min_time do
      let t0 = Unix.gettimeofday () in
      ignore (Interp.run ~engine ~config p);
      let dt = Unix.gettimeofday () -. t0 in
      spent := !spent +. dt;
      if dt > 0.0 then best := Float.max !best (instrs /. dt)
    done;
    !best /. 1e6
  in
  let vm = measure Interp.Vm in
  let reference = measure Interp.Reference in
  (vm, reference, if reference > 0.0 then vm /. reference else 0.0)

let throughput ~min_time benches =
  Format.eprintf "engine throughput (best of >= %.2fs per engine):@." min_time;
  List.map
    (fun (pb : R.prepared_bench) ->
      let name = pb.R.spec.Ppp_workloads.Spec.bench_name in
      let vm, reference, ratio = throughput_one ~min_time pb in
      Format.eprintf
        "  %-9s | vm %8.2f Minstr/s | reference %8.2f Minstr/s | x%.2f@." name
        vm reference ratio;
      (name, (vm, reference, ratio)))
    benches

(* {2 Machine-readable results: BENCH_*.json} *)

module J = Ppp_obs.Jsonx

let throughput_json results name =
  match List.assoc_opt name results with
  | None -> None
  | Some (vm, reference, ratio) ->
      Some
        (J.Obj
           [
             ("vm_minstr_s", J.Float vm);
             ("reference_minstr_s", J.Float reference);
             ("ratio", J.Float ratio);
           ])

(* Exit 1 when the VM fails to clear the requested speedup floor — the
   absolute companion to the Gate's relative throughput check. *)
let check_min_ratio ~floor results =
  if results = [] then begin
    Format.eprintf
      "throughput: --min-vm-ratio given but no throughput was measured (run \
       with --throughput, without -j)@.";
    exit 1
  end;
  let bad = List.filter (fun (_, (_, _, ratio)) -> ratio < floor) results in
  if bad <> [] then begin
    List.iter
      (fun (name, (_, _, ratio)) ->
        Format.eprintf
          "throughput: %s VM/reference ratio %.2f is below the floor %.2f@."
          name ratio floor)
      bad;
    exit 1
  end

let member_path j path =
  List.fold_left (fun j k -> Option.bind j (fun j -> J.member j k)) (Some j)
    path

let num j path =
  match member_path j path with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let benchmarks doc =
  J.to_list (Option.value ~default:(J.Arr []) (J.member doc "benchmarks"))

(* Exit 1 unless path-guided layout pays off broadly enough: the layout
   PPP's estimated profile dictates must strictly drop taken transfers
   on at least [min_wins] benchmarks, and PPP's aggregate layout
   improvement must be at least edge profiling's. Reads the assembled
   document, so the check is byte-identical under -j. *)
let check_layout_wins ~min_wins doc =
  let benches = benchmarks doc in
  let wins =
    List.length
      (List.filter
         (fun b ->
           match
             (num b [ "layout"; "methods"; "ppp"; "taken" ],
              num b [ "layout"; "base"; "taken" ])
           with
           | Some ppp, Some base -> ppp < base
           | _ -> false)
         benches)
  in
  let loop_wins =
    List.length
      (List.filter
         (fun b ->
           member_path b [ "layout"; "closed_loop"; "taken_drop" ]
           = Some (J.Bool true))
         benches)
  in
  let agg m =
    List.fold_left
      (fun acc b ->
        match num b [ "layout"; "methods"; m; "improvement" ] with
        | Some f -> acc +. f
        | None -> acc)
      0.0 benches
  in
  let ppp = agg "ppp" in
  let edge = agg "edge" in
  Format.eprintf
    "layout: PPP's layout drops taken transfers on %d/%d benchmarks (closed \
     loop: %d); aggregate improvement edge %.3f ppp %.3f@."
    wins (List.length benches) loop_wins edge ppp;
  let failed = ref false in
  if wins < min_wins then begin
    Format.eprintf
      "layout: only %d benchmark(s) drop taken transfers under PPP's layout, \
       below the floor %d@."
      wins min_wins;
    failed := true
  end;
  if ppp < edge then begin
    Format.eprintf
      "layout: PPP's aggregate improvement %.3f is below edge profiling's \
       %.3f@."
      ppp edge;
    failed := true
  end;
  if !failed then exit 1

(* Exit 1 unless the sampled collector's accuracy-vs-overhead curve has a
   usable operating point: some sampled rate (denom > 1) whose average
   overlap vs the unsampled estimate — across every benchmark that
   carries a sweep — clears [min_overlap] percent while its average
   overhead stays at or below [max_overhead_pct] percent. Reads the
   assembled document, so the check is byte-identical under -j. *)
let check_sampling_floor ~min_overlap ~max_overhead_pct doc =
  let benches = benchmarks doc in
  (* denom -> (sum overlap, sum overhead, count) over swept benchmarks *)
  let by_denom : (int, float * float * int) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun b ->
      match member_path b [ "sampling"; "rates" ] with
      | Some (J.Arr rates) ->
          List.iter
            (fun r ->
              match
                ( num r [ "denom" ],
                  num r [ "overlap_vs_full" ],
                  num r [ "overhead" ] )
              with
              | Some d, Some ov, Some oh when d > 1.5 ->
                  let d = int_of_float d in
                  let sov, soh, n =
                    Option.value ~default:(0.0, 0.0, 0)
                      (Hashtbl.find_opt by_denom d)
                  in
                  Hashtbl.replace by_denom d (sov +. ov, soh +. oh, n + 1)
              | _ -> ())
            rates
      | _ -> ())
    benches;
  let averages =
    Hashtbl.fold
      (fun d (sov, soh, n) acc ->
        let n' = float_of_int n in
        (d, sov /. n', 100. *. soh /. n') :: acc)
      by_denom []
    |> List.sort compare
  in
  if averages = [] then begin
    Format.eprintf
      "sampling: --sweep-floor given but no benchmark carries a sampling \
       sweep (run with --sampling-sweep)@.";
    exit 1
  end;
  let qualifying =
    List.filter
      (fun (_, ov, oh) -> ov >= min_overlap && oh <= max_overhead_pct)
      averages
  in
  List.iter
    (fun (d, ov, oh) ->
      Format.eprintf
        "sampling: rate 1/%-3d avg overlap %5.1f%%  avg overhead %5.2f%%%s@." d
        ov oh
        (if ov >= min_overlap && oh <= max_overhead_pct then "  (qualifies)"
         else ""))
    averages;
  match qualifying with
  | (d, ov, oh) :: _ ->
      Format.eprintf
        "sampling: floor met at 1/%d (overlap %.1f%% >= %g%%, overhead %.2f%% \
         <= %g%%)@."
        d ov min_overlap oh max_overhead_pct
  | [] ->
      Format.eprintf
        "sampling: no sampled rate averages overlap >= %g%% at overhead <= \
         %g%%@."
        min_overlap max_overhead_pct;
      exit 1

(* Exit 1 unless tiering actually pays: the tiered single run must
   retire instrumentation cost against the two-pass flow on at least
   [min_wins] benchmarks. Reads the assembled document. *)
let check_tiered_wins ~min_wins doc =
  let results =
    List.filter_map
      (fun b ->
        match J.member b "tiered" with
        | None -> None
        | Some t ->
            let name =
              match J.member b "name" with Some (J.Str n) -> n | _ -> "?"
            in
            let won =
              match
                ( num t [ "tiered_instr_cost" ],
                  num t [ "untiered_instr_cost" ] )
              with
              | Some a, Some b -> a < b
              | _ -> false
            in
            Some (name, won))
      (benchmarks doc)
  in
  if results = [] then begin
    Format.eprintf
      "tiered: --min-tiered-wins given but no benchmark carries a tiered \
       object (run with --tiered)@.";
    exit 1
  end;
  let wins = List.filter snd results in
  Format.eprintf
    "tiered: single run beats two-pass on %d/%d benchmarks (by retired \
     instrumentation cost)@."
    (List.length wins) (List.length results);
  if List.length wins < min_wins then begin
    List.iter
      (fun (name, won) ->
        if not won then Format.eprintf "tiered: %s did not win@." name)
      results;
    Format.eprintf "tiered: %d win(s) is below the floor %d@."
      (List.length wins) min_wins;
    exit 1
  end

(* Exit 1 unless the drift loop keeps its placements stable enough: the
   sampled+decayed loop's generation-2 decision stability, averaged
   across the swept benchmarks, must be at least [min_stability]
   percent. Reads the assembled document. *)
let check_drift_floor ~min_stability doc =
  let benches = benchmarks doc in
  let pts =
    List.filter_map
      (fun b ->
        match
          ( num b [ "drift"; "drift_stability" ],
            num b [ "drift"; "full_stability" ] )
        with
        | Some d, Some f -> Some (d, f)
        | _ -> None)
      benches
  in
  if pts = [] then begin
    Format.eprintf
      "drift: --drift-floor given but no benchmark carries a drift object \
       (run with --drift-sweep)@.";
    exit 1
  end;
  let n = float_of_int (List.length pts) in
  let avg f = List.fold_left (fun a p -> a +. f p) 0.0 pts /. n in
  let davg = 100. *. avg fst in
  let favg = 100. *. avg snd in
  Format.eprintf
    "drift: avg gen-2 stability %.1f%% (full-instrumentation loop %.1f%%) \
     over %d benchmarks@."
    davg favg (List.length pts);
  if davg < min_stability then begin
    Format.eprintf "drift: %.1f%% is below the floor %g%%@." davg min_stability;
    exit 1
  end

(* {2 Sharded evaluation}

   Each worker prepares and evaluates one benchmark and sends its JSON
   row back as a string; evaluation is deterministic (the cost model,
   not the wall clock), so rows are identical whichever worker computes
   them and the assembled document is byte-identical at every -j. *)

module Shard = Ppp_harness.Shard
module Gate = Ppp_harness.Gate

let row_of_name ~scale ~sampling ~tiered ~drift name =
  match R.prepare_all ~scale ~names:[ name ] () with
  | [ pb ] -> J.to_string (R.bench_json_one ~sampling ~tiered ~drift pb)
  | _ -> assert false

let sharded_rows ~jobs ~seed ~scale ~sampling ~tiered ~drift names =
  let results =
    Shard.map ~jobs ~seed
      ~f:(fun ~seed:_ name -> row_of_name ~scale ~sampling ~tiered ~drift name)
      names
  in
  let lost = ref [] in
  let rows =
    List.filter_map
      (function
        | Ok row -> Some (J.of_string row)
        | Error d ->
            lost := d :: !lost;
            None)
      results
  in
  (rows, List.rev !lost)

let read_json path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  J.of_string text

(* Exit 1 on regression, so CI can gate on it. A metric the baseline has
   but the current run lacks is reported as a warning — or, under
   --strict, counted as a failure like any regression. *)
let run_gate ~baseline_path ~strict ~pct current =
  let baseline = read_json baseline_path in
  let r = Gate.run ~strict ~baseline ~current ~pct () in
  List.iter
    (fun w -> Format.eprintf "gate: warning: %a@." Gate.pp_warning w)
    r.Gate.warnings;
  match r.Gate.failures with
  | [] ->
      Format.eprintf "gate: no regressions beyond %g%% against %s@." pct
        baseline_path
  | fails ->
      Format.eprintf "gate: %d regression(s) beyond %g%% against %s@."
        (List.length fails) pct baseline_path;
      Format.eprintf "%a" Gate.pp_failures fails;
      exit 1

(* The human-readable tables, printed before the document is written;
   no action means all of them. *)
let run_actions actions benches =
  let all_reports () =
    R.table1 fmt benches;
    R.table2 fmt benches;
    R.fig9_10_11 fmt benches;
    R.fig12 fmt benches;
    R.fig13 fmt benches;
    R.section8_1 fmt benches
  in
  if actions = [] then all_reports ()
  else
    List.iter
      (function
        | "table1" -> R.table1 fmt benches
        | "table2" -> R.table2 fmt benches
        | "fig9" | "fig10" | "fig11" -> R.fig9_10_11 fmt benches
        | "fig12" -> R.fig12 fmt benches
        | "fig13" -> R.fig13 fmt benches
        | "sec8.1" -> R.section8_1 fmt benches
        | "sampling" -> R.sampling_report fmt benches
        | "tiered" -> R.tiered_report fmt benches
        | "drift" -> R.drift_report fmt benches
        | "tables" -> all_reports ()
        | other -> Format.fprintf fmt "unknown action %s@." other)
      actions

(* {2 Argument handling} *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let names = ref None in
  let actions = ref [] in
  let json_path = ref (Some "BENCH_results.json") in
  let jobs = ref 1 in
  let seed = ref 0 in
  let smoke = ref false in
  let baseline = ref None in
  let gate_pct = ref 10.0 in
  let strict = ref false in
  let throughput_mode = ref false in
  let min_vm_ratio = ref None in
  let min_layout_wins = ref None in
  let no_cache = ref false in
  let sampling_sweep = ref false in
  let sweep_floor = ref None in
  let tiered = ref false in
  let min_tiered_wins = ref None in
  let drift_sweep = ref false in
  let drift_floor = ref None in
  let rec parse = function
    | [] -> ()
    | "--scale" :: n :: rest ->
        scale := int_of_string n;
        parse rest
    | "--bench" :: bs :: rest ->
        names := Some (String.split_on_char ',' bs);
        parse rest
    | "--json" :: f :: rest ->
        json_path := Some f;
        parse rest
    | "--no-json" :: rest ->
        json_path := None;
        parse rest
    | ("-j" | "--shards") :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--baseline" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "--gate" :: p :: rest ->
        gate_pct := float_of_string p;
        parse rest
    | "--strict" :: rest ->
        strict := true;
        parse rest
    | "--throughput" :: rest ->
        throughput_mode := true;
        parse rest
    | "--min-vm-ratio" :: r :: rest ->
        min_vm_ratio := Some (float_of_string r);
        parse rest
    | "--min-layout-wins" :: n :: rest ->
        min_layout_wins := Some (int_of_string n);
        parse rest
    | "--no-cache" :: rest ->
        no_cache := true;
        parse rest
    | "--sampling-sweep" :: rest ->
        sampling_sweep := true;
        parse rest
    | "--sweep-floor" :: spec :: rest ->
        (match String.split_on_char ',' spec with
        | [ ov; oh ] ->
            sweep_floor := Some (float_of_string ov, float_of_string oh)
        | _ ->
            Format.eprintf
              "--sweep-floor expects OVERLAP,OVERHEAD (e.g. 90,1.5)@.";
            exit 2);
        parse rest
    | "--tiered" :: rest ->
        tiered := true;
        parse rest
    | "--min-tiered-wins" :: n :: rest ->
        min_tiered_wins := Some (int_of_string n);
        parse rest
    | "--drift-sweep" :: rest ->
        drift_sweep := true;
        parse rest
    | "--drift-floor" :: s :: rest ->
        drift_floor := Some (float_of_string s);
        parse rest
    | a :: rest ->
        actions := a :: !actions;
        parse rest
  in
  parse args;
  let actions = List.rev !actions in
  let sharded = !jobs > 1 in
  (* -j and --smoke are machine-readable only: they print no tables. *)
  let machine_only = sharded || !smoke in
  if machine_only && actions <> [] then
    Format.eprintf "note: actions %s are ignored under -j/--smoke@."
      (String.concat ", " actions);
  if sharded && !throughput_mode then
    Format.eprintf
      "note: --throughput is ignored under -j (wall-clock numbers from \
       concurrent workers would be noise)@.";
  let rows, lost, tp_results =
    if sharded then
      let rows, lost =
        sharded_rows ~jobs:!jobs ~seed:!seed ~scale:!scale
          ~sampling:!sampling_sweep ~tiered:!tiered ~drift:!drift_sweep
          (Option.value !names ~default:(Ppp_workloads.Spec.names ()))
      in
      (rows, lost, [])
    else begin
      let benches =
        R.prepare_all ~scale:!scale ?names:!names ~cache:(not !no_cache) ()
      in
      if not machine_only then run_actions actions benches;
      let tp_results =
        if !throughput_mode then
          throughput ~min_time:(if machine_only then 0.08 else 0.25) benches
        else []
      in
      ( List.map
          (R.bench_json_one ~throughput:(throughput_json tp_results)
             ~sampling:!sampling_sweep ~tiered:!tiered ~drift:!drift_sweep)
          benches,
        [],
        tp_results )
    end
  in
  List.iter (fun d -> Format.eprintf "%a@." Ppp_resilience.Diagnostic.pp d) lost;
  (* Canonical (objects key-sorted), so BENCH_*.json is byte-stable for a
     given tree: same rows at every -j, no field-order drift. *)
  let doc = J.canonical (R.bench_json_wrap ~scale:!scale ~seed:!seed rows) in
  Option.iter
    (fun path ->
      Ppp_obs.Sink.write_json ~path doc;
      Format.eprintf "wrote %s@." path)
    !json_path;
  Option.iter
    (fun b -> run_gate ~baseline_path:b ~strict:!strict ~pct:!gate_pct doc)
    !baseline;
  Option.iter (fun floor -> check_min_ratio ~floor tp_results) !min_vm_ratio;
  Option.iter (fun n -> check_layout_wins ~min_wins:n doc) !min_layout_wins;
  Option.iter
    (fun (ov, oh) ->
      check_sampling_floor ~min_overlap:ov ~max_overhead_pct:oh doc)
    !sweep_floor;
  Option.iter (fun n -> check_tiered_wins ~min_wins:n doc) !min_tiered_wins;
  Option.iter (fun s -> check_drift_floor ~min_stability:s doc) !drift_floor;
  if lost <> [] then exit 2
