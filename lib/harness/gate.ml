module J = Ppp_obs.Jsonx

type failure = {
  bench : string;
  metric : string;
  baseline : float;
  current : float;
}

type warning = { bench : string; metric : string }
type result = { failures : failure list; warnings : warning list }

type direction = Ceiling | Floor
type step = Key of string | Rate
type row = { path : step list; direction : direction; label : string }

(* Every gated metric of a benchmark row. The first key of a path is the
   row's section. A [Rate] step pairs the elements of a [rates] array by
   [denom], so reordering or extending the sampling sweep never
   mis-pairs points; its rate ("1/4") replaces the label's [*]. *)
let table =
  let row direction label path = { path; direction; label } in
  let keys = List.map (fun k -> Key k) in
  let rate k = [ Key "sampling"; Key "rates"; Rate; Key k ] in
  [
    row Ceiling "pp.overhead" (keys [ "methods"; "pp"; "overhead" ]);
    row Ceiling "tpp.overhead" (keys [ "methods"; "tpp"; "overhead" ]);
    row Ceiling "ppp.overhead" (keys [ "methods"; "ppp"; "overhead" ]);
    row Floor "throughput.ratio" (keys [ "throughput"; "ratio" ]);
    row Floor "layout.methods.ppp.improvement"
      (keys [ "layout"; "methods"; "ppp"; "improvement" ]);
    row Floor "layout.closed_loop.improvement"
      (keys [ "layout"; "closed_loop"; "improvement" ]);
    row Ceiling "sampling.*.overhead" (rate "overhead");
    row Floor "sampling.*.overlap_vs_full" (rate "overlap_vs_full");
    row Floor "sampling.*.overlap_vs_truth" (rate "overlap_vs_truth");
    row Floor "tiered.instr_saving" (keys [ "tiered"; "instr_saving" ]);
    row Floor "tiered.layout.improvement"
      (keys [ "tiered"; "layout"; "improvement" ]);
    row Floor "drift.drift_stability" (keys [ "drift"; "drift_stability" ]);
  ]

let fnum = function
  | J.Float x -> Some x
  | J.Int i -> Some (float_of_int i)
  | _ -> None

let benches_of json =
  J.to_list (Option.value ~default:(J.Arr []) (J.member json "benchmarks"))
  |> List.filter_map (fun b ->
         match J.member b "name" with
         | Some (J.Str n) -> Some (n, b)
         | _ -> None)

let by_denom rates =
  J.to_list rates
  |> List.filter_map (fun r ->
         match J.member r "denom" with
         | Some (J.Int d) -> Some (d, r)
         | _ -> None)

(* Beyond [pct] percent of the baseline, with a 1e-9 absolute floor so
   zero baselines don't trip on rounding. *)
let regressed direction ~pct ~baseline ~current =
  let tol = Float.max 1e-9 (pct /. 100. *. Float.abs baseline) in
  match direction with
  | Ceiling -> current > baseline +. tol
  | Floor -> current < baseline -. tol

let run ?(strict = false) ~baseline ~current ~pct () =
  let fails = ref [] in
  let warns = ref [] in
  let fail bench metric b c =
    fails := { bench; metric; baseline = b; current = c } :: !fails
  in
  (* A metric the baseline has but the current run lacks compares
     nothing; that silence used to pass the gate. Report it — as a
     warning by default, as a failure under [strict]. *)
  let missing bench metric b =
    if strict then fail bench metric b Float.nan
    else warns := { bench; metric } :: !warns
  in
  let gate_bench name bj cj =
    (* A section or rate the current row lacks is reported once, however
       many rows sit under it. *)
    let reported = ref [] in
    let missing_once metric =
      if not (List.mem metric !reported) then begin
        reported := metric :: !reported;
        missing name metric Float.nan
      end
    in
    List.iter
      (fun row ->
        match row.path with
        | Key section :: path -> (
            let rec walk label b c = function
              | [] -> (
                  match (fnum b, Option.bind c fnum) with
                  | None, _ -> ()
                  | Some bv, None -> missing name label bv
                  | Some bv, Some cv ->
                      if regressed row.direction ~pct ~baseline:bv ~current:cv
                      then fail name label bv cv)
              | Key k :: rest ->
                  Option.iter
                    (fun b ->
                      walk label b (Option.bind c (fun c -> J.member c k)) rest)
                    (J.member b k)
              | Rate :: rest ->
                  let cur = Option.fold ~none:[] ~some:by_denom c in
                  List.iter
                    (fun (d, br) ->
                      let rate = Printf.sprintf "1/%d" d in
                      match List.assoc_opt d cur with
                      | None -> missing_once (section ^ "." ^ rate ^ ".rate")
                      | Some cr ->
                          let label =
                            String.concat rate (String.split_on_char '*' label)
                          in
                          walk label br (Some cr) rest)
                    (by_denom b)
            in
            match (J.member bj section, J.member cj section) with
            | None, _ -> ()
            | Some _, None -> missing_once section
            | Some b, Some c -> walk row.label b (Some c) path)
        | _ -> invalid_arg "Gate.table: a path starts with its section key")
      table
  in
  (match (J.member baseline "schema", J.member current "schema") with
  | Some (J.Str a), Some (J.Str b) when a = b -> ()
  | _ -> fail "(document)" "schema" Float.nan Float.nan);
  let cur_benches = benches_of current in
  List.iter
    (fun (name, bj) ->
      match List.assoc_opt name cur_benches with
      | None -> fail name "missing" 1.0 0.0
      | Some cj -> gate_bench name bj cj)
    (benches_of baseline);
  { failures = List.rev !fails; warnings = List.rev !warns }

(* Quality floors: absolute minimums a method's overlap must clear, read
   from a committed floors document against a [pppc report] summary. *)
let check_floors ~floors ~report =
  let fails = ref [] in
  let fail metric b c =
    fails := { bench = "(summary)"; metric; baseline = b; current = c } :: !fails
  in
  (match (J.member floors "schema", J.member report "schema") with
  | Some (J.Str "ppp-quality-floors/1"), Some (J.Str "ppp-quality/1") -> ()
  | _ -> fail "schema" Float.nan Float.nan);
  let floor_methods =
    match J.member floors "methods" with Some (J.Obj kvs) -> kvs | _ -> []
  in
  let summary_overlap m =
    Option.bind (J.member report "summary") (fun s ->
        Option.bind (J.member s "methods") (fun ms ->
            Option.bind (J.member ms m) (fun e ->
                Option.bind (J.member e "min_overlap") fnum)))
  in
  List.iter
    (fun (m, fj) ->
      match Option.bind (J.member fj "min_overlap") fnum with
      | None -> ()
      | Some floor -> (
          match summary_overlap m with
          | None -> fail (m ^ ".min_overlap") floor Float.nan
          | Some v -> if v < floor then fail (m ^ ".min_overlap") floor v))
    floor_methods;
  List.rev !fails

let pp_failure ppf (f : failure) =
  if f.metric = "schema" then
    Format.fprintf ppf "%s: schema mismatch between baseline and current"
      f.bench
  else if f.metric = "missing" then
    Format.fprintf ppf "%s: present in baseline but missing from current run"
      f.bench
  else if Float.is_nan f.current then
    Format.fprintf ppf
      "%s: %s present in baseline (%g) but missing from current run" f.bench
      f.metric f.baseline
  else
    Format.fprintf ppf "%s: %s regressed %g -> %g" f.bench f.metric f.baseline
      f.current

let pp_warning ppf (w : warning) =
  Format.fprintf ppf
    "%s: %s present in baseline but missing from current run (not gated; \
     --strict makes this a failure)"
    w.bench w.metric

let pp_failures ppf = function
  | [] -> ()
  | fs ->
      Format.pp_open_vbox ppf 0;
      List.iter (fun f -> Format.fprintf ppf "%a@," pp_failure f) fs;
      Format.pp_close_box ppf ()
