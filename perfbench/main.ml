(* The repo benchmark: profiled-execution throughput, the re-optimization
   loop and pppd serving, on one SPEC2000-shaped suite per workload.

   usage: main.exe --workload int|fp --seed N --seconds S --trace 0|1

   One process, one client, closed loop, single-threaded (the daemon
   section forks a one-worker pppd). Every run is checked against the
   reference engine or parsed back; mismatches and exceptions count as
   failed operations. The last stdout line is the JSON result; the lines
   before it are the human-readable report. See README.md. *)

module I = Ppp_interp.Interp
module Instr_rt = Ppp_interp.Instr_rt
module Lower = Ppp_interp.Lower
module Sampling = Ppp_interp.Sampling
module Tier = Ppp_interp.Tier
module Instrument = Ppp_core.Instrument
module Config = Ppp_core.Config
module H = Ppp_harness.Pipeline
module Report = Ppp_harness.Report
module Spec = Ppp_workloads.Spec
module Profile_io = Ppp_profile.Profile_io
module Raw = Profile_io.Raw
module Session = Ppp_session.Session
module Decision = Ppp_opt.Decision
module Trace = Ppp_obs.Trace
module Metrics = Ppp_obs.Metrics
module Ops = Ppp_daemon.Ops
module Client = Ppp_daemon.Client
module Server = Ppp_daemon.Server

(* {1 Workload constants} *)

let steady_scale = 4
let reopt_scale = 1
let serve_scale = 1

(* The documented sampling operating point (1/4), the drift loop's
   settings, and pppd's merge window. *)
let sample_denom = 4
let reopt_iterations = 3
let reopt_decay = 0.5
let merge_window = 3

(* A timed cell repeats a program until it has executed at least this
   many instructions, so the shortest programs are not timer noise. *)
let min_cell_instrs = 2_000_000
let setup_reps = 3
let out_dir = ".perfbench"

(* {1 Measurement helpers} *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Machine-speed normalization}

   The host's speed drifts by a third over tens of seconds (shared
   cores), in process CPU time as much as in wall time. Every end-to-end
   timing is therefore taken between two runs of a fixed calibration
   kernel -- a small register-machine interpreter, the same kind of work
   as the VM -- and rescaled to the kernel's nominal speed:
   [normalized = raw * measured_speed / nominal_speed]. The kernel lives
   in this file, so changes to the repo cannot move it. Per-layer
   timings are reported raw. *)

type kop =
  | K_add of int * int * int
  | K_addi of int * int * int
  | K_xor of int * int * int
  | K_load of int * int
  | K_store of int * int
  | K_br0 of int * int
  | K_jmp of int
  | K_halt

let kernel_code =
  [| K_addi (0, 0, 1); K_load (1, 0); K_add (2, 2, 1); K_xor (3, 2, 0); K_store (0, 3);
     K_addi (4, 4, -1); K_br0 (4, 8); K_jmp 0; K_halt |]

let kernel_mem = Array.make 4096 1
let kernel_trips = 40_000

(* Executes about [7 * kernel_trips] kernel ops; returns how many. *)
let kernel () =
  let r = Array.make 8 0 in
  r.(4) <- kernel_trips;
  let pc = ref 0 and ops = ref 0 and go = ref true in
  while !go do
    incr ops;
    match kernel_code.(!pc) with
    | K_add (d, a, b) -> r.(d) <- r.(a) + r.(b); incr pc
    | K_addi (d, a, i) -> r.(d) <- r.(a) + i; incr pc
    | K_xor (d, a, b) -> r.(d) <- r.(a) lxor r.(b); incr pc
    | K_load (d, a) -> r.(d) <- kernel_mem.(r.(a) land 4095); incr pc
    | K_store (a, s) -> kernel_mem.(r.(a) land 4095) <- r.(s); incr pc
    | K_br0 (c, t) -> if r.(c) = 0 then pc := t else incr pc
    | K_jmp t -> pc := t
    | K_halt -> go := false
  done;
  !ops

(* Kernel Mops/s this machine reaches on a typical run; the unit all
   normalized timings are expressed in. *)
let nominal_speed = 250.0
let speeds = ref []

let calibrate () =
  let ops, dt = timed kernel in
  let s = float_of_int ops /. dt /. 1e6 in
  speeds := s :: !speeds;
  s

(* [f ()] and its duration rescaled to the nominal machine speed. *)
let normalized f =
  let s0 = calibrate () in
  let r, dt = timed f in
  let s1 = calibrate () in
  (r, dt *. (s0 +. s1) /. 2.0 /. nominal_speed)

let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)
let geomean xs = if xs = [] then 0.0 else exp (mean (List.map log xs))

(* Table of sample lists. *)
let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let samples tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)
let total tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* A section's samples mix request classes (a program, or a program and
   a request kind) whose times differ several fold, so a percentile
   often falls in the gap between two classes and jumps with their
   noisiest members. Each sample is replaced by its class's median before
   taking percentiles: the mix is kept, the within-class jitter is not.
   A class's occasional store hits fall out the same way; the traced run
   reports the hit ratio. *)
let class_smoothed keyed =
  let by = Hashtbl.create 16 in
  List.iter (fun (k, v) -> push by k v) keyed;
  List.map (fun (k, _) -> median (samples by k)) keyed
let ratio a b = if b = 0.0 then 0.0 else a /. b

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a


let counter name = Metrics.value (Metrics.counter name)

(* {1 The failure ledger behind [attempted] / [failed]} *)

let attempted = ref 0
let failed = ref 0

let record ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

(* Run [f] as one checked operation: [check] judges the result, and an
   exception is a failure too. *)
let checked ~what ~check f =
  match f () with
  | v ->
      let ok = check v in
      record ~what ok;
      if ok then Some v else None
  | exception e ->
      record ~what:(what ^ ": " ^ Printexc.to_string e) false;
      None

(* The outcome fields a profiling method must leave untouched. *)
let same_run (expected : I.outcome) (o : I.outcome) =
  o.I.return_value = expected.I.return_value
  && o.I.output = expected.I.output
  && o.I.base_cost = expected.I.base_cost
  && o.I.termination = expected.I.termination

let quiet = { I.default_config with collect_edges = false; trace_paths = false }

(* {1 Steady state: the optimized suite under each profiling method} *)

type meth = Plain | Pp | Ppp | Sampled | Tiered | Tpp | Empty

let meth_name = function
  | Plain -> "plain"
  | Pp -> "pp"
  | Ppp -> "ppp"
  | Sampled -> "sampled"
  | Tiered -> "tiered"
  | Tpp -> "tpp"
  | Empty -> "empty"

(* End-to-end methods; TPP and the empty instrumentation only feed
   per-layer numbers. *)
let timed_methods = [ Plain; Pp; Ppp; Sampled; Tiered ]
let layer_methods = timed_methods @ [ Tpp; Empty ]

type prog = {
  name : string;
  prep : H.prepared;
  reps : int;
  pp : Instrument.t;
  tpp : Instrument.t;
  ppp : Instrument.t;
  accuracy : float;  (** PPP, Figure 9, 0-1 *)
  mutable expected : I.outcome option;  (** reference engine, filled after set-up *)
}

(* The timed set-up of one program: build, prepare (profile, inline,
   re-profile, unroll, base run), instrument with every method and score
   PPP's accuracy. *)
let setup_prog (b : Spec.bench) =
  let name = b.Spec.bench_name in
  let prep = H.prepare ~name (b.Spec.build ~scale:steady_scale) in
  let p = prep.H.optimized in
  let ep = Option.get prep.H.base_outcome.I.edge_profile in
  let inst = Instrument.instrument p ep in
  let ppp = inst Config.ppp in
  let instrs = max 1 prep.H.base_outcome.I.dyn_instrs in
  {
    name;
    prep;
    reps = max 1 ((min_cell_instrs + instrs - 1) / instrs);
    pp = inst Config.pp;
    tpp = inst Config.tpp;
    ppp;
    accuracy = (H.evaluate prep Config.ppp).H.accuracy;
    expected = None;
  }

let config_of ~seed prog = function
  | Plain -> quiet
  | Pp -> { quiet with instrumentation = Some prog.pp.Instrument.rt }
  | Tpp -> { quiet with instrumentation = Some prog.tpp.Instrument.rt }
  | Ppp -> { quiet with instrumentation = Some prog.ppp.Instrument.rt }
  | Empty -> { quiet with instrumentation = Some (Instr_rt.no_instrumentation ()) }
  | Sampled ->
      {
        quiet with
        instrumentation = Some prog.ppp.Instrument.rt;
        sampling =
          Some (Sampling.spec ~seed:(Hashtbl.hash (seed, prog.name)) ~denom:sample_denom ());
      }
  | Tiered ->
      {
        quiet with
        instrumentation = Some prog.ppp.Instrument.rt;
        tier =
          Some
            (Tier.spec ~threshold:Report.tier_threshold
               ~plan:(H.tier_planner prog.prep prog.ppp) ());
      }

(* Counters the traced pass reads per method ([Metrics] deltas). *)
let rt_counters =
  [ "rt.hash.probes"; "rt.lost_paths"; "rt.sample.on_ticks"; "rt.sample.off_ticks" ]

type steady = {
  methods : meth list;
  rounds : (meth, float list) Hashtbl.t;  (** per round: geomean Minstr/s *)
  run_s : (string * meth, float list) Hashtbl.t;  (** per cell: seconds per run *)
  cost : (string * meth, int * int) Hashtbl.t;  (** instr_cost, base_cost *)
  swaps : (string, int) Hashtbl.t;  (** tier swaps per tiered run *)
  minor_words : (meth, float) Hashtbl.t;
  instrs : (meth, float) Hashtbl.t;
  rt : (meth * string, float) Hashtbl.t;  (** [rt_counters] deltas, traced pass only *)
}

let add tbl k v = Hashtbl.replace tbl k (v +. total tbl k)

(* Run rounds until [budget] seconds have passed (at least [min_rounds]).
   Each round visits the programs in a seeded order, and each program
   runs the methods in a fresh seeded order, so no method always runs
   right after another run of the same program. *)
let steady_section ~rng ~seed ~budget ~min_rounds ~methods progs =
  let s =
    {
      methods;
      rounds = Hashtbl.create 8;
      run_s = Hashtbl.create 64;
      cost = Hashtbl.create 64;
      swaps = Hashtbl.create 16;
      minor_words = Hashtbl.create 8;
      instrs = Hashtbl.create 8;
      rt = Hashtbl.create 32;
    }
  in
  let traced = Trace.enabled () in
  let t_end = now () +. budget in
  let round = ref 0 in
  while !round < min_rounds || now () < t_end do
    incr round;
    let rates = Hashtbl.create 8 in
    List.iter
      (fun prog ->
        let expected = Option.get prog.expected in
        let p = prog.prep.H.optimized in
        List.iter
          (fun m ->
            let config = config_of ~seed prog m in
            let before = if traced then List.map counter rt_counters else [] in
            let words0 = Gc.minor_words () in
            let spent = ref 0.0 and ok_runs = ref 0 in
            let s0 = calibrate () in
            for _ = 1 to prog.reps do
              let what = Printf.sprintf "%s/%s" prog.name (meth_name m) in
              let run () =
                Trace.with_span ~args:[ ("program", prog.name); ("method", meth_name m) ]
                  "steady.run" (fun () -> timed (fun () -> I.run ~config p))
              in
              match checked ~what ~check:(fun (o, _) -> same_run expected o) run with
              | Some (o, dt) ->
                  spent := !spent +. dt;
                  incr ok_runs;
                  Hashtbl.replace s.cost (prog.name, m) (o.I.instr_cost, o.I.base_cost);
                  if m = Tiered then
                    Hashtbl.replace s.swaps prog.name (List.length o.I.tier_decisions)
              | None -> ()
            done;
            let speed = (s0 +. calibrate ()) /. 2.0 /. nominal_speed in
            add s.minor_words m (Gc.minor_words () -. words0);
            add s.instrs m (float_of_int (prog.reps * expected.I.dyn_instrs));
            if traced then
              List.iter2 (fun c b -> add s.rt (m, c) (float_of_int (counter c - b)))
                rt_counters before;
            if !ok_runs > 0 then begin
              let per_run = !spent *. speed /. float_of_int !ok_runs in
              push s.run_s (prog.name, m) per_run;
              push rates m (float_of_int expected.I.dyn_instrs /. per_run /. 1e6)
            end)
          (shuffle rng methods))
      (shuffle rng progs);
    List.iter (fun m -> push s.rounds m (geomean (samples rates m))) methods
  done;
  s

let minstr_s s m = median (samples s.rounds m)
let cell_s s name m = median (samples s.run_s (name, m))

(* Suite-level wall overhead of method [m] over plain, and its
   cost-model overhead (instr_cost / base_cost), both time- or
   cost-weighted over the suite. *)
let wall_overhead s progs m =
  let tm = sum (List.map (fun p -> cell_s s p.name m) progs) in
  let tp = sum (List.map (fun p -> cell_s s p.name Plain) progs) in
  ratio (tm -. tp) tp

let cost_overhead s progs m =
  let ic, bc =
    List.fold_left
      (fun (ic, bc) p ->
        match Hashtbl.find_opt s.cost (p.name, m) with
        | Some (i, b) -> (ic + i, bc + b)
        | None -> (ic, bc))
      (0, 0) progs
  in
  ratio (float_of_int ic) (float_of_int bc)

let prog_cost_overhead s p m =
  match Hashtbl.find_opt s.cost (p.name, m) with
  | Some (i, b) -> ratio (float_of_int i) (float_of_int b)
  | None -> 0.0

(* The paper's Figure 12 on this engine: per program, each method's wall
   slowdown over plain next to its cost-model overhead, and the ratio of
   wall overhead to cost overhead. *)
let print_fig12 s progs =
  let ms = List.filter (fun m -> List.mem m s.methods) [ Pp; Tpp; Ppp ] in
  Printf.printf "# per-program wall slowdown vs cost-model overhead (wall%% / cost%% = ratio)\n";
  Printf.printf "# %-9s %10s" "program" "plain ms";
  List.iter (fun m -> Printf.printf "  %-30s" (meth_name m)) ms;
  print_newline ();
  List.iter
    (fun p ->
      let tp = cell_s s p.name Plain in
      Printf.printf "# %-9s %10.3f" p.name (1000.0 *. tp);
      List.iter
        (fun m ->
          let slow = ratio (cell_s s p.name m) tp in
          let cost = prog_cost_overhead s p m in
          let wall = slow -. 1.0 in
          Printf.printf "  x%5.3f %6.1f%% /%6.1f%% = %6s" slow (100.0 *. wall) (100.0 *. cost)
            (if cost > 0.0 then Printf.sprintf "%.1f" (wall /. cost) else "-"))
        ms;
      print_newline ())
    progs

(* {1 Re-optimization loop: one cold [Pipeline.reoptimize] per program} *)

type rprog = { rname : string; build : unit -> Ppp_ir.Ir.program; rexpected : I.outcome }

let reopt_flags = { H.default_flags with superblocks = true; layout = true }

type reopt = {
  call_ms : (string * float) list;  (** program, normalized ms *)
  stability : float list;  (** generation >= 2 decision stability, 0-1 *)
  session_hits : int;
  session_misses : int;
  lower_hits : int;  (** [session.lower.*] deltas, traced pass only *)
  lower_misses : int;
  io : (string, float list) Hashtbl.t;  (** Profile_io probes, ms / KiB *)
  inst : (string, float list) Hashtbl.t;  (** Instrument probes *)
}

(* Save, reload and decay-merge the loop's dumps from the benchmark's
   side, and instrument the final generation cold, timing each call. *)
let probe_generations r (gens : H.generation list) =
  let texts =
    List.map
      (fun (g : H.generation) ->
        let p = g.H.prep.H.optimized and o = g.H.prep.H.base_outcome in
        let text, dt =
          timed (fun () ->
              Format.asprintf "%t" (fun ppf ->
                  Profile_io.save ?edges:o.I.edge_profile ?paths:o.I.path_profile ppf p))
        in
        push r.io "save_ms" (1000.0 *. dt);
        push r.io "dump_kb" (float_of_int (String.length text) /. 1024.0);
        let what = "profile_io.load " ^ g.H.prep.H.bench_name in
        let check = function
          | Ok (l : Profile_io.loaded), _ -> l.Profile_io.diagnostics = []
          | Error _, _ -> false
        in
        (match checked ~what ~check (fun () -> timed (fun () -> Profile_io.load p text)) with
        | Some (_, dt) -> push r.io "load_ms" (1000.0 *. dt)
        | None -> ());
        text)
      gens
  in
  let raws = List.map Raw.parse texts in
  let merged, dt = timed (fun () -> Raw.merge_decayed ~decay:reopt_decay raws) in
  record ~what:"profile_io.merge" (Raw.mass merged > 0);
  push r.io "merge_ms" (1000.0 *. dt);
  let last = (List.nth gens (List.length gens - 1)).H.prep in
  let p = last.H.optimized in
  let ep = Option.get last.H.base_outcome.I.edge_profile in
  let ppp, t_ppp = timed (fun () -> Instrument.instrument p ep Config.ppp) in
  let _, t_pp = timed (fun () -> Instrument.instrument p ep Config.pp) in
  push r.inst "ppp_ms" (1000.0 *. t_ppp);
  push r.inst "pp_ms" (1000.0 *. t_pp);
  push r.inst "static_actions" (float_of_int (Instrument.static_instr_count ppp));
  let routines =
    Hashtbl.fold
      (fun _ (rp : Instrument.routine_plan) n ->
        match rp.Instrument.decision with Instrument.Instrumented _ -> n + 1 | _ -> n)
      ppp.Instrument.plans 0
  in
  push r.inst "routines_instrumented" (float_of_int routines)

let reopt_section ~rng ~seed ~budget rprogs =
  let traced = Trace.enabled () in
  let r =
    {
      call_ms = [];
      stability = [];
      session_hits = 0;
      session_misses = 0;
      lower_hits = 0;
      lower_misses = 0;
      io = Hashtbl.create 8;
      inst = Hashtbl.create 8;
    }
  in
  let r = ref r in
  let t_end = now () +. budget in
  let passes = ref 0 in
  while !passes < 1 || now () < t_end do
    incr passes;
    List.iter
      (fun rp ->
        let program = rp.build () in
        let session = Session.create ~name:rp.rname () in
        let sampling =
          Sampling.spec ~seed:(Hashtbl.hash (seed, rp.rname)) ~denom:sample_denom ()
        in
        let lh0 = counter "session.lower.hit" and lm0 = counter "session.lower.miss" in
        let call () =
          normalized (fun () ->
              Trace.with_span ~args:[ ("program", rp.rname) ] "reoptimize" (fun () ->
                  H.reoptimize ~session ~flags:reopt_flags ~iterations:reopt_iterations
                    ~sampling ~decay:reopt_decay ~name:rp.rname program))
        in
        let check (gens, _) =
          List.length gens = reopt_iterations
          && List.for_all
               (fun (g : H.generation) ->
                 let o = g.H.prep.H.base_outcome in
                 o.I.return_value = rp.rexpected.I.return_value
                 && o.I.output = rp.rexpected.I.output
                 && o.I.termination = rp.rexpected.I.termination)
               gens
        in
        match checked ~what:("reoptimize " ^ rp.rname) ~check call with
        | None -> ()
        | Some (gens, dt) ->
            let st = Session.stats session in
            let stab =
              List.filter_map
                (fun (g : H.generation) ->
                  if g.H.gen >= 2 then Some (Decision.stability g.H.decision_diff) else None)
                gens
            in
            r :=
              {
                !r with
                call_ms = (rp.rname, 1000.0 *. dt) :: !r.call_ms;
                stability = stab @ !r.stability;
                session_hits = !r.session_hits + st.Session.hits;
                session_misses = !r.session_misses + st.Session.misses;
                lower_hits = !r.lower_hits + counter "session.lower.hit" - lh0;
                lower_misses = !r.lower_misses + counter "session.lower.miss" - lm0;
              };
            if traced then probe_generations !r gens)
      (shuffle rng rprogs)
  done;
  !r

(* {1 pppd serving: a forked one-worker daemon and one client} *)

type serve = {
  reqs : ((string * string) * float) list;  (** (program, kind), normalized client ms *)
  handle_ms : float list;  (** the same requests through [Ops.handle] *)
  transport_ms : float list;  (** client latency - handle, store misses only *)
  hits : int;
  served : int;
  busy_s : float;  (** normalized time the client spent waiting on replies *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let valid_profile body =
  let raw = Raw.parse body in
  Raw.diagnostics raw = [] && Raw.mass raw > 0

let valid_program body =
  match Ppp_ir.Parse.program_of_string body with
  | _ -> true
  | exception _ -> false

type daemon = { pid : int; dir : string; socket : string; ready : bool; mutable live : bool }

let daemons = ref []

(* Fork a one-worker pppd serving from [dir]. Forked before the set-up,
   while this process's heap is still small: the server and its worker
   inherit that heap, and a large one would bill their major GC and
   copy-on-write faults to every request. *)
let start_daemon dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "sock" in
  let config =
    {
      (Server.default_config ~socket_path:socket ~store_dir:(Filename.concat dir "store")) with
      workers = 1;
      quiet = true;
    }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try Server.run config with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      let deadline = now () +. 30.0 in
      let rec wait_ready () =
        match Client.call ~socket ~deadline_ms:1000 Ops.Ping with
        | Ok _ -> true
        | Error _ when now () < deadline ->
            Unix.sleepf 0.02;
            wait_ready ()
        | Error _ -> false
      in
      let d = { pid; dir; socket; ready = wait_ready (); live = true } in
      daemons := d :: !daemons;
      d

(* Shutdown request, then SIGTERM (the server stops its worker), then
   SIGKILL; always reaped. *)
let stop_daemon d =
  if d.live then begin
    d.live <- false;
    ignore (Client.call ~socket:d.socket ~deadline_ms:5_000 Ops.Shutdown);
    let rec reap ~deadline ~signals =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.02;
          reap ~deadline ~signals
      | 0, _ -> (
          match signals with
          | s :: rest ->
              (try Unix.kill d.pid s with Unix.Unix_error _ -> ());
              reap ~deadline:(now () +. 5.0) ~signals:rest
          | [] -> ignore (Unix.waitpid [] d.pid))
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ~deadline:(now () +. 10.0) ~signals:[ Sys.sigterm; Sys.sigkill ];
    rm_rf d.dir
  end

let () = at_exit (fun () -> List.iter stop_daemon !daemons)

(* Cycles of 2 x Collect (sampled 1/4; every fourth collect of a program
   repeats one of its earlier seeds, so the store serves it), 1 x Merge
   of the program's last [merge_window] dumps and 1 x Opt of its .pir text under that
   merged profile -- the collect -> merge -> optimize loop of a resident
   dynamic optimizer, one program per cycle. *)
let serve_section ~rng ~seed ~budget ~daemon names =
  let traced = Trace.enabled () in
  let reqs = ref [] in
  let handle_ms = ref [] and transport_ms = ref [] in
  let hits = ref 0 and served = ref 0 in
  let socket = daemon.socket and ready = daemon.ready in
  record ~what:"pppd start" ready;
  let texts =
    List.map (fun n -> (n, Ppp_ir.Pp_ir.to_string ((Spec.find n).Spec.build ~scale:serve_scale))) names
  in
  let dumps = Hashtbl.create 16 and seeds = Hashtbl.create 16 in
  let collects = Hashtbl.create 16 in
  let next_seed = ref 0 in
  let busy_s = ref 0.0 in
  let cycle_lat = ref [] in
  let request kind req valid =
    let what = Printf.sprintf "pppd %s" kind in
    let call () =
      Trace.with_span ~args:[ ("kind", kind) ] "pppd.request" (fun () ->
          timed (fun () -> Client.call ~socket ~deadline_ms:60_000 req))
    in
    let check = function
      | Ok (body, _), _ -> valid body
      | Error f, _ ->
          Printf.eprintf "perfbench: pppd %s: %s\n%!" kind
            (Format.asprintf "%a" Ppp_resilience.Diagnostic.pp (Client.failure_diagnostic f));
          false
    in
    match checked ~what ~check call with
    | Some (Ok (body, meta), dt) ->
        let hit = List.mem_assoc "served_from_store" meta in
        incr served;
        if hit then incr hits;
        cycle_lat := (kind, dt) :: !cycle_lat;
        if traced then begin
          let _, ht =
            timed (fun () -> Trace.with_span "ops.handle" (fun () -> Ops.handle ~chaos:false req))
          in
          handle_ms := (1000.0 *. ht) :: !handle_ms;
          if not hit then transport_ms := (1000.0 *. (dt -. ht)) :: !transport_ms
        end;
        Some body
    | _ -> None
  in
  let collect name =
    let used = samples seeds name in
    let n = Option.value ~default:0 (Hashtbl.find_opt collects name) in
    Hashtbl.replace collects name (n + 1);
    let sample_seed =
      if n mod 4 = 3 then
        List.nth used (Random.State.int rng (List.length used))
      else begin
        incr next_seed;
        let s = (seed * 1_000_003) + !next_seed in
        push seeds name s;
        s
      end
    in
    let req =
      Ops.Collect
        { bench = name; scale = serve_scale; sample_rate = sample_denom;
          burst = Sampling.default_burst; sample_seed }
    in
    Option.iter (push dumps name) (request "collect" req valid_profile)
  in
  let cycle name =
    let s0 = calibrate () in
    cycle_lat := [];
    collect name;
    collect name;
    let window = List.filteri (fun i _ -> i < merge_window) (samples dumps name) in
    let merged =
      request "merge" (Ops.Merge { dumps = List.rev window; decay = reopt_decay }) valid_profile
    in
    let program = List.assoc name texts in
    ignore
      (request "opt"
         (Ops.Opt { name; program; profile = merged; iterate = 1; plans = None })
         valid_program);
    let speed = (s0 +. calibrate ()) /. 2.0 /. nominal_speed in
    List.iter
      (fun (kind, dt) ->
        reqs := ((name, kind), 1000.0 *. dt *. speed) :: !reqs;
        busy_s := !busy_s +. (dt *. speed))
      !cycle_lat
  in
  let t_end = now () +. budget in
  let passes = ref 0 in
  if ready then
    while !passes < 1 || now () < t_end do
      incr passes;
      List.iter cycle (shuffle rng names)
    done;
  stop_daemon daemon;
  { reqs = !reqs; handle_ms = !handle_ms; transport_ms = !transport_ms;
    hits = !hits; served = !served; busy_s = !busy_s }

(* {1 Per-layer probes outside the sections} *)

(* Cold and warm [Lower.program] over the suite's optimized programs. *)
let lower_probe progs =
  let lower ?cache p =
    Lower.program ?cache ~config:quiet
      ~instr_tables:(Instr_rt.init_state (Instr_rt.no_instrumentation ()))
      p
  in
  let suite ?cache () =
    List.iter (fun pr -> ignore (lower ?cache pr.prep.H.optimized)) progs
  in
  let cache = Lower.create_cache () in
  suite ~cache ();
  let cold = ref [] and warm = ref [] and words = ref [] in
  for _ = 1 to 5 do
    let w0 = Gc.minor_words () in
    let (), dt = timed (fun () -> Trace.with_span "lower.cold" (fun () -> suite ())) in
    words := (Gc.minor_words () -. w0) :: !words;
    cold := (1000.0 *. dt) :: !cold;
    let (), dt = timed (fun () -> Trace.with_span "lower.warm" (fun () -> suite ~cache ())) in
    warm := (1000.0 *. dt) :: !warm
  done;
  (median !cold, median !warm, median !words /. 1000.0)

(* Self time per span name: duration minus the part covered by child
   spans (nesting is containment). *)
let self_times events =
  let spans =
    List.filter (fun (e : Trace.event) -> e.Trace.ph = `Complete) events
    |> List.sort (fun (a : Trace.event) (b : Trace.event) ->
           compare (a.Trace.ts_us, -.a.Trace.dur_us) (b.Trace.ts_us, -.b.Trace.dur_us))
  in
  let self = Hashtbl.create 32 in
  let stack = ref [] in
  let end_of (e : Trace.event) = e.Trace.ts_us +. e.Trace.dur_us in
  List.iter
    (fun (e : Trace.event) ->
      let rec pop = function
        | p :: rest when end_of p <= e.Trace.ts_us -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | parent :: _ -> add self parent.Trace.name (-.e.Trace.dur_us)
      | [] -> ());
      add self e.Trace.name e.Trace.dur_us;
      stack := e :: !stack)
    spans;
  self

(* {1 Output} *)

let print_metric ~name ~unit ~value ~note =
  Printf.printf "# %-36s %14.4f %-10s %s\n" name value unit note

let result_line metrics =
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let body =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
          (if Float.is_finite v then v else 0.0) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (finite && !failed = 0) (max 1 !attempted) !failed (String.concat ", " body)

let n_note n what = Printf.sprintf "(n=%d %s)" n what

let iqr_note xs =
  Printf.sprintf "(n=%d, quartiles %.4g..%.4g)" (List.length xs) (quantile xs 0.25)
    (quantile xs 0.75)

(* {1 Main} *)

let usage = "main.exe --workload int|fp --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "int | fp");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match !workload with
    | "int" -> Spec.Int
    | "fp" -> Spec.Fp
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n%s\n" w usage;
        exit 2
  in
  let seed = !seed and seconds = Float.max 0.1 !seconds and traced_run = !trace = 1 in
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let new_daemon i =
    start_daemon (Filename.concat out_dir (Printf.sprintf "pppd-%d-%d" (Unix.getpid ()) i))
  in
  let daemon = new_daemon 0 in
  let traced_daemon = if traced_run then Some (new_daemon 1) else None in
  let rng = Random.State.make [| seed; Hashtbl.hash !workload |] in
  let benches = List.filter (fun (b : Spec.bench) -> b.Spec.kind = kind) Spec.all in
  let names = List.map (fun (b : Spec.bench) -> b.Spec.bench_name) benches in
  (* Set-up, repeated; its median is [setup_s]. *)
  let setups =
    List.init setup_reps (fun _ ->
        let timed_progs = List.map (fun b -> normalized (fun () -> setup_prog b)) benches in
        (List.map fst timed_progs, sum (List.map snd timed_progs)))
  in
  let progs = fst (List.hd setups) in
  let setup_times = List.map snd setups in
  (* Drop the repeated set-ups' garbage so it does not bill the timed
     sections for major GC work. *)
  Gc.compact ();
  (* Reference-engine outcomes every timed run is checked against. *)
  List.iter
    (fun pr ->
      pr.expected <- Some (I.run ~engine:I.Reference ~config:quiet pr.prep.H.optimized))
    progs;
  let rprogs =
    List.map
      (fun (b : Spec.bench) ->
        let build () = b.Spec.build ~scale:reopt_scale in
        { rname = b.Spec.bench_name; build;
          rexpected = I.run ~engine:I.Reference ~config:quiet (build ()) })
      benches
  in
  let run_sections ~share ~daemon =
    let steady =
      steady_section ~rng ~seed ~budget:(0.4 *. share *. seconds) ~min_rounds:3
        ~methods:(if traced_run then layer_methods else timed_methods)
        progs
    in
    let reopt = reopt_section ~rng ~seed ~budget:(0.25 *. share *. seconds) rprogs in
    let serve =
      serve_section ~rng ~seed ~budget:(0.35 *. share *. seconds) ~daemon names
    in
    (steady, reopt, serve)
  in
  let e2e (steady, reopt, serve) =
    let all = class_smoothed serve.reqs in
    let calls = class_smoothed reopt.call_ms in
    List.map
      (fun m ->
        ( meth_name m ^ "_minstr_s", "Minstr/s", minstr_s steady m,
          iqr_note (samples steady.rounds m) ))
      timed_methods
    @ [
        ( "ppp_cost_overhead_pct", "%",
          mean (List.map (fun p -> 100.0 *. prog_cost_overhead steady p Ppp) progs),
          n_note (List.length progs) "programs" );
        ( "ppp_accuracy_pct", "%", mean (List.map (fun p -> 100.0 *. p.accuracy) progs),
          n_note (List.length progs) "programs" );
        ("reopt_ms.p50", "ms", median calls, iqr_note calls);
        ("reopt_ms.p90", "ms", quantile calls 0.9, iqr_note calls);
        ( "reopt_stability_pct", "%", 100.0 *. mean reopt.stability,
          n_note (List.length reopt.stability) "generations" );
        ( "daemon_req_per_s", "1/s", ratio (float_of_int serve.served) serve.busy_s,
          n_note serve.served "requests" );
        ("daemon_req_ms.p50", "ms", median all, iqr_note all);
        ("daemon_req_ms.p90", "ms", quantile all 0.9, iqr_note all);
      ]
  in
  let value name metrics =
    Option.get (List.find_map (fun (n, _, v, _) -> if n = name then Some v else None) metrics)
  in
  let top_heap_mb () =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let report metrics =
    print_metric ~name:"machine speed (kernel)" ~unit:"Mops/s" ~value:(median !speeds)
      ~note:(Printf.sprintf "%s; nominal %.0f" (iqr_note !speeds) nominal_speed);
    List.iter (fun (name, unit, value, note) -> print_metric ~name ~unit ~value ~note) metrics;
    print_metric ~name:"error_rate" ~unit:"ratio"
      ~value:(ratio (float_of_int !failed) (float_of_int (max 1 !attempted)))
      ~note:(n_note !attempted "operations");
    result_line (List.map (fun (n, u, v, _) -> (n, u, v)) metrics)
  in
  if not traced_run then begin
    let sections = run_sections ~share:1.0 ~daemon in
    let steady, _, _ = sections in
    print_fig12 steady progs;
    report
      ((("setup_s", "s", median setup_times, iqr_note setup_times) :: e2e sections)
      @ [ ("top_heap_mb", "MB", top_heap_mb (), "") ])
  end
  else begin
    (* Half the budget untraced, half traced: the difference is the
       tracing overhead, and wall-clock ratios come from the untraced
       half. *)
    let untraced = run_sections ~share:0.5 ~daemon in
    let u_steady, _, u_serve = untraced in
    Metrics.reset ();
    Metrics.set_enabled true;
    Trace.start ();
    Trace.label_process "perfbench";
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let lower_cold, lower_warm, lower_kw = lower_probe progs in
    let traced = run_sections ~share:0.5 ~daemon:(Option.get traced_daemon) in
    let t_steady, t_reopt, t_serve = traced in
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
    Trace.stop ();
    Metrics.set_enabled false;
    let trace_file =
      Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload seed)
    in
    Trace.write_file trace_file;
    print_fig12 u_steady progs;
    let self = self_times (Trace.events ()) in
    Printf.printf "# span self time (traced half, ms; written to %s)\n" trace_file;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.iter (fun (k, v) -> Printf.printf "#   %-22s %12.3f\n" k (v /. 1000.0));
    let u = e2e untraced and t = e2e traced in
    List.iter
      (fun (n, unit, uv, _) ->
        Printf.printf "# %-36s untraced %12.4f traced %12.4f %s\n" n uv (value n t) unit)
      u;
    let calls = float_of_int (List.length t_reopt.call_ms) in
    let self_ms names = sum (List.map (total self) names) /. 1000.0 /. calls in
    let mw m = ratio (total u_steady.minor_words m) (total u_steady.instrs m) in
    let rt m c = total t_steady.rt (m, c) in
    let probes_per_kinstr m =
      ratio (rt m "rt.hash.probes") (total t_steady.instrs m /. 1000.0)
    in
    let lost_per_round m =
      ratio (rt m "rt.lost_paths") (float_of_int (List.length (samples t_steady.rounds m)))
    in
    let hit_ratio h m = ratio (float_of_int h) (float_of_int (h + m)) in
    let wall_over_cost m = ratio (wall_overhead u_steady progs m) (cost_overhead u_steady progs m) in
    let on = rt Sampled "rt.sample.on_ticks" and off = rt Sampled "rt.sample.off_ticks" in
    let u_rate = minstr_s u_steady in
    let io k = median (samples t_reopt.io k) and inst k = median (samples t_reopt.inst k) in
    let inst_mean k = mean (samples t_reopt.inst k) in
    let lat k q =
      quantile (class_smoothed (List.filter (fun ((_, kind), _) -> kind = k) u_serve.reqs)) q
    in
    let worse_pct ~higher name =
      let a = value name u and b = value name t in
      100.0 *. ratio (if higher then a -. b else b -. a) a
    in
    let layer =
      [
        ("lower.cold_ms", "ms", lower_cold);
        ("lower.warm_ms", "ms", lower_warm);
        ("lower.minor_kw", "kwords", lower_kw);
        ("vm.empty_minstr_s", "Minstr/s", u_rate Empty);
        ("vm.tax_ratio", "ratio", ratio (u_rate Plain) (u_rate Empty));
        ("vm.tpp_minstr_s", "Minstr/s", u_rate Tpp);
        ("gc.minor_words_per_instr.plain", "words/instr", mw Plain);
        ("gc.minor_words_per_instr.ppp", "words/instr", mw Ppp);
        ("instr_rt.actions_ratio", "ratio", ratio (u_rate Empty) (u_rate Ppp));
        ("instr_rt.wall_over_cost.pp", "ratio", wall_over_cost Pp);
        ("instr_rt.wall_over_cost.ppp", "ratio", wall_over_cost Ppp);
        ("instr_rt.hash_probes_per_kinstr.pp", "1/kinstr", probes_per_kinstr Pp);
        ("instr_rt.hash_probes_per_kinstr.ppp", "1/kinstr", probes_per_kinstr Ppp);
        ("instr_rt.lost_paths.pp", "count/round", lost_per_round Pp);
        ("instr_rt.lost_paths.ppp", "count/round", lost_per_round Ppp);
        ("sampling.on_tick_share", "ratio", ratio on (on +. off));
        ("sampling.speedup_over_ppp", "ratio", ratio (u_rate Sampled) (u_rate Ppp));
        ("tier.swaps", "count", float_of_int (Hashtbl.fold (fun _ n acc -> n + acc) u_steady.swaps 0));
        ( "tier.instr_cost_saved_pct", "%",
          100.0
          *. (1.0 -. ratio (cost_overhead u_steady progs Tiered) (cost_overhead u_steady progs Ppp)) );
        ("tier.speedup_over_ppp", "ratio", ratio (u_rate Tiered) (u_rate Ppp));
        ("instrument.ppp_ms", "ms", inst "ppp_ms");
        ("instrument.pp_ms", "ms", inst "pp_ms");
        ("instrument.static_actions.ppp", "count", inst_mean "static_actions");
        ("instrument.routines_instrumented.ppp", "count", inst_mean "routines_instrumented");
        ( "pipeline.profile_run_ms", "ms",
          self_ms [ "edge-profile"; "re-profile"; "base-run"; "sb-profile" ] );
        ("pipeline.opt_ms", "ms", self_ms [ "inline"; "unroll"; "superblock" ]);
        ("pipeline.reopt_self_ms", "ms", self_ms [ "reoptimize" ]);
        ("profile_io.save_ms", "ms", io "save_ms");
        ("profile_io.load_ms", "ms", io "load_ms");
        ("profile_io.merge_ms", "ms", io "merge_ms");
        ("profile_io.dump_kb", "KiB", io "dump_kb");
        ("session.hit_ratio", "ratio", hit_ratio t_reopt.session_hits t_reopt.session_misses);
        ("session.lower_hit_ratio", "ratio", hit_ratio t_reopt.lower_hits t_reopt.lower_misses);
        ("daemon.collect_ms.p50", "ms", lat "collect" 0.5);
        ("daemon.collect_ms.p90", "ms", lat "collect" 0.9);
        ("daemon.merge_ms.p50", "ms", lat "merge" 0.5);
        ("daemon.merge_ms.p90", "ms", lat "merge" 0.9);
        ("daemon.opt_ms.p50", "ms", lat "opt" 0.5);
        ("daemon.opt_ms.p90", "ms", lat "opt" 0.9);
        ("daemon.store_hit_ratio", "ratio", hit_ratio u_serve.hits (u_serve.served - u_serve.hits));
        ("daemon.handle_ms", "ms", median t_serve.handle_ms);
        ("daemon.transport_ms", "ms", median t_serve.transport_ms);
        ("gc.major_collections", "count", float_of_int majors);
        ("trace.overhead_pct.ppp_minstr_s", "%", worse_pct ~higher:true "ppp_minstr_s");
        ("trace.overhead_pct.reopt_ms.p50", "%", worse_pct ~higher:false "reopt_ms.p50");
        ("trace.overhead_pct.daemon_req_ms.p50", "%", worse_pct ~higher:false "daemon_req_ms.p50");
      ]
    in
    report (List.map (fun (n, u, v) -> (n, u, v, "")) layer)
  end
