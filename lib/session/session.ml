module Ir = Ppp_ir.Ir
module Cfg_view = Ppp_ir.Cfg_view
module Dom = Ppp_cfg.Dom
module Loop = Ppp_cfg.Loop
module Edge_profile = Ppp_profile.Edge_profile
module Routine_ctx = Ppp_flow.Routine_ctx
module Flow_dp = Ppp_flow.Flow_dp
module Instrument = Ppp_core.Instrument
module Lower = Ppp_interp.Lower
module Fingerprint = Ppp_resilience.Fingerprint
module Obs = Ppp_obs.Metrics

let m_view_hit = Obs.counter "session.view.hit"
let m_view_miss = Obs.counter "session.view.miss"
let m_dom_hit = Obs.counter "session.dom.hit"
let m_dom_miss = Obs.counter "session.dom.miss"
let m_loops_hit = Obs.counter "session.loops.hit"
let m_loops_miss = Obs.counter "session.loops.miss"
let m_ctx_hit = Obs.counter "session.ctx.hit"
let m_ctx_miss = Obs.counter "session.ctx.miss"
let m_flow_hit = Obs.counter "session.flow.hit"
let m_flow_miss = Obs.counter "session.flow.miss"
let m_place_hit = Obs.counter "session.place.hit"
let m_place_miss = Obs.counter "session.place.miss"
let m_layout_hit = Obs.counter "session.layout.hit"
let m_layout_miss = Obs.counter "session.layout.miss"
let m_invalidate = Obs.counter "session.invalidate"
let m_evict = Obs.counter "session.evict"

(* How many fingerprint generations a routine slot retains, and how many
   profile-keyed artifacts each entry retains. Small: the pipeline holds
   one or two live profiles and an iterate loop flips between adjacent
   generations; anything deeper is dead weight across a long session. *)
let retention = 8

type entry = {
  e_fp : int;
  mutable e_view : Cfg_view.t option;
  mutable e_dom : Dom.t option;
  mutable e_loops : Loop.t option;
  mutable e_ctxs : (Edge_profile.program * Routine_ctx.t) list;
  mutable e_defs : (Routine_ctx.t * Flow_dp.t) list;
  mutable e_places :
    (string * Edge_profile.program option * Instrument.routine_plan) list;
      (* The profile the plan was made under, by physical identity;
         [None] for plans imported from a persisted session, which can
         only ever satisfy [Sticky] lookups. *)
  mutable e_layouts :
    (Ppp_profile.Path_profile.program * int array option) list;
      (* Block emission orders keyed by the path profile they were
         derived from, by physical identity; [None] caches "this profile
         yields the identity order", which is just as expensive to
         rediscover. *)
}

type counts = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_invalidations : int;
  mutable c_evictions : int;
}

type t = {
  s_name : string;
  s_enabled : bool;
  slots : (string, entry list) Hashtbl.t;
  mutable last_table : (string * int) list;
  (* Last physical routine seen per name, with its fingerprint, so
     repeated artifact lookups on the same object skip re-hashing. *)
  fp_memo : (string, Ir.routine * int) Hashtbl.t;
  lower : Lower.cache option;
  counts : counts;
}

type placement_mode = Exact | Sticky

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  evictions : int;
}

let name t = t.s_name
let enabled t = t.s_enabled
let lower_cache t = t.lower

let hit t m =
  t.counts.c_hits <- t.counts.c_hits + 1;
  Obs.incr m

let miss t m =
  t.counts.c_misses <- t.counts.c_misses + 1;
  Obs.incr m

(* Truncate an artifact list to [retention], counting what falls off. *)
let cap t xs =
  let rec go n = function
    | [] -> []
    | rest when n = 0 ->
        List.iter
          (fun _ ->
            t.counts.c_evictions <- t.counts.c_evictions + 1;
            Obs.incr m_evict)
          rest;
        []
    | x :: rest -> x :: go (n - 1) rest
  in
  go retention xs

let fingerprint t (r : Ir.routine) =
  match Hashtbl.find_opt t.fp_memo r.Ir.name with
  | Some (r', fp) when r' == r -> fp
  | _ ->
      let fp = Fingerprint.routine r in
      Hashtbl.replace t.fp_memo r.Ir.name (r, fp);
      fp

let entry t (r : Ir.routine) =
  let fp = fingerprint t r in
  let es = Option.value ~default:[] (Hashtbl.find_opt t.slots r.Ir.name) in
  match List.find_opt (fun e -> e.e_fp = fp) es with
  | Some e -> e
  | None ->
      let e =
        {
          e_fp = fp;
          e_view = None;
          e_dom = None;
          e_loops = None;
          e_ctxs = [];
          e_defs = [];
          e_places = [];
          e_layouts = [];
        }
      in
      Hashtbl.replace t.slots r.Ir.name (cap t (e :: es));
      e

let view t r =
  if not t.s_enabled then begin
    miss t m_view_miss;
    Cfg_view.of_routine r
  end
  else
    let e = entry t r in
    match e.e_view with
    | Some v ->
        hit t m_view_hit;
        v
    | None ->
        miss t m_view_miss;
        let v = Cfg_view.of_routine r in
        e.e_view <- Some v;
        v

let dom t r =
  let build () =
    let v = view t r in
    Dom.compute (Cfg_view.graph v) ~root:(Cfg_view.entry v)
  in
  if not t.s_enabled then begin
    miss t m_dom_miss;
    build ()
  end
  else
    let e = entry t r in
    match e.e_dom with
    | Some d ->
        hit t m_dom_hit;
        d
    | None ->
        miss t m_dom_miss;
        let d = build () in
        e.e_dom <- Some d;
        d

let loops t r =
  let build () =
    let v = view t r in
    let d = dom t r in
    Loop.compute ~dom:d (Cfg_view.graph v) ~root:(Cfg_view.entry v)
  in
  if not t.s_enabled then begin
    miss t m_loops_miss;
    build ()
  end
  else
    let e = entry t r in
    match e.e_loops with
    | Some l ->
        hit t m_loops_hit;
        l
    | None ->
        miss t m_loops_miss;
        let l = build () in
        e.e_loops <- Some l;
        l

let ctx t ~ep (r : Ir.routine) =
  let build () =
    let v = view t r in
    let l = loops t r in
    Routine_ctx.make ~loops:l v (Edge_profile.routine ep r.Ir.name)
  in
  if not t.s_enabled then begin
    miss t m_ctx_miss;
    build ()
  end
  else
    let e = entry t r in
    match List.assq_opt ep e.e_ctxs with
    | Some c ->
        hit t m_ctx_hit;
        c
    | None ->
        miss t m_ctx_miss;
        let c = build () in
        e.e_ctxs <- cap t ((ep, c) :: e.e_ctxs);
        c

let definite t c =
  let build () = Flow_dp.compute c Flow_dp.Definite in
  if not t.s_enabled then begin
    miss t m_flow_miss;
    build ()
  end
  else
    let r = Cfg_view.routine (Routine_ctx.view c) in
    let e = entry t r in
    match List.assq_opt c e.e_defs with
    | Some dp ->
        hit t m_flow_hit;
        dp
    | None ->
        miss t m_flow_miss;
        let dp = build () in
        e.e_defs <- cap t ((c, dp) :: e.e_defs);
        dp

let placement_find t ~mode ~config_name ~ep r =
  if not t.s_enabled then begin
    miss t m_place_miss;
    None
  end
  else
    let e = entry t r in
    let found =
      List.find_opt
        (fun (cn, ep', _) ->
          String.equal cn config_name
          &&
          match mode with
          | Exact -> ( match ep' with Some ep' -> ep' == ep | None -> false)
          | Sticky -> true)
        e.e_places
    in
    match found with
    | Some (_, _, plan) ->
        hit t m_place_hit;
        Some plan
    | None ->
        miss t m_place_miss;
        None

let placement_store t ~config_name ~ep r plan =
  if t.s_enabled then begin
    let e = entry t r in
    let rest =
      List.filter
        (fun (cn, ep', _) ->
          not
            (String.equal cn config_name
            && match ep' with Some e -> e == ep | None -> false))
        e.e_places
    in
    e.e_places <- cap t ((config_name, Some ep, plan) :: rest)
  end

let layout t ~paths r ~compute =
  if not t.s_enabled then begin
    miss t m_layout_miss;
    compute ()
  end
  else
    let e = entry t r in
    match List.assq_opt paths e.e_layouts with
    | Some order ->
        hit t m_layout_hit;
        order
    | None ->
        miss t m_layout_miss;
        let order = compute () in
        e.e_layouts <- cap t ((paths, order) :: e.e_layouts);
        order

let sync t (p : Ir.program) =
  let table =
    List.map
      (fun (r : Ir.routine) ->
        let fp = Fingerprint.routine r in
        Hashtbl.replace t.fp_memo r.Ir.name (r, fp);
        (r.Ir.name, fp))
      p.Ir.routines
  in
  let old = t.last_table in
  t.last_table <- table;
  List.iter
    (fun (nm, _) ->
      if not (List.mem_assoc nm table) then begin
        Hashtbl.remove t.slots nm;
        Hashtbl.remove t.fp_memo nm
      end)
    old;
  let dirty =
    List.filter_map
      (fun (nm, fp) ->
        match List.assoc_opt nm old with
        | Some fp' when fp' = fp -> None
        | _ -> Some nm)
      table
  in
  List.iter
    (fun _ ->
      t.counts.c_invalidations <- t.counts.c_invalidations + 1;
      Obs.incr m_invalidate)
    dirty;
  dirty

(* Point invalidation for mid-run tier-up: the named routines' slots are
   dropped wholesale, so their next access opens a fresh entry. The
   fingerprint table is left alone — the IR did not change, only the
   profile-derived artifacts (placements, layouts, contexts) went stale
   when the VM retired the instrumented variant mid-run. *)
let invalidate t names =
  List.iter
    (fun nm ->
      Hashtbl.remove t.slots nm;
      t.counts.c_invalidations <- t.counts.c_invalidations + 1;
      Obs.incr m_invalidate)
    names

let warm t (p : Ir.program) =
  ignore (sync t p);
  if t.s_enabled then begin
    List.iter (fun (r : Ir.routine) -> ignore (loops t r)) p.Ir.routines;
    match t.lower with
    | Some cache ->
        (* Fill the structural-plan cache too; lowering without running
           is cheap and the plans are instrumentation-independent. No
           counting or tracing: only the structural plans are kept. *)
        ignore
          (Lower.program ~cache
             ~config:
               {
                 Ppp_interp.Engine.default_config with
                 collect_edges = false;
                 trace_paths = false;
               }
             ~instr_tables:
               (Ppp_interp.Instr_rt.init_state
                  (Ppp_interp.Instr_rt.no_instrumentation ()))
             p)
    | None -> ()
  end

let create ?(enabled = true) ~name () =
  let t =
    {
      s_name = name;
      s_enabled = enabled;
      slots = Hashtbl.create 64;
      last_table = [];
      fp_memo = Hashtbl.create 64;
      lower = (if enabled then Some (Lower.create_cache ()) else None);
      counts =
        { c_hits = 0; c_misses = 0; c_invalidations = 0; c_evictions = 0 };
    }
  in
  (match t.lower with
  | Some c -> Lower.set_analysis c (fun r -> (view t r, loops t r))
  | None -> ());
  t

let stats t =
  {
    hits = t.counts.c_hits;
    misses = t.counts.c_misses;
    invalidations = t.counts.c_invalidations;
    evictions = t.counts.c_evictions;
  }

(* {2 Persistence of placement plans}

   The daemon's persistence boundary: placement decisions — the one
   session artifact that is expensive, profile-derived and reusable
   across process restarts under the Sticky rule — serialize to a
   versioned, per-record-CRC'd text-framed format. Everything else in
   the store (views, dominators, loop nests, lowerings) is cheap to
   recompute and deliberately not persisted. *)

module Diagnostic = Ppp_resilience.Diagnostic
module Crc = Ppp_resilience.Crc

let plans_magic = "ppp-session-plans v1"

let export_plans t =
  let records = ref [] in
  Hashtbl.iter
    (fun name entries ->
      List.iter
        (fun e ->
          (* Newest plan per config wins; [e_places] is newest-first. *)
          let seen = Hashtbl.create 4 in
          List.iter
            (fun (cn, _, plan) ->
              if not (Hashtbl.mem seen cn) then begin
                Hashtbl.add seen cn ();
                let blob = Marshal.to_string (plan : Instrument.routine_plan) [] in
                records := (name, e.e_fp, cn, blob) :: !records
              end)
            e.e_places)
        entries)
    t.slots;
  let records =
    List.sort
      (fun (n1, f1, c1, _) (n2, f2, c2, _) -> compare (n1, f1, c1) (n2, f2, c2))
      !records
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf plans_magic;
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, fp, cn, blob) ->
      Buffer.add_string buf
        (Printf.sprintf "plan routine=%s fp=%s config=%s len=%d crc=%s\n" name
           (Fingerprint.to_hex fp) cn (String.length blob)
           (Crc.to_hex (Crc.string blob)));
      Buffer.add_string buf blob;
      Buffer.add_char buf '\n')
    records;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let import_plans t (p : Ir.program) text =
  let diags = ref [] in
  let imported = ref 0 in
  let diag d = diags := d :: !diags in
  let len = String.length text in
  let corrupt fmt = Diagnostic.errorf Diagnostic.Corrupt fmt in
  let field line key =
    (* [key=value] somewhere in the header line; values carry no spaces. *)
    let tag = " " ^ key ^ "=" in
    let tlen = String.length tag and llen = String.length line in
    let rec find i =
      if i + tlen > llen then None
      else if String.sub line i tlen = tag then
        let start = i + tlen in
        let stop =
          match String.index_from_opt line start ' ' with
          | Some j -> j
          | None -> llen
        in
        Some (String.sub line start (stop - start))
      else find (i + 1)
    in
    find 0
  in
  if len < String.length plans_magic
     || String.sub text 0 (String.length plans_magic) <> plans_magic
  then (0, [ corrupt "persisted plans: bad or missing header" ])
  else begin
    let pos = ref (String.length plans_magic + 1) in
    let finished = ref false in
    (try
       while (not !finished) && !pos < len do
         let eol =
           match String.index_from_opt text !pos '\n' with
           | Some i -> i
           | None -> raise Exit
         in
         let line = String.sub text !pos (eol - !pos) in
         pos := eol + 1;
         if line = "end" then finished := true
         else if String.length line >= 5 && String.sub line 0 5 = "plan " then begin
           match
             ( field line "routine",
               Option.bind (field line "fp") Fingerprint.of_hex,
               field line "config",
               Option.bind (field line "len") int_of_string_opt,
               Option.bind (field line "crc") Crc.of_hex )
           with
           | Some rname, Some fp, Some cn, Some blen, Some crc ->
               if !pos + blen + 1 > len then begin
                 diag
                   (Diagnostic.errorf Diagnostic.Truncated
                      "persisted plan for %s ends before its %d-byte payload"
                      rname blen);
                 raise Exit
               end;
               let blob = String.sub text !pos blen in
               pos := !pos + blen + 1;
               if Crc.string blob <> crc then
                 diag
                   (Diagnostic.errorf ~routine:rname Diagnostic.Corrupt
                      "persisted plan failed its checksum")
               else begin
                 match Ir.find_routine p rname with
                 | None ->
                     diag
                       (Diagnostic.errorf ~severity:Diagnostic.Warning
                          ~routine:rname Diagnostic.Unknown_routine
                          "persisted plan for a routine the program no \
                           longer has")
                 | Some r ->
                     if fingerprint t r <> fp then
                       diag
                         (Diagnostic.errorf ~severity:Diagnostic.Warning
                            ~routine:rname Diagnostic.Stale
                            "persisted plan was made for another version \
                             of the routine")
                     else if t.s_enabled then begin
                       match
                         (Marshal.from_string blob 0
                           : Instrument.routine_plan)
                       with
                       | plan ->
                           let e = entry t r in
                           if
                             not
                               (List.exists
                                  (fun (cn', _, _) -> String.equal cn cn')
                                  e.e_places)
                           then begin
                             (* Append, so plans stored live in this
                                process stay ahead of imported ones. *)
                             e.e_places <-
                               cap t (e.e_places @ [ (cn, None, plan) ]);
                             incr imported
                           end
                       | exception _ ->
                           diag
                             (Diagnostic.errorf ~routine:rname
                                Diagnostic.Corrupt
                                "persisted plan payload does not \
                                 deserialize")
                     end
               end
           | _ ->
               diag (corrupt "persisted plans: malformed record header");
               raise Exit
         end
         else begin
           diag (corrupt "persisted plans: unexpected line %S" line);
           raise Exit
         end
       done;
       if not !finished then
         diag
           (Diagnostic.make ~severity:Diagnostic.Warning Diagnostic.Truncated
              "persisted plans: missing end marker")
     with Exit -> ());
    (!imported, List.rev !diags)
  end

let pp_stats ppf t =
  Format.fprintf ppf
    "session %s (cache %s): %d hits, %d misses, %d invalidations, %d \
     evictions"
    t.s_name
    (if t.s_enabled then "on" else "off")
    t.counts.c_hits t.counts.c_misses t.counts.c_invalidations
    t.counts.c_evictions
