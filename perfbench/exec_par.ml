(* exec-par: every scripted session through [Harness.run_plain],
   once sequentially and once with the proven nests forked over a
   2-domain pool at -j 2, app order seed-permuted each sweep (and
   which of the two runs first alternates by sweep). This is the only
   workload that reaches [Interp.Fork], [Par_exec] and [Pool].

   Oracle: the par-exec session's console output must be byte-equal
   to the sequential session's. *)

open Common
module PE = Js_parallel.Par_exec
module Pool = Js_parallel.Pool

let jobs = 2
let tail_pct = 90

let setup () =
  let apps = Array.of_list Workloads.Registry.all in
  (apps, Pool.create ~domains:jobs ())

let console (ctx : Workloads.Harness.run_context) =
  String.concat "\n" (List.rev ctx.st.Interp.Value.console)

type session = {
  app : string;
  sweep : int;
  seq_ms : float;
  par_ms : float;
  busy_ticks : int64;
  minor_words : float;
  nests : PE.nest_stats list;
  seq_norm : float;  (** [seq_ms] at the reference host speed (see Calib) *)
  par_norm : float;
}

type loop_out = {
  sessions : session list;
  cals : float list;  (** reference kernel times (see Calib) *)
  attempted : int;
  failed : int;
  sweeps : int;
}

let closed_loop ~seed ~salt ~seconds ~whole_sweeps ~pool apps =
  let st = rng ~seed salt in
  let t_start = now () in
  let over () = s_between t_start (now ()) >= seconds in
  let out = ref [] and attempted = ref 0 and failed = ref 0 in
  let sweeps = ref 0 and stop = ref false in
  (* The reference kernel runs between app pairs, untimed; both
     sessions of a pair are normalized by the kernel times around it. *)
  let cals = ref [ Calib.time ~domains:1 ] in
  while not !stop do
    let order = shuffle st apps in
    let seq_first = !sweeps mod 2 = 0 in
    Span.span "bench.sweep" (fun sweep_span ->
        Array.iter
          (fun (w : Workloads.Workload.t) ->
             if !stop || ((not whole_sweeps) && !sweeps >= 1 && over ()) then
               stop := true
             else begin
               let req = Span.fresh_id () in
               let seq () =
                 let w0 = Gc.minor_words () in
                 let ctx, ms =
                   Span.span ~parent:sweep_span ~req "interp.exec" (fun _ ->
                       time_ms (fun () -> Workloads.Harness.run_plain w))
                 in
                 (ctx, ms, Gc.minor_words () -. w0)
               in
               let par () =
                 let pe = PE.create ~mode:(PE.Parallel pool) ~jobs () in
                 let ctx, ms =
                   Span.span ~parent:sweep_span ~req "par_exec.session" (fun _ ->
                       time_ms (fun () -> Workloads.Harness.run_plain ~par:pe w))
                 in
                 (ctx, ms, pe)
               in
               let (sctx, seq_ms, minor_words), (pctx, par_ms, pe) =
                 if seq_first then
                   let s = seq () in
                   (s, par ())
                 else
                   let p = par () in
                   (seq (), p)
               in
               let before = List.hd !cals and after = Calib.time ~domains:1 in
               cals := after :: !cals;
               let norm = Calib.normalize ~domains:1 ~before ~after in
               attempted := !attempted + 2;
               if console sctx <> console pctx then incr failed;
               out :=
                 { app = w.name; sweep = !sweeps; seq_ms; par_ms;
                   busy_ticks = Ceres_util.Vclock.busy sctx.st.Interp.Value.clock;
                   minor_words; seq_norm = norm seq_ms; par_norm = norm par_ms;
                   nests = List.map (fun (_, _, s) -> s) (PE.nest_rows pe) }
                 :: !out
             end)
          order);
    if not !stop then incr sweeps;
    if !sweeps >= 1 && over () then stop := true
  done;
  { sessions = List.rev !out; cals = !cals; attempted = !attempted; failed = !failed;
    sweeps = !sweeps }

let per_app sessions f =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
       Hashtbl.replace tbl s.app
         (f s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.app)))
    sessions;
  tbl

(* Each app's median of [f] over the run. *)
let app_medians sessions f =
  Hashtbl.fold (fun _ xs acc -> median xs :: acc) (per_app sessions f) []

let sum_medians sessions f = List.fold_left ( +. ) 0. (app_medians sessions f)

let run ~seed ~seconds ~setup_s : Common.result =
  let apps, pool = setup () in
  let o = closed_loop ~seed ~salt:1 ~seconds ~whole_sweeps:false ~pool apps in
  Pool.shutdown pool;
  write_samples (Printf.sprintf "exec-par-seed%d" seed)
    (List.map
       (fun s ->
          [ string_of_int s.sweep; s.app; Printf.sprintf "%.4f" s.seq_ms;
            Printf.sprintf "%.4f" s.par_ms; Printf.sprintf "%.4f" s.seq_norm;
            Printf.sprintf "%.4f" s.par_norm ])
       o.sessions);
  let pct = float_of_int tail_pct /. 100. in
  let par = app_medians o.sessions (fun s -> s.par_norm) in
  let seq_ms = sum_medians o.sessions (fun s -> s.seq_norm) in
  let par_ms = List.fold_left ( +. ) 0. par in
  let sweep_ms = seq_ms +. par_ms in
  let wall = app_medians o.sessions (fun s -> s.par_ms) in
  { attempted = o.attempted;
    failed = o.failed;
    metrics =
      Metrics.fill_end_to_end
        [ ("setup_s", setup_s);
          ("peak_rss_mb", peak_rss_mb 0);
          ("sweep_s", sweep_ms /. 1000.);
          ("ops_per_s", float_of_int (2 * Array.length apps) *. 1000. /. sweep_ms);
          ("p50_ms", median par);
          ("tail_ms", quantile par pct) ];
    notes =
      [ kinds_note ~pct:tail_pct ~kinds:(List.length par) ~sweeps:o.sweeps;
        ("exec_seq_sweep_s", Json.Float (seq_ms /. 1000.));
        ("exec_par_sweep_s", Json.Float (par_ms /. 1000.));
        wall_note ~kernels:[ (1, o.cals) ]
          [ ("sweep_s",
             (sum_medians o.sessions (fun s -> s.seq_ms) +. List.fold_left ( +. ) 0. wall)
             /. 1000.);
            ("p50_ms", median wall); ("tail_ms", quantile wall pct) ] ] }

let run_traced ~seed ~seconds : Common.result =
  let apps, pool = setup () in
  let half = seconds /. 2. in
  let plain = closed_loop ~seed ~salt:2 ~seconds:half ~whole_sweeps:true ~pool apps in
  Pool.reset_stats pool;
  Span.on := true;
  let t0 = now () in
  let traced = closed_loop ~seed ~salt:3 ~seconds:half ~whole_sweeps:true ~pool apps in
  let window_ms = ms_between t0 (now ()) in
  Span.on := false;
  let pst = Pool.stats pool in
  Pool.shutdown pool;
  let ss = traced.sessions in
  let sweeps = float_of_int (max 1 traced.sweeps) in
  (* Par_exec's own per-nest counters, summed over one sweep. *)
  let nest f = List.fold_left (fun acc s -> List.fold_left (fun a n -> a +. f n) acc s.nests) 0. ss /. sweeps in
  let par_ms = nest (fun n -> n.PE.par_ms) in
  let fork_ms = nest (fun n -> n.PE.fork_ms) in
  let merge_ms = nest (fun n -> n.PE.merge_ms) in
  let instances = nest (fun n -> float_of_int n.PE.instances) in
  let fallbacks = nest (fun n -> float_of_int n.PE.fallbacks) in
  let last = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace last s.app s) ss;
  let last_sum f = Hashtbl.fold (fun _ s acc -> acc +. f s) last 0. in
  let busy = last_sum (fun s -> Int64.to_float s.busy_ticks) in
  let seq_total = sum_medians ss (fun s -> s.seq_ms) in
  let doms = pst.Js_parallel.Telemetry.domains in
  let dsum f = float_of_int (List.fold_left (fun a d -> a + f d) 0 doms) /. sweeps in
  let steals = dsum (fun d -> d.Js_parallel.Telemetry.steals_succeeded) in
  let attempts = dsum (fun d -> d.Js_parallel.Telemetry.steals_attempted) in
  let med_app f name =
    median (List.filter_map (fun s -> if s.app = name then Some (f s) else None) ss)
  in
  let per_app =
    List.concat_map
      (fun (w : Workloads.Workload.t) ->
         let k = app_key w.name in
         let seq = med_app (fun s -> s.seq_ms) w.name in
         let par = med_app (fun s -> s.par_ms) w.name in
         [ ("interp.exec_ms." ^ k, seq);
           ("par_exec.session_ms." ^ k, par);
           ("par_exec.session_speedup." ^ k, if par > 0. then seq /. par else 0.) ])
      (Array.to_list apps)
  in
  let sweep_of o =
    sum_medians o.sessions (fun s -> s.seq_ms) +. sum_medians o.sessions (fun s -> s.par_ms)
  in
  let spans = Span.all () in
  { attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    metrics =
      Metrics.fill_per_layer
        ([ ("interp.busy_ticks", busy);
           ("interp.minor_words", last_sum (fun s -> s.minor_words));
           ("interp.ns_per_tick", seq_total *. 1e6 /. busy);
           ("par_exec.par_ms", par_ms);
           ("par_exec.fork_ms", fork_ms);
           ("par_exec.merge_ms", merge_ms);
           ("par_exec.chunk_ms", par_ms -. fork_ms -. merge_ms);
           ("par_exec.overhead_frac", if par_ms > 0. then (fork_ms +. merge_ms) /. par_ms else 0.);
           ("par_exec.instances", instances);
           ("par_exec.chunks", nest (fun n -> float_of_int n.PE.chunks));
           ("par_exec.fallback_frac", if instances > 0. then fallbacks /. instances else 0.);
           ("pool.tasks", dsum (fun d -> d.Js_parallel.Telemetry.tasks_executed));
           ("pool.steals", steals);
           ("pool.steal_success_frac", if attempts > 0. then steals /. attempts else 0.);
           ("pool.idle_spins", dsum (fun d -> d.Js_parallel.Telemetry.idle_spins));
           ("trace.overhead_frac", (sweep_of traced /. sweep_of plain) -. 1.);
           ("trace.spans", float_of_int (List.length spans)) ]
         @ per_app
         @ Metrics.self_fracs ~window_ms spans);
    notes = [ ("sweeps_untraced", Json.Int plain.sweeps);
              ("sweeps_traced", Json.Int traced.sweeps) ] }
