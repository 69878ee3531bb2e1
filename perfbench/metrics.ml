(* The metric catalogue: every name the benchmark prints, with its
   unit. BENCHMARK.json lists the same names; the self-check
   (perfbench/selfcheck.py) holds the two together. *)

let end_to_end =
  [ ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sweep_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms") ]

let apps = List.map (fun (w : Workloads.Workload.t) -> Common.app_key w.name)
    Workloads.Registry.all

let layers = [ "jsir"; "analysis"; "interp"; "ceres"; "advisor"; "par_exec"; "service" ]

let per_layer =
  [ ("jsir.parse_ms", "ms"); ("jsir.resolve_ms", "ms");
    ("analysis.analyze_ms", "ms"); ("analysis.loops_proven", "count") ]
  @ List.map (fun a -> ("interp.exec_ms." ^ a, "ms")) apps
  @ [ ("interp.busy_ticks", "count"); ("interp.minor_words", "count");
      ("interp.ns_per_tick", "ns");
      ("ceres.instrument_ms", "ms"); ("ceres.light_ms", "ms");
      ("ceres.loop_ms", "ms"); ("ceres.dep_ms", "ms");
      ("ceres.accesses_checked", "count"); ("ceres.dep_overhead_x", "x");
      ("advisor.advise_ms", "ms");
      ("par_exec.par_ms", "ms"); ("par_exec.fork_ms", "ms");
      ("par_exec.merge_ms", "ms"); ("par_exec.chunk_ms", "ms");
      ("par_exec.overhead_frac", "frac"); ("par_exec.instances", "count");
      ("par_exec.chunks", "count"); ("par_exec.fallback_frac", "frac") ]
  @ List.map (fun a -> ("par_exec.session_ms." ^ a, "ms")) apps
  @ List.map (fun a -> ("par_exec.session_speedup." ^ a, "x")) apps
  @ [ ("pool.tasks", "count"); ("pool.steals", "count");
      ("pool.steal_success_frac", "frac"); ("pool.idle_spins", "count");
      ("service.cache_hits", "count"); ("service.cache_misses", "count");
      ("service.cache_evictions", "count"); ("service.cache_hit_frac", "frac");
      ("service.dup_misses", "count");
      ("service.replay_hits", "count"); ("service.replay_misses", "count");
      ("service.exec_hit_ms", "ms"); ("service.exec_miss_ms", "ms");
      ("service.batch_ms", "ms"); ("service.wait_ms", "ms");
      ("service.exec_concurrency", "frac"); ("service.serialize_ms", "ms");
      ("service.transport_ms", "ms"); ("service.shed", "count");
      ("service.timed_out", "count"); ("service.sessions_dropped", "count") ]
  @ List.map (fun l -> ("self_frac." ^ l, "frac")) layers
  @ [ ("trace.overhead_frac", "frac"); ("trace.spans", "count") ]

(* Every per-layer metric, in catalogue order: the measured value
   where the workload exercises that layer, 0 where it does not. *)
let fill_per_layer measured =
  List.map
    (fun (name, unit_) ->
       Common.m name unit_
         (Option.value ~default:0. (List.assoc_opt name measured)))
    per_layer

let fill_end_to_end measured =
  List.map
    (fun (name, unit_) ->
       match List.assoc_opt name measured with
       | Some v -> Common.m name unit_ v
       | None -> failwith ("end-to-end metric not measured: " ^ name))
    end_to_end

(* Per-layer self time as a share of the traced window. *)
let self_fracs ~window_ms spans =
  let tbl = Span.self_ms_by_layer spans in
  List.map
    (fun l ->
       ( "self_frac." ^ l,
         Option.value ~default:0. (Hashtbl.find_opt tbl l) /. window_ms ))
    layers
