(* analysis-corpus: the analyst's flow as a closed loop with one
   caller. Each sweep visits the 12 registry apps in a seed-permuted
   order; each app gets a fresh single-job service (cold cache, as a
   fresh `jsceres` invocation has) and one `pipeline` then one
   `crossval` request. Every request is a cache miss, so the work is
   the interpreter plus the Ceres instrumentation and dependence
   runtime; par-exec and the result cache are bypassed.

   Oracle: each response's digest must equal the digest recorded at
   the seed commit (perfbench/reference/analysis.digests), and every
   crossval row must be sound. *)

open Common
module R = Service.Request

let passes = [ R.Pipeline; R.Crossval ]
let tail_pct = 90
let reference_file = "perfbench/reference/analysis.digests"

let response_digest resp =
  Digest.to_hex
    (Digest.string (Json.to_string (Service.Response.to_json resp)))

let request_of (w : Workloads.Workload.t) pass = R.make pass w.name

(* "<app>\t<pass>\t<md5>" per line. *)
let load_reference () =
  let tbl = Hashtbl.create 32 in
  String.split_on_char '\n' (read_file reference_file)
  |> List.iter (fun line ->
      match String.split_on_char '\t' line with
      | [ app; pass; d ] -> Hashtbl.replace tbl (app, pass) d
      | _ -> ());
  tbl

let record_reference () =
  let oc = open_out reference_file in
  List.iter
    (fun (w : Workloads.Workload.t) ->
       List.iter
         (fun pass ->
            let resp = Service.run (Service.create ~jobs:1 ()) (request_of w pass) in
            Printf.fprintf oc "%s\t%s\t%s\n" w.name (R.pass_name pass)
              (response_digest resp))
         passes)
    Workloads.Registry.all;
  close_out oc

let apps () = Array.of_list Workloads.Registry.all

(* The requests compute on one domain, so the one-domain kernel. *)
let domains = 1

(* Everything the measuring process does before its first timed
   request; [setup_s] times it in fresh processes. *)
let setup () =
  let refs = load_reference () in
  let apps = apps () in
  if Hashtbl.length refs <> Array.length apps * List.length passes then
    failwith "analysis-corpus: reference digests incomplete";
  ignore (Service.create ~jobs:1 ());
  (refs, apps)

let check_response refs (w : Workloads.Workload.t) pass resp =
  let digest_ok =
    Hashtbl.find_opt refs (w.name, R.pass_name pass)
    = Some (response_digest resp)
  in
  let sound =
    match resp.Service.Response.result with
    | Ok (Service.Response.Crossval rows) ->
      List.for_all (fun (r : Workloads.Harness.crossval_row) -> r.sound) rows
    | Ok _ -> true
    | Error _ -> false
  in
  digest_ok && sound

(* ---- the layer calls of the traced run ---------------------------- *)

type layer_sample = {
  parse_ms : float;
  resolve_ms : float;
  analyze_ms : float;
  proven : int;
  instrument_ms : float;
  exec_ms : float;
  busy_ticks : int64;
  minor_words : float;
  exec_dep_ms : float;
  light_ms : float;
  loop_ms : float;
  dep_ms : float;
  accesses : int;
}

(* One call into each layer's public entry point for [w], each under
   its own span below [parent]. *)
let layer_calls ~parent ~req (w : Workloads.Workload.t) =
  let sp name f = Span.span ~parent ~req name (fun _ -> time_ms f) in
  let program, parse_ms =
    sp "jsir.parse" (fun () -> Jsir.Parser.parse_program w.source)
  in
  let (), resolve_ms =
    sp "jsir.resolve" (fun () ->
        Jsir.Resolve.program (Ceres_util.Symbol.create ()) program)
  in
  let report, analyze_ms =
    sp "analysis.analyze" (fun () -> Analysis.Driver.analyze program)
  in
  let (), instrument_ms =
    sp "ceres.instrument" (fun () ->
        List.iter
          (fun mode -> ignore (Ceres.Instrument.program mode program))
          Ceres.Instrument.[ Lightweight; Loop_profile; Dependence ])
  in
  let w0 = Gc.minor_words () in
  let ctx, exec_ms = sp "interp.exec" (fun () -> Workloads.Harness.run_plain w) in
  let minor_words = Gc.minor_words () -. w0 in
  let busy_ticks = Ceres_util.Vclock.busy ctx.st.Interp.Value.clock in
  let _, exec_dep_ms =
    sp "interp.exec_dep" (fun () ->
        Workloads.Harness.run_plain ~scale:w.dep_scale w)
  in
  let _, light_ms = sp "ceres.light" (fun () -> Workloads.Harness.run_lightweight w) in
  let _, loop_ms = sp "ceres.loop" (fun () -> Workloads.Harness.run_loop_profile w) in
  let (_, rt), dep_ms =
    sp "ceres.dep" (fun () -> Workloads.Harness.run_dependence w)
  in
  { parse_ms; resolve_ms; analyze_ms;
    proven = List.length (Analysis.Driver.proven report);
    instrument_ms; exec_ms; busy_ticks; minor_words; exec_dep_ms; light_ms;
    loop_ms; dep_ms; accesses = Ceres.Runtime.accesses_checked rt }

(* ---- the closed loop ---------------------------------------------- *)

(* [norm] is [ms] at the reference host speed (see Calib). *)
type sample = { app : string; pass : string; ms : float; norm : float; sweep : int }

type loop_out = {
  samples : sample list;
  layers : (string * layer_sample) list;
  cals : float list;  (** reference kernel times (see Calib) *)
  attempted : int;
  failed : int;
  sweeps : int;
}

(* Run sweeps until [seconds] have passed (and at least one sweep is
   complete); with [whole_sweeps] the deadline is checked only between
   sweeps. [layers] adds the traced layer calls after each app. The
   reference kernel runs between requests (untimed), and each request
   is normalized by the kernel times just before and after it. *)
let closed_loop ~seed ~salt ~seconds ~whole_sweeps ~layers ~refs ~apps =
  let st = rng ~seed salt in
  let t_start = now () in
  let over () = s_between t_start (now ()) >= seconds in
  let samples = ref [] and lsamples = ref [] in
  let cals = ref [ Calib.time ~domains ] in
  let attempted = ref 0 and failed = ref 0 and sweeps = ref 0 in
  let stop = ref false in
  while not !stop do
    let order = shuffle st apps in
    Span.span "bench.sweep" (fun sweep_span ->
        Array.iter
          (fun (w : Workloads.Workload.t) ->
             if not (!stop || ((not whole_sweeps) && !sweeps >= 1 && over ()))
             then begin
               List.iter
                 (fun pass ->
                    let req = Span.fresh_id () in
                    let resp, ms =
                      Span.span ~parent:sweep_span ~req "service.request"
                        (fun _ ->
                           time_ms (fun () ->
                               Service.run (Service.create ~jobs:1 ())
                                 (request_of w pass)))
                    in
                    incr attempted;
                    if not (check_response refs w pass resp) then incr failed;
                    let before = List.hd !cals and after = Calib.time ~domains in
                    cals := after :: !cals;
                    samples :=
                      { app = w.name; pass = R.pass_name pass; ms; sweep = !sweeps;
                        norm = Calib.normalize ~domains ~before ~after ms }
                      :: !samples)
                 passes;
               if layers then
                 lsamples :=
                   (w.name, layer_calls ~parent:sweep_span ~req:(Span.fresh_id ()) w)
                   :: !lsamples
             end
             else stop := true)
          order);
    if not !stop then incr sweeps;
    if !sweeps >= 1 && over () then stop := true
  done;
  { samples = List.rev !samples; layers = List.rev !lsamples; cals = !cals;
    attempted = !attempted; failed = !failed; sweeps = !sweeps }

(* Each request kind's (app x pass) median of [f] over the run. *)
let kind_medians ?(f = fun s -> s.ms) samples =
  let kinds = Hashtbl.create 32 in
  List.iter
    (fun s ->
       let k = (s.app, s.pass) in
       Hashtbl.replace kinds k (f s :: Option.value ~default:[] (Hashtbl.find_opt kinds k)))
    samples;
  Hashtbl.fold (fun _ xs acc -> median xs :: acc) kinds []

(* The wall cost of one sweep: the sum of the kind medians, robust to
   a slow outlier. *)
let sweep_ms samples = List.fold_left ( +. ) 0. (kind_medians samples)

let run ~seed ~seconds ~setup_s : Common.result =
  let refs, apps = setup () in
  let o =
    closed_loop ~seed ~salt:1 ~seconds ~whole_sweeps:false ~layers:false ~refs
      ~apps
  in
  write_samples (Printf.sprintf "analysis-corpus-seed%d" seed)
    (List.map
       (fun s ->
          [ string_of_int s.sweep; s.app; s.pass; Printf.sprintf "%.4f" s.ms;
            Printf.sprintf "%.4f" s.norm ])
       o.samples);
  let pct = float_of_int tail_pct /. 100. in
  let norm = kind_medians ~f:(fun s -> s.norm) o.samples in
  let wall = kind_medians o.samples in
  let sweep_ms = List.fold_left ( +. ) 0. norm in
  let per_sweep = float_of_int (Array.length apps * List.length passes) in
  { attempted = o.attempted;
    failed = o.failed;
    metrics =
      Metrics.fill_end_to_end
        [ ("setup_s", setup_s);
          ("peak_rss_mb", peak_rss_mb 0);
          ("sweep_s", sweep_ms /. 1000.);
          ("ops_per_s", per_sweep *. 1000. /. sweep_ms);
          ("p50_ms", median norm);
          ("tail_ms", quantile norm pct) ];
    notes =
      [ kinds_note ~pct:tail_pct ~kinds:(List.length norm) ~sweeps:o.sweeps;
        wall_note ~kernels:[ (domains, o.cals) ]
          [ ("sweep_s", List.fold_left ( +. ) 0. wall /. 1000.);
            ("p50_ms", median wall); ("tail_ms", quantile wall pct) ] ] }

(* Sum over apps of the per-app median of [f]. *)
let per_app_sum layers f =
  let by_app = Hashtbl.create 16 in
  List.iter
    (fun (app, s) ->
       Hashtbl.replace by_app app
         (f s :: Option.value ~default:[] (Hashtbl.find_opt by_app app)))
    layers;
  Hashtbl.fold (fun _ xs acc -> acc +. median xs) by_app 0.

(* Exact per-sweep counts: the value from each app's last sample. *)
let per_app_last layers f =
  let last = Hashtbl.create 16 in
  List.iter (fun (app, s) -> Hashtbl.replace last app (f s)) layers;
  Hashtbl.fold (fun _ v acc -> acc +. v) last 0.

let run_traced ~seed ~seconds : Common.result =
  let refs, apps = setup () in
  let half = seconds /. 2. in
  let plain =
    closed_loop ~seed ~salt:2 ~seconds:half ~whole_sweeps:true ~layers:false
      ~refs ~apps
  in
  Span.on := true;
  let t0 = now () in
  let traced =
    closed_loop ~seed ~salt:3 ~seconds:half ~whole_sweeps:true ~layers:true
      ~refs ~apps
  in
  let window_ms = ms_between t0 (now ()) in
  Span.on := false;
  let ls = traced.layers in
  let sum f = per_app_sum ls f and last f = per_app_last ls f in
  let exec_ms = sum (fun s -> s.exec_ms) in
  let busy = last (fun s -> Int64.to_float s.busy_ticks) in
  let per_app_exec =
    List.map
      (fun (w : Workloads.Workload.t) ->
         ( "interp.exec_ms." ^ app_key w.name,
           median
             (List.filter_map
                (fun (a, s) -> if a = w.name then Some s.exec_ms else None)
                ls) ))
      (Array.to_list apps)
  in
  let spans = Span.all () in
  { attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    metrics =
      Metrics.fill_per_layer
        ([ ("jsir.parse_ms", sum (fun s -> s.parse_ms));
           ("jsir.resolve_ms", sum (fun s -> s.resolve_ms));
           ("analysis.analyze_ms", sum (fun s -> s.analyze_ms));
           ("analysis.loops_proven", last (fun s -> float_of_int s.proven));
           ("interp.busy_ticks", busy);
           ("interp.minor_words", last (fun s -> s.minor_words));
           ("interp.ns_per_tick", exec_ms *. 1e6 /. busy);
           ("ceres.instrument_ms", sum (fun s -> s.instrument_ms));
           ("ceres.light_ms", sum (fun s -> s.light_ms));
           ("ceres.loop_ms", sum (fun s -> s.loop_ms));
           ("ceres.dep_ms", sum (fun s -> s.dep_ms));
           ("ceres.accesses_checked", last (fun s -> float_of_int s.accesses));
           ( "ceres.dep_overhead_x",
             sum (fun s -> s.dep_ms) /. sum (fun s -> s.exec_dep_ms) );
           ( "trace.overhead_frac",
             (sweep_ms traced.samples /. sweep_ms plain.samples) -. 1. );
           ("trace.spans", float_of_int (List.length spans)) ]
         @ per_app_exec
         @ Metrics.self_fracs ~window_ms spans);
    notes = [ ("sweeps_untraced", Json.Int plain.sweeps);
              ("sweeps_traced", Json.Int traced.sweeps) ] }
