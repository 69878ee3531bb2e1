(* Benchmark entry point (normally started by perfbench/run.py, which
   builds it first):

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints, as its last two stdout lines, a
   provenance object and the result object
   {"correct","attempted","failed","metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 a separate traced
   run reports the per-layer ones and writes its spans to
   perfbench-out/trace-NAME-seedN.jsonl.

   Internal modes: --ready NAME runs a workload's set-up and exits
   (timed from outside for setup_s); --record-reference rewrites the
   analysis-corpus reference digests. *)

open Common

let workloads = [ "analysis-corpus"; "exec-par"; "serve-mix" ]

let definition_digest () =
  let apps = String.concat "," Workloads.Registry.names in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ Printf.sprintf "analysis-corpus:jobs=1;passes=pipeline,crossval;tail=p%d-of-kind-medians;apps=%s"
              Analysis_corpus.tail_pct apps;
            read_file Analysis_corpus.reference_file;
            Printf.sprintf "exec-par:jobs=%d;tail=p%d-of-kind-medians;apps=%s" Exec_par.jobs
              Exec_par.tail_pct apps;
            Serve_mix.definition;
            Printf.sprintf "calib:size=%d;reference_ms=%g,%g" Calib.size
              (Calib.reference_ms ~domains:1) (Calib.reference_ms ~domains:2) ]))

let ready = function
  | "analysis-corpus" -> ignore (Analysis_corpus.setup ())
  | "exec-par" -> Js_parallel.Pool.shutdown (snd (Exec_par.setup ()))
  | w -> failwith ("no set-up mode for " ^ w)

(* Set-up time: a fresh process that runs the workload's set-up and
   exits, started [setup_reps] times; the median. *)
let setup_s workload =
  let times =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let pid =
          spawn ~log:(out_dir ^ "/ready.log") Sys.executable_name
            [ "--ready"; workload ]
        in
        if wait_exit pid <> 0 then failwith "set-up process failed";
        s_between t0 (now ()))
  in
  median times

let provenance ~workload ~seed ~seconds ~trace (r : result) =
  Json.Obj
    ([ ("workload", Json.Str workload);
       ("seed", Json.Int seed);
       ("seconds", Json.Float seconds);
       ("trace", Json.Int trace);
       ("nproc", Json.Int (nproc ()));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("server_jobs", Json.Int Serve_mix.server_jobs);
       ("workload_digest", Json.Str (definition_digest ())) ]
     @ r.notes)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let ready_mode = ref "" and record = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--ready", Arg.Set_string ready_mode, "NAME run a workload's set-up only");
      ("--record-reference", Arg.Set record, " rewrite the analysis-corpus digests") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record then (Analysis_corpus.record_reference (); exit 0);
  if !ready_mode <> "" then (ready !ready_mode; exit 0);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; one of: " ^ String.concat ", " workloads);
    exit 2
  end;
  ensure_out_dir ();
  Service.Serve.ignore_sigpipe ();
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let seed = !seed and seconds = !seconds in
  let r =
    match !workload, !trace with
    | "analysis-corpus", 0 ->
      Analysis_corpus.run ~seed ~seconds ~setup_s:(setup_s "analysis-corpus")
    | "exec-par", 0 -> Exec_par.run ~seed ~seconds ~setup_s:(setup_s "exec-par")
    | "serve-mix", 0 -> Serve_mix.run ~seed ~seconds
    | "analysis-corpus", _ -> Analysis_corpus.run_traced ~seed ~seconds
    | "exec-par", _ -> Exec_par.run_traced ~seed ~seconds
    | _ -> Serve_mix.run_traced ~seed ~seconds
  in
  if !trace <> 0 then
    Span.write (Printf.sprintf "%s/trace-%s-seed%d.jsonl" out_dir !workload seed);
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("provenance", provenance ~workload:!workload ~seed ~seconds ~trace:!trace r) ]));
  print_endline (Json.to_string (result_json r))
