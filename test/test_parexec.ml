(* Parallel loop execution (Par_exec): the fork/merge path must be
   observably indistinguishable from sequential interpretation — same
   console lines, same virtual-clock readings — across every workload
   and every job count, with proven nests actually going through the
   pool where the analyzer found them. *)

let qtest = QCheck_alcotest.to_alcotest

type obs = {
  console : string list;
  busy : int64;
  now : int64;
}

let observe (st : Interp.Value.state) =
  { console = st.console;
    busy = Ceres_util.Vclock.busy st.clock;
    now = Ceres_util.Vclock.now st.clock }

let obs_testable : obs Alcotest.testable =
  Alcotest.testable
    (fun ppf o ->
       Format.fprintf ppf "busy=%Ld now=%Ld console=[%s]" o.busy o.now
         (String.concat "; " (List.rev_map String.escaped o.console)))
    ( = )

let workload name = Option.get (Workloads.Registry.find name)

let run_seq w = observe (Workloads.Harness.run_plain w).st

let run_par ~pool ~jobs w =
  let pe =
    Js_parallel.Par_exec.create ~mode:(Js_parallel.Par_exec.Parallel pool)
      ~jobs ()
  in
  let o = observe (Workloads.Harness.run_plain ~par:pe w).st in
  (o, pe)

(* ------------------------------------------------------------------ *)
(* Acceptance: parallel output ≡ sequential bytes on all 12 workloads. *)

let test_all_workloads_deterministic () =
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
           let seq = run_seq w in
           let par, _ = run_par ~pool ~jobs:2 w in
           Alcotest.check obs_testable
             (Printf.sprintf "%s: par ≡ seq at -j 2" w.name)
             seq par)
        Workloads.Registry.all)

(* The workloads whose proven nests are big enough to fork must really
   execute through the pool (not silently fall back), and stay
   deterministic across job counts. *)
let test_proven_nests_execute () =
  let seq_caman = run_seq (workload "CamanJS") in
  let seq_haar = run_seq (workload "HAAR.js") in
  List.iter
    (fun jobs ->
       Js_parallel.Pool.with_pool ~domains:jobs (fun pool ->
           let par, pe = run_par ~pool ~jobs (workload "CamanJS") in
           Alcotest.check obs_testable
             (Printf.sprintf "CamanJS: par ≡ seq at -j %d" jobs)
             seq_caman par;
           Alcotest.(check bool)
             (Printf.sprintf "CamanJS runs nests in parallel at -j %d" jobs)
             true
             (Js_parallel.Par_exec.nests_run pe > 0);
           let par, pe = run_par ~pool ~jobs (workload "HAAR.js") in
           Alcotest.check obs_testable
             (Printf.sprintf "HAAR.js: par ≡ seq at -j %d" jobs)
             seq_haar par;
           Alcotest.(check bool)
             (Printf.sprintf "HAAR.js runs nests in parallel at -j %d" jobs)
             true
             (Js_parallel.Par_exec.nests_run pe > 0)))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Generated additive reductions: the merged accumulator must equal
   the sequential run and the plain [fold_left] over the inputs. *)

let reduction_source init xs =
  let n = List.length xs in
  Printf.sprintf
    "var a = [%s];\nvar acc = %d;\nfor (var i = 0; i < %d; i++) { acc = acc \
     + a[i]; }\nconsole.log(acc);"
    (String.concat ", " (List.map string_of_int xs))
    init n

let generated_reductions_deterministic =
  QCheck.Test.make ~name:"generated reductions: par ≡ seq ≡ fold_left"
    ~count:30
    QCheck.(
      pair (int_range (-1000) 1000)
        (list_of_size (Gen.int_range 16 64) (int_range (-10000) 10000)))
    (fun (init, xs) ->
       let src = reduction_source init xs in
       let seq = Helpers.run_console src in
       let par, pe = Helpers.run_par_exec src in
       let expect =
         Printf.sprintf "%d" (List.fold_left ( + ) init xs)
       in
       par = Ok seq && seq = [ expect ]
       && Js_parallel.Par_exec.nests_run pe = 1)

(* [parallel_reduce]'s merged partials against the plain fold. *)
let parallel_reduce_equals_fold pool =
  QCheck.Test.make ~name:"parallel_reduce = fold_left" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 200) (int_range (-1000) 1000))
    (fun xs ->
       let arr = Array.of_list xs in
       let sum =
         Js_parallel.Pool.parallel_reduce pool ~lo:0 ~hi:(Array.length arr)
           ~init:0
           ~body:(fun i -> arr.(i))
           ~combine:( + ) ()
       in
       sum = List.fold_left ( + ) 0 xs)

let suite =
  [ Alcotest.test_case "12 workloads: par output ≡ seq at -j 2" `Slow
      test_all_workloads_deterministic;
    Alcotest.test_case "proven nests execute via pool (-j 1/2/4)" `Slow
      test_proven_nests_execute;
    qtest generated_reductions_deterministic;
    qtest (parallel_reduce_equals_fold (Lazy.force Helpers.pool)) ]
