(* Domain pool, parallel combinators and speculative loop execution.
   This container may expose a single core; every test here checks
   correctness (results, exceptions, abort reasons), never speedup. *)

let qtest = QCheck_alcotest.to_alcotest

let test_parallel_for_covers_range () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_parallel_for_empty_and_tiny () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      let count = Atomic.make 0 in
      Js_parallel.Pool.parallel_for p ~lo:5 ~hi:5 (fun _ ->
          Atomic.incr count);
      Alcotest.(check int) "empty range" 0 (Atomic.get count);
      Js_parallel.Pool.parallel_for p ~lo:5 ~hi:6 (fun _ ->
          Atomic.incr count);
      Alcotest.(check int) "single-element range" 1 (Atomic.get count))

let test_parallel_for_exception_propagates () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      match
        Js_parallel.Pool.parallel_for p ~lo:0 ~hi:100 (fun i ->
            if i = 37 then failwith "boom")
      with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | () -> Alcotest.fail "expected exception");
  (* pool remains usable after a failed loop *)
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      (try
         Js_parallel.Pool.parallel_for p ~lo:0 ~hi:10 (fun _ ->
             failwith "first")
       with Failure _ -> ());
      let sum =
        Js_parallel.Pool.parallel_reduce p ~lo:1 ~hi:11 ~init:0
          ~body:(fun i -> i)
          ~combine:( + ) ()
      in
      Alcotest.(check int) "pool survives exceptions" 55 sum)

let test_parallel_reduce_sum () =
  Js_parallel.Pool.with_pool ~domains:4 (fun p ->
      let sum =
        Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:100_000 ~init:0
          ~body:(fun i -> i)
          ~combine:( + ) ()
      in
      Alcotest.(check int) "gauss" (100_000 * 99_999 / 2) sum)

let prop_reduce_matches_sequential_fold =
  QCheck.Test.make ~name:"parallel_reduce = List fold" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 500))
    (fun (domains, n) ->
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let body i = (i * 7) mod 13 in
           let par =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~init:0 ~body
               ~combine:( + ) ()
           in
           let seq = List.fold_left ( + ) 0 (List.init n body) in
           par = seq))

(* Regression: a non-identity [init] must be counted exactly once. The
   old pool seeded every chunk accumulator with [init] *and* used it
   as the base of the final combine, so any init <> 0 here was counted
   chunks+1 times. *)
let prop_reduce_non_identity_init =
  QCheck.Test.make ~name:"parallel_reduce with non-identity init" ~count:30
    QCheck.(
      triple (int_range 1 4) (int_range 0 500) (int_range (-50) 50))
    (fun (domains, n, init) ->
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let body i = ((i * 7) mod 13) - 5 in
           let par =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~init ~body
               ~combine:( + ) ()
           in
           let seq =
             List.fold_left
               (fun acc i -> acc + body i)
               init
               (List.init n Fun.id)
           in
           par = seq))

(* String concatenation is associative but not commutative, and ">" is
   not its identity: the reduce must combine the chunk partials in
   ascending index order onto a single init for this to hold. *)
let prop_reduce_associative_non_commutative =
  QCheck.Test.make ~name:"parallel_reduce ordered (string concat)" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 0 120))
    (fun (domains, n) ->
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let body i = String.make 1 (Char.chr (97 + (i mod 26))) in
           let par =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~init:">" ~body
               ~combine:( ^ ) ()
           in
           let seq =
             List.fold_left
               (fun acc i -> acc ^ body i)
               ">"
               (List.init n Fun.id)
           in
           String.equal par seq))

let test_map_array () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let src = Array.init 1000 (fun i -> i) in
      let dst = Js_parallel.Pool.map_array p (fun x -> x * x) src in
      Alcotest.(check bool) "squares" true
        (Array.for_all2 (fun a b -> a * a = b) src dst);
      Alcotest.(check (array int)) "empty array" [||]
        (Js_parallel.Pool.map_array p (fun x -> x) [||]))

let test_pool_shutdown_idempotent () =
  let p = Js_parallel.Pool.create ~domains:2 () in
  Js_parallel.Pool.parallel_for p ~lo:0 ~hi:10 (fun _ -> ());
  Js_parallel.Pool.shutdown p;
  Js_parallel.Pool.shutdown p (* second shutdown is a no-op *)

let test_pool_size_clamped () =
  Js_parallel.Pool.with_pool ~domains:0 (fun p ->
      Alcotest.(check int) "at least one participant" 1
        (Js_parallel.Pool.size p))

let test_submit_after_shutdown_raises () =
  let p = Js_parallel.Pool.create ~domains:2 () in
  Js_parallel.Pool.shutdown p;
  match Js_parallel.Pool.submit p (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit on a shut-down pool must raise"

let test_submitted_jobs_run () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let count = Atomic.make 0 in
      for _ = 1 to 20 do
        Js_parallel.Pool.submit p (fun () -> Atomic.incr count)
      done;
      (* a loop barrier also drains previously submitted jobs *)
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:1 (fun _ -> ());
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get count < 20 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check int) "all submitted jobs ran" 20 (Atomic.get count))

(* Satellite regression: an exception escaping a submitted job must not
   vanish — it is counted in the tasks_failed telemetry and routed to
   the pool's [on_error] handler. *)
let test_submit_failure_reported () =
  let seen = Atomic.make 0 in
  let p =
    Js_parallel.Pool.create ~domains:2
      ~on_error:(fun exn ->
          if exn = Failure "submitted boom" then Atomic.incr seen)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Js_parallel.Pool.shutdown p)
    (fun () ->
       Js_parallel.Pool.submit p (fun () -> failwith "submitted boom");
       Js_parallel.Pool.submit p (fun () -> ());
       let deadline = Unix.gettimeofday () +. 5.0 in
       while Atomic.get seen < 1 && Unix.gettimeofday () < deadline do
         ignore (Js_parallel.Pool.parallel_for p ~lo:0 ~hi:1 (fun _ -> ()));
         Thread.yield ()
       done;
       Alcotest.(check int) "on_error saw the exception" 1 (Atomic.get seen);
       Alcotest.(check int) "tasks_failed counted" 1
         (Js_parallel.Telemetry.total_failed (Js_parallel.Pool.stats p));
       Alcotest.(check bool) "json mentions tasks_failed" true
         (Helpers.contains ~sub:"\"tasks_failed\":1"
            (Js_parallel.Pool.stats_json p)))

(* [run_all]: the blocking primitive the service's session threads
   wait on. Jobs run on worker domains only, never the caller's. *)
let self_domain () = (Domain.self () :> int)

let test_run_all_on_workers () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      let caller = self_domain () in
      let doms = Js_parallel.Pool.run_all p (Array.make 12 self_domain) in
      Alcotest.(check int) "one result per job" 12 (Array.length doms);
      Array.iter
        (fun d -> Alcotest.(check bool) "ran off the caller's domain" true
            (d <> caller))
        doms;
      Alcotest.(check (array int)) "results in job order" [| 0; 1; 4; 9 |]
        (Js_parallel.Pool.run_all p (Array.init 4 (fun i () -> i * i)));
      Alcotest.(check (array int)) "empty wave" [||]
        (Js_parallel.Pool.run_all p [||]);
      Alcotest.(check int) "participant 0 executed nothing" 0
        (List.hd (Js_parallel.Pool.stats p).domains).tasks_executed)

let test_run_all_reraises () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      let ran = Atomic.make 0 in
      let job i () =
        Atomic.incr ran;
        if i = 1 || i = 3 then failwith (Printf.sprintf "job %d" i)
      in
      (match Js_parallel.Pool.run_all p (Array.init 5 job) with
       | _ -> Alcotest.fail "a raising job must re-raise in the caller"
       | exception Failure msg ->
         Alcotest.(check string) "first failure in job order" "job 1" msg);
      Alcotest.(check int) "every job still ran" 5 (Atomic.get ran);
      Alcotest.(check (array int)) "pool usable afterwards" [| 7 |]
        (Js_parallel.Pool.run_all p [| (fun () -> 7) |]))

let test_run_all_inline_on_one_participant () =
  Js_parallel.Pool.with_pool ~domains:1 (fun p ->
      let here = (self_domain (), Thread.id (Thread.self ())) in
      let where () = (self_domain (), Thread.id (Thread.self ())) in
      Array.iter
        (fun w -> Alcotest.(check (pair int int)) "ran in the caller" here w)
        (Js_parallel.Pool.run_all p [| where; where |]))

(* Chaos: [run_all] must not draw pool-submit ordinals, or enabling the
   server's execution pool would shift every seed's submit schedule.
   The doom sequence drawn after a [run_all] equals the one drawn on a
   fresh seed; [Some n] carries the ordinal, so any advance shows. *)
let test_run_all_bypasses_submit_doom () =
  let draws () = List.init 20 (fun _ -> Js_parallel.Fault.submit_doom ()) in
  Js_parallel.Fault.enable ~seed:3;
  Fun.protect ~finally:Js_parallel.Fault.disable (fun () ->
      let reference = draws () in
      Alcotest.(check bool) "the seed dooms some ordinal" true
        (List.exists Option.is_some reference);
      Js_parallel.Fault.enable ~seed:3;
      Js_parallel.Pool.with_pool ~domains:3 (fun p ->
          ignore (Js_parallel.Pool.run_all p (Array.make 8 (fun () -> ()))));
      Alcotest.(check (list (option int))) "submit ordinal did not advance"
        reference (draws ()))

(* Property: whatever chunking and whichever index fails, the raise is
   re-raised in the caller, no chunk is left parked, and the same pool
   then runs a clean parallel_for and parallel_reduce. *)
let prop_pool_reusable_after_failure =
  QCheck.Test.make ~name:"pool reusable after any failing index" ~count:30
    QCheck.(
      quad (int_range 1 4) (int_range 1 200) (int_range 1 64)
        (int_range 0 1000))
    (fun (domains, n, chunk, fail_at) ->
       let fail_at = fail_at mod n in
       Js_parallel.Pool.with_pool ~domains (fun p ->
           let raised =
             match
               Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n ~chunk (fun i ->
                   if i = fail_at then failwith "qcheck boom")
             with
             | exception Failure msg -> msg = "qcheck boom"
             | () -> false
           in
           let hits = Array.make n 0 in
           Js_parallel.Pool.parallel_for p ~lo:0 ~hi:n ~chunk (fun i ->
               hits.(i) <- hits.(i) + 1);
           let clean = Array.for_all (fun h -> h = 1) hits in
           let sum =
             Js_parallel.Pool.parallel_reduce p ~lo:0 ~hi:n ~chunk ~init:0
               ~body:Fun.id ~combine:( + ) ()
           in
           raised && clean && sum = n * (n - 1) / 2))

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_telemetry_tasks_sum_to_chunks () =
  Js_parallel.Pool.with_pool ~domains:3 (fun p ->
      Js_parallel.Pool.reset_stats p;
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:64 ~chunk:1 (fun _ -> ());
      let st = Js_parallel.Pool.stats p in
      Alcotest.(check int) "participants" 3 st.participants;
      Alcotest.(check int) "one loop recorded" 1 st.loops_run;
      Alcotest.(check int) "tasks executed = chunks" 64
        (Js_parallel.Telemetry.total_tasks st);
      match st.recent_loops with
      | [ l ] ->
        Alcotest.(check int) "chunk count in loop record" 64 l.chunks;
        Alcotest.(check bool) "wall >= 0" true (l.wall_ms >= 0.)
      | ls -> Alcotest.failf "expected 1 loop record, got %d" (List.length ls))

let burn_ms ms =
  let t0 = Unix.gettimeofday () in
  let x = ref 0. in
  while Unix.gettimeofday () -. t0 < ms /. 1000. do
    for _ = 1 to 1000 do
      x := !x +. 1.
    done
  done;
  ignore !x

let test_telemetry_steals_under_imbalance () =
  Js_parallel.Pool.with_pool ~domains:4 (fun p ->
      (* chunk 1 puts 8 tasks on each of the 4 deques; task 0 burns
         ~120 ms, so whoever picks it up stalls and the rest of its
         deque is stolen by participants that finished their share.
         Whether a steal actually *lands* depends on how the OS
         schedules 4 domains (on a single hardware thread a stalled
         worker may simply never be preempted mid-deque), so retry the
         imbalanced loop a few times and require one success overall. *)
      let rec attempt tries =
        Js_parallel.Pool.reset_stats p;
        Js_parallel.Pool.parallel_for p ~lo:0 ~hi:32 ~chunk:1 (fun i ->
            if i = 0 then burn_ms 120. else burn_ms 1.);
        let st = Js_parallel.Pool.stats p in
        Alcotest.(check bool) "steals attempted" true
          (List.fold_left
             (fun a (d : Js_parallel.Telemetry.domain_stats) ->
                a + d.steals_attempted)
             0 st.domains
           > 0);
        if Js_parallel.Telemetry.total_steals st = 0 && tries > 1 then
          attempt (tries - 1)
        else
          Alcotest.(check bool) "steals succeeded under imbalance" true
            (Js_parallel.Telemetry.total_steals st > 0)
      in
      attempt 10)

let test_stats_json_shape () =
  Js_parallel.Pool.with_pool ~domains:2 (fun p ->
      Js_parallel.Pool.parallel_for p ~lo:0 ~hi:100 (fun _ -> ());
      let json = Js_parallel.Pool.stats_json p in
      List.iter
        (fun sub ->
           Alcotest.(check bool)
             (Printf.sprintf "json mentions %s" sub)
             true
             (Helpers.contains ~sub json))
        [ "\"participants\":2"; "\"loops_run\""; "\"tasks_executed\"";
          "\"steals_succeeded\""; "\"domains\":["; "\"loops\":[";
          "\"wall_ms\""; "\"fork_ms\""; "\"join_ms\""; "\"idle_spins\"" ])

(* ------------------------------------------------------------------ *)
(* Loop execution with fallback: Par_exec forks only the nests the static
   analyzer proves and commits their merge; a poisoned instance is
   discarded and re-run sequentially on the untouched master, and its
   reason is recorded. *)

(* [body] as the loop over [0, 40) after setting up 40-element [src]
   and [dst] arrays (writes into preallocated slots: a fork that grows
   an array conflicts with its siblings' growth) *)
let map_loop body =
  "var src = []; var dst = [];\n\
   (function() {\n\
     for (var i = 0; i < 40; i++) { src.push(i * 3 % 11); dst.push(0); }\n\
   })();\n\
   var acc = 0;\n\
   for (var i = 0; i < 40; i++) { " ^ body ^ " }\n\
   console.log(acc, dst.join(\",\"));"

(* Every why-not fact the static analyzer attaches to [src]'s loops. *)
let why_not src =
  (Analysis.Driver.analyze (Jsir.Parser.parse_program src)).rows
  |> List.concat_map (fun (r : Analysis.Driver.row) ->
      Analysis.Verdict.facts r.verdict)
  |> List.map (fun (f : Analysis.Verdict.fact) -> f.why)

let commits_in_parallel src =
  let par, pe = Helpers.run_par_exec src in
  Alcotest.(check (result (list string) reject))
    "par = seq" (Ok (Helpers.run_console src)) par;
  Alcotest.(check int) "one nest run in parallel" 1
    (Js_parallel.Par_exec.nests_run pe)

let test_speculation_commits_on_map () =
  commits_in_parallel (map_loop "dst[i] = src[i] * src[i];")

let test_speculation_reduction_accumulator_allowed () =
  commits_in_parallel (map_loop "acc += src[i];")

(* A loop the static analyzer refuses is never forked: its why-not
   facts name the blocker, and Par_exec runs it sequentially. *)
let refused_statically src ~fact =
  let facts = why_not src in
  if not (List.exists (Helpers.contains ~sub:fact) facts) then
    Alcotest.failf "no fact names %S among: %s" fact
      (String.concat "; " facts);
  let par, pe = Helpers.run_par_exec ~dom:true src in
  Alcotest.(check (result (list string) reject))
    "par = seq" (Ok (Helpers.run_console ~dom:true src)) par;
  Alcotest.(check int) "nothing forked" 0
    (List.length (Js_parallel.Par_exec.nest_rows pe))

let test_speculation_aborts_on_flow () =
  refused_statically ~fact:"dst: stride 1 does not clear footprint"
    (map_loop "dst[i] = (i > 0 ? dst[i - 1] : 0) + src[i];")

let test_speculation_aborts_on_waw () =
  refused_statically ~fact:"element of dst is rewritten every iteration"
    (map_loop "dst[0] = i;")

let test_speculation_aborts_on_dom () =
  refused_statically ~fact:"accesses the host/DOM"
    ("var el = document.createElement(\"div\");\n\
      document.body.appendChild(el);\n"
     ^ map_loop "el.setAttribute(\"n\", \"\" + i);")

(* A proven loop poisoned at run time falls back once per instance,
   under exactly one reason whose count equals the fallbacks. *)
let falls_back_for ?budget src ~reason =
  let par, pe = Helpers.run_par_exec ?budget src in
  (match Js_parallel.Par_exec.nest_rows pe with
   | [ (_, _, s) ] ->
     Alcotest.(check int) "no parallel instance" 0 s.instances;
     Alcotest.(check bool) "fell back" true (s.fallbacks > 0);
     Alcotest.(check (list (pair string int))) "reason counted"
       [ (reason, s.fallbacks) ] s.fallback_reasons
   | rows ->
     Alcotest.failf "expected one planned nest, got %d" (List.length rows));
  par

(* Plain sequential execution as the oracle: console or exception. *)
let seq_outcome ?budget src =
  match Helpers.run_console ?budget src with
  | console -> Ok console
  | exception e -> Error e

let test_speculation_reports_runtime_errors () =
  let src = map_loop "if (i == 30) { throw \"boom \" + i; } dst[i] = i;" in
  match
    (falls_back_for src ~reason:"js exception inside chunk", seq_outcome src)
  with
  | Error (Interp.Value.Js_throw (Str p)), Error (Interp.Value.Js_throw (Str s))
    ->
    Alcotest.(check string) "same throw as sequential" s p
  | _ -> Alcotest.fail "both runs must raise the loop's throw"

let test_speculation_aborts_on_runaway_body () =
  let src = map_loop "var k = 0; while (true) { k = k + 1; } dst[i] = k;" in
  match
    ( falls_back_for ~budget:100_000L src
        ~reason:"budget exhausted inside chunk",
      seq_outcome ~budget:100_000L src )
  with
  | Error Interp.Value.Budget_exhausted, Error Interp.Value.Budget_exhausted -> ()
  | _ -> Alcotest.fail "both runs must exhaust the budget"

let test_math_random_reason () =
  let src = map_loop "dst[i] = Math.random();" in
  Alcotest.(check (result (list string) reject))
    "par = seq" (Ok (Helpers.run_console src))
    (falls_back_for src ~reason:"Math.random drawn inside chunk")

(* ------------------------------------------------------------------ *)
(* Native kernels: parallel equals sequential *)

let test_kernels_parallel_equals_sequential () =
  List.iter
    (fun (k : Workloads.Kernels.kernel) ->
       let size = max 32 (k.default_size / 8) in
       let seq = k.run size in
       let par =
         Js_parallel.Pool.with_pool ~domains:2 (fun p -> k.run ~pool:p size)
       in
       Alcotest.(check bool)
         (k.kname ^ " checksum equality")
         true
         (Float.abs (seq -. par) < (1e-9 *. Float.abs seq) +. 1e-9))
    Workloads.Kernels.all

let suite =
  [ ("parallel_for coverage", `Quick, test_parallel_for_covers_range);
    ("parallel_for edge ranges", `Quick, test_parallel_for_empty_and_tiny);
    ("parallel_for exceptions", `Quick, test_parallel_for_exception_propagates);
    ("parallel_reduce sum", `Quick, test_parallel_reduce_sum);
    qtest prop_reduce_matches_sequential_fold;
    qtest prop_reduce_non_identity_init;
    qtest prop_reduce_associative_non_commutative;
    ("map_array", `Quick, test_map_array);
    ("shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("pool size clamped", `Quick, test_pool_size_clamped);
    ("submit after shutdown raises", `Quick, test_submit_after_shutdown_raises);
    ("submitted jobs run", `Quick, test_submitted_jobs_run);
    ("submit failures reported", `Quick, test_submit_failure_reported);
    qtest prop_pool_reusable_after_failure;
    ("run_all runs on workers", `Quick, test_run_all_on_workers);
    ("run_all re-raises", `Quick, test_run_all_reraises);
    ("run_all inline on 1 participant", `Quick,
     test_run_all_inline_on_one_participant);
    ("run_all bypasses submit doom", `Quick,
     test_run_all_bypasses_submit_doom);
    ("telemetry tasks = chunks", `Quick, test_telemetry_tasks_sum_to_chunks);
    ("telemetry steals under imbalance", `Slow,
     test_telemetry_steals_under_imbalance);
    ("telemetry json shape", `Quick, test_stats_json_shape);
    ("speculation commits on map", `Quick, test_speculation_commits_on_map);
    ("speculation aborts on flow", `Quick, test_speculation_aborts_on_flow);
    ("speculation aborts on WAW", `Quick, test_speculation_aborts_on_waw);
    ("speculation aborts on DOM", `Quick, test_speculation_aborts_on_dom);
    ("speculation reports errors", `Quick, test_speculation_reports_runtime_errors);
    ("speculation aborts on runaway body", `Quick,
     test_speculation_aborts_on_runaway_body);
    ("speculation allows reduction", `Quick, test_speculation_reduction_accumulator_allowed);
    ("speculation reports Math.random", `Quick, test_math_random_reason);
    ("kernels parallel = sequential", `Slow, test_kernels_parallel_equals_sequential) ]
