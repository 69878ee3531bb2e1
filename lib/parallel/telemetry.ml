(* Scheduling telemetry for the work-stealing pool.

   TASKPROF (Yoga & Nagarakatte) and ThreadScope both argue that a
   parallel runtime is only trustworthy when its scheduling behaviour
   is observable; this module is the pool's observability layer. Every
   participant owns one [counters] record and is the only writer of it
   (the reader races are benign: stats snapshots may lag by a few
   increments), so the counters add no cross-domain contention to the
   hot path. *)

type counters = {
  tasks : int Atomic.t; (* jobs executed by this participant *)
  failed : int Atomic.t; (* jobs whose exception escaped to the pool *)
  steal_attempts : int Atomic.t; (* probes of another participant's deque *)
  steals : int Atomic.t; (* probes that yielded a job *)
  idle_spins : int Atomic.t; (* backoff iterations with nothing to run *)
}

let make_counters () =
  { tasks = Atomic.make 0;
    failed = Atomic.make 0;
    steal_attempts = Atomic.make 0;
    steals = Atomic.make 0;
    idle_spins = Atomic.make 0 }

let note_task c = Atomic.incr c.tasks
let note_task_failed c = Atomic.incr c.failed
let note_steal_attempt c = Atomic.incr c.steal_attempts
let note_steal_success c = Atomic.incr c.steals
let note_idle c = Atomic.incr c.idle_spins

let reset_counters c =
  Atomic.set c.tasks 0;
  Atomic.set c.failed 0;
  Atomic.set c.steal_attempts 0;
  Atomic.set c.steals 0;
  Atomic.set c.idle_spins 0

(* ------------------------------------------------------------------ *)
(* Process-wide robustness counters. Retries happen in [Supervisor]
   and fault injections in [Fault] — neither owns a pool — so these
   live here as globals and every pool snapshot carries them. *)

let retries_total = Atomic.make 0
let faults_total = Atomic.make 0
let cache_hits_total = Atomic.make 0
let cache_misses_total = Atomic.make 0
let cache_evictions_total = Atomic.make 0

(* Server-side request lifecycle (admission control, deadlines,
   session fate). They live here for the same reason the cache
   counters do: the admission gate and session loops own no pool, and
   the {"op":"telemetry"} health snapshot wants one source. *)
let requests_admitted_total = Atomic.make 0
let requests_shed_total = Atomic.make 0
let requests_timed_out_total = Atomic.make 0
let sessions_dropped_total = Atomic.make 0

let note_retry () = Atomic.incr retries_total
let note_fault_injected () = Atomic.incr faults_total
let note_cache_hit () = Atomic.incr cache_hits_total
let note_cache_miss () = Atomic.incr cache_misses_total
let note_cache_eviction () = Atomic.incr cache_evictions_total

(* A cache wipe also retires the cleared cache's share of the global
   counters, so the process-wide numbers keep equaling the sum over
   live caches (the invariant every snapshot consumer assumes). *)
let note_cache_cleared ~hits ~misses ~evictions =
  ignore (Atomic.fetch_and_add cache_hits_total (-hits));
  ignore (Atomic.fetch_and_add cache_misses_total (-misses));
  ignore (Atomic.fetch_and_add cache_evictions_total (-evictions))
let note_request_admitted () = Atomic.incr requests_admitted_total
let note_request_shed () = Atomic.incr requests_shed_total
let note_request_timed_out () = Atomic.incr requests_timed_out_total
let note_session_dropped () = Atomic.incr sessions_dropped_total
let requests_admitted () = Atomic.get requests_admitted_total
let requests_shed () = Atomic.get requests_shed_total
let requests_timed_out () = Atomic.get requests_timed_out_total
let sessions_dropped () = Atomic.get sessions_dropped_total

let retries () = Atomic.get retries_total
let faults_injected () = Atomic.get faults_total
let cache_hits () = Atomic.get cache_hits_total
let cache_misses () = Atomic.get cache_misses_total
let cache_evictions () = Atomic.get cache_evictions_total

let reset_globals () =
  Atomic.set retries_total 0;
  Atomic.set faults_total 0;
  Atomic.set cache_hits_total 0;
  Atomic.set cache_misses_total 0;
  Atomic.set cache_evictions_total 0;
  Atomic.set requests_admitted_total 0;
  Atomic.set requests_shed_total 0;
  Atomic.set requests_timed_out_total 0;
  Atomic.set sessions_dropped_total 0

(* One JSON object for the server section of the {"op":"telemetry"}
   health snapshot — kept here so both transports render it
   identically. *)
let server_counters_json () : Ceres_util.Json.t =
  Obj
    [ ("requests_admitted", Int (requests_admitted ()));
      ("requests_shed", Int (requests_shed ()));
      ("requests_timed_out", Int (requests_timed_out ()));
      ("sessions_dropped", Int (sessions_dropped ())) ]

(* ------------------------------------------------------------------ *)
(* ThreadScope-style event timeline. Unlike the counters above, which
   aggregate, the trace records individual scheduling events with wall
   timestamps so pool behaviour under [-j N] is inspectable span by
   span. Disabled it costs one [Atomic.get] per potential event; when
   armed, events land in pre-allocated arrays through a fetch-and-add
   cursor (lock-free, single writer per slot). The buffer is bounded:
   past [capacity] events are counted as dropped, never buffered into
   OOM. *)

module Trace = struct
  type kind = Task_start | Task_stop | Steal | Idle_start

  let kind_name = function
    | Task_start -> "task_start"
    | Task_stop -> "task_stop"
    | Steal -> "steal"
    | Idle_start -> "idle_start"

  let capacity = 1 lsl 20
  let enabled = Atomic.make false
  let cursor = Atomic.make 0
  let dropped_count = Atomic.make 0
  let t0 = Atomic.make 0.
  let times : float array ref = ref [||]
  let doms : int array ref = ref [||]
  let kinds : kind array ref = ref [||]

  let start () =
    if Array.length !times = 0 then begin
      times := Array.make capacity 0.;
      doms := Array.make capacity 0;
      kinds := Array.make capacity Task_start
    end;
    Atomic.set cursor 0;
    Atomic.set dropped_count 0;
    Atomic.set t0 (Unix.gettimeofday ());
    Atomic.set enabled true

  let stop () = Atomic.set enabled false
  let active () = Atomic.get enabled

  let note ~domain kind =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < capacity then begin
      !times.(i) <- (Unix.gettimeofday () -. Atomic.get t0) *. 1000.;
      !doms.(i) <- domain;
      !kinds.(i) <- kind
    end
    else Atomic.incr dropped_count

  let dropped () = Atomic.get dropped_count

  let events () =
    let n = min (Atomic.get cursor) capacity in
    List.init n (fun i -> (!times.(i), !doms.(i), !kinds.(i)))

  (* One event per line ({i JSON lines}), schema documented in
     DESIGN.md: {"t_ms":<float>,"domain":<int>,"ev":<kind>}. Spans are
     derived by the consumer: a task span runs task_start..task_stop
     on one domain; an idle span runs idle_start..the domain's next
     event. *)
  let to_jsonl () =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (t, d, k) ->
         Buffer.add_string buf
           (Ceres_util.Json.to_string
              (Obj
                 [ ("t_ms", Fixed (3, t)); ("domain", Int d);
                   ("ev", Str (kind_name k)) ]));
         Buffer.add_char buf '\n')
      (events ());
    Buffer.contents buf

  let write_file path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
         output_string oc (to_jsonl ());
         let d = dropped () in
         if d > 0 then
           output_string oc
             (Ceres_util.Json.to_string
                (Obj [ ("dropped", Int d) ])
              ^ "\n"))
end

(* ------------------------------------------------------------------ *)

type domain_stats = {
  domain : int;
  tasks_executed : int;
  tasks_failed : int;
  steals_attempted : int;
  steals_succeeded : int;
  idle_spins : int;
}

type loop_stats = {
  loop_index : int; (* 0-based ordinal of the parallel_for on this pool *)
  chunks : int;
  wall_ms : float; (* fork start to join end *)
  fork_ms : float; (* time spent dealing chunks onto the deques *)
  join_ms : float; (* caller's tail wait after its last executed task *)
}

let recent_cap = 64

type loop_log = {
  m : Mutex.t;
  mutable count : int;
  mutable recent : loop_stats list; (* newest first, capped *)
}

let make_loop_log () = { m = Mutex.create (); count = 0; recent = [] }

let note_loop log ~chunks ~wall_ms ~fork_ms ~join_ms =
  Mutex.lock log.m;
  let r =
    { loop_index = log.count; chunks; wall_ms; fork_ms; join_ms }
  in
  log.count <- log.count + 1;
  log.recent <- r :: List.filteri (fun i _ -> i < recent_cap - 1) log.recent;
  Mutex.unlock log.m

let reset_loop_log log =
  Mutex.lock log.m;
  log.count <- 0;
  log.recent <- [];
  Mutex.unlock log.m

(* ------------------------------------------------------------------ *)

type pool_stats = {
  participants : int;
  jobs_submitted : int;
  loops_run : int;
  retries : int; (* supervisor retry count (process-wide) *)
  faults_injected : int; (* chaos injections fired (process-wide) *)
  cache_hits : int; (* service result-cache hits (process-wide) *)
  cache_misses : int; (* service result-cache misses (process-wide) *)
  cache_evictions : int; (* service result-cache LRU evictions *)
  domains : domain_stats list; (* by participant id, caller first *)
  recent_loops : loop_stats list; (* oldest first *)
}

let snapshot ~participants ~jobs_submitted (cs : counters array) log =
  let domains =
    Array.to_list
      (Array.mapi
         (fun i c ->
            { domain = i;
              tasks_executed = Atomic.get c.tasks;
              tasks_failed = Atomic.get c.failed;
              steals_attempted = Atomic.get c.steal_attempts;
              steals_succeeded = Atomic.get c.steals;
              idle_spins = Atomic.get c.idle_spins })
         cs)
  in
  Mutex.lock log.m;
  let loops_run = log.count and recent_loops = List.rev log.recent in
  Mutex.unlock log.m;
  { participants; jobs_submitted; loops_run;
    retries = retries (); faults_injected = faults_injected ();
    cache_hits = cache_hits (); cache_misses = cache_misses ();
    cache_evictions = cache_evictions ();
    domains; recent_loops }

let total_tasks s =
  List.fold_left (fun a d -> a + d.tasks_executed) 0 s.domains

let total_failed s =
  List.fold_left (fun a d -> a + d.tasks_failed) 0 s.domains

let total_steals s =
  List.fold_left (fun a d -> a + d.steals_succeeded) 0 s.domains

(* Rendered through the repo-wide deterministic encoder so the pool's
   stats serialize exactly like every other JSON surface. *)
let json_of_stats s : Ceres_util.Json.t =
  let open Ceres_util.Json in
  Obj
    [ ("participants", Int s.participants);
      ("jobs_submitted", Int s.jobs_submitted);
      ("loops_run", Int s.loops_run);
      ("tasks_executed", Int (total_tasks s));
      ("tasks_failed", Int (total_failed s));
      ("steals_succeeded", Int (total_steals s));
      ("retries", Int s.retries);
      ("faults_injected", Int s.faults_injected);
      ("cache_hits", Int s.cache_hits);
      ("cache_misses", Int s.cache_misses);
      ("cache_evictions", Int s.cache_evictions);
      ( "domains",
        List
          (List.map
             (fun d ->
                Obj
                  [ ("domain", Int d.domain);
                    ("tasks_executed", Int d.tasks_executed);
                    ("tasks_failed", Int d.tasks_failed);
                    ("steals_attempted", Int d.steals_attempted);
                    ("steals_succeeded", Int d.steals_succeeded);
                    ("idle_spins", Int d.idle_spins) ])
             s.domains) );
      ( "loops",
        List
          (List.map
             (fun (l : loop_stats) ->
                Obj
                  [ ("loop", Int l.loop_index);
                    ("chunks", Int l.chunks);
                    ("wall_ms", Fixed (3, l.wall_ms));
                    ("fork_ms", Fixed (3, l.fork_ms));
                    ("join_ms", Fixed (3, l.join_ms)) ])
             s.recent_loops) ) ]

let to_json s = Ceres_util.Json.to_string (json_of_stats s)
