(* Work-stealing pool of OCaml 5 domains.

   The previous pool was a single LIFO list behind one mutex: every
   chunk handoff serialized on that lock, and nothing about the
   scheduler was observable. This version gives every participant its
   own chunk deque — owner pops LIFO at one end, thieves steal FIFO
   (oldest first) at the other — with per-deque mutexes, so the only
   contention left is actual stealing. Idle participants back off
   exponentially (cpu_relax -> yield -> short sleep) instead of
   blocking on a condition variable, and every scheduling event feeds
   the Telemetry counters (tasks, steal attempts/successes, idle
   spins, per-loop wall/fork/join times), exportable as JSON. *)

type job = unit -> unit

(* Two-list deque under a mutex. The owner pushes and pops at [bot]
   (newest first, LIFO); thieves take from [top] (oldest first, FIFO),
   flipping [bot] over when [top] runs dry. Mutex-per-deque keeps the
   memory-ordering story trivial while removing the global bottleneck;
   a Chase–Lev deque could drop the lock later without changing the
   interface. *)
module Deque = struct
  type t = {
    m : Mutex.t;
    mutable bot : job list; (* newest first: the owner's end *)
    mutable top : job list; (* oldest first: the thieves' end *)
  }

  let create () = { m = Mutex.create (); bot = []; top = [] }

  let push d j =
    Mutex.lock d.m;
    d.bot <- j :: d.bot;
    Mutex.unlock d.m

  let pop d =
    Mutex.lock d.m;
    let r =
      match d.bot with
      | j :: rest ->
        d.bot <- rest;
        Some j
      | [] ->
        (match d.top with
         | j :: rest ->
           d.top <- rest;
           Some j
         | [] -> None)
    in
    Mutex.unlock d.m;
    r

  let steal d =
    Mutex.lock d.m;
    let r =
      match d.top with
      | j :: rest ->
        d.top <- rest;
        Some j
      | [] ->
        (match List.rev d.bot with
         | j :: rest ->
           d.bot <- [];
           d.top <- rest;
           Some j
         | [] -> None)
    in
    Mutex.unlock d.m;
    r
end

type t = {
  n : int; (* participants, including the caller (id 0) *)
  deques : Deque.t array; (* one per participant *)
  counters : Telemetry.counters array; (* one per participant *)
  down : bool Atomic.t;
  rr : int Atomic.t; (* round-robin cursor for submit *)
  submitted : int Atomic.t;
  loops : Telemetry.loop_log;
  on_error : exn -> unit; (* escaping submitted-job exceptions *)
  mutable workers : unit Domain.t array;
}

let now_ms () = Unix.gettimeofday () *. 1000.

(* Exponential backoff for participants that found no work: spin a
   few times on the core, then yield the OS thread, then sleep in
   sub-millisecond slices. The sleep cap bounds both the idle CPU burn
   and the worst-case shutdown/join latency. The first spin of an idle
   streak marks the start of an idle span on the timeline trace (the
   span ends at the domain's next event). *)
let idle_backoff c ~dom spins =
  Telemetry.note_idle c;
  if !spins = 0 && Telemetry.Trace.active () then
    Telemetry.Trace.note ~domain:dom Telemetry.Trace.Idle_start;
  (if !spins < 32 then Domain.cpu_relax ()
   else if !spins < 256 then Thread.yield ()
   else Thread.delay 0.0005);
  incr spins

(* Pop locally (LIFO), then sweep the other deques oldest-first. Every
   probe of a foreign deque is a recorded steal attempt. *)
let try_get t id =
  match Deque.pop t.deques.(id) with
  | Some _ as r -> r
  | None ->
    if t.n <= 1 then None
    else begin
      let c = t.counters.(id) in
      let rec probe k =
        if k >= t.n then None
        else begin
          Telemetry.note_steal_attempt c;
          match Deque.steal t.deques.((id + k) mod t.n) with
          | Some _ as r ->
            Telemetry.note_steal_success c;
            if Telemetry.Trace.active () then
              Telemetry.Trace.note ~domain:id Telemetry.Trace.Steal;
            r
          | None -> probe (k + 1)
        end
      in
      probe 1
    end

(* Run a job on behalf of participant [id]. parallel_for chunk tasks
   catch and report their own exceptions before this handler is
   reached, so anything caught here escaped a plain submitted job: it
   is counted in the tasks_failed telemetry and routed to the pool's
   [on_error] handler instead of being silently swallowed. *)
let exec t id job =
  Telemetry.note_task t.counters.(id);
  let traced = Telemetry.Trace.active () in
  if traced then Telemetry.Trace.note ~domain:id Telemetry.Trace.Task_start;
  (try job ()
   with exn ->
     Telemetry.note_task_failed t.counters.(id);
     (try t.on_error exn with _ -> ()));
  if traced then Telemetry.Trace.note ~domain:id Telemetry.Trace.Task_stop

let rec worker_loop t id spins =
  match try_get t id with
  | Some job ->
    spins := 0;
    exec t id job;
    worker_loop t id spins
  | None ->
    if Atomic.get t.down then () (* closed and drained: exit *)
    else begin
      idle_backoff t.counters.(id) ~dom:id spins;
      worker_loop t id spins
    end

let default_on_error exn =
  Printf.eprintf "jsceres pool: submitted job raised: %s\n%!"
    (Printexc.to_string exn)

let create ?domains ?(on_error = default_on_error) () =
  let requested =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let n = max 1 requested in
  let t =
    { n;
      deques = Array.init n (fun _ -> Deque.create ());
      counters = Array.init n (fun _ -> Telemetry.make_counters ());
      down = Atomic.make false;
      rr = Atomic.make 0;
      submitted = Atomic.make 0;
      loops = Telemetry.make_loop_log ();
      on_error;
      workers = [||] }
  in
  t.workers <-
    Array.init (n - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1) (ref 0)));
  t

let size t = t.n

(* Round-robin over the worker deques (ids 1 .. n-1); needs n > 1. *)
let next_worker t = 1 + (Atomic.fetch_and_add t.rr 1 mod (t.n - 1))

let submit t job =
  if Atomic.get t.down then
    invalid_arg "Js_parallel.Pool.submit: pool is shut down";
  Atomic.incr t.submitted;
  (* Chaos: the doom decision is taken here, in submission (program)
     order, so which job fails is deterministic even though the raise
     happens whenever a participant executes it. *)
  let job =
    match Fault.submit_doom () with
    | None -> job
    | Some ordinal -> fun () -> Fault.fire Fault.Submit "pool" ordinal
  in
  (* Deal onto the worker deques round-robin (the caller's own deque
     when there are no workers); an idle worker that lands on nothing
     steals it from wherever it went. *)
  Deque.push t.deques.(if t.n = 1 then 0 else next_worker t) job

(* The blocking counterpart of [parallel_for] for callers that must not
   interpret: the service's session threads share the main domain's
   runtime lock, so one of them running a job would stall every other
   session. Jobs go to the worker deques only, bypassing the chaos
   submit site (the fire-and-forget ordinal stays a function of the
   program's own [submit]s), and the caller sleeps on a condition
   until the last one reports. The first failure in job order is
   re-raised once all have finished, so a raise cannot orphan a
   sibling still writing its slot. *)
let run_all t jobs =
  if t.n = 1 || Atomic.get t.down then Array.map (fun f -> f ()) jobs
  else begin
    let m = Mutex.create () and finished = Condition.create () in
    let results = Array.make (Array.length jobs) None in
    let pending = ref (Array.length jobs) in
    Array.iteri
      (fun i f ->
         let job () =
           let r =
             match f () with
             | v -> Ok v
             | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
           in
           Mutex.lock m;
           results.(i) <- Some r;
           decr pending;
           if !pending = 0 then Condition.signal finished;
           Mutex.unlock m
         in
         Deque.push t.deques.(next_worker t) job)
      jobs;
    Mutex.lock m;
    while !pending > 0 do
      Condition.wait finished m
    done;
    Mutex.unlock m;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
        | None -> assert false)
      results
  end

let shutdown t =
  (* compare_and_set makes idempotence race-safe: exactly one caller
     observes the transition and joins the workers. Workers drain every
     deque before exiting, preserving the old "closed and drained"
     semantics. *)
  if Atomic.compare_and_set t.down false true then
    Array.iter Domain.join t.workers

(* ------------------------------------------------------------------ *)

let stats t =
  Telemetry.snapshot ~participants:t.n
    ~jobs_submitted:(Atomic.get t.submitted) t.counters t.loops

let stats_json t = Telemetry.to_json (stats t)

let reset_stats t =
  Array.iter Telemetry.reset_counters t.counters;
  Telemetry.reset_loop_log t.loops;
  Telemetry.reset_globals ();
  Atomic.set t.submitted 0

(* ------------------------------------------------------------------ *)

let default_chunk t ~lo ~hi =
  let span = hi - lo in
  max 1 (span / (t.n * 8))

let parallel_for t ~lo ~hi ?chunk f =
  if hi > lo then begin
    let t0 = now_ms () in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk t ~lo ~hi
    in
    let nchunks = (hi - lo + chunk - 1) / chunk in
    let pending = Atomic.make nchunks in
    let failure = Atomic.make None in
    let task ci () =
      (if Atomic.get failure = None then begin
         let start = lo + (ci * chunk) in
         let stop = min hi (start + chunk) in
         try
           for i = start to stop - 1 do
             f i
           done
         with exn ->
           (* First failure wins; later chunks see it and skip. *)
           ignore (Atomic.compare_and_set failure None (Some exn))
       end);
      Atomic.decr pending
    in
    (* Fork: deal the chunk tasks round-robin over every participant's
       deque (the caller included). Owners pop their share LIFO; load
       imbalance is repaired by stealing, which the telemetry counts. *)
    for ci = 0 to nchunks - 1 do
      Deque.push t.deques.(ci mod t.n) (task ci)
    done;
    let t_fork = now_ms () in
    (* Join: the caller participates until every chunk has finished,
       helping with whatever work it can find (its own chunks first,
       then steals — including unrelated submitted jobs). *)
    let t_busy_end = ref t_fork in
    let spins = ref 0 in
    let c0 = t.counters.(0) in
    while Atomic.get pending > 0 do
      match try_get t 0 with
      | Some job ->
        spins := 0;
        exec t 0 job;
        t_busy_end := now_ms ()
      | None -> idle_backoff c0 ~dom:0 spins
    done;
    let t_end = now_ms () in
    Telemetry.note_loop t.loops ~chunks:nchunks ~wall_ms:(t_end -. t0)
      ~fork_ms:(t_fork -. t0) ~join_ms:(t_end -. !t_busy_end);
    match Atomic.get failure with None -> () | Some exn -> raise exn
  end

(* Chunk-local folds, combined deterministically. Each chunk seeds its
   accumulator from its first element (not from [init], which the old
   code folded into every chunk *and* the final combine, counting a
   non-identity [init] chunks+1 times); the partials land in an array
   slot per chunk and are folded left-to-right onto a single [init],
   so an associative — even non-commutative — [combine] sees exactly
   the sequential association order. *)
let parallel_reduce t ~lo ~hi ?chunk ~init ~body ~combine () =
  if hi <= lo then init
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> default_chunk t ~lo ~hi
    in
    let nchunks = (hi - lo + chunk - 1) / chunk in
    let partials = Array.make nchunks None in
    parallel_for t ~lo:0 ~hi:nchunks ~chunk:1 (fun ci ->
        let start = lo + (ci * chunk) in
        let stop = min hi (start + chunk) in
        let acc = ref (body start) in
        for i = start + 1 to stop - 1 do
          acc := combine !acc (body i)
        done;
        partials.(ci) <- Some !acc);
    Array.fold_left
      (fun acc p -> match p with Some v -> combine acc v | None -> acc)
      init partials
  end

let map_array t f src =
  let n = Array.length src in
  if n = 0 then [||]
  else begin
    let first = f src.(0) in
    let dst = Array.make n first in
    parallel_for t ~lo:1 ~hi:n (fun i -> dst.(i) <- f src.(i));
    dst
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
