(** Scheduling telemetry for the work-stealing pool.

    The pool records, per participant, how many tasks it executed, how
    often it probed other deques, how often a probe yielded work, and
    how long it spun idle; and, per [parallel_for], the wall, fork and
    join times. The counters are single-writer (each participant owns
    its record), so observing the scheduler does not perturb it — the
    property TASKPROF and ThreadScope both identify as a precondition
    for trustworthy parallel measurements. *)

(** {1 Raw counters (one record per pool participant)} *)

type counters

val make_counters : unit -> counters
val note_task : counters -> unit
val note_task_failed : counters -> unit
val note_steal_attempt : counters -> unit
val note_steal_success : counters -> unit
val note_idle : counters -> unit
val reset_counters : counters -> unit

(** {1 Process-wide robustness counters}

    Retries happen in {!Supervisor} and fault injections in {!Fault} —
    neither owns a pool — so these are global; every {!snapshot}
    carries their current values. *)

val note_retry : unit -> unit
val note_fault_injected : unit -> unit
val retries : unit -> int
val faults_injected : unit -> int

val note_cache_hit : unit -> unit
val note_cache_miss : unit -> unit
val note_cache_eviction : unit -> unit

val note_cache_cleared : hits:int -> misses:int -> evictions:int -> unit
(** Retire a cleared cache's contribution from the process-wide
    counters, keeping them equal to the sum over live caches. *)


val cache_hits : unit -> int
val cache_misses : unit -> int

val cache_evictions : unit -> int
(** Service result-cache counters (the cache lives in [lib/service],
    which does not own a pool, so like retries they are process-wide
    and ride along in every snapshot). *)

(** {2 Server request lifecycle}

    Counted by the socket server's admission gate, deadline
    accounting and session loops; surfaced in the [{"op":"telemetry"}]
    health snapshot of both transports. *)

val note_request_admitted : unit -> unit
val note_request_shed : unit -> unit
val note_request_timed_out : unit -> unit
val note_session_dropped : unit -> unit
val requests_admitted : unit -> int
val requests_shed : unit -> int

val requests_timed_out : unit -> int
(** Requests whose supervised execution died on the vclock watchdog
    (the per-request deadline). *)

val sessions_dropped : unit -> int
(** Client sessions that ended abnormally: torn request line at EOF,
    I/O error mid-response, chaos-injected transport fault. *)

val server_counters_json : unit -> Ceres_util.Json.t
(** The four counters above as one JSON object (the ["server"]
    section of the telemetry health snapshot). *)

val reset_globals : unit -> unit

(** {1 Event timeline (ThreadScope-style trace)}

    A bounded, process-wide recording of individual scheduling events
    — task start/stop, successful steals, the first spin of every idle
    streak — with wall-clock timestamps and the participant id, so
    pool behaviour under [-j N] is inspectable span by span
    ([jsceres run --par-exec --timeline FILE]). Disabled (the default)
    it costs one atomic load per potential event. *)

module Trace : sig
  type kind = Task_start | Task_stop | Steal | Idle_start

  val kind_name : kind -> string
  (** ["task_start" | "task_stop" | "steal" | "idle_start"] *)

  val capacity : int
  (** Event-buffer bound; events past it are counted as {!dropped}. *)

  val start : unit -> unit
  (** Reset the buffer, stamp t=0 and arm recording. *)

  val stop : unit -> unit
  val active : unit -> bool

  val note : domain:int -> kind -> unit
  (** Record one event for pool participant [domain]. The caller
      checks {!active} first (the pool's hooks do). *)

  val dropped : unit -> int
  val events : unit -> (float * int * kind) list
  (** (ms since {!start}, participant, kind), in recorded order. *)

  val to_jsonl : unit -> string
  (** One [{"t_ms":..,"domain":..,"ev":..}] object per line (the
      [--timeline] export schema, documented in DESIGN.md §14); a
      final [{"dropped":N}] line is appended by {!write_file} when
      the buffer overflowed. *)

  val write_file : string -> unit
end

(** {1 Per-loop records} *)

type loop_log

val make_loop_log : unit -> loop_log

val note_loop :
  loop_log -> chunks:int -> wall_ms:float -> fork_ms:float ->
  join_ms:float -> unit

val reset_loop_log : loop_log -> unit

(** {1 Snapshots} *)

type domain_stats = {
  domain : int; (** participant id; 0 is the calling domain *)
  tasks_executed : int;
  tasks_failed : int; (** jobs whose exception escaped to the pool *)
  steals_attempted : int; (** probes of another participant's deque *)
  steals_succeeded : int; (** probes that yielded a job *)
  idle_spins : int; (** backoff iterations with nothing to run *)
}

type loop_stats = {
  loop_index : int; (** 0-based ordinal of the loop on this pool *)
  chunks : int;
  wall_ms : float; (** fork start to join end *)
  fork_ms : float; (** time dealing chunks onto the deques *)
  join_ms : float; (** caller's tail wait after its last task *)
}

type pool_stats = {
  participants : int;
  jobs_submitted : int; (** via [Pool.submit], excluding loop chunks *)
  loops_run : int;
  retries : int; (** supervisor retries (process-wide counter) *)
  faults_injected : int; (** chaos injections fired (process-wide) *)
  cache_hits : int; (** service result-cache hits (process-wide) *)
  cache_misses : int; (** service result-cache misses (process-wide) *)
  cache_evictions : int; (** service result-cache LRU evictions *)
  domains : domain_stats list; (** by participant id, caller first *)
  recent_loops : loop_stats list; (** oldest first; last 64 loops *)
}

val snapshot :
  participants:int -> jobs_submitted:int -> counters array -> loop_log ->
  pool_stats

val total_tasks : pool_stats -> int
val total_failed : pool_stats -> int
val total_steals : pool_stats -> int

val json_of_stats : pool_stats -> Ceres_util.Json.t
(** The snapshot as a document of the repo-wide {!Ceres_util.Json}
    encoder (embedded by the service layer's responses). *)

val to_json : pool_stats -> string
(** {!json_of_stats} rendered as one line. *)
