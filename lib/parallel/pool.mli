(** Work-stealing pool of OCaml 5 domains with chunked data-parallel
    loops and scheduling telemetry.

    The paper's thesis is that emerging web workloads have latent *data*
    parallelism; this pool is the substrate the reproduction uses to
    actually run the parallelizable kernels in parallel and measure the
    speedups that Table 3 and the Amdahl discussion predict.

    Scheduling is dynamic: [parallel_for] deals fixed-size index chunks
    round-robin onto one deque per participant; owners pop their share
    LIFO, idle participants steal FIFO (oldest first) from the others
    with exponential backoff, so divergent iteration costs — the
    paper's "control-flow divergence" column — load-balance
    automatically. Every scheduling event (task executions, steal
    attempts and successes, idle spins, per-loop wall/fork/join times)
    is counted by {!Telemetry} and exportable as JSON via {!stats}. *)

type t

val create : ?domains:int -> ?on_error:(exn -> unit) -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    caller is the remaining participant). [domains] defaults to
    [Domain.recommended_domain_count ()], and is clamped to at least
    1. [on_error] receives every exception escaping a submitted job
    (it may run on any participant's domain); the default prints a
    one-line warning to stderr. *)

val size : t -> int
(** Number of participants (workers + caller). *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a fire-and-forget job on a worker deque (round-robin).
    An exception escaping the job is counted in the [tasks_failed]
    telemetry and routed to the pool's [on_error] handler.
    @raise Invalid_argument if the pool has been shut down — a
    silently-parked job that no worker will ever run is never
    created. *)

val run_all : t -> (unit -> 'a) array -> 'a array
(** [run_all t jobs] runs every job on the worker domains and returns
    their results in job order. Jobs are dealt round-robin onto the
    worker deques (idle workers steal); the calling thread never runs
    one — it blocks on a condition variable until all have finished,
    so other systhreads of its domain keep running meanwhile. Several
    threads may call it at once. If jobs raise, the first failure in
    job order is re-raised in the caller after every job finished.
    Unlike {!submit}, it never consults {!Fault.submit_doom}, so chaos
    schedules do not depend on it. On a 1-participant (or shut-down)
    pool the jobs run inline, in order. Must not be called from inside
    a pool job. *)

val shutdown : t -> unit
(** Drain every deque and join all workers. The pool must not be used
    afterwards. Idempotent and safe to race: exactly one caller
    performs the join. *)

val parallel_for : t -> lo:int -> hi:int -> ?chunk:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi f] runs [f i] for every [lo <= i < hi],
    distributing chunks over all participants and returning when all
    iterations completed. If any [f i] raises, one such exception is
    re-raised in the caller after the loop drains (remaining chunks are
    cancelled). [chunk] defaults to a size yielding ~8 chunks per
    participant. *)

val parallel_reduce :
  t ->
  lo:int ->
  hi:int ->
  ?chunk:int ->
  init:'a ->
  body:(int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  unit ->
  'a
(** Fold [combine] over the per-index values [body i]. Each chunk folds
    its own elements locally (seeded from its first element, not from
    [init]); the per-chunk partials are then folded onto [init] in
    ascending chunk order, so the association order matches the
    sequential [List.fold_left]. [combine] must be associative, but
    need not be commutative and [init] need not be an identity — it is
    used exactly once. Returns [init] on an empty range. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel array map built on {!parallel_for}. *)

val stats : t -> Telemetry.pool_stats
(** Snapshot of the scheduling telemetry: per-participant task/steal/
    idle counters and recent per-loop fork/join timings. *)

val stats_json : t -> string
(** {!stats} rendered as one-line JSON. *)

val reset_stats : t -> unit
(** Zero all telemetry counters and the loop log (e.g. between bench
    sections). *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Create, run, and always shut down. *)
