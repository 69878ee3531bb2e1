(** Parallel execution of statically-proven loop nests.

    Closes the loop between the static analyzer's [Parallel]/[Reduction]
    verdicts and the work-stealing pool: an interpreter hook intercepts
    eligible [For] nests, partitions the iteration space into chunks,
    runs each chunk on a share-nothing {!Interp.Fork} of the loop-entry
    state and merges the per-fork heap diffs back in chunk order.
    Reductions are executed per operator: order-insensitive folds
    (min/max/bitwise, [+] over proven exact integers) seed each fork
    with the operator identity and combine the partials exactly once
    in ascending chunk order; order-sensitive float [+] accumulators
    with a single accumulation site replay a per-iteration journal in
    global order, reproducing the sequential fold bit-for-bit;
    products and unrecognized operators never run in parallel. Any
    condition the
    merge cannot prove deterministic — host access, timers,
    [Math.random], clock reads, abrupt completions, bound drift,
    conflicting array growth — poisons the instance: the forks are
    discarded and the untouched master re-runs the loop sequentially,
    so observable output is byte-identical to sequential execution by
    construction. *)

type kind = Kparallel | Kreduction of Analysis.Verdict.acc list

type mode =
  | Measure
      (** run eligible nests sequentially but individually timed — the
          per-nest baseline for the speedup table *)
  | Parallel of Pool.t  (** fork/merge execution on the given pool *)

type t

val create : mode:mode -> jobs:int -> unit -> t
(** A nest instance with fewer than 8 trips is not worth forking and
    runs sequentially. *)

val install : t -> Interp.Value.state -> report:Analysis.Driver.report -> unit
(** Install the [on_loop] hook on [st], planning every nest the report
    proves [Parallel] or [Reduction]. *)

val nests_run : t -> int
(** Distinct nests that completed at least one parallel instance. *)

val stats_json : ?pool:Pool.t -> t -> string
(** Per-nest telemetry — instances, chunks, iterations, fork/merge
    wall-clock, fallbacks and why, attributed busy vticks — plus the
    pool counters when [pool] is given. Each nest's
    ["fallback_reasons"] is a list of [{"reason":…,"count":…}] sorted
    by reason, whose counts sum to its ["fallbacks"]. *)

val json_of_fallback_reasons : (string * int) list -> Ceres_util.Json.t
(** The ["fallback_reasons"] list of {!stats_json}. *)

(**/**)

type nest_stats = {
  mutable instances : int;
  mutable seq_instances : int;
  mutable iterations : int;
  mutable chunks : int;
  mutable par_ms : float;
  mutable seq_ms : float;
  mutable fork_ms : float;
  mutable merge_ms : float;
  mutable fallbacks : int;  (** poisoned instances re-run sequentially *)
  mutable fallback_reasons : (string * int) list;
      (** (poison reason, instances), sorted by reason; the counts sum
          to [fallbacks] *)
  mutable busy_ticks : int64;
}

val nest_rows : t -> (int * string * nest_stats) list
(** (loop id, label, stats), ascending id. *)

val speedup_rows :
  measure:t -> t -> (int * string * nest_stats * float * float) list
(** [speedup_rows ~measure par] joins a {!Measure}-mode run and a
    {!Parallel}-mode run of the same program by loop id: one
    [(id, label, parallel stats, seq_ms, seq_ms /. par_ms)] row per
    nest of [par], ascending id. [seq_ms] is 0 when [measure] never
    timed the nest; the speedup is 0 when [par] never ran it in
    parallel. *)
