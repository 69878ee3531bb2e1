(** Request coalescing: run a list of requests as one pool-scheduled
    wave.

    Identical requests (same [key]) are deduplicated — executed once,
    with every occurrence sharing the one response — and the distinct
    ones run on the pool's worker domains via
    {!Js_parallel.Pool.run_all} (the caller only waits), or
    sequentially in the caller without a pool. A single request is a
    wave of one. Response order always follows request order. *)

val run :
  ?pool:Js_parallel.Pool.t ->
  ?recover:('req -> exn -> 'resp) ->
  key:('req -> string) ->
  exec:('req -> 'resp) ->
  'req list ->
  'resp list
(** When [recover] is given, an exception raised by [exec] for one
    request is confined to that request's slot: [recover req exn]
    supplies its response and every other request in the wave still
    completes. (Without it, the exception propagates to the caller
    and the whole batch is lost — so callers whose [exec] can
    raise should always pass [recover].) Occurrences deduplicated onto
    a failed slot share the recovered response, exactly as they would
    share a successful one. *)
