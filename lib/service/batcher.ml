(* Dedup + fan-out. First occurrence order decides execution order so
   a batch is deterministic regardless of scheduling (the pool only
   changes *when* each distinct request runs, not which ones run). *)

let run ?pool ?recover ~key ~exec reqs =
  let slot_of_key : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let distinct = ref [] and n = ref 0 in
  let slots =
    List.map
      (fun req ->
         let k = key req in
         match Hashtbl.find_opt slot_of_key k with
         | Some slot -> slot
         | None ->
           let slot = !n in
           Hashtbl.add slot_of_key k slot;
           distinct := req :: !distinct;
           incr n;
           slot)
      reqs
  in
  let distinct = Array.of_list (List.rev !distinct) in
  (* The confinement must live *inside* the per-item execution: the
     pool re-raises a job's exception at the join, so an unconfined
     [exec] failure would lose the other N-1 responses, not just its
     own. *)
  let exec_one req () =
    match recover with
    | None -> exec req
    | Some recover -> (
        match exec req with
        | resp -> resp
        | exception exn -> recover req exn)
  in
  let jobs = Array.map exec_one distinct in
  let results =
    match pool with
    | Some p -> Js_parallel.Pool.run_all p jobs
    | None -> Array.map (fun job -> job ()) jobs
  in
  List.map (fun slot -> results.(slot)) slots
