(* In-memory span recorder for the traced runs.

   A span has a name, a start and end on the monotonic clock, the id
   of the span that caused it (0 for a root) and the id of the
   operation it belongs to. Spans are recorded only while [on] is
   set; with tracing off [span] is a direct call. Nothing is written
   until [write] at the end of the run. *)

type t = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : int64;
  t1 : int64;
}

let on = ref false
let lock = Mutex.create ()
let next_id = ref 1
let recorded : t list ref = ref []

let now () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let fresh_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

let add s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* Record an interval measured elsewhere (client-side timestamps, or
   spans matched to their operation after the run). *)
let record ?(parent = 0) ?(req = 0) name t0 t1 =
  let id = fresh_id () in
  if !on then add { id; name; parent; req; t0; t1 };
  id

(* [span name f] times [f id]. With tracing off [id] is 0 and nothing
   is recorded. *)
let span ?(parent = 0) ?(req = 0) name f =
  if not !on then f 0
  else begin
    let id = fresh_id () in
    let t0 = now () in
    let r = f id in
    add { id; name; parent; req; t0; t1 = now () };
    r
  end

let all () = List.rev !recorded

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus the part of its
   interval that its children cover (children may overlap each other,
   e.g. concurrent requests under one window span). *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
       let kids =
         Hashtbl.find_all children s.id
         |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
         |> List.filter (fun (a, b) -> b > a)
         |> List.sort compare
       in
       let covered, _ =
         List.fold_left
           (fun (acc, reach) (a, b) ->
              let a = max a reach in
              if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
           (0L, s.t0) kids
       in
       (s, Int64.to_float (Int64.sub (Int64.sub s.t1 s.t0) covered) /. 1e6))
    spans

(* Self milliseconds summed per layer (the span-name prefix before
   the first dot). *)
let self_ms_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, ms) ->
       let l = layer s.name in
       Hashtbl.replace tbl l
         (ms +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    (self_times spans);
  tbl

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
       Printf.fprintf oc
         "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
         s.id s.name s.parent s.req s.t0 s.t1)
    (all ());
  close_out oc
