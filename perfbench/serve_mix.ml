(* serve-mix: a fresh `jsceres serve --socket -j 2` with default
   admission and cache settings, driven by a closed loop over two
   connections; each caller waits for its reply before sending the
   next line, as editor plugins and CI scripts do.

   Requests are (pass, app, scale) keys over all 7 passes, 12 apps and
   scale in {0.5, 1.0}: 168 keys against the default 128-entry cache.
   Popularity is two-tier: 96 hot keys take nine requests in ten, 72
   cold keys the tenth (see [stream]), so the window has hits beside
   misses and an eviction per cold miss. An untimed warm-up caches the
   hot keys first, as a long-running server has them. About a tenth of
   the lines are 2-4-item batch arrays (the pool fan-out path).

   Oracle: every response line parses and carries "v":1 and no
   error; all responses for one key are byte-equal (hits equal the
   miss that filled them); a seeded sample of keys re-run through
   [Service.run] after the timed window matches the server's bytes. *)

open Common
module R = Service.Request

let connections = 2
let server_jobs = 2
let rank_seed = 2015
let hot_keys = 96
let block = 10
let batch_per_mille = 100
let window_lines = 50
let tail_pct = 95
let replay_keys = 3
let episode_lines = 12
let warm_batch = 8
let ready_timeout_s = 60.

type key = { pass : string; app : string; scale : float }

(* The key space, split by a ranking fixed in the workload definition:
   [keys.(0 .. hot_keys - 1)] are hot, the rest cold. *)
let keys =
  let all =
    List.concat_map
      (fun (pass, _) ->
         List.concat_map
           (fun (w : Workloads.Workload.t) ->
              List.map (fun scale -> { pass; app = w.name; scale }) [ 0.5; 1.0 ])
           Workloads.Registry.all)
      R.all_passes
  in
  shuffle (Random.State.make [| rank_seed |]) (Array.of_list all)

let key_text k =
  Printf.sprintf "{\"v\":1,\"pass\":\"%s\",\"workload\":\"%s\",\"scale\":%s}"
    k.pass k.app (if k.scale = 1.0 then "1.0" else "0.5")

let definition =
  Printf.sprintf
    "serve-mix:conns=%d;j=%d;hot=%d;block=%d;batch=%d/1000;warm_batch=%d;episode=%d;tail=mean>p%d;keys=%s"
    connections server_jobs hot_keys block batch_per_mille warm_batch episode_lines tail_pct
    (String.concat "," (Array.to_list (Array.map key_text keys)))

(* The request stream both callers draw their lines from. Items come
   in blocks of [block]: one cold key and [block - 1] hot keys, in a
   seeded order. Hot and cold keys are each dealt from a seeded
   permutation of their tier that is re-dealt when used up, so every
   cold key recurs only after all the others: by then it has been
   evicted, and a cold request is always a miss. A hot key recurs
   within two hot rounds, well inside the cache's 128 entries, so it
   stays cached. The mix, not the arrival timing of the two callers,
   decides hit or miss; the seed decides the order. *)
let stream ~seed =
  let st = rng ~seed 100 in
  let lock = Mutex.create () in
  let round lo n =
    let q = Queue.create () in
    fun () ->
      if Queue.is_empty q then
        Array.iter (fun k -> Queue.push k q) (shuffle st (Array.init n (fun i -> lo + i)));
      Queue.pop q
  in
  let hot = round 0 hot_keys and cold = round hot_keys (Array.length keys - hot_keys) in
  let pending = Queue.create () and draws = ref 0 in
  let next_item () =
    if Queue.is_empty pending then
      Array.iter (fun k -> Queue.push k pending)
        (shuffle st (Array.init block (fun i -> if i = 0 then cold () else hot ())));
    Queue.pop pending
  in
  fun () ->
    Mutex.lock lock;
    let n =
      if Random.State.int st 1000 < batch_per_mille then 2 + Random.State.int st 3 else 1
    in
    let items = List.init n (fun _ -> next_item ()) in
    let draw = !draws in
    incr draws;
    Mutex.unlock lock;
    (draw, items)

let line_text = function
  | [ k ] -> key_text keys.(k)
  | ks -> "[" ^ String.concat "," (List.map (fun k -> key_text keys.(k)) ks) ^ "]"

(* ---- client ------------------------------------------------------ *)

type line_rec = {
  conn : int;
  draw : int;
  ep : int;  (** episode; -1 for the warm-up *)
  idx : int;
  items : int list;
  send : int64;
  recv : int64;
  resp : string;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close_conn (ic, _) = close_in_noerr ic

let exchange (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* Connect and wait until the server answers ping. *)
let await_ready path =
  let t0 = now () in
  let rec go () =
    if s_between t0 (now ()) > ready_timeout_s then
      failwith "serve-mix: server did not answer ping";
    match connect path with
    | Some c -> (
        match exchange c "{\"op\":\"ping\"}" with
        | reply ->
          close_conn c;
          if reply = "" then go ()
        | exception (End_of_file | Sys_error _) ->
          close_conn c;
          go ())
    | None ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* One episode of the closed loop: its wall interval and the reference
   kernel's times on one and on two domains just before and just after
   it, both callers idle (see Calib). *)
type episode = { e0 : int64; e1 : int64; k1 : float * float; k2 : float * float }

(* [ms] of a line or episode at the reference host speed, by the
   kernel on [domains] around episode [e]. *)
let normalize ~domains e ms =
  let before, after = if domains = 1 then e.k1 else e.k2 in
  Calib.normalize ~domains ~before ~after ms

(* Drive [connections] closed-loop callers until [deadline], in
   episodes of [episode_lines] lines per caller. Between episodes both
   callers are idle while the reference kernels are timed. [hello]
   runs on each connection first, one connection at a time, in
   connection order. *)
let drive ~path ~seed ~deadline ?(hello = fun _ -> ()) () =
  let recs = Array.make connections [] in
  let conns =
    Array.init connections (fun _ ->
        match connect path with Some c -> c | None -> failwith "serve-mix: connect")
  in
  Array.iter hello conns;
  let next = stream ~seed in
  let live = Array.make connections true and idx = Array.make connections 0 in
  let caller ep conn =
    let c = conns.(conn) in
    let n = ref 0 in
    while live.(conn) && !n < episode_lines do
      let draw, items = next () in
      let send = now () in
      (* a dropped connection ends this caller; its last line is kept
         with an empty response, which the oracle counts as failed *)
      let resp =
        try exchange c (line_text items)
        with End_of_file | Sys_error _ -> live.(conn) <- false; ""
      in
      recs.(conn) <-
        { conn; draw; ep; idx = idx.(conn); items; send; recv = now (); resp }
        :: recs.(conn);
      idx.(conn) <- idx.(conn) + 1;
      incr n
    done
  in
  let kernels () = (Calib.time ~domains:1, Calib.time ~domains:2) in
  let episodes = ref [] and k = ref (kernels ()) in
  while now () < deadline && Array.exists Fun.id live do
    let ep = List.length !episodes in
    let e0 = now () in
    let threads = List.init connections (fun i -> Thread.create (caller ep) i) in
    List.iter Thread.join threads;
    let e1 = now () and (b1, b2) = !k in
    k := kernels ();
    let a1, a2 = !k in
    episodes := { e0; e1; k1 = (b1, a1); k2 = (b2, a2) } :: !episodes
  done;
  Array.iter close_conn conns;
  (Array.map List.rev recs, Array.of_list (List.rev !episodes))

(* Untimed warm-up: the hot keys, in batches so the misses fan out
   over the server's pool. A long-running server has its hot set
   cached; the timed window then sees the steady state of hits,
   misses and evictions rather than a cold fill. *)
let warm path =
  let c = match connect path with Some c -> c | None -> failwith "serve-mix: connect" in
  let batches = List.init (hot_keys / warm_batch) (fun b ->
      List.init warm_batch (fun i -> (b * warm_batch) + i))
  in
  let recs =
    List.mapi
      (fun idx items ->
         let send = now () in
         let resp = exchange c (line_text items) in
         { conn = connections; draw = -1; ep = -1; idx; items; send; recv = now (); resp })
      batches
  in
  close_conn c;
  recs

let control path line =
  match connect path with
  | None -> None
  | Some c ->
    let r = try Some (exchange c line) with End_of_file | Sys_error _ -> None in
    close_conn c;
    Option.bind r (fun s -> Result.to_option (Json.of_string s))

let rec json_path doc = function
  | [] -> Some doc
  | k :: rest -> Option.bind (Json.member k doc) (fun d -> json_path d rest)

let json_int doc path =
  match Option.bind doc (fun d -> json_path d path) with
  | Some (Json.Int n) -> n
  | _ -> 0

(* ---- oracle ------------------------------------------------------ *)

let response_ok doc =
  match doc with
  | Json.Obj _ -> Json.member "v" doc = Some (Json.Int 1) && Json.member "error" doc = None
  | _ -> false

(* Failed lines, plus the raw single-request bytes per key. *)
let validate (recs : line_rec list list) =
  let raw = Hashtbl.create 256 and norm = Hashtbl.create 256 in
  let failed = ref 0 in
  let same tbl k v =
    match Hashtbl.find_opt tbl k with
    | None -> Hashtbl.replace tbl k v; true
    | Some v0 -> String.equal v0 v
  in
  List.iter
    (List.iter (fun r ->
         let ok =
           match Json.of_string r.resp, r.items with
           | Ok doc, [ k ] ->
             response_ok doc && same raw k r.resp && same norm k (Json.to_string doc)
           | Ok (Json.List docs), ks when List.length docs = List.length ks ->
             List.for_all2
               (fun d k -> response_ok d && same norm k (Json.to_string d))
               docs ks
           | _ -> false
         in
         if not ok then incr failed))
    recs;
  (!failed, raw)

(* Re-run a seeded sample of keys through a fresh in-process service
   and compare with the server's bytes: (checked, mismatched). *)
let replay ~seed raw =
  let ks = Hashtbl.fold (fun k _ acc -> k :: acc) raw [] |> List.sort compare in
  let picked =
    Array.to_list (shuffle (rng ~seed 7) (Array.of_list ks))
    |> List.filteri (fun i _ -> i < replay_keys)
  in
  List.fold_left
    (fun (n, bad) k ->
       let key = keys.(k) in
       let pass = Option.get (R.pass_of_name key.pass) in
       let resp = Service.run (Service.create ()) (R.make ~scale:key.scale pass key.app) in
       let s = Json.to_string (Service.Response.to_json resp) in
       (n + 1, if String.equal s (Hashtbl.find raw k) then bad else bad + 1))
    (0, 0) picked

(* ---- end-to-end metrics from the client's records ---------------- *)

let line_ms r = ms_between r.send r.recv

(* All times at the reference host speed (see Calib), each line and
   episode by the kernel times around its episode: p50_ms by the
   one-domain kernel, as the median line is a cache hit served on one
   session thread; the rest by the two-domain kernel, as they are
   dominated by misses and batches in a server with a two-domain pool.
   ops_per_s is the aggregate request rate over the episodes; sweep_s
   the time one caller takes for [window_lines] lines. Both average
   over every cold miss of the run: a median over windows of a few
   misses each spread twice as wide between runs. tail_ms is the mean
   latency of the lines above the tail percentile, not the percentile
   itself: line latencies plateau at 50 and 100 ms (ticks of the
   server's runtime lock, which a request waits on while the other
   session computes), and p95 sits at the edge of the 100 ms plateau,
   so it jumped between 100 and 150 ms from run to run. *)
let e2e_metrics recs episodes =
  let all = List.concat (Array.to_list recs) in
  let lat ~domains r = normalize ~domains episodes.(r.ep) (line_ms r) in
  let items = List.fold_left (fun a r -> a + List.length r.items) 0 all in
  let lines = List.length all in
  let window_s f =
    Array.fold_left (fun a e -> a +. f e (ms_between e.e0 e.e1)) 0. episodes /. 1000.
  in
  let per_caller = float_of_int lines /. float_of_int connections in
  let figures ~p50_lats ~lats ~window_s =
    let t = tail ~pct:tail_pct lats in
    let beyond = List.filter (fun x -> x > (fst t).value) lats in
    ( [ ("sweep_s", window_s *. float_of_int window_lines /. per_caller);
        ("ops_per_s", float_of_int items /. window_s);
        ("p50_ms", median p50_lats);
        ("tail_ms",
         List.fold_left ( +. ) 0. beyond /. float_of_int (max 1 (List.length beyond))) ],
      t )
  in
  let norm, t =
    figures
      ~p50_lats:(List.map (lat ~domains:1) all)
      ~lats:(List.map (lat ~domains:2) all)
      ~window_s:(window_s (normalize ~domains:2))
  in
  let wall_lats = List.map line_ms all in
  let wall, _ =
    figures ~p50_lats:wall_lats ~lats:wall_lats ~window_s:(window_s (fun _ ms -> ms))
  in
  let cals f = Array.to_list (Array.map (fun e -> fst (f e)) episodes) in
  ( norm,
    [ tail_note t;
      ("lines", Json.Int lines);
      ("requests", Json.Int items);
      ("episodes", Json.Int (Array.length episodes));
      wall_note ~kernels:[ (1, cals (fun e -> e.k1)); (2, cals (fun e -> e.k2)) ] wall ] )

(* ---- untraced run: the shipped binary ---------------------------- *)

let socket_path () = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ())
let server_exe = "_build/default/bin/jsceres.exe"
let server_log = out_dir ^ "/serve-server.log"

(* The spawned server not yet reaped; killed at exit (also on an
   error or SIGTERM) so no server outlives the benchmark. *)
let live_server = ref None

let () =
  at_exit (fun () ->
      match !live_server with
      | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit pid)
      | None -> ())

let spawn_server path =
  let pid =
    spawn ~log:server_log server_exe
      [ "serve"; "--socket"; path; "-j"; string_of_int server_jobs ]
  in
  live_server := Some pid;
  pid

(* Ask the server to drain; kill it if it is still up after 20 s. *)
let stop_server path pid =
  ignore (control path "{\"op\":\"shutdown\"}");
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if s_between t0 (now ()) > 20. then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit pid)
      end
      else (Unix.sleepf 0.01; wait ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  live_server := None

let run ~seed ~seconds : Common.result =
  ensure_out_dir ();
  let path = socket_path () in
  (* Set-up is server spawn until ping answers; it is repeated and the
     last server is kept for the timed window. *)
  let rec setups i acc =
    let t0 = now () in
    let pid = spawn_server path in
    await_ready path;
    let acc = s_between t0 (now ()) :: acc in
    if i < setup_reps then (stop_server path pid; setups (i + 1) acc) else (pid, acc)
  in
  let pid, setup_times = setups 1 [] in
  let warmed = warm path in
  let t0 = now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let recs, episodes = drive ~path ~seed ~deadline () in
  let tele = control path "{\"op\":\"telemetry\"}" in
  let rss = peak_rss_mb pid in
  stop_server path pid;
  let bad_lines, raw = validate (warmed :: Array.to_list recs) in
  let checked, mismatched = replay ~seed raw in
  let lines = Array.fold_left (fun a r -> a + List.length r) 0 recs in
  let lost =
    json_int tele [ "telemetry"; "server"; "requests_shed" ]
    + json_int tele [ "telemetry"; "server"; "requests_timed_out" ]
    + json_int tele [ "telemetry"; "server"; "sessions_dropped" ]
  in
  write_samples (Printf.sprintf "serve-mix-seed%d" seed)
    (List.concat_map
       (List.map (fun r ->
            [ string_of_int r.draw; string_of_int r.conn; Int64.to_string r.send;
              Int64.to_string r.recv;
              String.concat "," (List.map string_of_int r.items) ]))
       (Array.to_list recs));
  let e2e, notes = e2e_metrics recs episodes in
  { attempted = lines + checked;
    failed = bad_lines + mismatched + lost;
    metrics =
      Metrics.fill_end_to_end
        ([ ("setup_s", median setup_times); ("peak_rss_mb", rss) ] @ e2e);
    notes =
      notes
      @ [ ("server_jobs", Json.Int server_jobs);
          ("cache_hits", Json.Int (json_int tele [ "telemetry"; "cache"; "hits" ]));
          ("cache_misses", Json.Int (json_int tele [ "telemetry"; "cache"; "misses" ]));
          ("cache_evictions", Json.Int (json_int tele [ "telemetry"; "cache"; "evictions" ]));
          ("replayed", Json.Int checked) ] }

(* ---- traced run: the server in-process, handler wrapped ---------- *)

type exec_ev = {
  th : int;
  t0 : int64;
  t1 : int64;
  ser_ms : float;
  batch : bool;
  ekeys : string list;
  epasses : string list;
  hits : bool list;
}

(* The service handler with [exec]/[exec_batch] timed from outside.
   A hit returns the very response object the filling miss returned,
   so physical equality with the last response seen for the key tells
   hits from misses without touching the cache's counters. The
   wrapper also renders each response once more to time
   serialization, and [cache_stats] notes the calling session thread
   so a connection's "hello" names its session. *)
let wrapped_handler svc =
  let h = Service.handler svc in
  let lock = Mutex.create () in
  let evs = ref [] and hello = ref [] in
  let last = Hashtbl.create 256 in
  let key_of (req : R.t) =
    match Workloads.Registry.find req.R.workload with
    | Some w -> R.key ~source:w.Workloads.Workload.source req
    | None -> req.R.workload
  in
  let note ~batch t0 t1 reqs resps =
    let s0 = now () in
    List.iter (fun r -> ignore (Json.to_string (Service.Response.to_json r))) resps;
    let ser_ms = ms_between s0 (now ()) in
    let ks = List.map key_of reqs in
    Mutex.lock lock;
    let hits =
      List.map2
        (fun k r ->
           let hit = match Hashtbl.find_opt last k with Some r0 -> r0 == r | None -> false in
           Hashtbl.replace last k r;
           hit)
        ks resps
    in
    evs :=
      { th = Thread.id (Thread.self ()); t0; t1; ser_ms; batch; ekeys = ks;
        epasses = List.map (fun (r : R.t) -> R.pass_name r.R.pass) reqs; hits }
      :: !evs;
    Mutex.unlock lock
  in
  let handler =
    { h with
      Service.Serve.exec =
        (fun req ->
           let t0 = now () in
           let resp = h.exec req in
           note ~batch:false t0 (now ()) [ req ] [ resp ];
           resp);
      exec_batch =
        (fun reqs ->
           let t0 = now () in
           let resps = h.exec_batch reqs in
           note ~batch:true t0 (now ()) reqs resps;
           resps);
      cache_stats =
        (fun () ->
           Mutex.lock lock;
           hello := Thread.id (Thread.self ()) :: !hello;
           Mutex.unlock lock;
           h.cache_stats ()) }
  in
  (handler, (fun () -> List.rev !evs), fun () -> List.rev !hello)

let in_process ~seed ~seconds ~wrap =
  let path = socket_path () in
  let svc = Service.create ~jobs:server_jobs () in
  let handler, evs, hellos =
    if wrap then wrapped_handler svc
    else (Service.handler svc, (fun () -> []), fun () -> [])
  in
  let server = Service.Server.create ~socket_path:path handler in
  let th = Thread.create Service.Server.run server in
  await_ready path;
  let warmed = warm path in
  let s0 = Service.cache_stats svc in
  Js_parallel.Telemetry.reset_globals ();
  let t0 = now () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let hello c = ignore (exchange c "{\"op\":\"cache-stats\"}") in
  let recs, episodes = drive ~path ~seed ~deadline ~hello () in
  (* the episodes' wall time, without the kernel runs between them *)
  let window_ms = Array.fold_left (fun a e -> a +. ms_between e.e0 e.e1) 0. episodes in
  let s1 = Service.cache_stats svc in
  let stats =
    { s1 with Service.Cache.hits = s1.hits - s0.hits; misses = s1.misses - s0.misses;
              evictions = s1.evictions - s0.evictions }
  in
  let lost =
    Js_parallel.Telemetry.(requests_shed (), requests_timed_out (), sessions_dropped ())
  in
  Service.Server.begin_drain server;
  Thread.join th;
  Service.shutdown svc;
  let evs = List.filter (fun e -> e.t0 >= t0) (evs ()) in
  (warmed :: Array.to_list recs, recs, window_ms, stats, lost, evs, hellos ())

(* Misses of a key that started while another miss of the same key
   was still executing. *)
let dup_misses evs =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun e ->
       List.iter2
         (fun k hit -> if not hit then Hashtbl.add by_key k (e.t0, e.t1))
         e.ekeys e.hits)
    evs;
  let distinct = List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key []) in
  List.fold_left
    (fun acc k ->
       let ivs = List.sort compare (Hashtbl.find_all by_key k) in
       let _, dups =
         List.fold_left
           (fun (reach, n) (a, b) -> if a < reach then (max reach b, n + 1) else (b, n))
           (0L, 0) ivs
       in
       acc + dups)
    0 distinct

(* Exact cache behaviour of the mix itself: the warm-up and the first
   [n] lines of the stream, in draw order, through a fresh LRU cache of
   the default capacity. *)
let replay_counts ~seed n =
  let cache = Service.Cache.create () in
  let touch k =
    let key = key_text keys.(k) in
    match Service.Cache.find cache key with
    | Some () -> ()
    | None -> Service.Cache.add cache key ()
  in
  for k = 0 to hot_keys - 1 do touch k done;
  let next = stream ~seed in
  for _ = 1 to n do List.iter touch (snd (next ())) done;
  let s = Service.Cache.stats cache in
  (s.hits, s.misses)

let run_traced ~seed ~seconds : Common.result =
  ensure_out_dir ();
  let half = seconds /. 2. in
  let pall, precs, pwin, _, _, _, _ = in_process ~seed ~seconds:half ~wrap:false in
  Span.on := true;
  let all, recs, window_ms, stats, (shed, timed_out, dropped), evs, hellos =
    in_process ~seed ~seconds:half ~wrap:true
  in
  (* Match each connection's lines to its session's exec calls. *)
  let pairs =
    List.concat
      (List.mapi
         (fun c th ->
            if c >= connections then []
            else
              let mine = List.filter (fun e -> e.th = th) evs in
              let rec zip a b =
                match a, b with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
              in
              zip recs.(c) mine)
         hellos)
  in
  let waits = ref [] and sers = ref [] and transports = ref [] in
  let hit_ms = ref [] and miss_ms = ref [] and batch_ms = ref [] and advise_ms = ref [] in
  List.iter
    (fun (r, e) ->
       let req = (r.conn * 1_000_000) + r.idx + 1 in
       let cl = Span.record ~req "client.line" r.send r.recv in
       let ex =
         Span.record ~parent:cl ~req (if e.batch then "service.batch" else "service.exec") e.t0 e.t1
       in
       let exec = ms_between e.t0 e.t1 in
       let wait = ms_between r.send e.t0 in
       waits := wait :: !waits;
       sers := e.ser_ms :: !sers;
       transports := (line_ms r -. wait -. exec -. e.ser_ms) :: !transports;
       if e.batch then batch_ms := exec :: !batch_ms
       else begin
         match e.hits, e.epasses with
         | [ true ], _ -> hit_ms := exec :: !hit_ms
         | _, [ p ] ->
           miss_ms := exec :: !miss_ms;
           if p = "advise" then begin
             advise_ms := exec :: !advise_ms;
             ignore (Span.record ~parent:ex ~req "advisor.advise" e.t0 e.t1)
           end
         | _ -> ()
       end)
    pairs;
  Span.on := false;
  let exec_total = List.fold_left (fun a e -> a +. ms_between e.t0 e.t1) 0. evs in
  let items recs = Array.fold_left (fun a rs -> List.fold_left (fun a r -> a + List.length r.items) a rs) 0 recs in
  let rps recs win = float_of_int (items recs) /. (win /. 1000.) in
  let bad_lines, _ = validate all in
  let pbad, _ = validate pall in
  let lines recs = Array.fold_left (fun a r -> a + List.length r) 0 recs in
  let rhits, rmisses = replay_counts ~seed 1000 in
  let spans = Span.all () in
  let fi = float_of_int in
  { attempted = lines recs + lines precs;
    failed = bad_lines + pbad + shed + timed_out + dropped;
    metrics =
      Metrics.fill_per_layer
        ([ ("advisor.advise_ms", median !advise_ms);
           ("service.cache_hits", fi stats.hits);
           ("service.cache_misses", fi stats.misses);
           ("service.cache_evictions", fi stats.evictions);
           ( "service.cache_hit_frac",
             fi stats.hits /. fi (max 1 (stats.hits + stats.misses)) );
           ("service.dup_misses", fi (dup_misses evs));
           ("service.replay_hits", fi rhits);
           ("service.replay_misses", fi rmisses);
           ("service.exec_hit_ms", median !hit_ms);
           ("service.exec_miss_ms", median !miss_ms);
           ("service.batch_ms", median !batch_ms);
           ("service.wait_ms", median !waits);
           ("service.exec_concurrency", exec_total /. window_ms);
           ("service.serialize_ms", median !sers);
           ("service.transport_ms", median !transports);
           ("service.shed", fi shed);
           ("service.timed_out", fi timed_out);
           ("service.sessions_dropped", fi dropped);
           ("trace.overhead_frac", (rps precs pwin /. rps recs window_ms) -. 1.);
           ("trace.spans", fi (List.length spans)) ]
         @ Metrics.self_fracs ~window_ms spans);
    notes = [ ("server_jobs", Json.Int server_jobs); ("matched_lines", Json.Int (List.length pairs)) ] }
