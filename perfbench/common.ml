(* Shared plumbing: timing, order statistics, host facts and the
   result line every workload prints. *)

module Json = Ceres_util.Json

let now = Span.now
let ms_between = Span.ms_between
let s_between t0 t1 = ms_between t0 t1 /. 1000.

let time_ms f =
  let t0 = now () in
  let r = f () in
  (r, ms_between t0 (now ()))

(* ---- order statistics ------------------------------------------- *)

(* Linear interpolation between closest ranks (the usual "type 7"
   estimator); [q] in [0, 1]. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The tail percentile of a workload is fixed in its definition: the
   highest of p90/p95/p99 that leaves at least ten samples above it at
   the benchmark's run length. The sample count and the number above
   are reported beside it, with a flag when a run fell short. *)
type tail = { label : string; value : float; beyond : int; samples : int }

let tail ~pct xs =
  let v = quantile xs (float_of_int pct /. 100.) in
  let beyond = List.length (List.filter (fun x -> x > v) xs) in
  ({ label = Printf.sprintf "p%d" pct; value = v; beyond; samples = List.length xs },
   beyond >= 10)

let tail_note (t, ok) =
  ( "tail",
    Json.Obj
      [ ("percentile", Json.Str t.label); ("statistic", Json.Str "mean beyond");
        ("samples", Json.Int t.samples);
        ("beyond", Json.Int t.beyond); ("enough_samples", Json.Bool ok) ] )

(* On analysis-corpus and exec-par every request kind does the same
   work each time it runs, so its latency is its median over the run,
   and the percentiles are taken over those kind medians (one per kind,
   as a sweep has one of each). *)
let kinds_note ~pct ~kinds ~sweeps =
  ( "tail",
    Json.Obj
      [ ("percentile", Json.Str (Printf.sprintf "p%d" pct));
        ("over", Json.Str "kind medians");
        ("kinds", Json.Int kinds);
        ("sweeps", Json.Int sweeps) ] )

(* The wall-clock figures behind the normalized end-to-end times, with
   the reference kernel's mean time and number of measurements over the
   run for each kernel domain count used (see Calib). *)
let wall_note ~kernels figures =
  ( "wall",
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.Float v)) figures
       @ List.concat_map
           (fun (domains, cal) ->
              let d = string_of_int domains in
              [ ("kernel_ms_d" ^ d,
                 Json.Float (List.fold_left ( +. ) 0. cal /. float_of_int (List.length cal)));
                ("kernel_runs_d" ^ d, Json.Int (List.length cal));
                ("reference_ms_d" ^ d, Json.Float (Calib.reference_ms ~domains)) ])
           kernels) )

(* ---- seeded inputs ---------------------------------------------- *)

let rng ~seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Set-up runs per measurement of setup_s (the median is reported). *)
let setup_reps = 31

(* ---- host facts ------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
            kb /. 1024.)
      | _ -> loop ()
    in
    let v = loop () in
    close_in ic;
    v

let nproc () = Domain.recommended_domain_count ()

(* The scratch directory every run writes under (git-ignored). *)
let out_dir = "perfbench-out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* ---- the result line -------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let app_key name = String.map (fun c -> if c = ' ' then '_' else c) name

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * Json.t) list;  (** provenance extras: tail labels, ... *)
}

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun mt ->
                (mt.name, Json.Obj [ ("value", Json.Float mt.value); ("unit", Json.Str mt.unit_) ]))
             r.metrics) ) ]

(* ---- child processes -------------------------------------------- *)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Spawn [prog args]; stdin from /dev/null, stdout/stderr to [log]
   (appended) so a child never writes into the result stream. *)
let spawn ~log prog args =
  ensure_out_dir ();
  let null = devnull () in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null out out in
  Unix.close null;
  Unix.close out;
  pid

let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

(* Raw per-operation samples of a run, one tab-separated row each, to
   [perfbench-out/samples-NAME.tsv]: the numbers the reported
   statistics are computed from. *)
let write_samples name rows =
  ensure_out_dir ();
  let oc = open_out (Printf.sprintf "%s/samples-%s.tsv" out_dir name) in
  List.iter (fun r -> output_string oc (String.concat "\t" r ^ "\n")) rows;
  close_out oc
