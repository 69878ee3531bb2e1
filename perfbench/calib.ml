(* Host-speed reference for the end-to-end times.

   The benchmark runs on a few cores of a shared host, whose speed
   toggles by up to 2x within a second and drifts between runs, while
   the program does exactly the same work every time (its sessions
   are deterministic). So a run also times a fixed reference kernel
   owned by the benchmark between operations, with the workload idle,
   and reports each operation's time at the reference host speed:

     normalized = wall * reference_ms / mean (kernel_ms before, after)

   The kernel never calls into js-ceres, so a change to the program
   moves the normalized times exactly as it moves the wall times; a
   change of host speed moves the operation and the kernel around it
   alike, and cancels. Each kernel measurement is the mean, not the
   best, of three runs, because an operation pays the host's slow
   moments as well as its fast ones. The wall-clock figures are kept
   beside the normalized ones in the provenance line.

   The kernel allocates short lists (minor collections) and updates a
   2 MB table at pseudo-random slots (cache and memory traffic), the
   two costs that dominate the interpreter. It runs on one domain, or
   on two at once with the slower one counting, which adds the
   cross-domain stop-the-world minor collections a two-domain process
   pays. *)

(* The tables live outside the OCaml heap (a bigarray), so they do not
   change the pacing of the program's garbage collector or add to the
   live heap; each is made on first use. *)
let size = 1 lsl 18

let tables =
  Array.init 2 (fun _ ->
      lazy
        (let a = Bigarray.(Array1.create int c_layout size) in
         Bigarray.Array1.fill a 0;
         a))

let kernel (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) =
  let mask = size - 1 in
  let j = ref 0 and acc = ref [] in
  for i = 1 to 200_000 do
    j := ((!j * 1103515245) + 12345 + i) land mask;
    Bigarray.Array1.unsafe_set a !j (Bigarray.Array1.unsafe_get a !j + i);
    acc := i :: (if i land 63 = 0 then [] else !acc)
  done;
  ignore (Sys.opaque_identity !acc)

let timed i =
  let a = Lazy.force tables.(i) in
  let t0 = Span.now () in
  kernel a;
  Span.ms_between t0 (Span.now ())

(* Both domains start together; the helper is spawned and waiting
   before the clock starts, so domain start-up is not timed. *)
let pair () =
  let ready = Atomic.make false and go = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set ready true;
        while not (Atomic.get go) do Domain.cpu_relax () done;
        timed 1)
  in
  while not (Atomic.get ready) do Domain.cpu_relax () done;
  Atomic.set go true;
  let m = timed 0 in
  Float.max m (Domain.join d)

(* The kernel's mean time on the reference host (2-core shared VM), by
   domain count: the scale of the normalized figures, which read as
   wall times at that host speed. Part of the workload definitions. *)
let reference_ms ~domains = if domains = 1 then 1.5 else 4.0

(* One measurement: the mean of three back-to-back kernel runs. *)
let time ~domains =
  let once () = if domains = 1 then timed 0 else pair () in
  let total = ref 0. in
  for _ = 1 to 3 do total := !total +. once () done;
  !total /. 3.

(* [ms] of one operation run between kernel measurements [before] and
   [after], at the reference speed. *)
let normalize ~domains ~before ~after ms =
  ms *. reference_ms ~domains /. ((before +. after) /. 2.)
