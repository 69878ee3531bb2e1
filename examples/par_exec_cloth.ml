(* Parallel loop execution with why-not reporting (paper Sec. 5.3: a
   parallelizing runtime should "not only need[s] to abort ... but also
   have ways to report to the developer the reason for aborting").

   Two loops from a cloth simulation step:
   - the Verlet integration over points is independent per point: the
     static analyzer proves it [Parallel] and Par_exec runs it on a
     2-domain pool;
   - the constraint relaxation writes both endpoints of each spring, so
     iteration i+1 reads what iteration i wrote: the analyzer refuses
     it and prints the facts that block it, and it runs sequentially.

   The parallel session's console must equal the sequential one.

   Run with: dune exec examples/par_exec_cloth.exe *)

let app = {|
var N = 64;
var px = []; var py = [];   // positions
var ox = []; var oy = [];   // previous positions
var i, step;
for (i = 0; i < N; i++) {
  px.push(i * 3); py.push((i % 7) * 2);
  ox.push(i * 3 - 0.5); oy.push((i % 7) * 2 - 0.2);
}
for (step = 0; step < 4; step++) {
  // Verlet integration, one point per iteration
  for (i = 0; i < N; i++) {
    var vx = (px[i] - ox[i]) * 0.99;
    var vy = (py[i] - oy[i]) * 0.99 + 0.24;
    ox[i] = px[i];
    oy[i] = py[i];
    px[i] = px[i] + vx;
    py[i] = py[i] + vy;
  }
  // constraint relaxation between neighbours i and i+1
  for (i = 0; i < N - 1; i++) {
    var dx = px[i + 1] - px[i];
    var d = dx < 0 ? -dx : dx;
    var diff = d > 0.0001 ? (3 - d) / d * 0.5 : 0;
    px[i] = px[i] - dx * diff;
    px[i + 1] = px[i + 1] + dx * diff;
  }
}
var sum = 0;
for (i = 0; i < N; i++) { sum += px[i] + py[i]; }
console.log("checksum", sum);
|}

let run ?par program =
  let st = Interp.Eval.create () in
  Interp.Builtins.install st;
  Option.iter (fun (pe, report) -> Js_parallel.Par_exec.install pe st ~report) par;
  Interp.Eval.run_program st program;
  List.rev st.Interp.Value.console

let () =
  let program = Jsir.Parser.parse_program app in
  let report = Analysis.Driver.analyze program in
  print_endline "--- static verdicts (why-not facts on refused loops) ---";
  print_string (Analysis.Driver.to_text report);
  let seq = run program in
  Js_parallel.Pool.with_pool ~domains:2 (fun pool ->
      let pe =
        Js_parallel.Par_exec.create ~mode:(Parallel pool) ~jobs:2 ()
      in
      let par = run ~par:(pe, report) program in
      print_endline "\n--- par-exec on a 2-domain pool ---";
      List.iter print_endline par;
      Printf.printf "nests run in parallel: %d; console %s sequential\n"
        (Js_parallel.Par_exec.nests_run pe)
        (if par = seq then "equals" else "DIFFERS FROM"))
