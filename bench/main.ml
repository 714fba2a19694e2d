(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6–§7). Run all experiments with `dune exec bench/main.exe`,
   or select sections: `dune exec bench/main.exe -- fig6 fig7 ...`.

   Every section declares a plan: independent experiment cells plus a
   pure render that consumes results in submission order. The harness
   concatenates the cells of all requested sections into ONE global
   batch for the shared-cursor scheduler (`--jobs N` / `-j N` selects
   the domain count, defaulting to the machine's recommended count),
   then runs the renders serially in request order — so stdout is
   byte-identical for every jobs value. Timing goes to stderr, and a
   machine-readable summary is merge-updated into BENCH_harness.json
   (override the path with the TH_BENCH_JSON environment variable). *)

(* Harness self-timing only: Sys.time here measures the harness's own
   CPU cost for BENCH_harness.json and stderr. It never feeds a
   simulated result, which all come from Th_sim.Clock. *)
[@@@th.allow "wall-clock"]

module Scheduler = Th_exec.Scheduler
module Plan = Th_exec.Plan
module Wall = Th_exec.Wall
module Bench_log = Th_metrics.Bench_log

let sections : (string * string * (unit -> Plan.section)) list =
  [
    ("table5", "H2 metadata size per TB vs region size", Table5.plan);
    ("fig6", "TeraHeap vs Spark-SD / Giraph-OOC, DRAM sweep", Fig6.plan);
    ("fig7", "GC timeline and old-gen occupancy, Spark-PR", Fig7.plan);
    ("fig8", "PS-JDK11 and G1-JDK17 collectors vs TeraHeap", Fig8.plan);
    ("fig9", "transfer hint and low-threshold policies", Fig9.plan);
    ("fig10", "CDF of live objects/space per H2 region", Fig10.plan);
    ("fig11", "H2 card segment sizes; major GC phases", Fig11.plan);
    ("fig12", "NVM server: Spark-SD, Spark-MO, Panthera", Fig12.plan);
    ("fig13", "scaling with threads and dataset size", Fig13.plan);
    ("extras", "write-barrier overhead; union-find ablation", Extras.plan);
    ( "tournament",
      "H2 placement-policy tournament with oracle upper bound",
      Tournament.plan );
    ("soak", "chaos soak: streaming under phased faults, breaker A/B", Soak.plan);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--seed N] [SECTION ...]\navailable sections: \
     %s\n"
    (String.concat ", " (List.map (fun (n, _, _) -> n) sections))

(* Minimal flag parsing: `--jobs N`, `-j N`, `--jobs=N`, `--seed N`,
   `--seed=N`, `--trace FILE`, `--trace-format chrome|text`; every other
   argument is a section name. *)
let parse_args argv =
  let jobs = ref (Scheduler.default_jobs ()) in
  let seed = ref None in
  let trace = ref None in
  let trace_format = ref `Chrome in
  let names = ref [] in
  let int_of ~flag s =
    match int_of_string_opt s with
    | Some n -> n
    | None ->
        Printf.eprintf "%s expects an integer, got %S\n" flag s;
        usage ();
        exit 2
  in
  let rec go = function
    | [] -> ()
    | ("--jobs" | "-j") :: v :: rest ->
        jobs := int_of ~flag:"--jobs" v;
        go rest
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "--jobs expects a value\n";
        usage ();
        exit 2
    | "--seed" :: v :: rest ->
        seed := Some (int_of ~flag:"--seed" v);
        go rest
    | "--seed" :: [] ->
        Printf.eprintf "--seed expects a value\n";
        usage ();
        exit 2
    | "--trace" :: v :: rest ->
        trace := Some v;
        go rest
    | "--trace" :: [] ->
        Printf.eprintf "--trace expects a file path\n";
        usage ();
        exit 2
    | "--trace-format" :: v :: rest ->
        (match Th_trace.Export.format_of_string v with
        | Ok f -> trace_format := f
        | Error msg ->
            Printf.eprintf "--trace-format %s\n" msg;
            usage ();
            exit 2);
        go rest
    | "--trace-format" :: [] ->
        Printf.eprintf "--trace-format expects a value\n";
        usage ();
        exit 2
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: rest ->
        (match
           ( String.length arg > 7 && String.sub arg 0 7 = "--jobs=",
             String.length arg > 7 && String.sub arg 0 7 = "--seed=" )
         with
        | true, _ ->
            jobs :=
              int_of ~flag:"--jobs"
                (String.sub arg 7 (String.length arg - 7))
        | _, true ->
            seed :=
              Some
                (int_of ~flag:"--seed"
                   (String.sub arg 7 (String.length arg - 7)))
        | false, false -> names := arg :: !names);
        go rest
  in
  go (List.tl (Array.to_list argv));
  (max 1 !jobs, !seed, !trace, !trace_format, List.rev !names)

let sum_slice (arr : float array) ~offset ~count =
  let s = ref 0.0 in
  for i = offset to offset + count - 1 do
    s := !s +. arr.(i)
  done;
  !s

let () =
  let jobs, seed, trace, trace_format, requested = parse_args Sys.argv in
  let requested =
    match requested with
    | [] -> List.map (fun (name, _, _) -> name) sections
    | names -> names
  in
  let selected =
    List.filter_map
      (fun name ->
        match Plan.lookup ~name:(fun (n, _, _) -> n) sections name with
        | Ok s -> Some s
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            None)
      requested
  in
  (match seed with
  | Some s -> Runners.giraph_seed := Some (Int64.of_int s)
  | None -> ());
  let sched = Scheduler.create ~jobs () in
  let wall0 = Wall.now_s () in
  let cpu0 = Sys.time () in
  (* Build every requested plan first, then submit the cells of all
     sections as one global batch: the scheduler sees the whole cell
     population at once instead of 2–4 cells per section. *)
  let plans = List.map (fun (n, d, mk) -> (n, d, mk ())) selected in
  let batch = List.concat_map (fun (_, _, s) -> Plan.cells s) plans in
  ignore (Scheduler.run_cells sched batch);
  let stats = Scheduler.last_batch sched in
  (* Renders run serially in request order; each reads only its own
     section's futures. *)
  let offset = ref 0 in
  let timed =
    List.map
      (fun (n, d, s) ->
        let count = List.length (Plan.cells s) in
        let cell_wall_s =
          sum_slice stats.Scheduler.cell_wall_s ~offset:!offset ~count
        in
        offset := !offset + count;
        Printf.printf "\n##### %s — %s #####\n%!" n d;
        let r0 = Wall.now_s () in
        Plan.render s;
        {
          Bench_log.name = n;
          jobs;
          cells = count;
          cell_wall_s;
          render_wall_s = Wall.elapsed_s ~since:r0;
        })
      plans
  in
  let log =
    {
      Bench_log.jobs;
      sections = timed;
      total_wall_s = Wall.elapsed_s ~since:wall0;
      total_cpu_s = Sys.time () -. cpu0;
    }
  in
  let json_path =
    match Sys.getenv_opt "TH_BENCH_JSON" with
    | Some p -> p
    | None -> Bench_log.default_path
  in
  Bench_log.write ~path:json_path log;
  (match trace with
  | Some path -> Trace_capture.run ~path ~format:trace_format
  | None -> ());
  (* Timing is jobs- and scheduling-dependent, so it goes to stderr:
     stdout stays byte-identical across --jobs values. *)
  Printf.eprintf
    "\n\
     (benchmarks completed in %.1f s wall / %.1f s cpu, jobs=%d, measured \
     speedup %.2fx vs serial (est %.2fx); %d cells; %s)\n"
    log.Bench_log.total_wall_s log.Bench_log.total_cpu_s jobs
    (Bench_log.speedup_vs_serial_measured log)
    (Bench_log.speedup_vs_serial_est log)
    stats.Scheduler.cells json_path
