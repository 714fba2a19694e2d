(* Tests of the shared-cursor executor and of the harness determinism
   contract: scheduled execution returns results in submission order, so
   rendering (and therefore CSV/report output) is byte-identical to a
   serial run. *)

module Scheduler = Th_exec.Scheduler
module Cell = Th_exec.Cell
module Plan = Th_exec.Plan
module Wall = Th_exec.Wall
module Csv = Th_metrics.Csv
module Setups = Th_baselines.Setups
module Giraph_profiles = Th_workloads.Giraph_profiles
module Giraph_driver = Th_workloads.Giraph_driver
module Run_result = Th_workloads.Run_result

let test_results_in_submission_order () =
  let sched = Scheduler.create ~jobs:4 () in
  let thunks =
    List.init 32 (fun i () ->
        (* Stagger so later submissions tend to finish first. *)
        if i mod 4 = 0 then Unix.sleepf 0.002;
        i * i)
  in
  let results = Scheduler.run_thunks sched thunks in
  Alcotest.(check (list int))
    "squares in order"
    (List.init 32 (fun i -> i * i))
    results

let test_exception_propagates () =
  let sched = Scheduler.create ~jobs:4 () in
  Alcotest.check_raises "thunk exception re-raised" (Failure "boom")
    (fun () ->
      ignore
        (Scheduler.run_thunks sched
           [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]));
  (* The scheduler survives a failing batch. *)
  Alcotest.(check (list int))
    "scheduler reusable after failure" [ 7 ]
    (Scheduler.run_thunks sched [ (fun () -> 7) ])

let test_serial_scheduler () =
  Alcotest.(check (list int))
    "jobs=1 runs in the calling domain" [ 1; 2; 3 ]
    (Scheduler.run_thunks
       (Scheduler.create ~jobs:1 ())
       [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])

let test_map () =
  Alcotest.(check (list int))
    "map keeps order" [ 2; 4; 6; 8 ]
    (Scheduler.run_thunks
       (Scheduler.create ~jobs:2 ())
       (List.map (fun x () -> 2 * x) [ 1; 2; 3; 4 ]))

let test_invalid_jobs () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Scheduler.create: jobs must be >= 1") (fun () ->
      ignore (Scheduler.create ~jobs:0 ()))

let test_wall_clock_monotonic () =
  let t0 = Wall.now_s () in
  Unix.sleepf 0.001;
  let dt = Wall.elapsed_s ~since:t0 in
  Alcotest.(check bool) "elapsed time is positive" true (dt > 0.0)

(* The determinism contract end to end: the same Giraph cell, with a
   fixed seed, produces byte-identical CSV whether computed serially or
   on a 4-domain scheduler. *)
let giraph_cell seed () =
  let p = Giraph_profiles.bfs in
  let s =
    Setups.giraph_teraheap ~h1_gb:p.Giraph_profiles.th_h1_gb
      ~dr2_gb:p.Giraph_profiles.th_dr2_gb ()
  in
  Giraph_driver.run ~label:"BFS determinism" s.Setups.rt ~mode:s.Setups.mode
    ~scale:0.1 ~seed p

let csv_of_results results =
  Csv.to_string ~header:Csv.breakdown_header
    (List.map
       (fun (r : Run_result.t) ->
         Csv.breakdown_row ~label:r.Run_result.label r.Run_result.breakdown)
       results)

let test_pooled_csv_identical () =
  let seed = 42L in
  let cells = [ giraph_cell seed; giraph_cell seed; giraph_cell seed ] in
  let serial = csv_of_results (List.map (fun f -> f ()) cells) in
  let pooled =
    csv_of_results (Scheduler.run_thunks (Scheduler.create ~jobs:4 ()) cells)
  in
  Alcotest.(check string) "serial and pooled CSV bytes" serial pooled

(* ------------------------------------------------------------------ *)
(* Scheduler: execution order and failure handling.                   *)

(* Each cell takes a ticket from a shared counter when it starts, so at
   jobs = 1 the tickets are the execution order. *)
let test_longest_cost_first () =
  let ticket = Atomic.make 0 in
  let costs = [ 1.0; 5.0; 3.0; 5.0; 0.0; 2.0 ] in
  let cells =
    List.mapi
      (fun i cost ->
        Cell.make ~label:(Printf.sprintf "c%d" i) ~cost ~lane:i (fun () ->
            (i, Atomic.fetch_and_add ticket 1)))
      costs
  in
  let t = Scheduler.create ~jobs:1 () in
  let results = Scheduler.run_cells t cells in
  Alcotest.(check (list int))
    "results in submission order" [ 0; 1; 2; 3; 4; 5 ] (List.map fst results);
  (* Descending cost, ties (5.0 twice; 1.0 and the defaulted 0.0) in
     submission order. *)
  Alcotest.(check (list int))
    "longest cost first, ties by submission" [ 4; 0; 2; 1; 5; 3 ]
    (List.map snd results);
  let stats = Scheduler.last_batch t in
  Alcotest.(check int) "one wall time per cell" 6
    (Array.length stats.Scheduler.cell_wall_s)

(* Two cells fail, the later-submitted one with the larger cost so it
   runs first: every other cell still runs, and the failure re-raised is
   the first by submission order. *)
let test_first_failure_by_submission () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let cells =
        List.init 8 (fun i ->
            let cost = if i = 5 then 10.0 else 1.0 in
            Cell.make ~label:(Printf.sprintf "c%d" i) ~cost ~lane:i (fun () ->
                if i = 2 || i = 5 then failwith (Printf.sprintf "cell %d" i);
                ignore (Atomic.fetch_and_add ran 1 : int)))
      in
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d: first failure by submission order" jobs)
        (Failure "cell 2")
        (fun () ->
          ignore (Scheduler.run_cells (Scheduler.create ~jobs ()) cells));
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: every other cell ran" jobs)
        6 (Atomic.get ran))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Plan: futures, grouped regrouping, read-before-run.                 *)

let test_plan_futures () =
  let b = Plan.create () in
  let x = Plan.cell b ~label:"x" ~cost:2.0 (fun () -> 21 * 2) in
  let ys = Plan.cell_list b ~label:"ys" [ (fun () -> "a"); (fun () -> "b") ] in
  let g =
    Plan.grouped b ~label:"g"
      [
        ("k0", List.init 3 (fun i () -> i));
        ("k1", []);
        ("k2", List.init 2 (fun i () -> 10 + i));
      ]
  in
  Alcotest.(check int) "cell count" 8 (Plan.cell_count b);
  let rendered = Buffer.create 64 in
  let section =
    Plan.seal b ~render:(fun () ->
        Buffer.add_string rendered (string_of_int (Plan.get x));
        List.iter (Buffer.add_string rendered) (Plan.get ys);
        List.iter
          (fun (k, vs) ->
            Buffer.add_string rendered
              (Printf.sprintf "%s=%s" k
                 (String.concat "+" (List.map string_of_int vs))))
          (Plan.get g))
  in
  Plan.run_section (Scheduler.create ~jobs:4 ()) section;
  Alcotest.(check string)
    "futures resolve in submission order, groups regroup exactly"
    "42abk0=0+1+2k1=k2=10+11" (Buffer.contents rendered)

let test_plan_get_before_run () =
  let b = Plan.create () in
  let x = Plan.cell b ~label:"early" (fun () -> 1) in
  Alcotest.check_raises "future read before the batch"
    (Failure "Plan.get: cell \"early\" read before the batch executed it")
    (fun () -> ignore (Plan.get x))

(* ------------------------------------------------------------------ *)
(* Property: for ANY cost vector and jobs count, the
   scheduler returns submission-order results and a render over those
   results is byte-identical to the serial reference.                  *)

let prop_scheduler_deterministic =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 40) (int_range (-5) 80))
        (oneofl [ 1; 2; 4; 8 ]))
  in
  let arb =
    QCheck.make
      ~print:(fun (costs, jobs) ->
        Printf.sprintf "costs(x0.1)=[%s] jobs=%d"
          (String.concat ";" (List.map string_of_int costs))
          jobs)
      gen
  in
  QCheck.Test.make ~count:40
    ~name:"random cell DAGs render byte-identically at any jobs" arb
    (fun (deci_costs, jobs) ->
      let cells =
        List.mapi
          (fun i dc ->
            (* Negative and zero hints exercise the default-cost path. *)
            let cost = float_of_int dc /. 10.0 in
            Cell.make ~label:(string_of_int i) ~cost ~lane:i (fun () ->
                (i * 31) + dc))
          deci_costs
      in
      let render results =
        String.concat "," (List.map string_of_int results)
      in
      let serial =
        render (List.mapi (fun i dc -> (i * 31) + dc) deci_costs)
      in
      let scheduled =
        render (Scheduler.run_cells (Scheduler.create ~jobs ()) cells)
      in
      String.equal serial scheduled)

let suite =
  [
    Alcotest.test_case "results in submission order" `Quick
      test_results_in_submission_order;
    Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "jobs=1 serial path" `Quick test_serial_scheduler;
    Alcotest.test_case "map keeps order" `Quick test_map;
    Alcotest.test_case "jobs=0 rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "wall clock is monotonic" `Quick
      test_wall_clock_monotonic;
    Alcotest.test_case "pooled CSV identical to serial" `Slow
      test_pooled_csv_identical;
    Alcotest.test_case "jobs=1 runs longest cost first" `Quick
      test_longest_cost_first;
    Alcotest.test_case "first failure by submission order" `Quick
      test_first_failure_by_submission;
    Alcotest.test_case "plan futures and grouped regroup" `Quick
      test_plan_futures;
    Alcotest.test_case "plan future read before run" `Quick
      test_plan_get_before_run;
    QCheck_alcotest.to_alcotest prop_scheduler_deterministic;
  ]
