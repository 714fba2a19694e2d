(* One instrumented workload for `--trace`: a Spark-PR TeraHeap run with
   a flight recorder attached, exported to the requested file. Kept out
   of the figure sections so their stdout and CSV output stay
   byte-identical whether or not a trace is requested; the status note
   goes to stderr for the same reason. *)

module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Spark_driver = Th_workloads.Spark_driver

let run ~path ~format =
  let p = Spark_profiles.by_name "PR" in
  let costs = Th_sim.Costs.with_mutator_threads Setups.default_costs 8 in
  let dram = List.fold_left max 0 p.Spark_profiles.sd_dram_gb in
  let setup =
    Setups.spark_teraheap ~costs ~huge_pages:p.Spark_profiles.sequential
      ~h1_gb:(dram - Spark_profiles.dr2_gb)
      ~dr2_gb:Spark_profiles.dr2_gb ()
  in
  let tr = Th_trace.Recorder.create ~lane:0 () in
  Th_sim.Clock.set_tracer setup.Setups.clock (Some tr);
  let result =
    Spark_driver.run ~label:"PR TeraHeap (trace capture)"
      ?h2_device:setup.Setups.h2_device ?faults:setup.Setups.faults
      setup.Setups.ctx p
  in
  let events = Th_trace.Export.merge [ tr ] in
  let data = Th_trace.Export.export format events in
  let oc = open_out path in
  output_string oc data;
  close_out oc;
  Printf.eprintf "(trace: %s — %d events from %s, %d dropped)\n%!" path
    (List.length events) result.Th_workloads.Run_result.label
    (Th_trace.Recorder.dropped tr)
