(* Tests for the resilience layer (lib/resilience): the pure breaker
   transition table, the stateful breaker lifecycle (cooldowns, probe
   streaks, reopens), the I/O watchdog, seeded backoff jitter, SLO
   parsing and evaluation, the monitor's tripwires plus the move gate
   it installs on the runtime, and the headline regression: a run that
   OOMs without the breaker completes Degraded with it. *)

open Th_sim
module Fault = Th_sim.Fault
module Device = Th_device.Device
module Io_retry = Th_device.Io_retry
module Obj_ = Th_objmodel.Heap_object
module H1_heap = Th_minijvm.H1_heap
module H2 = Th_core.H2
module Runtime = Th_psgc.Runtime
module Event = Th_trace.Event
module Recorder = Th_trace.Recorder
module Rollup = Th_trace.Rollup
module Verify = Th_verify.Verify
module Breaker = Th_resilience.Breaker
module Slo = Th_resilience.Slo
module Monitor = Th_resilience.Monitor
module Setups = Th_baselines.Setups
module Streaming_driver = Th_workloads.Streaming_driver
module Run_result = Th_workloads.Run_result
module Cdf = Th_metrics.Cdf

(* --- pure transition table -------------------------------------------- *)

(* The full 3x4 table, written out so any change to the relation is a
   visible diff here, not an emergent behavior change. *)
let test_step_table () =
  let expected =
    [
      (Breaker.Closed, Breaker.Trip, Breaker.Open);
      (Breaker.Closed, Breaker.Probe_ok, Breaker.Closed);
      (Breaker.Closed, Breaker.Probe_fail, Breaker.Closed);
      (Breaker.Closed, Breaker.Cooldown_elapsed, Breaker.Closed);
      (Breaker.Open, Breaker.Trip, Breaker.Open);
      (Breaker.Open, Breaker.Probe_ok, Breaker.Open);
      (Breaker.Open, Breaker.Probe_fail, Breaker.Open);
      (Breaker.Open, Breaker.Cooldown_elapsed, Breaker.Half_open);
      (Breaker.Half_open, Breaker.Trip, Breaker.Open);
      (Breaker.Half_open, Breaker.Probe_ok, Breaker.Closed);
      (Breaker.Half_open, Breaker.Probe_fail, Breaker.Open);
      (Breaker.Half_open, Breaker.Cooldown_elapsed, Breaker.Half_open);
    ]
  in
  Alcotest.(check int) "table is exhaustive" 12 (List.length expected);
  List.iter
    (fun (s, e, s') ->
      Alcotest.(check bool)
        (Printf.sprintf "%s --(event)--> %s" (Breaker.state_name s)
           (Breaker.state_name s'))
        true
        (Breaker.step s e = s'))
    expected

(* --- stateful lifecycle ----------------------------------------------- *)

let test_breaker_lifecycle () =
  let config = { Breaker.open_cooldown_ns = 100.0; probe_successes = 2 } in
  let b = Breaker.create ~config () in
  Alcotest.(check bool) "starts Closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "healthy sample is a no-op" true
    (Breaker.on_sample b ~now_ns:0.0 ~healthy:true = `Unchanged);
  Alcotest.(check bool) "trip opens" true
    (Breaker.on_sample b ~now_ns:10.0 ~healthy:false = `Opened);
  Alcotest.(check bool) "Open" true (Breaker.state b = Breaker.Open);
  (* An unhealthy sample while Open restarts the cooldown... *)
  Alcotest.(check bool) "still sick, still Open" true
    (Breaker.on_sample b ~now_ns:50.0 ~healthy:false = `Unchanged);
  (* ...so a healthy sample before 50 + 100 has not cooled down yet. *)
  Alcotest.(check bool) "cooldown restarted" true
    (Breaker.on_sample b ~now_ns:120.0 ~healthy:true = `Unchanged);
  Alcotest.(check bool) "still Open" true (Breaker.state b = Breaker.Open);
  (* Healthy after the cooldown: Half-open, first probe counted. *)
  Alcotest.(check bool) "first probe" true
    (Breaker.on_sample b ~now_ns:160.0 ~healthy:true = `Unchanged);
  Alcotest.(check bool) "Half-open" true
    (Breaker.state b = Breaker.Half_open);
  Alcotest.(check bool) "second probe closes" true
    (Breaker.on_sample b ~now_ns:170.0 ~healthy:true = `Closed);
  let s = Breaker.stats b in
  Alcotest.(check int) "one trip" 1 s.Breaker.trips;
  Alcotest.(check int) "no reopens" 0 s.Breaker.reopens;
  Alcotest.(check int) "one close" 1 s.Breaker.closes;
  Alcotest.(check int) "two probes ok" 2 s.Breaker.probes_ok;
  (* Failed recovery: Half-open probe failure counts as a reopen. *)
  ignore (Breaker.on_sample b ~now_ns:200.0 ~healthy:false);
  ignore (Breaker.on_sample b ~now_ns:320.0 ~healthy:true);
  Alcotest.(check bool) "probing again" true
    (Breaker.state b = Breaker.Half_open);
  Alcotest.(check bool) "probe failure reopens" true
    (Breaker.on_sample b ~now_ns:330.0 ~healthy:false = `Opened);
  let s = Breaker.stats b in
  Alcotest.(check int) "two trips" 3 s.Breaker.trips;
  Alcotest.(check int) "one reopen" 1 s.Breaker.reopens;
  Alcotest.(check int) "one probe failed" 1 s.Breaker.probes_failed

let test_single_probe_closes_immediately () =
  let config = { Breaker.open_cooldown_ns = 10.0; probe_successes = 1 } in
  let b = Breaker.create ~config () in
  ignore (Breaker.on_sample b ~now_ns:0.0 ~healthy:false);
  Alcotest.(check bool) "one healthy probe closes" true
    (Breaker.on_sample b ~now_ns:20.0 ~healthy:true = `Closed);
  Alcotest.(check bool) "Closed" true (Breaker.state b = Breaker.Closed)

(* --- I/O watchdog ------------------------------------------------------ *)

(* A device that always fails transiently plus a tight episode deadline:
   the watchdog must abort the episode (before the generous retry budget
   runs out), count it, and mark the timeline. *)
let test_watchdog_bounds_episode () =
  let clock = Clock.create () in
  let tr = Recorder.create ~lane:0 () in
  Clock.set_tracer clock (Some tr);
  let inj =
    Fault.create { Fault.zero with Fault.seed = 3L; read_error_rate = 1.0 }
  in
  let retry =
    { Io_retry.default with max_retries = 64; episode_deadline_ns = 50_000.0 }
  in
  let device = Device.create ~faults:inj ~retry clock Device.Nvme_ssd in
  (match Device.read_checked device ~cat:Clock.Serde_io ~random:true 4096 with
  | Ok () -> Alcotest.fail "checked read succeeded under 100% error rate"
  | Error { Io_retry.op; attempts } ->
      Alcotest.(check string) "op name" "read" op;
      Alcotest.(check bool) "gave up before the retry budget" true
        (attempts < 1 + retry.Io_retry.max_retries));
  let fs = Fault.stats inj in
  Alcotest.(check int) "watchdog counted" 1 fs.Fault.watchdog_timeouts;
  Alcotest.(check int) "not an exhaustion" 0 fs.Fault.exhausted_retries;
  Alcotest.(check bool) "watchdog episodes count as degraded" true
    (Fault.degraded fs);
  let events = Recorder.events tr in
  let timeouts =
    List.filter
      (fun e -> e.Event.cat = "fault" && e.Event.name = "watchdog_timeout")
      events
  in
  Alcotest.(check int) "one timeline mark" 1 (List.length timeouts);
  let r = Rollup.of_events events in
  Alcotest.(check int) "rollup sees it" 1 r.Rollup.watchdog_timeouts

let test_watchdog_disarmed_by_default () =
  let clock = Clock.create () in
  let inj =
    Fault.create { Fault.zero with Fault.seed = 3L; read_error_rate = 1.0 }
  in
  let device = Device.create ~faults:inj clock Device.Nvme_ssd in
  (match Device.read_checked device ~cat:Clock.Serde_io ~random:true 4096 with
  | Ok () -> Alcotest.fail "checked read succeeded under 100% error rate"
  | Error { Io_retry.attempts; _ } ->
      Alcotest.(check int) "full retry budget used"
        (1 + Io_retry.default.Io_retry.max_retries)
        attempts);
  Alcotest.(check int) "no watchdog timeouts" 0
    (Fault.stats inj).Fault.watchdog_timeouts

(* --- seeded backoff jitter --------------------------------------------- *)

let jitter_spec =
  {
    Fault.zero with
    Fault.seed = 21L;
    read_error_rate = 0.3;
    write_error_rate = 0.3;
  }

let test_jitter_stream_deterministic () =
  let a = Fault.create jitter_spec and b = Fault.create jitter_spec in
  for i = 1 to 200 do
    let ua = Fault.jitter_unit a and ub = Fault.jitter_unit b in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "draw %d identical" i)
      ua ub;
    Alcotest.(check bool) "in [0,1)" true (ua >= 0.0 && ua < 1.0)
  done

(* The jitter PRNG is separate from the outcome PRNG: draining jitter
   draws must not change which operations fault. *)
let test_jitter_does_not_perturb_outcomes () =
  let a = Fault.create jitter_spec and b = Fault.create jitter_spec in
  for i = 0 to 499 do
    let now_ns = float_of_int i *. 1000.0 in
    if i mod 3 = 0 then ignore (Fault.jitter_unit a);
    Alcotest.(check bool)
      (Printf.sprintf "outcome %d identical" i)
      true
      (Fault.on_read a ~now_ns = Fault.on_read b ~now_ns)
  done

(* Whole-device determinism: same seed, same op sequence, jittered
   backoff — byte-identical clock and fault accounting. *)
let test_jittered_backoff_deterministic () =
  let run () =
    let clock = Clock.create () in
    let inj = Fault.create jitter_spec in
    let device = Device.create ~faults:inj clock Device.Nvme_ssd in
    for _ = 1 to 500 do
      Device.read device ~cat:Clock.Serde_io ~random:true 4096;
      Device.write device ~cat:Clock.Major_gc ~random:false 8192
    done;
    (Clock.total_ns (Clock.breakdown clock), Fault.stats inj)
  in
  let t1, s1 = run () and t2, s2 = run () in
  Alcotest.(check (float 0.0)) "identical simulated time" t1 t2;
  Alcotest.(check bool) "identical fault stats" true (s1 = s2);
  Alcotest.(check bool) "backoff time accrued" true (s1.Fault.backoff_ns > 0.0)

(* --- SLO spec and evaluation ------------------------------------------- *)

let test_slo_parse () =
  (match Slo.parse "p99_ms=10,degraded_max=0.1" with
  | Ok s ->
      Alcotest.(check (float 0.0)) "budget" 10e6 s.Slo.p99_pause_ns;
      Alcotest.(check (float 0.0)) "degraded" 0.1 s.Slo.max_degraded_fraction
  | Error e -> Alcotest.fail e);
  (match Slo.parse (Slo.to_string Slo.default) with
  | Ok s -> Alcotest.(check bool) "round-trips" true (s = Slo.default)
  | Error e -> Alcotest.fail e);
  (match Slo.parse "p99_ms=-5" with
  | Ok _ -> Alcotest.fail "negative budget accepted"
  | Error _ -> ());
  (match Slo.parse "degraded_max=1.5" with
  | Ok _ -> Alcotest.fail "fraction > 1 accepted"
  | Error _ -> ());
  match Slo.parse "p42_ms=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error _ -> ()

let test_slo_evaluate () =
  let spec = { Slo.p99_pause_ns = 10.0; max_degraded_fraction = 0.5 } in
  (* 9 pauses of 1 ns plus one of 50 ns: the nearest-rank p99 of 10
     samples is the max, so the tail sample blows the budget. *)
  let pauses = List.init 9 (fun _ -> 1.0) @ [ 50.0 ] in
  let r =
    Slo.evaluate spec ~pause_samples_ns:pauses ~total_ns:1000.0
      ~degraded_ns:100.0
  in
  Alcotest.(check int) "one violation" 1 r.Slo.pause_violations;
  Alcotest.(check bool) "pause budget blown" false r.Slo.pause_compliant;
  Alcotest.(check bool) "degraded share fine" true r.Slo.degraded_compliant;
  Alcotest.(check bool) "overall fail" false r.Slo.compliant;
  Alcotest.(check (float 0.0)) "max pause" 50.0 r.Slo.max_pause_ns;
  (* Same pauses, generous budget, but degraded 80% of the run. *)
  let spec2 = { Slo.p99_pause_ns = 100.0; max_degraded_fraction = 0.5 } in
  let r2 =
    Slo.evaluate spec2 ~pause_samples_ns:pauses ~total_ns:1000.0
      ~degraded_ns:800.0
  in
  Alcotest.(check bool) "pauses fine" true r2.Slo.pause_compliant;
  Alcotest.(check bool) "degraded blown" false r2.Slo.degraded_compliant;
  (* No pauses at all is vacuously compliant. *)
  let r3 =
    Slo.evaluate spec ~pause_samples_ns:[] ~total_ns:1000.0 ~degraded_ns:0.0
  in
  Alcotest.(check bool) "empty run compliant" true r3.Slo.compliant

let test_percentile_nearest_rank () =
  let xs = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check (float 0.0)) "p50 of 1..5" 3.0 (Cdf.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "p100" 5.0 (Cdf.percentile xs 100.0);
  Alcotest.(check (float 0.0)) "p1" 1.0 (Cdf.percentile xs 1.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Cdf.percentile [] 99.0)

(* --- monitor: tripwires and the move gate ------------------------------ *)

(* A runtime over a deliberately tiny H2 (two 64 KiB regions): the first
   move-to-H2 fills it past the occupancy tripwire, the breaker opens at
   that safepoint, and the next major GC's move passes are gated off —
   tagged objects stay in H1 and the suppression is counted and traced. *)
let tiny_h2_rt () =
  let clock = Clock.create () in
  let costs = Costs.default in
  let heap = H1_heap.create ~heap_bytes:(Size.mib 8) () in
  let device = Device.create clock Device.Nvme_ssd in
  let config =
    {
      H2.default_config with
      H2.region_size = Size.kib 64;
      capacity = Size.kib 128;
    }
  in
  let h2 =
    H2.create ~config ~clock ~costs ~device ~dr2_bytes:(Size.mib 1) ()
  in
  (Runtime.create ~h2 ~clock ~costs ~heap (), h2, clock)

let tag_group rt ~label ~bytes =
  let holder = Runtime.alloc rt ~size:64 () in
  Runtime.add_root rt holder;
  for _ = 1 to bytes / Size.kib 8 do
    let e = Runtime.alloc rt ~size:(Size.kib 8) () in
    Runtime.write_ref rt holder e
  done;
  Runtime.h2_tag_root rt holder ~label;
  Runtime.h2_move rt ~label;
  holder

(* Region packing wastes headers, so a two-region H2 tops out below 90%
   occupancy; the tests lower the tripwire instead of fighting that. *)
let occupancy_config =
  { Monitor.default_config with Monitor.h2_occupancy_trip = 0.4 }

let test_monitor_trips_and_gates_moves () =
  let rt, h2, clock = tiny_h2_rt () in
  let tr = Recorder.create ~lane:0 () in
  Clock.set_tracer clock (Some tr);
  let m = Monitor.attach ~config:occupancy_config rt in
  Alcotest.(check bool) "starts Closed" true
    (Monitor.state m = Breaker.Closed);
  Alcotest.(check bool) "moves allowed" true (Monitor.h2_allowed m);
  (* Fill H2 past the occupancy tripwire: the safepoint at the end of
     this major GC samples and trips. *)
  let g1 = tag_group rt ~label:1 ~bytes:(Size.kib 120) in
  Runtime.major_gc rt;
  Alcotest.(check bool) "H2 well past the tripwire" true
    (H2.used_bytes h2 > 2 * (H2.config h2).H2.capacity / 5);
  Alcotest.(check bool) "breaker tripped at the safepoint" true
    (Monitor.state m = Breaker.Open);
  Alcotest.(check bool) "moves gated off" false (Monitor.h2_allowed m);
  (* A second tagged group: its move passes must be suppressed. *)
  let used_before = H2.used_bytes h2 in
  let moved_before = (H2.stats h2).H2.moves_to_h2 in
  let g2 = tag_group rt ~label:2 ~bytes:(Size.kib 64) in
  Runtime.major_gc rt;
  Alcotest.(check int) "no new objects moved" moved_before
    (H2.stats h2).H2.moves_to_h2;
  Alcotest.(check int) "H2 usage unchanged" used_before (H2.used_bytes h2);
  Alcotest.(check bool) "tagged group still alive in H1" false
    (Obj_.is_freed g2);
  let s = Monitor.summary m in
  Alcotest.(check bool) "suppressions counted" true (s.Monitor.moves_suppressed > 0);
  Alcotest.(check bool) "trip counted" true (s.Monitor.breaker.Breaker.trips >= 1);
  Alcotest.(check bool) "open time accrued" true (s.Monitor.time_open_ns > 0.0);
  let events = Recorder.events tr in
  let count cat name =
    List.length
      (List.filter (fun e -> e.Event.cat = cat && e.Event.name = name) events)
  in
  Alcotest.(check bool) "breaker_open traced" true (count "resilience" "breaker_open" >= 1);
  Alcotest.(check bool) "suppression traced" true (count "h2" "moves_suppressed" >= 1);
  let r = Rollup.of_events events in
  Alcotest.(check bool) "rollup sees the open" true (r.Rollup.breaker_opens >= 1);
  ignore g1

(* The verifier and the monitor share the safepoint hook: attaching the
   monitor after Verify must keep both running. *)
let test_monitor_chains_verify_hook () =
  let rt, _h2, _clock = tiny_h2_rt () in
  let v = Verify.attach rt Verify.Safepoint in
  let m = Monitor.attach rt in
  ignore (tag_group rt ~label:1 ~bytes:(Size.kib 120));
  Runtime.major_gc rt;
  Runtime.major_gc rt;
  Alcotest.(check int) "verifier still runs, clean" 0
    (Verify.violation_count v);
  Alcotest.(check bool) "monitor sampled at safepoints" true
    ((Monitor.summary m).Monitor.samples > 0)

(* --- the headline regression ------------------------------------------- *)

(* A streaming service whose retained window (24 x 256 KiB = 6 MiB)
   cannot fit in H1 (~2 MiB old gen) plus H2 (1.5 MiB): without the
   resilience layer the H2-degraded moves pile the window back into H1
   and the run dies of OOM; with it, H2 absorbs the first promotion
   wave, the occupancy trip opens the circuit, and batches drain through
   the serialize-to-offheap fallback, so the same pressure completes as
   a Degraded run. *)
let pressure_profile =
  {
    Streaming_driver.smoke with
    Streaming_driver.name = "pressure";
    batches = 80;
    window = 24;
    state_bytes_per_batch = Size.kib 256;
    elems_per_batch = 32;
    batch_interval_ns = 100e6;
    h1_gb = 3;
  }

let tiny_h2_config =
  {
    H2.default_config with
    H2.region_size = Size.kib 64;
    capacity = Size.kib 1536;
  }

let run_pressure ~with_monitor () =
  let s =
    Setups.streaming_teraheap ~h2_config:tiny_h2_config
      ~h1_gb:pressure_profile.Streaming_driver.h1_gb
      ~dr2_gb:pressure_profile.Streaming_driver.dr2_gb ()
  in
  let monitor =
    if with_monitor then
      Some (Monitor.attach ~config:occupancy_config ~slo:Slo.default s.Setups.s_rt)
    else None
  in
  Streaming_driver.run ~label:"pressure"
    ?h2_device:s.Setups.s_h2_device ?faults:s.Setups.s_faults ?monitor
    s.Setups.s_rt pressure_profile

let test_breaker_converts_oom_to_degraded () =
  let bare = run_pressure ~with_monitor:false () in
  Alcotest.(check bool) "without the breaker: OOM" true
    (bare.Run_result.outcome = Run_result.Oom);
  let guarded = run_pressure ~with_monitor:true () in
  Alcotest.(check bool) "with the breaker: completes" true
    (guarded.Run_result.outcome = Run_result.Degraded);
  match guarded.Run_result.resilience with
  | None -> Alcotest.fail "resilience summary missing"
  | Some s ->
      Alcotest.(check bool) "circuit tripped" true
        (s.Monitor.breaker.Breaker.trips >= 1);
      Alcotest.(check bool) "batches drained off-heap" true
        (s.Monitor.fallback_serializations > 0);
      Alcotest.(check bool) "GC move passes were gated" true
        (s.Monitor.moves_suppressed > 0);
      Alcotest.(check bool) "unserializable batches deferred in H1" true
        (s.Monitor.deferred_batches > 0)

let suite =
  [
    Alcotest.test_case "breaker step table is exactly the spec" `Quick
      test_step_table;
    Alcotest.test_case "breaker lifecycle: trip, cooldown, probe, reopen"
      `Quick test_breaker_lifecycle;
    Alcotest.test_case "probe_successes=1 closes on first probe" `Quick
      test_single_probe_closes_immediately;
    Alcotest.test_case "watchdog bounds a checked-I/O episode" `Quick
      test_watchdog_bounds_episode;
    Alcotest.test_case "watchdog disarmed by default" `Quick
      test_watchdog_disarmed_by_default;
    Alcotest.test_case "jitter stream is seed-deterministic" `Quick
      test_jitter_stream_deterministic;
    Alcotest.test_case "jitter draws don't perturb fault outcomes" `Quick
      test_jitter_does_not_perturb_outcomes;
    Alcotest.test_case "jittered backoff is run-to-run deterministic" `Quick
      test_jittered_backoff_deterministic;
    Alcotest.test_case "SLO specs parse and reject junk" `Quick test_slo_parse;
    Alcotest.test_case "SLO evaluation: pause and degraded axes" `Quick
      test_slo_evaluate;
    Alcotest.test_case "nearest-rank percentile" `Quick
      test_percentile_nearest_rank;
    Alcotest.test_case "monitor trips on occupancy and gates move-to-H2"
      `Quick test_monitor_trips_and_gates_moves;
    Alcotest.test_case "monitor chains the verifier's safepoint hook" `Quick
      test_monitor_chains_verify_hook;
    Alcotest.test_case "breaker converts an OOM run into Degraded" `Slow
      test_breaker_converts_oom_to_degraded;
  ]
