(* The four benchmark workloads, built only from the simulator's public
   surface: a Th_baselines.Setups constructor, then one driver run, then
   the stats records. Each [setup] call builds a fresh simulated system;
   the returned [run] executes it once. *)

open Th_sim
module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Giraph_profiles = Th_workloads.Giraph_profiles
module Spark_driver = Th_workloads.Spark_driver
module Giraph_driver = Th_workloads.Giraph_driver
module Streaming_driver = Th_workloads.Streaming_driver
module Run_result = Th_workloads.Run_result
module Runtime = Th_psgc.Runtime
module Gc_stats = Th_psgc.Gc_stats
module H2 = Th_core.H2
module Device = Th_device.Device
module Page_cache = Th_device.Page_cache
module Monitor = Th_resilience.Monitor
module Slo = Th_resilience.Slo

(* One simulated system, built and not yet run. *)
type system = {
  rt : Runtime.t;
  run : unit -> Run_result.t;
  page_cache : Page_cache.t option;
      (** the H2 page cache, or Spark-SD's off-heap one *)
  devices : (string * Device.t) list;  (** keyed h2 / offheap / ooc *)
  monitor : Monitor.t option;
}

type t = {
  name : string;
  expected : Run_result.outcome;
  seeded : bool;  (** false: the workload ignores [--seed] *)
  reference : string;  (** result digest at {!default_seed} *)
  setup : seed:int -> system;
}

let default_seed = 1

(* The CLI's default: 8 simulated mutator threads. *)
let costs = Costs.with_mutator_threads Setups.default_costs 8

let device_list pairs =
  List.filter_map (fun (k, d) -> Option.map (fun d -> (k, d)) d) pairs

let h2_cache rt = Option.map H2.page_cache (Runtime.h2 rt)

(* Giraph PageRank on Giraph-OOC: collector-bound, no H2. *)
let giraph_ooc_pr ~seed =
  let p = Giraph_profiles.by_name "PR" in
  let s = Setups.giraph_ooc ~costs ~heap_gb:p.Giraph_profiles.ooc_heap_gb () in
  {
    rt = s.Setups.rt;
    run =
      (fun () ->
        Giraph_driver.run ~label:"PR Giraph-OOC" s.Setups.rt ~mode:s.Setups.mode
          ?ooc_device:s.Setups.ooc_device ?faults:s.Setups.g_faults
          ~seed:(Int64.of_int seed) p);
    page_cache = None;
    devices = device_list [ ("ooc", s.Setups.ooc_device) ];
    monitor = None;
  }

(* Spark sizes its heap like the CLI: the workload's largest Figure-6
   DRAM point minus the page-cache DRAM. *)
let spark_heap_gb p =
  List.fold_left max 0 p.Spark_profiles.sd_dram_gb - Spark_profiles.dr2_gb

let spark_system (s : Setups.spark) ~label p page_cache =
  let rt = Th_spark.Context.runtime s.Setups.ctx in
  {
    rt;
    run =
      (fun () ->
        Spark_driver.run ~label ?h2_device:s.Setups.h2_device
          ?faults:s.Setups.faults s.Setups.ctx p);
    page_cache = page_cache rt;
    devices =
      device_list
        [ ("h2", s.Setups.h2_device); ("offheap", s.Setups.offheap_device) ];
    monitor = None;
  }

(* Spark PageRank on TeraHeap: reads H2-resident partitions through the
   H2 page cache every iteration. Th_spark.Context fixes its PRNG, so
   the seed does not reach it. *)
let spark_th_pr ~seed:_ =
  let p = Spark_profiles.by_name "PR" in
  let s =
    Setups.spark_teraheap ~costs ~huge_pages:p.Spark_profiles.sequential
      ~h1_gb:(spark_heap_gb p) ~dr2_gb:Spark_profiles.dr2_gb ()
  in
  spark_system s ~label:"PR TeraHeap" p h2_cache

(* Spark linear regression on Spark-SD: serializes partitions to the
   off-heap cache and device. Seed-fixed like [spark_th_pr]. *)
let spark_sd_lr ~seed:_ =
  let p = Spark_profiles.by_name "LR" in
  let s = Setups.spark_sd ~costs ~heap_gb:(spark_heap_gb p) () in
  spark_system s ~label:"LR Spark-SD" p (fun _ -> s.Setups.ctx.offheap)

(* The streaming soak under the wear-out fault plan, with the resilience
   monitor and the default SLO: what `teraheap_sim streaming soak --soak`
   runs, except that the seed also reaches the profile and the plan. *)
let stream_soak ~seed =
  let p = { Streaming_driver.soak with seed = Int64.of_int seed } in
  let faults =
    match Fault.parse (Printf.sprintf "wearout,seed=%d" seed) with
    | Ok plan -> plan
    | Error msg -> invalid_arg msg
  in
  let s =
    Setups.streaming_teraheap ~costs ~faults ~h1_gb:p.Streaming_driver.h1_gb
      ~dr2_gb:p.Streaming_driver.dr2_gb ()
  in
  let monitor = Monitor.attach ~slo:Slo.default s.Setups.s_rt in
  {
    rt = s.Setups.s_rt;
    run =
      (fun () ->
        Streaming_driver.run ~label:"soak Streaming-TeraHeap"
          ?h2_device:s.Setups.s_h2_device ?faults:s.Setups.s_faults ~monitor
          s.Setups.s_rt p);
    page_cache = h2_cache s.Setups.s_rt;
    devices = device_list [ ("h2", s.Setups.s_h2_device) ];
    monitor = Some monitor;
  }

let all =
  [
    {
      name = "giraph-ooc-pr";
      expected = Run_result.Completed;
      seeded = true;
      reference = "b540da64aa7a84d6b6262e54f6da1ed7";
      setup = giraph_ooc_pr;
    };
    {
      name = "spark-th-pr";
      expected = Run_result.Completed;
      seeded = false;
      reference = "fbed462461853c2dd400961446b6910a";
      setup = spark_th_pr;
    };
    {
      name = "spark-sd-lr";
      expected = Run_result.Completed;
      seeded = false;
      reference = "5819ef08e2ea95372b84c2c47995d31e";
      setup = spark_sd_lr;
    };
    {
      name = "stream-soak";
      expected = Run_result.Degraded;
      seeded = true;
      reference = "b95b8a9ebb0b750301ff71f2f6f1b280";
      setup = stream_soak;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* ---- result digest ---- *)

let outcome_name = function
  | Run_result.Completed -> "completed"
  | Run_result.Degraded -> "degraded"
  | Run_result.Oom -> "oom"

(* What a finished run leaves to report, detached from the simulated
   system so the system's heap can be collected. *)
type snapshot = {
  result : Run_result.t;
  phases : Gc_stats.phases;
  cache : Page_cache.stats option;
  device_stats : (string * Device.stats) list;
  summary : Monitor.summary option;
  digest : string;
}

(* Floats print in hex so the digest sees every bit. *)
let digest_of (r : Run_result.t) (ph : Gc_stats.phases) cache device_stats =
  let b = Buffer.create 512 in
  let i k v = Printf.bprintf b "%s=%d;" k v in
  let f k v = Printf.bprintf b "%s=%h;" k v in
  Buffer.add_string b (outcome_name r.Run_result.outcome);
  Option.iter
    (fun (c : Clock.breakdown) ->
      f "other" c.other_ns;
      f "serde_io" c.serde_io_ns;
      f "minor" c.minor_gc_ns;
      f "major" c.major_gc_ns)
    r.Run_result.breakdown;
  i "minor_gcs" r.Run_result.minor_gcs;
  i "major_gcs" r.Run_result.major_gcs;
  f "marking" ph.Gc_stats.marking_ns;
  f "precompact" ph.Gc_stats.precompact_ns;
  f "adjust" ph.Gc_stats.adjust_ns;
  f "compact" ph.Gc_stats.compact_ns;
  Option.iter
    (fun (h : H2.stats) ->
      i "regions_allocated" h.regions_allocated;
      i "regions_reclaimed" h.regions_reclaimed;
      i "regions_active" h.regions_active;
      i "used_bytes" h.used_bytes;
      i "wasted_bytes" h.wasted_bytes;
      i "dep_nodes" h.dep_nodes;
      i "moves_to_h2" h.moves_to_h2;
      i "bytes_moved" h.bytes_moved;
      i "readback_bytes" h.readback_bytes;
      i "rmw_bytes" h.rmw_bytes;
      f "minor_scan" h.minor_scan_time_ns;
      i "degraded_moves" h.degraded_moves;
      i "objects_deferred" h.objects_deferred;
      i "flush_deferrals" h.flush_deferrals)
    r.Run_result.h2_stats;
  Option.iter
    (fun (s : Page_cache.stats) ->
      i "pc_hits" s.hits;
      i "pc_misses" s.misses;
      i "pc_evictions" s.evictions;
      i "pc_writebacks" s.writebacks)
    cache;
  List.iter
    (fun (k, (s : Device.stats)) ->
      i (k ^ "_bytes_read") s.bytes_read;
      i (k ^ "_bytes_written") s.bytes_written;
      i (k ^ "_read_ops") s.read_ops;
      i (k ^ "_write_ops") s.write_ops)
    device_stats;
  Option.iter
    (fun (s : Fault.stats) ->
      i "read_errors" s.read_errors;
      i "write_errors" s.write_errors;
      i "spiked_ops" s.spiked_ops;
      i "stalls" s.stalls;
      i "enospc" s.enospc_rejections;
      i "retries" s.retries;
      f "backoff" s.backoff_ns;
      f "penalty" s.penalty_ns;
      i "exhausted" s.exhausted_retries;
      i "watchdogs" s.watchdog_timeouts;
      i "recomputes" s.recomputes;
      i "h2_degraded" s.h2_degraded_events;
      i "h2_deferred" s.h2_objects_deferred)
    r.Run_result.faults;
  Digest.to_hex (Digest.string (Buffer.contents b))

let snapshot sys result =
  let phases = Gc_stats.phase_totals (Runtime.stats sys.rt) in
  let cache = Option.map Page_cache.stats sys.page_cache in
  let device_stats = List.map (fun (k, d) -> (k, Device.stats d)) sys.devices in
  {
    result;
    phases;
    cache;
    device_stats;
    summary = Option.map Monitor.summary sys.monitor;
    digest = digest_of result phases cache device_stats;
  }
