(* Shared helpers for the per-figure experiment harnesses. *)

open Th_sim
module Setups = Th_baselines.Setups
module Spark_profiles = Th_workloads.Spark_profiles
module Giraph_profiles = Th_workloads.Giraph_profiles
module Spark_driver = Th_workloads.Spark_driver
module Giraph_driver = Th_workloads.Giraph_driver
module Run_result = Th_workloads.Run_result
module Report = Th_metrics.Report
module Runtime = Th_psgc.Runtime
module Rt = Th_psgc.Rt
module Gc_stats = Th_psgc.Gc_stats
module H2 = Th_core.H2
module Device = Th_device.Device

module Plan = Th_exec.Plan

(* Deterministic base seed for the randomized (Giraph) drivers; settable
   via --seed. [None] keeps each driver's built-in default. *)
let giraph_seed : int64 option ref = ref None

(* Destructure the exactly-two-results shape every A/B experiment uses.
   A malformed cell batch is a harness bug; name the figure so the error
   says which one. *)
let pair2 ~what = function
  | [ a; b ] -> (a, b)
  | rs ->
      invalid_arg
        (Printf.sprintf "%s: expected exactly 2 pool results, got %d" what
           (List.length rs))

let costs ?(threads = 8) () =
  Costs.with_mutator_threads Setups.default_costs threads

(* The "Table 3" DRAM configuration of a Spark workload: the largest
   TeraHeap point of Figure 6 (dataset-sized DRAM). *)
let default_dram (p : Spark_profiles.t) =
  List.fold_left max 0 p.Spark_profiles.th_dram_gb

let heap_gb_of_dram dram = dram - Spark_profiles.dr2_gb

(* Spark-MO sizes its heap as the minimum that fits all cached data
   on-heap (§6), with headroom for the old generation to hold it. *)
let mo_heap_gb (p : Spark_profiles.t) =
  let cached =
    p.Spark_profiles.cached_fraction
    *. float_of_int p.Spark_profiles.dataset_gb
  in
  max 24 (int_of_float (cached *. 2.2))

type spark_system =
  | Sd
  | Sd_nvm
  | Mo
  | Ps11
  | G1
  | Panthera
  | Th
  | Th_nvm

let spark_label = function
  | Sd -> "Spark-SD"
  | Sd_nvm -> "Spark-SD"
  | Mo -> "Spark-MO"
  | Ps11 -> "PS(JDK11)"
  | G1 -> "G1(JDK17)"
  | Panthera -> "Panthera"
  | Th -> "TeraHeap"
  | Th_nvm -> "TeraHeap"

let run_spark ?(threads = 8) ?dram ?dataset_scale ?h2_config ?policy system
    (p : Spark_profiles.t) =
  let costs = costs ~threads () in
  let dram = match dram with Some d -> d | None -> default_dram p in
  let heap_gb = heap_gb_of_dram dram in
  let setup =
    match system with
    | Sd -> Setups.spark_sd ~costs ~heap_gb ()
    | Sd_nvm ->
        Setups.spark_sd ~device_kind:Device.Nvm_app_direct ~costs ~heap_gb ()
    | Mo -> Setups.spark_mo ~costs ~heap_gb:(mo_heap_gb p) ~dram_gb:dram ()
    | Ps11 -> Setups.spark_sd ~collector:Rt.Ps_jdk11 ~costs ~heap_gb ()
    | G1 -> Setups.spark_sd ~collector:Rt.G1 ~costs ~heap_gb ()
    | Panthera -> Setups.spark_panthera ~costs ~heap_gb:64 ()
    | Th ->
        Setups.spark_teraheap ~costs ?h2_config ?policy
          ~huge_pages:p.Spark_profiles.sequential ~h1_gb:heap_gb
          ~dr2_gb:Spark_profiles.dr2_gb ()
    | Th_nvm ->
        Setups.spark_teraheap ~device_kind:Device.Nvm_app_direct ~costs
          ?h2_config ?policy ~huge_pages:p.Spark_profiles.sequential
          ~h1_gb:heap_gb ~dr2_gb:Spark_profiles.dr2_gb ()
  in
  let label = Printf.sprintf "%s @%dGB" (spark_label system) dram in
  Spark_driver.run ?dataset_scale ?h2_device:setup.Setups.h2_device ~label
    setup.Setups.ctx p

type giraph_system = Ooc | G_th

let run_giraph ?(threads = 8) ?(small_dram = false) ?scale ?h2_config ?policy
    ?seed ?h1_gb system (p : Giraph_profiles.t) =
  let seed = match seed with Some _ -> seed | None -> !giraph_seed in
  let costs = costs ~threads () in
  let delta =
    if small_dram then p.Giraph_profiles.dram_gb - p.Giraph_profiles.dram_small_gb
    else 0
  in
  match system with
  | Ooc ->
      let s =
        Setups.giraph_ooc ~costs
          ~heap_gb:(p.Giraph_profiles.ooc_heap_gb - delta)
          ()
      in
      let label =
        Printf.sprintf "Giraph-OOC @%dGB"
          (p.Giraph_profiles.dram_gb - delta)
      in
      Giraph_driver.run ~label s.Setups.rt ~mode:s.Setups.mode
        ?ooc_device:s.Setups.ooc_device ?scale ?seed p
  | G_th ->
      let h1_gb =
        match h1_gb with Some h -> h | None -> p.Giraph_profiles.th_h1_gb
      in
      let s =
        Setups.giraph_teraheap ~costs ?h2_config ?policy ~h1_gb
          ~dr2_gb:(max 4 (p.Giraph_profiles.th_dr2_gb - delta))
          ()
      in
      let label =
        Printf.sprintf "TeraHeap @%dGB" (p.Giraph_profiles.dram_gb - delta)
      in
      Giraph_driver.run ~label s.Setups.rt ~mode:s.Setups.mode
        ?h2_device:s.Setups.g_h2_device ?scale ?seed p

(* Cost hints for longest-expected-first scheduling: arbitrary units
   proportional to a cell's expected runtime — heap size times workload
   iterations, per the profile. A wrong hint only costs balance, never
   correctness, so these stay deliberately crude. *)
let spark_cost ?dram ?(dataset_scale = 1.0) (p : Spark_profiles.t) =
  let dram = match dram with Some d -> d | None -> default_dram p in
  dataset_scale
  *. float_of_int (max 1 dram * max 1 p.Spark_profiles.iterations)

let giraph_cost ?(scale = 1.0) ?(small_dram = false) (p : Giraph_profiles.t) =
  let dram =
    if small_dram then p.Giraph_profiles.dram_small_gb
    else p.Giraph_profiles.dram_gb
  in
  scale *. float_of_int (max 1 dram * max 1 p.Giraph_profiles.dataset_gb)

let rows_of_results results = List.map Run_result.to_report_row results

let total_seconds (r : Run_result.t) =
  match r.Run_result.breakdown with
  | Some b -> Clock.total_ns b /. 1e9
  | None -> nan
