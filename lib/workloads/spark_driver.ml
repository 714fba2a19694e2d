open Th_sim
module Runtime = Th_psgc.Runtime
module Context = Th_spark.Context
module Rdd = Th_spark.Rdd
module Block_manager = Th_spark.Block_manager
module Stage = Th_spark.Stage

let cache_rdd ctx bm rdd =
  let rt = Context.runtime ctx in
  for pidx = 0 to rdd.Rdd.partitions - 1 do
    let group = Rdd.build_partition ctx rdd in
    Block_manager.put bm ~rdd_id:rdd.Rdd.id ~pidx group;
    Runtime.remove_root rt group
  done

(* Read the partitions of [rdd] assigned to stage [stage] (round-robin
   over [stages]); deserialized groups stay held until the stage ends. *)
let read_rdd_slice ctx bm rdd ~compute_factor ~stage ~stages =
  let rt = Context.runtime ctx in
  for pidx = 0 to rdd.Rdd.partitions - 1 do
    (* Multi-stage (graph) jobs hold deserialized groups to the stage
       barrier; single-stage ML training streams partition by partition. *)
    if pidx mod stages = stage then
      Block_manager.get ~hold:(stages > 1) bm ~rdd_id:rdd.Rdd.id ~pidx
        ~consume:(fun group ->
          Rdd.read_partition ctx group;
          (* Algorithm CPU work over the partition beyond the plain
             read. *)
          if compute_factor > 1.0 then
            Runtime.compute rt
              ~bytes:
                (int_of_float
                   ((compute_factor -. 1.0)
                   *. float_of_int (Rdd.partition_bytes rdd))))
  done

let run ?(dataset_scale = 1.0) ?h2_device ?faults ~label ctx
    (p : Spark_profiles.t) =
  let rt = Context.runtime ctx in
  let dataset_bytes =
    int_of_float
      (dataset_scale *. float_of_int (Size.paper_gb p.Spark_profiles.dataset_gb))
  in
  let shuffle_bytes =
    int_of_float
      (p.Spark_profiles.shuffle_fraction *. float_of_int dataset_bytes)
  in
  let transient_bytes =
    int_of_float
      (p.Spark_profiles.transient_fraction *. float_of_int dataset_bytes /. 4.0)
  in
  try
    let bm = Block_manager.create ctx in
    let cached_bytes =
      int_of_float
        (p.Spark_profiles.cached_fraction *. float_of_int dataset_bytes)
    in
    (* Phase 1: stream the raw input (transient records) and cache the
       working set. Workloads with churn split it into a stable base RDD
       (the graph) and a per-generation RDD (ranks / frontiers). *)
    Stage.run ctx
      ~transient_bytes:((dataset_bytes - cached_bytes) / 2)
      ~work:(fun () -> ())
      ();
    let has_churn = p.Spark_profiles.recache_period <> None in
    let base_bytes = if has_churn then cached_bytes * 2 / 3 else cached_bytes in
    let base =
      Rdd.of_dataset ctx ~layout:p.Spark_profiles.layout ~bytes:base_bytes ()
    in
    cache_rdd ctx bm base;
    let churn =
      if has_churn then begin
        let r =
          Rdd.of_dataset ctx ~layout:p.Spark_profiles.layout
            ~bytes:(cached_bytes / 3) ()
        in
        cache_rdd ctx bm r;
        ref (Some r)
      end
      else ref None
    in
    (* Phase 2: iterate over the cached data. Each iteration spans
       [stages_per_iter] stages (GraphX supersteps translate to several
       stages each); every stage reads its slice of the partitions,
       shuffles, and releases its held groups at the barrier. *)
    let stages = max 1 p.Spark_profiles.stages_per_iter in
    let compute_factor = p.Spark_profiles.compute_factor in
    let intermediate_bytes =
      int_of_float
        (p.Spark_profiles.intermediate_fraction *. float_of_int dataset_bytes)
    in
    for it = 1 to p.Spark_profiles.iterations do
      (* Execution-memory live set of this iteration: aggregation buffers,
         candidate sets, gradient accumulators. Live until the iteration
         completes, then garbage. *)
      let intermediates = ref [] in
      let chunk = Size.kib 64 in
      for _ = 1 to intermediate_bytes / chunk do
        let o = Runtime.alloc rt ~size:chunk () in
        Runtime.add_root rt o;
        intermediates := o :: !intermediates
      done;
      for stage = 0 to stages - 1 do
        Stage.run ctx ~shuffle_bytes:(shuffle_bytes / stages)
          ~transient_bytes:(transient_bytes / stages)
          ~work:(fun () ->
            read_rdd_slice ctx bm base ~compute_factor ~stage ~stages;
            match !churn with
            | Some r -> read_rdd_slice ctx bm r ~compute_factor ~stage ~stages
            | None -> ())
          ();
        Block_manager.release_held bm
      done;
      List.iter (fun o -> Runtime.remove_root rt o) !intermediates;
      match (p.Spark_profiles.recache_period, !churn) with
      | Some k, Some old when it mod k = 0 && it < p.Spark_profiles.iterations
        ->
          (* A new generation of the iteratively-refined RDD is cached and
             the previous one unpersisted. *)
          let next =
            Rdd.of_dataset ctx ~layout:p.Spark_profiles.layout
              ~bytes:(cached_bytes / 3) ()
          in
          cache_rdd ctx bm next;
          Block_manager.unpersist bm ~rdd_id:old.Rdd.id;
          churn := Some next
      | _ -> ()
    done;
    Run_result.ok ~label rt ?h2_device ?faults ()
  with
  | Runtime.Out_of_memory reason ->
      Run_result.oom ~reason ?h2_device ?faults ~label rt
