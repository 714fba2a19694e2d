open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Runtime = Th_psgc.Runtime
module H1_heap = Th_minijvm.H1_heap
module Page_cache = Th_device.Page_cache

type t = {
  rt : Runtime.t;
  cache : Page_cache.t;
  threshold : float;
  last_used : (int, int) Hashtbl.t;  (* pid -> tick *)
  offsets : (int, int) Hashtbl.t;  (* pid -> device offset of its edges *)
  mutable tick : int;
  mutable offheap_top : int;
}

let create rt ~device ~dr2_bytes ~threshold =
  {
    rt;
    cache = Page_cache.create ~capacity_bytes:dr2_bytes (Runtime.clock rt) device;
    threshold;
    last_used = Hashtbl.create 32;
    offsets = Hashtbl.create 32;
    tick = 0;
    offheap_top = 0;
  }

let page_cache t = t.cache

let note_processed t (p : Graph.partition) =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.last_used p.Graph.pid t.tick

let occupancy t = H1_heap.old_occupancy (Runtime.heap t.rt)

let offload_partition t (p : Graph.partition) =
  let bytes = ref 0 in
  Array.iter
    (fun (v : Graph.vertex) ->
      if not (Obj_.is_freed v.Graph.edges_obj) then begin
        bytes := !bytes + Obj_.total_size v.Graph.edges_obj;
        (* Already serialized: drop the heap array; the bytes go to the
           device. *)
        Runtime.unlink_ref t.rt v.Graph.vobj v.Graph.edges_obj
      end)
    p.Graph.vertices;
  if !bytes > 0 then begin
    (* Edges are immutable after loading: the first offload writes them to
       the device; later offloads of a reloaded partition just drop the
       heap copy. *)
    (match Hashtbl.find_opt t.offsets p.Graph.pid with
    | Some _ -> ()
    | None ->
        Hashtbl.replace t.offsets p.Graph.pid t.offheap_top;
        Page_cache.access t.cache ~cat:Clock.Serde_io ~write:true
          ~offset:t.offheap_top ~len:!bytes;
        t.offheap_top <- t.offheap_top + !bytes);
    p.Graph.offloaded_edge_bytes <- !bytes
  end

let lru_candidate t candidates =
  let best = ref None in
  List.iter
    (fun (p : Graph.partition) ->
      if p.Graph.offloaded_edge_bytes = 0 then begin
        let used =
          match Hashtbl.find_opt t.last_used p.Graph.pid with
          | Some tick -> tick
          | None -> -1
        in
        match !best with
        | Some (_, best_used) when best_used <= used -> ()
        | _ -> best := Some (p, used)
      end)
    candidates;
  Option.map fst !best

let maybe_offload_list t candidates =
  (* Offloading unlinks heap objects, but the space only comes back at
     the next collection — so offload against a byte budget derived from
     the pressure excess rather than re-reading occupancy. *)
  let heap = Th_psgc.Runtime.heap t.rt in
  let excess =
    (occupancy t -. t.threshold)
    *. float_of_int heap.H1_heap.old_capacity
  in
  if excess > 0.0 then begin
    let freed = ref 0 in
    let continue_ = ref true in
    while !continue_ && float_of_int !freed < excess do
      match lru_candidate t candidates with
      | Some p ->
          let before = p.Graph.offloaded_edge_bytes in
          offload_partition t p;
          if p.Graph.offloaded_edge_bytes > before then
            freed := !freed + p.Graph.offloaded_edge_bytes
          else continue_ := false
      | None -> continue_ := false
    done
  end

let maybe_offload t (g : Graph.t) =
  maybe_offload_list t (Array.to_list g.Graph.partitions)

let enforce_budget_list t candidates ~max_resident =
  let resident =
    List.length
      (List.filter
         (fun (p : Graph.partition) -> p.Graph.offloaded_edge_bytes = 0)
         candidates)
  in
  let excess = ref (resident - max_resident) in
  while !excess > 0 do
    (match lru_candidate t candidates with
    | Some p -> offload_partition t p
    | None -> excess := 0);
    decr excess
  done

let enforce_budget t (g : Graph.t) ~max_resident =
  enforce_budget_list t (Array.to_list g.Graph.partitions) ~max_resident

(* Re-reading a partition's edges from the original input split (the
   recovery path when the off-heap copy is unreadable) costs compute
   proportional to the edge payload: parse and partition again. *)
let reread_compute_factor = 3.0

let ensure_resident t (g : Graph.t) (p : Graph.partition) =
  if p.Graph.offloaded_edge_bytes > 0 then begin
    let offset =
      match Hashtbl.find_opt t.offsets p.Graph.pid with
      | Some off -> off
      | None -> 0
    in
    (match
       Page_cache.access_checked t.cache ~cat:Clock.Serde_io ~write:false
         ~offset ~len:p.Graph.offloaded_edge_bytes
     with
    | Ok () -> ()
    | Error _ ->
        (* The off-heap copy stayed unreadable past the retry budget:
           rebuild the partition from the input graph instead of failing
           the superstep. The allocation loop below re-creates the edge
           arrays either way. *)
        (match Th_device.Device.faults (Page_cache.device t.cache) with
        | Some f -> Th_sim.Fault.note_recompute f
        | None -> ());
        (let clock = Runtime.clock t.rt in
         match Clock.tracer clock with
         | None -> ()
         | Some tr ->
             Th_trace.Recorder.instant tr ~ts:(Clock.now_ns clock) ~cat:"fault"
               ~name:"recompute"
               ~args:[ ("pid", Th_trace.Event.Int p.Graph.pid) ]
               ());
        Runtime.compute t.rt
          ~bytes:
            (int_of_float
               (reread_compute_factor
               *. float_of_int p.Graph.offloaded_edge_bytes)));
    Array.iter
      (fun (v : Graph.vertex) ->
        let size = (v.Graph.degree * g.Graph.edge_bytes) + 32 in
        let fresh = Runtime.alloc t.rt ~kind:Obj_.Array_data ~size () in
        Runtime.write_ref t.rt v.Graph.vobj fresh;
        v.Graph.edges_obj <- fresh)
      p.Graph.vertices;
    p.Graph.offloaded_edge_bytes <- 0
  end

let offloaded_partitions t (g : Graph.t) =
  ignore t;
  Array.fold_left
    (fun n (p : Graph.partition) ->
      if p.Graph.offloaded_edge_bytes > 0 then n + 1 else n)
    0 g.Graph.partitions
