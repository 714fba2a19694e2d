open Th_sim
module Obj_ = Th_objmodel.Heap_object
module Runtime = Th_psgc.Runtime

type vertex = {
  vid : int;
  degree : int;
  vobj : Obj_.t;
  mutable edges_obj : Obj_.t;
}

type partition = {
  pid : int;
  pobj : Obj_.t;
  vertices : vertex array;
  mutable offloaded_edge_bytes : int;
}

type t = {
  partitions : partition array;
  total_edges : int;
  edge_bytes : int;
  store_root : Obj_.t;
}

let vertex_value_bytes = 48

let edges_obj_overhead = 32

let load rt ~prng ~partitions ~vertices ~avg_degree ~edge_bytes
    ~on_vertex_loaded ?(on_partition_loaded = fun _ -> ()) () =
  if partitions <= 0 || vertices <= 0 then invalid_arg "Graph.load";
  let store_root = Runtime.alloc rt ~size:256 () in
  Runtime.add_root rt store_root;
  let total_edges = ref 0 in
  let per_part = max 1 (vertices / partitions) in
  let next_vid = ref 0 in
  let parts =
    Array.init partitions (fun pid ->
        let pobj = Runtime.alloc rt ~size:512 () in
        Runtime.write_ref rt store_root pobj;
        let vs =
          Array.init per_part (fun _ ->
              let vid = !next_vid in
              incr next_vid;
              (* Power-law degrees, min 1, capped to keep single edge
                 arrays within one H2 region. *)
              let degree =
                let d =
                  Prng.pareto prng ~alpha:1.6
                    ~x_min:(float_of_int avg_degree *. 0.4)
                in
                max 1 (min (avg_degree * 24) (int_of_float d))
              in
              total_edges := !total_edges + degree;
              let vobj = Runtime.alloc rt ~size:vertex_value_bytes () in
              Runtime.write_ref rt pobj vobj;
              let edge_array_bytes =
                (degree * edge_bytes) + edges_obj_overhead
              in
              let edges_obj =
                Runtime.alloc rt ~kind:Obj_.Array_data ~size:edge_array_bytes
                  ()
              in
              Runtime.write_ref rt vobj edges_obj;
              (* Giraph serializes edges into the byte array as the graph
                 loads: CPU charged to mutator ("other") time, §5. *)
              Runtime.compute rt ~bytes:edge_array_bytes;
              let v = { vid; degree; vobj; edges_obj } in
              on_vertex_loaded v;
              v)
        in
        let p = { pid; pobj; vertices = vs; offloaded_edge_bytes = 0 } in
        on_partition_loaded p;
        p)
  in
  { partitions = parts; total_edges = !total_edges; edge_bytes; store_root }

let edges_bytes_of v = Obj_.total_size v.edges_obj

let iter_vertices t f =
  Array.iter (fun p -> Array.iter (fun v -> f p v) p.vertices) t.partitions

let total_bytes t =
  Array.fold_left
    (fun acc p ->
      Array.fold_left
        (fun acc v ->
          acc + Obj_.total_size v.vobj + Obj_.total_size v.edges_obj)
        (acc + Obj_.total_size p.pobj)
        p.vertices)
    0 t.partitions
