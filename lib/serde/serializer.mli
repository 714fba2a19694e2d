(** Kryo-like serialization cost model (§2, "Object Serialization").

    Serialization walks the transitive closure of a root object and
    produces a byte stream; deserialization re-allocates the objects on
    the managed heap. Both directions:

    - charge per-object and per-byte costs to S/D time, parallelised over
      the mutator threads (the paper observes S/D parallelising with more
      executor threads, §7.6);
    - allocate short-lived temporary buffers on the heap, the extra GC
      pressure the paper attributes to S/D;
    - skip transient fields (modelled as a fixed fraction of payload) and
      refuse objects whose closure contains JVM metadata, mirroring the
      "only serializable objects" restriction. *)

type serialized = {
  bytes : int;  (** size of the byte stream *)
  objects : int;  (** objects in the serialized closure *)
  elem_sizes : int list;  (** payload sizes, used to rebuild the group *)
}

val serialized_fraction : float
(** Stream bytes per heap byte (serialized form drops headers/padding). *)

val transient_fraction : float
(** Share of payload held in transient fields, skipped by the stream. *)

val serialize :
  Th_psgc.Runtime.t -> Th_objmodel.Heap_object.t -> (serialized, string) result
(** Serialize the closure rooted at the given object. Charges S/D time and
    allocates temporary buffers. Returns [Error] naming the offending
    object, with nothing charged, if the closure contains JVM
    metadata. *)

val deserialize :
  Th_psgc.Runtime.t -> serialized -> Th_objmodel.Heap_object.t
(** Rebuild the object group on the heap: allocates a fresh root and
    elements (the memory pressure of moving off-heap data back on-heap),
    charges S/D time, and returns the new root. The root is returned
    {e pinned} (registered as a GC root); the caller must call
    {!Th_psgc.Runtime.remove_root} when done with the group. *)

val rebuild :
  Th_psgc.Runtime.t -> serialized -> Th_objmodel.Heap_object.t
(** Re-materialise the group without charging S/D time: the lineage
    recomputation path, taken when reading the serialized copy failed
    past its retry budget. Allocations (and their GC pressure) are the
    same as {!deserialize}; the caller charges the recomputation's
    compute cost. Returned pinned, like {!deserialize}. *)

val charge_stream :
  Th_psgc.Runtime.t -> bytes:int -> objects:int -> unit
(** Charge S/D cost for a stream without materialising objects (used for
    the shuffle path, where the receive side is modelled separately). *)
