(** The Parallel Scavenge collector, with TeraHeap extensions (§4).

    Minor GC copies live young objects into the survivor space or promotes
    them to the old generation; with TeraHeap it additionally fences
    tracing at the H1/H2 boundary and scans the H2 card table for backward
    references. Major GC runs the four PS phases — marking, precompaction,
    pointer adjustment, compaction — extended with the five marking-phase
    tasks of §4 (live-bit reset, backward-reference marking, forward-
    reference fencing, labelled-closure computation, dead-region
    reclamation) and the H2 placement/move work in the later phases.

    The [G1] and [Ps_jdk11] collector variants of {!Rt.collector} reuse the
    same structural simulation with the cost and fragmentation models
    described in DESIGN.md. *)

val minor_gc : Rt.t -> bool
(** Run a minor collection. Returns [true] when promotion failed and the
    caller should run a major collection. *)

val major_gc : Rt.t -> unit
(** Run a full collection. Raises {!Rt.Out_of_memory} when live data does
    not fit in the old generation even after collection. An exhausted H2
    does not fail the collection: the objects that did not fit stay in H1
    and are retried at the next major GC. *)
