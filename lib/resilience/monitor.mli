(** Runtime health monitor: samples the flight-recorder counters at GC
    safepoints and drives the H2 circuit {!Breaker}.

    Each sample reads the H2 device's cumulative fault counters (retries,
    fault penalty time, exhausted retries, watchdog timeouts) and H2
    occupancy, folds per-operation rates into EWMAs, and classifies the
    interval as healthy or not against the configured tripwires. The
    verdict feeds the breaker; while the circuit is Open the installed
    {!Th_psgc.Rt.t.h2_move_gate} suppresses move-to-H2 (the collector
    skips its move passes) and drivers consult {!h2_allowed} to route
    promotion candidates to the serialize-to-offheap fallback or defer
    them in H1. Half-open probes let a cycle of moves through; sustained
    health closes the circuit again.

    The monitor also watches {!Th_psgc.Gc_stats} for new GC cycles and
    flags pauses over the SLO budget as they happen ([slo_violation]
    trace instants), then folds the whole pause history into a
    {!Slo.report} in the final {!summary}.

    All sampling happens at safepoints and uses only simulated time —
    the monitor is as deterministic as the run it watches. *)

module Runtime := Th_psgc.Runtime

type config = {
  breaker : Breaker.config;
  ewma_alpha : float;  (** weight of the newest interval in the EWMAs *)
  retry_rate_trip : float;
      (** trip when the EWMA of retries per device op exceeds this *)
  penalty_per_op_trip_ns : float;
      (** trip when the EWMA of fault-penalty ns per device op exceeds
          this *)
  h2_occupancy_trip : float;
      (** trip when H2 used/capacity exceeds this fraction *)
}

val default_config : config

type summary = {
  final_state : Breaker.state;
  breaker : Breaker.stats;
  samples : int;  (** health samples taken *)
  moves_suppressed : int;  (** GC cycles whose move passes were gated off *)
  fallback_serializations : int;
      (** promotion candidates serialized off-heap instead (driver-fed) *)
  fallback_bytes : int;
  deferred_batches : int;  (** candidates simply left in H1 (driver-fed) *)
  slo_violations : int;  (** pauses flagged over budget as they happened *)
  time_total_ns : float;
  time_open_ns : float;
  time_half_open_ns : float;
  slo : Slo.report option;  (** present when an SLO spec was attached *)
}

type t

val attach : ?config:config -> ?slo:Slo.spec -> Runtime.t -> t
(** Install the monitor on [rt]: chains the safepoint hook and installs
    the H2 move gate. Device and fault counters come from the runtime's
    H2 device; without an attached H2 (or fault injector) the device
    tripwires never fire and only SLO pause tracking remains active. *)

val state : t -> Breaker.state

val h2_allowed : t -> bool
(** False while the circuit is Open: drivers should serialize promotion
    candidates off-heap ({!Th_serde}) or defer them in H1 instead of
    tagging/moving. Half-open counts as allowed — that's the probe. *)

val sample : t -> unit
(** Take a health sample now. Safepoints do this automatically; drivers
    additionally call it at batch boundaries so quiet phases (no GC)
    still advance cooldowns and probe counting. *)

val note_fallback : t -> bytes:int -> unit
(** Record one promotion candidate routed to the off-heap serializer. *)

val note_deferred : t -> unit
(** Record one promotion candidate deferred in H1. *)

val summary : t -> summary
(** Snapshot the counters and evaluate the SLO over the full pause
    history (all recorded GC cycle durations) and degraded-time
    accounting. *)

val pp_summary : Format.formatter -> summary -> unit
