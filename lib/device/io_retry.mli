(** Retry policy for device I/O under fault injection.

    Transient device errors are retried a bounded number of times with
    exponential backoff; every backoff wait is charged to the simulated
    {!Th_sim.Clock} under the category of the failed operation, so retries
    show up in the §6 execution-time breakdowns exactly where a real
    system would lose the time. Backoff is jittered from the fault
    injector's dedicated PRNG stream so concurrent retry episodes spread
    out instead of hammering the device in lockstep — and, being seeded,
    the jitter is exactly as reproducible as the faults themselves.

    Two bounds can end an episode early. When the attempt budget is
    exhausted the loop returns an {!error}; checked callers recover by
    recomputation or deferral, while the device's unchecked (kernel
    mmap-path) operations classify the episode as a timeout, charge the
    timeout wait and complete — the kernel page-fault path never returns
    EIO to the mutator in this model, it waits. A finite
    [episode_deadline_ns] additionally arms an I/O watchdog: an episode
    whose cumulative duration would exceed the deadline is classified as
    a watchdog timeout (counted and traced separately from retry
    exhaustion) and returns an {!error} without waiting out the remaining
    budget, bounding how long any one checked operation can wedge. *)

type policy = {
  max_retries : int;  (** attempts beyond the first *)
  base_backoff_ns : float;  (** backoff before the first retry *)
  backoff_multiplier : float;  (** exponential growth per retry *)
  max_backoff_ns : float;  (** backoff cap *)
  timeout_ns : float;
      (** wait charged when an unchecked operation exhausts its attempts
          and the episode is classified as a timeout rather than an
          error *)
  jitter : float;
      (** backoff spread: each wait is scaled by a seeded uniform draw in
          [1 - jitter, 1 + jitter); 0 restores deterministic lockstep *)
  episode_deadline_ns : float;
      (** watchdog bound on one retry episode's total simulated duration;
          [infinity] disarms the watchdog *)
}

val default : policy
(** 4 retries, 20 us base backoff doubling to a 1 ms cap, 5 ms timeout,
    25% jitter, watchdog disarmed. *)

val backoff_ns : policy -> attempt:int -> float
(** Nominal (pre-jitter) backoff charged before retry number [attempt]
    (1-based), capped at [max_backoff_ns]. *)

type error = { op : string; attempts : int }
(** A retry episode that failed: every attempt of the loop failed, or the
    watchdog cut the episode short. *)

val run :
  policy ->
  clock:Th_sim.Clock.t ->
  cat:Th_sim.Clock.category ->
  faults:Th_sim.Fault.t ->
  op:string ->
  (int -> (unit, [ `Transient ]) result) ->
  (unit, error) result
(** [run policy ~clock ~cat ~faults ~op attempt] calls [attempt n] with
    n = 0, 1, ... until it succeeds, for at most [1 + max_retries]
    attempts. Each failure charges jittered exponential backoff to
    [clock] under [cat] and records the retry and its backoff in
    [faults]; exhaustion returns [Error], as does blowing the watchdog
    deadline (recorded via [Fault.note_watchdog] and a
    ["watchdog_timeout"] trace instant). The [attempt] callback charges
    its own device time. The success value is [unit] so that [Ok ()] is
    a static constant: a successful episode allocates nothing. *)
