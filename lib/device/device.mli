(** Storage-device models.

    A device charges simulated time per access and keeps traffic counters.
    Requests are charged as [latency + size / bandwidth]; sequential streams
    amortise the latency over the stream (modern NVMe queues and OS
    readahead hide per-page latency for sequential access, cf. paper §2 and
    [41]). Byte-addressable devices (DRAM, NVM App-Direct) use their access
    granularity instead of a 4 KiB page.

    A device may carry a {!Th_sim.Fault} injector: each request then draws
    a fault outcome — transient errors retried with exponential backoff
    through the {!Io_retry} policy, tail-latency spike episodes, writeback
    stalls, device-full windows — and every fault-induced wait is charged
    to the simulated clock. Unchecked operations (the kernel mmap path)
    never fail: exhausted retries are classified as a timeout, charged,
    and the request completes. The [_checked] variants instead return the
    {!Io_retry.error} after bounded retries, for callers that can recover
    (lineage recomputation, deferred flushes). The two share one
    implementation: the unchecked function is the checked one with
    [Error] absorbed as a charged timeout. *)

type kind =
  | Dram
  | Nvme_ssd  (** Samsung PM983-like: block-addressable, 4 KiB pages *)
  | Nvm_app_direct  (** Optane DC in App-Direct mode: byte-addressable *)
  | Nvm_memory_mode
      (** Optane DC in Memory mode: CPU-managed DRAM cache in front of NVM *)

type params = {
  kind : kind;
  page_size : int;  (** access granularity in bytes *)
  read_latency_ns : float;  (** effective queued latency per request *)
  write_latency_ns : float;
  read_bw_gbps : float;  (** GB/s *)
  write_bw_gbps : float;
}

type stats = {
  bytes_read : int;
  bytes_written : int;
  read_ops : int;
  write_ops : int;
}

type t

val params_of_kind : kind -> params
(** Datasheet-derived presets; see DESIGN.md. *)

val create :
  ?params:params ->
  ?faults:Th_sim.Fault.t ->
  ?retry:Io_retry.policy ->
  Th_sim.Clock.t ->
  kind ->
  t
(** [create clock kind] is a device charging its accesses to [clock].
    [faults] attaches a fault injector; [retry] overrides the
    {!Io_retry.default} policy. *)

val kind : t -> kind

val faults : t -> Th_sim.Fault.t option
(** The device's fault injector, if any — also the aggregation point for
    retry/recompute counters recorded by layers above the device. *)

val page_size : t -> int

val read : t -> cat:Th_sim.Clock.category -> random:bool -> int -> unit
(** [read t ~cat ~random bytes] charges one read request of [bytes] bytes.
    [random] requests pay the full per-request latency and round the
    transfer up to page granularity (the paper's I/O amplification);
    sequential requests are charged at bandwidth. Exhausted fault retries
    are absorbed as a charged timeout. *)

val read_checked :
  t ->
  cat:Th_sim.Clock.category ->
  random:bool ->
  int ->
  (unit, Io_retry.error) result
(** {!read}, but a request whose fault retries are exhausted (or cut
    short by the watchdog) returns [Error] instead of waiting out a
    timeout. *)

val write : t -> cat:Th_sim.Clock.category -> random:bool -> int -> unit

val write_checked :
  t ->
  cat:Th_sim.Clock.category ->
  random:bool ->
  int ->
  (unit, Io_retry.error) result

val read_continuation :
  ?overlap:float -> t -> cat:Th_sim.Clock.category -> int -> unit
(** Continuation of a detected sequential stream (OS readahead): charged
    at pure transfer bandwidth, without the per-request latency.
    [overlap] scales the charge below 1.0 when the transfer proceeds
    concurrently with useful work. *)

val read_continuation_checked :
  ?overlap:float ->
  t ->
  cat:Th_sim.Clock.category ->
  int ->
  (unit, Io_retry.error) result

val read_modify_write :
  t -> cat:Th_sim.Clock.category -> int -> unit
(** In-place update of device-resident data: a page-granularity read
    followed by a write of the same pages (§7.2: "large cost of
    read-modify-write operations on an I/O device"). *)

val stats : t -> stats

val reset_stats : t -> unit

val read_cost_ns : t -> random:bool -> int -> float
(** Pure cost query without charging; used by cache layers. *)

val write_cost_ns : t -> random:bool -> int -> float

val pp_stats : Format.formatter -> stats -> unit
