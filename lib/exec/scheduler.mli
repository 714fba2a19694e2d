(** Shared-cursor Domain pool for experiment-cell batches.

    A batch of independent {!Cell.t}s runs longest-expected-first: the
    cells are ordered by descending cost hint (ties keep submission
    order), and every participating domain — the submitting one
    included — claims the next cell of that order from one atomic
    cursor until none is left. Domains are spawned per batch and joined
    before it returns.

    Results always come back in submission order, so anything rendered
    from them serially is byte-identical for every jobs value; only the
    wall-clock numbers in {!batch_stats} depend on scheduling. *)

type t

type batch_stats = {
  cells : int;
  cell_wall_s : float array;
      (** per-cell wall seconds, submission order: the serial-equivalent
          cost of the batch is the sum of this array *)
}

val create : jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool that runs each batch on up to [jobs]
    domains: the caller plus [min (jobs - 1) (cells - 1)] domains
    spawned for that batch. [jobs = 1] runs every batch in the calling
    domain. No domain outlives a batch, so a pool needs no shutdown.
    Raises [Invalid_argument] when [jobs < 1]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run_cells : t -> 'a Cell.t list -> 'a list
(** [run_cells t cells] executes the batch longest-cost-first (ties in
    submission order) and returns results in submission order. An
    exception raised by a cell does not stop the others; it is
    re-raised here, with its backtrace, after the whole batch has
    drained (the first failing cell in submission order wins). Batches
    do not nest. *)

val run_thunks : t -> (unit -> 'a) list -> 'a list
(** [run_cells] over {!Cell.of_thunk}: every thunk at the default cost. *)

val last_batch : t -> batch_stats
(** Stats of the most recent batch (zeros before the first). The stats
    are scheduling-dependent: report them to stderr or JSON, never to
    the deterministic stdout. *)
