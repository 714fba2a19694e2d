(** Wall-clock perf tracker for the benchmark harness.

    Serialises per-section and total wall/CPU time plus the worker
    count to a small JSON file ([BENCH_harness.json] by default,
    printed and parsed by {!Th_json.Json}) so the harness's own
    performance trajectory accumulates per run.

    Schema 2: sections are stamped with the jobs count they ran at,
    their cell count, the summed per-cell wall time measured inside the
    scheduler (the serial-equivalent cost) and their render time; the
    top level records a measured speedup-vs-serial. {!write}
    merge-updates the existing file keyed by section name, so a partial
    run (e.g. [bench soak]) refreshes its own sections without
    clobbering the rest. *)

type section = {
  name : string;
  jobs : int;  (** the jobs count this section actually ran at *)
  cells : int;
  cell_wall_s : float;
      (** summed per-cell wall seconds: the serial-equivalent cost *)
  render_wall_s : float;
}

type t = {
  jobs : int;
  sections : section list;  (** sections of {e this} run only *)
  total_wall_s : float;
  total_cpu_s : float;
}

val schema : string
(** Schema identifier embedded in the JSON ("teraheap-bench-harness/2"). *)

val default_path : string
(** "BENCH_harness.json". *)

val section_wall_s : section -> float
(** [cell_wall_s + render_wall_s]. *)

val serial_equiv_s : t -> float
(** Serial-equivalent seconds of this run: every cell and render summed
    as if executed back to back. *)

val speedup_vs_serial_measured : t -> float
(** [serial_equiv_s / total_wall_s] — both terms are monotonic-clock
    measurements of this very run, so this is a measured speedup, not
    an estimate. *)

val speedup_vs_serial_est : t -> float
(** [total_cpu_s / total_wall_s]: the schema-1 estimate ([Sys.time]
    sums CPU over all domains), kept for continuity. *)

val to_json : t -> string
(** This run only, without merging. *)

val parse_sections : string -> (section list, string) result
(** Total parse of a harness JSON document held in a string: [Ok]
    with its sections (schema 1 or 2; [[]] when the document has
    none), [Error] naming the byte offset of the first malformed
    construct. Never raises. *)

val read_sections : string -> section list
(** Parse the sections out of an existing harness JSON (schema 1 or 2);
    [[]] if the file is missing or unparsable. *)

val merge : previous:section list -> section list -> section list
(** Update [previous] with this run's sections keyed by name: re-run
    sections are replaced in place, new ones appended in run order. *)

val write : ?path:string -> t -> unit
(** Merge this run's sections into the existing file (if any) and
    replace it atomically: the document is written to a temp file in
    [path]'s directory and renamed over [path], so concurrent runs never
    leave a torn file. Top-level totals and speedups always describe
    this run. *)
