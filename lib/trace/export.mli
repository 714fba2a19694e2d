(** Trace exporters.

    Both exporters are deterministic functions of the event list: equal
    simulated runs yield byte-identical output, which is what the golden
    tests and the [--jobs] determinism checks rely on. No host state
    (wall clock, hash order, locale) reaches the output. *)

val merge : Recorder.t list -> Event.t list
(** Events of several recorders concatenated in the given (lane) order;
    each recorder's own events stay in recording order. *)

val to_chrome_json : Event.t list -> string
(** Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
    Perfetto and chrome://tracing. Timestamps convert to microseconds
    ([ts], and [dur] for complete events); the lane becomes [tid] under a
    single [pid] 0. *)

val to_text : Event.t list -> string
(** The compact deterministic text form used by golden tests: one line
    per event — [lane ts kind cat name k=v ...] — with timestamps in
    nanoseconds at fixed precision. *)

type format = [ `Chrome | `Text ]

val format_of_string : string -> (format, string) result
(** The [--trace-format] grammar shared by [teraheap_sim] and the bench
    harness: ["chrome"] or ["text"]; anything else is an [Error] naming
    the value. *)

val format_to_string : format -> string

val export : format -> Event.t list -> string
(** {!to_chrome_json} or {!to_text}. *)
