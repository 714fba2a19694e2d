(** The simulator's one JSON codec.

    Every JSON document the repo writes or reads — Chrome traces, the
    bench harness log, the analyzer's report — goes through this
    module, so there is one escaper, one layout and one parser.

    The printer is compact and deterministic. Its only layout rule is
    that every array prints one element per line: [\[\n], the elements
    joined by [,\n], then [\n\]]; the document ends with a newline.
    Numbers keep the caller's lexeme verbatim, so each writer chooses
    its own [%d] / [%.3f] / [%.6f] formatting. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** the literal lexeme, e.g. ["42"] or ["1.500"] *)
  | String of string  (** raw bytes; not required to be UTF-8 *)
  | Array of t list
  | Object of (string * t) list  (** fields in document order *)

val to_string : t -> string
(** Print a document. Strings escape the double quote, the backslash,
    newline, carriage return and tab, and every other byte below 0x20
    as [\u00XX]; all other bytes pass through unchanged. *)

val of_string : string -> (t, string) result
(** Total parse of a whole document (surrounding whitespace allowed).
    Never raises: malformed input is an [Error] naming the byte offset
    where parsing stopped. [\uXXXX] escapes (including surrogate pairs)
    decode to UTF-8; a lone surrogate decodes to U+FFFD. *)

val member : string -> t -> t option
(** [member k v] is the first field named [k] when [v] is an object. *)

val to_int : t -> int option
(** An integer-valued [Number] lexeme; [None] for anything else. *)

val to_float : t -> float option
(** Any [Number]; [None] for anything else. *)
