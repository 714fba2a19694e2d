(** The rule registry.

    Every check the {!Engine} can perform is described here: its stable
    name (used in waivers, [--rules] filters and JSON output), family,
    default severity, one-line synopsis and a longer [--explain] text
    that says what the rule catches, why it matters for bit-exact
    reproduction, and how to waive it. *)

type family =
  | Determinism
  | Domain_safety
  | Hygiene

type t = {
  name : string;
  family : family;
  severity : Finding.severity;
  synopsis : string;  (** one line, shown in rule listings *)
  explain : string;  (** multi-line body for [--explain] *)
}

val all : t list
(** Every rule, in stable documentation order. *)

val names : string list

val find : string -> t option

val family_to_string : family -> string

val explain_text : t -> string
(** Rendered [--explain] block: header, synopsis, body, waiver recipe. *)
