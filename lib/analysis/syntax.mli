(** Shared AST helpers for the analysis passes.

    Everything here is purely syntactic: longident flattening, waiver
    attribute parsing ([[@th.allow "..."]]), pattern
    variable/constructor collection, and a scope-aware identifier
    iterator. *)

module SS : Set.S with type elt = string

val flatten_lid : Longident.t -> string list
(** [Longident.flatten] that maps functor applications to []. *)

val last2 : string list -> (string * string) option
(** Last two components of a path, e.g. [Th_exec.Scheduler.run_thunks]
    and [Scheduler.run_thunks] both give [("Scheduler", "run_thunks")]. *)

val split_words : string -> string list
(** Split on spaces, tabs, newlines and commas, dropping empties. *)

val escape_bless_token : string
(** ["domain_shared"] — the waiver token that blesses an
    [escape-capture] finding. It only counts when the waiver string
    carries a justification beyond the bare token. *)

val attr_allows : Parsetree.attributes -> string list
(** Rule names (and bless tokens) allowed by [[@th.allow "..."]]
    attributes. A bare ["domain_shared"] payload with no justification
    words yields nothing. *)

val pat_vars : Parsetree.pattern -> string list

val pat_constructors : Parsetree.pattern -> string list

val is_catch_all : Parsetree.pattern -> bool

val iter_unshadowed_idents :
  f:(Longident.t -> Location.t -> unit) -> Parsetree.expression -> unit
(** Call [f lid loc] for every identifier reference in the expression
    whose unqualified name is not bound within it. *)
