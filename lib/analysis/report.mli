(** Reporters: compiler-style text and a stable JSON document.

    The JSON schema (version 1), printed by {!Th_json.Json} with one
    array element per line:
    {v
    {"version":1,"findings":[
    {"file":"...","line":3,"col":2,"rule":"hashtbl-order","severity":"error","message":"..."},
    ...
    ],"waived":[
    ... same shape ...
    ]}
    v}

    Output is deterministic — fixed key order, findings pre-sorted by
    the engine — and {!of_json} parses this schema back, so reports
    round-trip (a qcheck property in the test suite). *)

val to_text : ?waived:Finding.t list -> Finding.t list -> string
(** One finding per line via {!Finding.to_string}, then a summary line.
    Waived findings are listed (marked) only when [waived] is given. *)

val to_json : ?waived:Finding.t list -> Finding.t list -> string

val of_json : string -> (Finding.t list * Finding.t list, string) result
(** Parse {!to_json} output back into [(findings, waived)]. [Error] on
    malformed JSON, a version other than 1, an unknown severity or a
    finding field outside the schema. *)
