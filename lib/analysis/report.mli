(** Reporters: compiler-style text, a stable JSON document and SARIF.

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

val to_sarif : ?waived:Finding.t list -> Finding.t list -> string
(** SARIF 2.1.0 (minimal profile): one run, driver ["th-lint"] with the
    full rule registry as rule metadata, one result per finding. Waived
    findings become results carrying an [inSource] suppression, so
    SARIF viewers show them as deliberately accepted rather than
    dropping them. Deterministic output. *)

val of_sarif : string -> (Finding.t list * Finding.t list, string) result
(** Parse {!to_sarif} output back into [(findings, waived)] — waived
    are the suppressed results. Round-trips like {!of_json}. *)
