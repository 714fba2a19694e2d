module Json = Th_json.Json

let merge recorders = List.concat_map Recorder.events recorders

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)

let json_arg (k, v) =
  ( k,
    match v with
    | Event.Int n -> Json.Number (string_of_int n)
    | Event.Float x -> Json.Number (Printf.sprintf "%.3f" x)
    | Event.Str s -> Json.String s )

let us ns = Json.Number (Printf.sprintf "%.3f" (ns /. 1e3))

let chrome_event (e : Event.t) =
  let ph, extra =
    match e.Event.kind with
    | Event.Span_begin -> ("B", [])
    | Event.Span_end -> ("E", [])
    | Event.Complete dur -> ("X", [ ("dur", us dur) ])
    | Event.Instant -> ("i", [ ("s", Json.String "t") ])
    | Event.Counter -> ("C", [])
  in
  let args =
    match e.Event.args with
    | [] -> []
    | args -> [ ("args", Json.Object (List.map json_arg args)) ]
  in
  Json.Object
    ([
       ("name", Json.String e.Event.name);
       ("cat", Json.String e.Event.cat);
       ("ph", Json.String ph);
       ("ts", us e.Event.ts);
     ]
    @ extra
    @ [
        ("pid", Json.Number "0");
        ("tid", Json.Number (string_of_int e.Event.lane));
      ]
    @ args)

let to_chrome_json events =
  Json.to_string
    (Json.Object
       [
         ("traceEvents", Json.Array (List.map chrome_event events));
         ("displayTimeUnit", Json.String "ms");
       ])

(* ------------------------------------------------------------------ *)
(* Compact deterministic text                                          *)

let kind_tag = function
  | Event.Span_begin -> "B"
  | Event.Span_end -> "E"
  | Event.Complete _ -> "X"
  | Event.Instant -> "I"
  | Event.Counter -> "C"

let to_text events =
  let b = Buffer.create 65536 in
  List.iter
    (fun (e : Event.t) ->
      Buffer.add_string b
        (Printf.sprintf "%d %.3f %s %s %s" e.Event.lane e.Event.ts
           (kind_tag e.Event.kind) e.Event.cat e.Event.name);
      (match e.Event.kind with
      | Event.Complete dur -> Buffer.add_string b (Printf.sprintf " dur=%.3f" dur)
      | Event.Span_begin | Event.Span_end | Event.Instant | Event.Counter -> ());
      List.iter
        (fun (k, v) ->
          Buffer.add_string b
            (Format.asprintf " %s=%a" k Event.pp_arg v))
        e.Event.args;
      Buffer.add_char b '\n')
    events;
  Buffer.contents b
