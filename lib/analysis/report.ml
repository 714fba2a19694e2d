module Json = Th_json.Json

(* ------------------------------------------------------------------ *)
(* Text                                                                *)

let to_text ?waived findings =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b (Finding.to_string f);
      Buffer.add_char b '\n')
    findings;
  (match waived with
  | None | Some [] -> ()
  | Some ws ->
      List.iter
        (fun f ->
          Buffer.add_string b "(waived) ";
          Buffer.add_string b (Finding.to_string f);
          Buffer.add_char b '\n')
        ws);
  let n = List.length findings in
  Buffer.add_string b
    (if n = 0 then
       Printf.sprintf "analysis: clean%s\n"
         (match waived with
         | Some ws when ws <> [] ->
             Printf.sprintf " (%d waived)" (List.length ws)
         | _ -> "")
     else Printf.sprintf "analysis: %d finding(s)\n" n);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let int n = Json.Number (string_of_int n)

let finding_to_json (f : Finding.t) =
  Json.Object
    [
      ("file", Json.String f.file);
      ("line", int f.line);
      ("col", int f.col);
      ("rule", Json.String f.rule);
      ("severity", Json.String (Finding.severity_to_string f.severity));
      ("message", Json.String f.message);
    ]

let to_json ?(waived = []) findings =
  Json.to_string
    (Json.Object
       [
         ("version", int 1);
         ("findings", Json.Array (List.map finding_to_json findings));
         ("waived", Json.Array (List.map finding_to_json waived));
       ])

let ( let* ) = Result.bind

let severity s =
  match Finding.severity_of_string s with
  | Some sv -> Ok sv
  | None -> Error ("unknown severity " ^ s)

let finding_of_json = function
  | Json.Object fields ->
      let set (f : Finding.t) (k, v) =
        match (k, v, Json.to_int v) with
        | "file", Json.String s, _ -> Ok { f with file = s }
        | "line", _, Some n -> Ok { f with line = n }
        | "col", _, Some n -> Ok { f with col = n }
        | "rule", Json.String s, _ -> Ok { f with rule = s }
        | "severity", Json.String s, _ ->
            let* sv = severity s in
            Ok { f with severity = sv }
        | "message", Json.String s, _ -> Ok { f with message = s }
        | _ -> Error ("unexpected field " ^ k)
      in
      let zero =
        {
          Finding.file = "";
          line = 0;
          col = 0;
          rule = "";
          severity = Finding.Error;
          message = "";
        }
      in
      List.fold_left
        (fun acc kv ->
          let* f = acc in
          set f kv)
        (Ok zero) fields
  | _ -> Error "malformed finding object"

(* Findings in order, stopping at the first malformed one. *)
let all_ok parse items =
  List.fold_right
    (fun item acc ->
      let* rest = acc in
      let* x = parse item in
      Ok (x :: rest))
    items (Ok [])

let findings_at key doc =
  match Json.member key doc with
  | Some (Json.Array items) -> all_ok finding_of_json items
  | _ -> Error ("missing " ^ key ^ " array")

let of_json s =
  let* doc = Json.of_string s in
  match Option.bind (Json.member "version" doc) Json.to_int with
  | Some 1 ->
      let* findings = findings_at "findings" doc in
      let* waived = findings_at "waived" doc in
      Ok (findings, waived)
  | Some v -> Error (Printf.sprintf "unknown version %d" v)
  | None -> Error "missing version"

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 (minimal profile)                                       *)

(* One run, one driver, every registry rule in the driver's rule
   metadata; waived findings are emitted as results carrying an
   inSource suppression, which is how SARIF viewers (and the GitHub
   code-scanning UI) display "found but deliberately accepted". *)
let text s = Json.Object [ ("text", Json.String s) ]

let sarif_result ~suppressed (f : Finding.t) =
  let location =
    Json.Object
      [
        ( "physicalLocation",
          Json.Object
            [
              ("artifactLocation", Json.Object [ ("uri", Json.String f.file) ]);
              (* SARIF columns are 1-based; findings carry 0-based columns. *)
              ( "region",
                Json.Object
                  [ ("startLine", int f.line); ("startColumn", int (f.col + 1)) ]
              );
            ] );
      ]
  in
  let suppression = Json.Object [ ("kind", Json.String "inSource") ] in
  Json.Object
    ([
       ("ruleId", Json.String f.rule);
       ("level", Json.String (Finding.severity_to_string f.severity));
       ("message", text f.message);
       ("locations", Json.Array [ location ]);
     ]
    @ if suppressed then [ ("suppressions", Json.Array [ suppression ]) ] else [])

let to_sarif ?(waived = []) findings =
  let rule (r : Rule.t) =
    Json.Object
      [ ("id", Json.String r.name); ("shortDescription", text r.synopsis) ]
  in
  let driver =
    Json.Object
      [
        ("name", Json.String "th-lint");
        ("rules", Json.Array (List.map rule Rule.all));
      ]
  in
  let results =
    List.map (sarif_result ~suppressed:false) findings
    @ List.map (sarif_result ~suppressed:true) waived
  in
  Json.to_string
    (Json.Object
       [
         ("version", Json.String "2.1.0");
         ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
         ( "runs",
           Json.Array
             [
               Json.Object
                 [
                   ("tool", Json.Object [ ("driver", driver) ]);
                   ("results", Json.Array results);
                 ];
             ] );
       ])

(* [path] walks object members, taking the first element of any array
   met on the way. *)
let rec path keys v =
  match (keys, v) with
  | [], v -> Ok v
  | _, Json.Array (first :: _) -> path keys first
  | k :: rest, v -> (
      match Json.member k v with
      | Some v -> path rest v
      | None -> Error ("missing " ^ k))

let sarif_finding r =
  let str keys =
    match path keys r with
    | Ok (Json.String s) -> Ok s
    | Ok _ -> Error ("expected a string at " ^ String.concat "." keys)
    | Error _ as e -> e
  in
  let num keys =
    let* v = path keys r in
    Option.to_result ~none:("expected an integer at " ^ String.concat "." keys)
      (Json.to_int v)
  in
  let loc k = [ "locations"; "physicalLocation"; k ] in
  let* rule = str [ "ruleId" ] in
  let* level = str [ "level" ] in
  let* severity = severity level in
  let* message = str [ "message"; "text" ] in
  let* file = str (loc "artifactLocation" @ [ "uri" ]) in
  let* line = num (loc "region" @ [ "startLine" ]) in
  let* col = num (loc "region" @ [ "startColumn" ]) in
  let suppressed =
    match Json.member "suppressions" r with
    | Some (Json.Array (_ :: _)) -> true
    | _ -> false
  in
  Ok ({ Finding.file; line; col = col - 1; rule; severity; message }, suppressed)

let of_sarif s =
  let* doc = Json.of_string s in
  let* () =
    match Json.member "version" doc with
    | Some (Json.String "2.1.0") -> Ok ()
    | _ -> Error "not a SARIF 2.1.0 document"
  in
  let* results =
    match path [ "runs"; "results" ] doc with
    | Ok (Json.Array rs) -> Ok rs
    | _ -> Error "missing results"
  in
  let* tagged = all_ok sarif_finding results in
  let waived, findings = List.partition snd tagged in
  Ok (List.map fst findings, List.map fst waived)
