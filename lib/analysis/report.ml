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
