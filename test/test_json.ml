(* Tests of the one JSON codec: the printer's escaping and layout, the
   parser's \u decoding and positioned errors, and qcheck properties
   that the parser is total and inverts the printer. *)

module Json = Th_json.Json

let contains_offset e =
  let rec has i =
    i + 6 <= String.length e
    && (String.equal (String.sub e i 6) "offset" || has (i + 1))
  in
  has 0

let test_escaping_and_layout () =
  Alcotest.(check string)
    "escapes, raw high bytes, one array element per line"
    "{\"k\\\"\":[\n\"a\\\"\\\\\\n\\r\\t\\u0001\\u001f\x7f\xe9\",\nnull,\n[\n\n]\n]}\n"
    (Json.to_string
       (Json.Object
          [
            ( "k\"",
              Json.Array
                [
                  Json.String "a\"\\\n\r\t\x01\x1f\x7f\xe9";
                  Json.Null;
                  Json.Array [];
                ] );
          ]))

let test_unicode_escapes () =
  match Json.of_string {|"\u00e9\ud83d\ude00\ud800x\/"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string)
        "BMP escape, surrogate pair and lone surrogate decode to UTF-8"
        "\xc3\xa9\xf0\x9f\x98\x80\xef\xbf\xbdx/" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "rejected: %s" e

let test_positioned_errors () =
  let error_at what doc offset =
    match Json.of_string doc with
    | Ok _ -> Alcotest.failf "%s: %S accepted" what doc
    | Error e ->
        let suffix = Printf.sprintf "offset %d" offset in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" what e suffix)
          true
          (String.ends_with ~suffix e)
  in
  error_at "trailing comma" "[1,]" 3;
  error_at "leading zero" "01" 1;
  error_at "bare minus" "-" 1;
  error_at "bad escape" {|"\q"|} 1;
  error_at "unterminated string" {|{"a|} 3;
  error_at "deep nesting" (String.make 100_000 '[') 513

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let gen_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [ (1, return '"'); (1, return '\\'); (6, char_range '\x00' '\xff') ])
      (int_range 0 12))

let gen_number =
  QCheck.Gen.(
    oneof
      [
        map string_of_int int;
        map (Printf.sprintf "%.3f") (float_range (-1e6) 1e6);
        map2 (Printf.sprintf "%de%d") small_signed_int small_signed_int;
      ])

let gen_value =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun s -> Json.Number s) gen_number;
                 map (fun s -> Json.String s) gen_string;
               ]
           in
           if n <= 1 then leaf
           else
             let child = self (n / 3) in
             let items g = list_size (int_range 0 4) g in
             frequency
               [
                 (1, leaf);
                 (1, map (fun vs -> Json.Array vs) (items child));
                 (1, map (fun kvs -> Json.Object kvs) (items (pair gen_string child)));
               ]))

let arb_value = QCheck.make ~print:Json.to_string gen_value

(* Bytes that steer the parser into its deeper states. *)
let arb_jsonish =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size
        ~gen:(oneofl (List.of_seq (String.to_seq "{}[]\":,\\u0-1.eEtn d")))
        (int_range 0 40))

(* Total: [Ok], or an [Error] that names an offset — never an escape. *)
let total s =
  match Json.of_string s with Ok _ -> true | Error e -> contains_offset e

let prop_total_on_bytes =
  QCheck.Test.make ~count:1000 ~name:"of_string is total on arbitrary bytes"
    QCheck.(oneof [ string; arb_jsonish ])
    total

let prop_total_on_truncations =
  QCheck.Test.make ~count:300 ~name:"of_string is total on truncated documents"
    QCheck.(pair arb_value small_nat)
    (fun (v, k) ->
      let doc = Json.to_string v in
      total (String.sub doc 0 (k mod (String.length doc + 1))))

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"of_string inverts to_string" arb_value
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> v' = v
      | Error e -> QCheck.Test.fail_reportf "printed document rejected: %s" e)

let suite =
  [
    Alcotest.test_case "escaping and array layout" `Quick
      test_escaping_and_layout;
    Alcotest.test_case "\\u escapes decode to UTF-8" `Quick test_unicode_escapes;
    Alcotest.test_case "malformed input names its offset" `Quick
      test_positioned_errors;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_total_on_bytes; prop_total_on_truncations; prop_roundtrip ]
