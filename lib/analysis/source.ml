type ast =
  | Structure of Parsetree.structure
  | Signature of Parsetree.signature

type t = {
  file : string;
  modname : string;
  library : string;
  ast : ast;
  comments : (string * Location.t) list;
}

let modname_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

(* Library tag from the path, mirroring the dune layout: lib/<d>/x.ml
   belongs to library th_<d> (whose wrapper module is Th_<d>); bin/ and
   bench/ hold unwrapped executables; anything else (tests, fixtures,
   snippets fed to [parse_string]) gets the anonymous library "". *)
let library_of_file file =
  let segs =
    String.split_on_char '/' file |> List.filter (fun s -> s <> "" && s <> ".")
  in
  let rec find = function
    | "lib" :: d :: _ :: _ -> "th_" ^ d
    | "bin" :: _ :: _ -> "bin"
    | "bench" :: _ :: _ -> "bench"
    | _ :: rest -> find rest
    | [] -> ""
  in
  find segs

let parse_string ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  (* [Lexer.init] resets the global comment accumulator that
     [Lexer.comments] reads back after the parse. *)
  Lexer.init ();
  match
    if Filename.check_suffix file ".mli" then
      Signature (Parse.interface lexbuf)
    else Structure (Parse.implementation lexbuf)
  with
  | ast ->
      Ok
        {
          file;
          modname = modname_of_file file;
          library = library_of_file file;
          ast;
          comments = Lexer.comments ();
        }
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error (Format.asprintf "%s: %a" file Location.print_report report)
      | Some `Already_displayed | None ->
          Error (Printf.sprintf "%s: %s" file (Printexc.to_string exn)))

let parse_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | source -> parse_string ~file source
  | exception Sys_error msg -> Error msg

(* A waiver comment is [(* th-lint: allow rule1 rule2 ... *)]; the
   marker may sit anywhere inside the comment so prose explaining the
   waiver can share it. *)
let waiver_marker = "th-lint:"

let find_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let line_waivers t =
  List.filter_map
    (fun (text, (loc : Location.t)) ->
      match find_sub text waiver_marker with
      | None -> None
      | Some i -> (
          let rest =
            String.sub text
              (i + String.length waiver_marker)
              (String.length text - i - String.length waiver_marker)
          in
          match Syntax.split_words rest with
          | "allow" :: rules when rules <> [] ->
              Some (loc.loc_end.pos_lnum, rules)
          | _ -> None))
    t.comments
