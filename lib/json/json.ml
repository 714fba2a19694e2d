(* The one JSON codec: a layout-fixed printer and a total recursive
   descent parser over a plain value type. *)

type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Number n -> Buffer.add_string b n
  | String s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Array vs ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          write b v)
        vs;
      Buffer.add_string b "\n]"
  | Object fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (String k);
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  write b v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

(* Far deeper than any document the repo writes; the bound keeps the
   recursive descent from overflowing the stack on hostile input. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let exception Fail of int * string in
  let fail i what = raise_notrace (Fail (i, what)) in
  let at i c = i < n && Char.equal s.[i] c in
  let rec ws i =
    if i < n && String.contains " \t\n\r" s.[i] then ws (i + 1) else i
  in
  let expect i c =
    if at i c then i + 1 else fail i (Printf.sprintf "expected %C" c)
  in
  let literal i lit v =
    let l = String.length lit in
    if i + l <= n && String.equal (String.sub s i l) lit then (v, i + l)
    else fail i "invalid literal"
  in
  let digits i =
    let rec go j =
      if j < n && s.[j] >= '0' && s.[j] <= '9' then go (j + 1) else j
    in
    let j = go i in
    if j = i then fail i "expected a digit" else j
  in
  (* The JSON number grammar: an optional minus, then 0 or a digit run
     not starting with 0, then an optional fraction and exponent. *)
  let number i =
    let j = if at i '-' then i + 1 else i in
    let j = if at j '0' then j + 1 else digits j in
    let j = if at j '.' then digits (j + 1) else j in
    let j =
      if at j 'e' || at j 'E' then
        digits (if at (j + 1) '+' || at (j + 1) '-' then j + 2 else j + 1)
      else j
    in
    (Number (String.sub s i (j - i)), j)
  in
  let hex4 i =
    if i + 4 > n then fail i "truncated \\u escape";
    let rec go k acc =
      if k = i + 4 then acc
      else
        let d =
          match s.[k] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | _ -> fail k "bad \\u escape"
        in
        go (k + 1) ((acc * 16) + d)
    in
    go i 0
  in
  (* [i] is just past a backslash-u; a high surrogate pairs with a
     following low-surrogate escape, any other surrogate decodes to
     U+FFFD. *)
  let unicode i =
    let hi = hex4 i in
    let lo =
      if hi >= 0xD800 && hi <= 0xDBFF && at (i + 4) '\\' && at (i + 5) 'u'
      then hex4 (i + 6)
      else -1
    in
    if lo >= 0xDC00 && lo <= 0xDFFF then
      (Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)), i + 10)
    else ((if Uchar.is_valid hi then Uchar.of_int hi else Uchar.rep), i + 4)
  in
  let string i =
    let b = Buffer.create 16 in
    let rec go i =
      if i >= n then fail i "unterminated string";
      match s.[i] with
      | '"' -> (Buffer.contents b, i + 1)
      | '\\' when at (i + 1) 'u' ->
          let u, j = unicode (i + 2) in
          Buffer.add_utf_8_uchar b u;
          go j
      | '\\' ->
          let c =
            match if i + 1 < n then s.[i + 1] else ' ' with
            | ('"' | '\\' | '/') as c -> c
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | _ -> fail i "bad escape"
          in
          Buffer.add_char b c;
          go (i + 2)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
    in
    go (expect i '"')
  in
  let rec value depth i =
    if depth > max_depth then fail i "nesting too deep";
    let i = ws i in
    if i >= n then fail i "unexpected end of input";
    match s.[i] with
    | '{' when at (ws (i + 1)) '}' -> (Object [], ws (i + 1) + 1)
    | '{' ->
        let rec fields acc i =
          let k, i = string (ws i) in
          let v, i = value (depth + 1) (expect (ws i) ':') in
          let i = ws i in
          if at i ',' then fields ((k, v) :: acc) (i + 1)
          else (Object (List.rev ((k, v) :: acc)), expect i '}')
        in
        fields [] (i + 1)
    | '[' when at (ws (i + 1)) ']' -> (Array [], ws (i + 1) + 1)
    | '[' ->
        let rec elements acc i =
          let v, i = value (depth + 1) i in
          let i = ws i in
          if at i ',' then elements (v :: acc) (i + 1)
          else (Array (List.rev (v :: acc)), expect i ']')
        in
        elements [] (i + 1)
    | '"' ->
        let str, i = string i in
        (String str, i)
    | 't' -> literal i "true" (Bool true)
    | 'f' -> literal i "false" (Bool false)
    | 'n' -> literal i "null" Null
    | '-' | '0' .. '9' -> number i
    | _ -> fail i "unexpected character"
  in
  match value 0 0 with
  | v, i ->
      let i = ws i in
      if i = n then Ok v
      else Error (Printf.sprintf "trailing bytes at offset %d" i)
  | exception Fail (i, what) -> Error (Printf.sprintf "%s at offset %d" what i)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Object fields -> List.assoc_opt k fields | _ -> None

let to_int = function Number n -> int_of_string_opt n | _ -> None

let to_float = function Number n -> float_of_string_opt n | _ -> None
