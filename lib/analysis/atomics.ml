(* Atomic-protocol checker: a per-module protocol analysis over
   Atomic.t usage.

   The atomics in lib/exec (the scheduler's claim cursor, the plan's
   write-once result slots) follow protocols that the type system
   cannot see: the cursor only moves via fetch_and_add, a slot is
   written once by the domain that ran its cell. This pass makes such
   protocols checkable:

   - every Atomic.t declaration (record field of type [_ Atomic.t], or
     top-level [let x = Atomic.make _]) must carry a role annotation
     [[@th.atomic "role"]] stating its protocol in prose
     (atomic-missing-role);
   - a plain [Atomic.set] on a location that is elsewhere operated on
     by CAS-class primitives (compare_and_set / fetch_and_add / incr /
     decr / exchange) can overwrite a concurrent RMW and is flagged
     (atomic-plain-write);
   - a plain [Atomic.get] of a CAS-contended location in a definition
     that performs no CAS on it is a racy snapshot and is flagged
     (atomic-plain-read) — reads that feed a CAS in the same
     definition, the retry-loop idiom, are the protocol working as
     intended and stay silent;
   - an [Atomic.get] whose result guards an [Atomic.set] to the same
     location with no interposing CAS is a check-then-act window
     (atomic-check-then-act): the state can change between the read
     and the write, which is what [compare_and_set] exists to close.

   Locations are identified syntactically and per module: [t.top]
   anywhere in a module is the location [".top"], a bare identifier is
   its name. Functor-parameter atomics are recognised by usage: any
   module prefix that performs a CAS-class operation somewhere in the
   file (e.g. the [A] of a [Make (A : ATOMIC)] functor) is treated as
   an atomics module alongside [Atomic] itself. *)

open Parsetree
module SS = Syntax.SS

type raw = {
  loc : Location.t;
  rule : string;
  message : string;
  allows : string list;
      (* [@th.allow] tokens in scope at the site, innermost included;
         the engine diverts the finding if the rule is among them *)
}

type op_kind = Read | Write | Cas | Rmw

let op_kind_of_name = function
  | "get" -> Some Read
  | "set" -> Some Write
  | "compare_and_set" -> Some Cas
  | "fetch_and_add" | "exchange" | "incr" | "decr" -> Some Rmw
  | _ -> None

let atomic_op_names =
  SS.of_list
    [ "get"; "set"; "compare_and_set"; "fetch_and_add"; "exchange"; "incr"; "decr" ]

let cas_class_names = SS.of_list [ "compare_and_set"; "fetch_and_add"; "exchange"; "incr"; "decr" ]

(* Location identity of an atomic value expression, if recognisable:
   field access -> ".field", identifier -> its unqualified name. *)
let loc_id_of_expr e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_field (_, { txt; _ }) -> (
        match List.rev (Syntax.flatten_lid txt) with
        | f :: _ -> Some ("." ^ f)
        | [] -> None)
    | Pexp_ident { txt; _ } -> (
        match List.rev (Syntax.flatten_lid txt) with
        | n :: _ -> Some n
        | [] -> None)
    | Pexp_constraint (e, _) | Pexp_open (_, e) -> go e
    | _ -> None
  in
  go e

(* ------------------------------------------------------------------ *)
(* Pass A: which module prefixes are atomics modules in this file?     *)

let atomic_modules str =
  let mods = ref (SS.singleton "Atomic") in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              match Syntax.last2 (Syntax.flatten_lid txt) with
              | Some (m, fn) when SS.mem fn cas_class_names ->
                  mods := SS.add m !mods
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str;
  !mods

(* ------------------------------------------------------------------ *)
(* Pass B: collect every atomic op with location identity              *)

type op = {
  kind : op_kind;
  locid : string;
  op_loc : Location.t;
  op_allows : string list;
}

(* All atomic ops in an expression subtree, with the allow-tokens in
   scope. [base_allows] seeds the stack (binding-level waivers). *)
let ops_in ~mods ~base_allows root =
  let acc = ref [] in
  let rec walk allows e =
    let allows =
      match Syntax.attr_allows e.pexp_attributes with
      | [] -> allows
      | more -> more @ allows
    in
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match Syntax.last2 (Syntax.flatten_lid txt) with
        | Some (m, fn) when SS.mem m mods && SS.mem fn atomic_op_names -> (
            match (op_kind_of_name fn, args) with
            | Some kind, (_, target) :: _ -> (
                match loc_id_of_expr target with
                | Some locid ->
                    acc :=
                      { kind; locid; op_loc = e.pexp_loc; op_allows = allows }
                      :: !acc
                | None -> ())
            | _ -> ())
        | _ -> ())
    | _ -> ());
    iter_children allows e
  and iter_children allows e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ e' -> walk allows e');
      }
    in
    Ast_iterator.default_iterator.expr it e
  in
  walk base_allows root;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Check-then-act: get of L guards a set of L with no interposing CAS  *)

let check_then_act ~mods ~base_allows body k =
  (* Variables bound to [Atomic.get L] results, per walk. *)
  let bound : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let get_locid e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, tgt) :: _) -> (
        match Syntax.last2 (Syntax.flatten_lid txt) with
        | Some (m, "get") when SS.mem m mods -> loc_id_of_expr tgt
        | _ -> None)
    | _ -> None
  in
  (* Does [e] mention a read of [l]: a direct get, or a variable bound
     to one, anywhere in the subtree? *)
  let mentions_read l e =
    let hit = ref false in
    let is_read e' =
      (match get_locid e' with Some l' -> String.equal l l' | None -> false)
      ||
      match e'.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ } -> (
          match Hashtbl.find_opt bound n with
          | Some l' -> String.equal l l'
          | None -> false)
      | _ -> false
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e' ->
            if not !hit then
              if is_read e' then hit := true
              else Ast_iterator.default_iterator.expr it e');
      }
    in
    if is_read e then true
    else (
      it.expr it e;
      !hit)
  in
  let branch_ops branch =
    ops_in ~mods ~base_allows branch
  in
  let rec walk allows e =
    let allows =
      match Syntax.attr_allows e.pexp_attributes with
      | [] -> allows
      | more -> more @ allows
    in
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, get_locid vb.pvb_expr) with
            | Ppat_var { txt; _ }, Some l -> Hashtbl.replace bound txt l
            | _ -> ())
          vbs
    | Pexp_ifthenelse (cond, thn, els) ->
        let branches = thn :: Option.to_list els in
        List.iter
          (fun branch ->
            let ops = branch_ops branch in
            List.iter
              (fun o ->
                if
                  o.kind = Write
                  && mentions_read o.locid cond
                  && not
                       (List.exists
                          (fun o' ->
                            (o'.kind = Cas || o'.kind = Rmw)
                            && String.equal o'.locid o.locid)
                          ops)
                then k { o with op_allows = o.op_allows @ allows })
              ops)
          branches
    | Pexp_while (cond, body) ->
        let ops = branch_ops body in
        List.iter
          (fun o ->
            if
              o.kind = Write
              && mentions_read o.locid cond
              && not
                   (List.exists
                      (fun o' ->
                        (o'.kind = Cas || o'.kind = Rmw)
                        && String.equal o'.locid o.locid)
                      ops)
            then k { o with op_allows = o.op_allows @ allows })
          ops
    | _ -> ());
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ e' -> walk allows e');
      }
    in
    Ast_iterator.default_iterator.expr it e
  in
  walk base_allows body

(* ------------------------------------------------------------------ *)
(* Declarations that need [@th.atomic] roles                           *)

type decl = {
  decl_name : string;  (* locid form: ".field" or "name" *)
  decl_loc : Location.t;
  decl_role : string option;
  decl_allows : string list;
}

let is_atomic_type ~mods t =
  let rec go t =
    match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, args) -> (
        (match List.rev (Syntax.flatten_lid txt) with
        | "t" :: m :: _ -> SS.mem m mods
        | _ -> false)
        || List.exists go args)
    | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> go t
    | _ -> false
  in
  go t

let decls ~mods str =
  let out = ref [] in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, tds) ->
          List.iter
            (fun td ->
              match td.ptype_kind with
              | Ptype_record labels ->
                  List.iter
                    (fun l ->
                      if is_atomic_type ~mods l.pld_type then
                        out :=
                          {
                            decl_name = "." ^ l.pld_name.txt;
                            decl_loc = l.pld_loc;
                            decl_role = Syntax.attr_atomic_role l.pld_attributes;
                            decl_allows = Syntax.attr_allows l.pld_attributes;
                          }
                          :: !out)
                    labels
              | _ -> ())
            tds
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> (
                  let rec is_make e =
                    match e.pexp_desc with
                    | Pexp_apply
                        ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, _) -> (
                        match Syntax.last2 (Syntax.flatten_lid f) with
                        | Some (m, "make") -> SS.mem m mods
                        | _ -> false)
                    | Pexp_constraint (e, _) | Pexp_open (_, e) -> is_make e
                    | _ -> false
                  in
                  match is_make vb.pvb_expr with
                  | true ->
                      out :=
                        {
                          decl_name = txt;
                          decl_loc = vb.pvb_loc;
                          decl_role =
                            (match Syntax.attr_atomic_role vb.pvb_attributes with
                            | Some r -> Some r
                            | None ->
                                Syntax.attr_atomic_role
                                  vb.pvb_expr.pexp_attributes);
                          decl_allows = Syntax.attr_allows vb.pvb_attributes;
                        }
                        :: !out
                  | false -> ())
              | _ -> ())
            vbs
      | _ -> ())
    str;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Scopes: the file's top level plus every nested module/functor body. *)
(* Location identity is per scope, so one module's [.top] and a        *)
(* sibling module's [.top] never merge.                                *)

let file_attr_allows items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute a -> Syntax.attr_allows [ a ]
      | _ -> [])
    items

let rec scopes ~inherited items =
  let here_allows = inherited @ file_attr_allows items in
  (here_allows, items)
  :: List.concat_map
       (fun item ->
         match item.pstr_desc with
         | Pstr_module mb -> mod_scopes ~inherited:here_allows mb.pmb_expr
         | Pstr_recmodule mbs ->
             List.concat_map
               (fun mb -> mod_scopes ~inherited:here_allows mb.pmb_expr)
               mbs
         | _ -> [])
       items

and mod_scopes ~inherited me =
  match me.pmod_desc with
  | Pmod_structure s -> scopes ~inherited s
  | Pmod_functor (_, body) -> mod_scopes ~inherited body
  | Pmod_constraint (me, _) -> mod_scopes ~inherited me
  | _ -> []

let roles str =
  List.concat_map
    (fun (_, items) ->
      let mods = atomic_modules items in
      List.filter_map
        (fun d -> Option.map (fun r -> (d.decl_name, r)) d.decl_role)
        (decls ~mods items))
    (scopes ~inherited:[] str)

(* ------------------------------------------------------------------ *)
(* Whole-module analysis                                               *)

(* Top-level defs with their binding-level allow tokens. *)
let top_defs str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.map
            (fun vb -> (Syntax.attr_allows vb.pvb_attributes, vb.pvb_expr))
            vbs
      | _ -> [])
    str

let analyze_scope ~mods ~file_allows items =
  let str = items in
  let defs = top_defs str in
  let per_def_ops =
    List.map
      (fun (allows, body) ->
        (allows, ops_in ~mods ~base_allows:(allows @ file_allows) body, body))
      defs
  in
  let all_ops = List.concat_map (fun (_, ops, _) -> ops) per_def_ops in
  (* Per-location access classes across the whole module. *)
  let contended locid kinds =
    List.exists
      (fun o -> String.equal o.locid locid && List.mem o.kind kinds)
      all_ops
  in
  let role_of =
    let rs = roles str in
    fun locid ->
      match List.find_opt (fun (n, _) -> String.equal n locid) rs with
      | Some (_, r) -> Printf.sprintf " (role: %S)" r
      | None -> ""
  in
  let out = ref [] in
  let push loc rule message allows =
    out := { loc; rule; message; allows } :: !out
  in
  (* Missing roles. *)
  List.iter
    (fun d ->
      if d.decl_role = None then
        push d.decl_loc "atomic-missing-role"
          (Printf.sprintf
             "Atomic.t declaration %S has no [@th.atomic \"role\"] \
              annotation; state its protocol (who writes it, how it is \
              published, e.g. \"top pointer, stolen via CAS\")"
             d.decl_name)
          (d.decl_allows @ file_allows))
    (decls ~mods str);
  (* Plain writes to CAS/RMW-contended locations. *)
  List.iter
    (fun o ->
      if o.kind = Write && contended o.locid [ Cas; Rmw ] then
        push o.op_loc "atomic-plain-write"
          (Printf.sprintf
             "plain Atomic.set on %S%s, which is elsewhere updated by \
              CAS-class operations; a plain store can overwrite a concurrent \
              RMW — use compare_and_set, or waive with the protocol phase \
              that makes the store safe (e.g. no other domain running yet)"
             o.locid (role_of o.locid))
          o.op_allows)
    all_ops;
  (* Plain reads of CAS-contended locations in defs with no CAS on them. *)
  List.iter
    (fun (_, ops, _) ->
      List.iter
        (fun o ->
          if
            o.kind = Read
            && contended o.locid [ Cas ]
            && not
                 (List.exists
                    (fun o' ->
                      o'.kind = Cas && String.equal o'.locid o.locid)
                    ops)
          then
            push o.op_loc "atomic-plain-read"
              (Printf.sprintf
                 "plain Atomic.get of %S%s, which other code claims via CAS; \
                  this definition performs no CAS on it, so the value is a \
                  racy snapshot — feed the read into a compare_and_set, or \
                  waive stating why staleness is acceptable"
                 o.locid (role_of o.locid))
              o.op_allows)
        ops)
    per_def_ops;
  (* Check-then-act windows. *)
  List.iter
    (fun (allows, _, body) ->
      check_then_act ~mods ~base_allows:(allows @ file_allows) body (fun o ->
          push o.op_loc "atomic-check-then-act"
            (Printf.sprintf
               "Atomic.get of %S%s guards this Atomic.set to the same \
                location with no interposing CAS: the location can change \
                between the read and the write — close the window with \
                compare_and_set"
               o.locid (role_of o.locid))
            o.op_allows))
    per_def_ops;
  List.rev !out

let analyze str =
  List.concat_map
    (fun (file_allows, items) ->
      analyze_scope ~mods:(atomic_modules items) ~file_allows items)
    (scopes ~inherited:[] str)
