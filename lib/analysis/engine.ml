open Parsetree
module SS = Syntax.SS

type result = { findings : Finding.t list; waived : Finding.t list }

let parse_error_rule = "parse-error"

(* ------------------------------------------------------------------ *)
(* Per-file analysis context                                           *)

(* Classification of a local binding for the escape analysis: what does
   capturing it hand to a worker domain? *)
type local_class =
  | Mut  (** ref / array / Hashtbl / record with mutable fields *)
  | Safe  (** Atomic.t, Mutex, Condition — shareable by construction *)
  | Unknown

type ctx = {
  file : string;
  modname : string;
  lib : string;
  enabled : string -> bool;
  module_defs : SS.t;  (** top-level value names — they shadow stdlib *)
  file_allowed : SS.t;
  comment_allow : (int * SS.t) list;
  mutable allow_stack : string list list;
  shadow : (string, int) Hashtbl.t;
  locals : (string, local_class list) Hashtbl.t;
      (** innermost-first classification stack per name, maintained in
          lockstep with [shadow] *)
  db : Callgraph.t;
  mutable findings : Finding.t list;
  mutable waived : Finding.t list;
}

let shadow_count ctx n = Option.value ~default:0 (Hashtbl.find_opt ctx.shadow n)

let local_class ctx n =
  match Hashtbl.find_opt ctx.locals n with
  | Some (c :: _) -> c
  | _ -> Unknown

let comment_waived ctx line rule =
  List.exists
    (fun (l, rules) -> l <= line && line - l <= 3 && SS.mem rule rules)
    ctx.comment_allow

(* Is a waiver token (a rule name, or a bless token like
   [domain_shared]) in scope at [line] through any waiver channel? *)
let token_in_scope ctx line tok =
  SS.mem tok ctx.file_allowed
  || List.exists (List.mem tok) ctx.allow_stack
  || comment_waived ctx line tok

let emit ?(force_waive = false) ctx ~(loc : Location.t) ~rule message =
  if ctx.enabled rule then begin
    let severity =
      match Rule.find rule with
      | Some r -> r.Rule.severity
      | None -> Finding.Error
    in
    let line = loc.loc_start.pos_lnum in
    let f =
      {
        Finding.file = ctx.file;
        line;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        rule;
        severity;
        message;
      }
    in
    let allowed = force_waive || token_in_scope ctx line rule in
    if allowed then ctx.waived <- f :: ctx.waived
    else ctx.findings <- f :: ctx.findings
  end

(* ------------------------------------------------------------------ *)
(* Rule: identifier vocabularies                                       *)

let hashtbl_order_fns =
  SS.of_list [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let wall_clock_idents =
  [
    ("Sys", "time");
    ("Unix", "gettimeofday");
    ("Unix", "time");
    ("Unix", "gmtime");
    ("Unix", "localtime");
  ]

let check_ident ctx lid (loc : Location.t) =
  let path = Syntax.flatten_lid lid in
  (match path with
  | [ "compare" ]
    when shadow_count ctx "compare" = 0
         && not (SS.mem "compare" ctx.module_defs) ->
      emit ctx ~loc ~rule:"poly-compare"
        "polymorphic compare; use a typed comparator (Int.compare, \
         String.compare, Float.compare, ...)"
  | [ "Stdlib"; "compare" ] ->
      emit ctx ~loc ~rule:"poly-compare"
        "polymorphic Stdlib.compare; use a typed comparator"
  | _ -> ());
  if List.exists (String.equal "Random") path && not (String.equal ctx.modname "Prng")
  then
    emit ctx ~loc ~rule:"ambient-entropy"
      "stdlib Random draws from global, cross-domain shared state; use a \
       seeded Th_sim.Prng stream";
  match Syntax.last2 path with
  | Some ("Hashtbl", fn) when SS.mem fn hashtbl_order_fns ->
      emit ctx ~loc ~rule:"hashtbl-order"
        (Printf.sprintf
           "Hashtbl.%s visits bindings in unspecified hash order; iterate a \
            sorted view or waive with a justification"
           fn)
  | Some ("Hashtbl", ("hash" | "seeded_hash")) ->
      emit ctx ~loc ~rule:"poly-compare"
        "polymorphic Hashtbl.hash walks the runtime representation; hash a \
         canonical key instead"
  | Some ("Obj", "magic") ->
      emit ctx ~loc ~rule:"obj-magic"
        "Obj.magic defeats the type system; fix the types instead"
  | Some ("Domain", "self") ->
      emit ctx ~loc ~rule:"ambient-entropy"
        "Domain.self is an allocation-order-dependent token; key per-domain \
         state by submission index instead"
  | Some ((m, fn) as q) when List.mem q wall_clock_idents ->
      if not (String.equal ctx.modname "Wall") then
        emit ctx ~loc ~rule:"wall-clock"
          (Printf.sprintf
             "%s.%s reads host time; simulated results must come from \
              Th_sim.Clock (harness self-timing goes through Th_exec.Wall)"
             m fn)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Rule: float equality / composite equality                           *)

let float_non_float_results =
  SS.of_list
    [
      "compare"; "equal"; "hash"; "to_int"; "to_string"; "is_nan"; "is_finite";
      "is_integer"; "sign_bit";
    ]

let float_ops =
  SS.of_list [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let rec is_floaty e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (e', t) -> (
      is_floaty e'
      ||
      match t.ptyp_desc with
      | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
      | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Syntax.flatten_lid txt with
      | [ op ] when SS.mem op float_ops -> true
      | [ ("float_of_int" | "float_of_string") ] -> true
      | path -> (
          match Syntax.last2 path with
          | Some ("Float", fn) -> not (SS.mem fn float_non_float_results)
          | _ -> false))
  | _ -> false

let is_composite_literal e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule: catch-all matches over sensitive constructor vocabularies     *)

let sensitive_constructors =
  SS.of_list
    [
      (* H2_card_table.state *)
      "Clean"; "Dirty"; "Young_gen"; "Old_gen";
      (* H2_card_table.event *)
      "Barrier_dirty"; "Recompute"; "Bulk_clear";
      (* Th_trace.Event.kind *)
      "Span_begin"; "Span_end"; "Complete"; "Instant"; "Counter";
    ]

let check_catch_all ctx cases =
  let mentions_sensitive =
    List.exists
      (fun c ->
        List.exists
          (fun n -> SS.mem n sensitive_constructors)
          (Syntax.pat_constructors c.pc_lhs))
      cases
  in
  if mentions_sensitive then
    List.iter
      (fun c ->
        if Syntax.is_catch_all c.pc_lhs then
          emit ctx ~loc:c.pc_lhs.ppat_loc ~rule:"catch-all-match"
            "catch-all branch in a match over card states or trace events; \
             list the constructors explicitly so new ones force a revisit")
      cases

(* ------------------------------------------------------------------ *)
(* Rules at domain-crossing sinks and render callbacks: mutable        *)
(* globals reachable from the closure (pmap-mutable-global,            *)
(* pure-render) and captured mutable locals (escape-capture)           *)

let pmap_callee fn =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let path = Syntax.flatten_lid txt in
      match Syntax.last2 path with
      | Some ("Scheduler", ("run_cells" | "run_thunks"))
      | Some
          ( "Plan",
            ("cell" | "cell_list" | "costed_list" | "grouped" | "grouped_costed")
          )
      | Some ("Cell", ("make" | "of_thunk"))
      (* Placement-policy callbacks run on whichever worker domain owns
         the runtime that installs the policy, so a capture at
         construction time is a cross-domain escape. *)
      | Some ("Policy", "make")
      | Some ("Domain", "spawn") ->
          Some (String.concat "." path)
      | _ -> None)
  | _ -> None

let render_callee fn =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Syntax.last2 (Syntax.flatten_lid txt) with
      | Some ("Plan", "seal") -> true
      | _ -> false)
  | _ -> false

(* The mutable globals a reference to [lid] reaches: the global itself,
   or — through a call — every global in the callee's effect summary,
   reported [~via] the callee. *)
let iter_reachable_globals ctx lid ~f =
  List.iter
    (fun key ->
      match Callgraph.global_info ctx.db key with
      | Some (_, blessed) -> f key ~via:None ~blessed
      | None ->
          List.iter
            (fun g ->
              let blessed =
                match Callgraph.global_info ctx.db g with
                | Some (_, b) -> b
                | None -> false
              in
              f g ~via:(Some key) ~blessed)
            (Callgraph.def_effects ctx.db key))
    (Callgraph.resolve ctx.db ~cur_lib:ctx.lib ~cur_mod:ctx.modname lid)

let via_string = function
  | None -> ""
  | Some k -> Printf.sprintf " (via %s.%s)" k.Callgraph.modname k.Callgraph.name

let check_pmap_site ctx callee args =
  let seen = Hashtbl.create 8 in
  let seen_escape = Hashtbl.create 8 in
  let report (loc : Location.t) key ~via ~blessed =
    if not (Hashtbl.mem seen (key, loc.loc_start.pos_lnum)) then begin
      Hashtbl.replace seen (key, loc.loc_start.pos_lnum) ();
      emit ~force_waive:blessed ctx ~loc ~rule:"pmap-mutable-global"
        (Printf.sprintf
           "mutable global %s (defined at %s) is reachable from a closure \
            passed to %s%s; cells run on worker domains, so confine mutable \
            state to the cell or the serial render path"
           (Callgraph.key_to_string key)
           (Callgraph.global_site ctx.db key)
           callee (via_string via))
    end
  in
  List.iter
    (fun (_, arg) ->
      Syntax.iter_unshadowed_idents arg ~f:(fun lid loc ->
          (* The iterator's own table covers bindings inside [arg]; the
             ctx tables cover locals of the enclosing scope. An
             enclosing local is never top-level state, but if it is
             classified mutable, capturing it ships unsynchronised
             state to a worker domain: the escape-capture rule. *)
          match lid with
          | Longident.Lident n when shadow_count ctx n > 0 -> (
              match local_class ctx n with
              | Mut when not (Hashtbl.mem seen_escape n) ->
                  Hashtbl.replace seen_escape n ();
                  let line = loc.loc_start.pos_lnum in
                  emit ctx ~loc ~rule:"escape-capture"
                    ~force_waive:
                      (token_in_scope ctx line Syntax.escape_bless_token)
                    (Printf.sprintf
                       "local mutable value %S is captured by a closure \
                        passed to %s and escapes to a worker domain; make it \
                        domain-local (allocate inside the closure), switch \
                        to Atomic.t, or bless the capture with [@th.allow \
                        \"domain_shared <why it is safe>\"]"
                       n callee)
              | Mut | Safe | Unknown -> ())
          | _ -> iter_reachable_globals ctx lid ~f:(report loc)))
    args

(* A [Plan.seal ~render] callback runs on the serial path, so the
   escape-capture half does not apply and a [pmap-mutable-global]
   blessing does not cover it: every reachable global is a finding. *)
let check_render_site ctx args =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (label, arg) ->
      match label with
      | Asttypes.Labelled "render" | Asttypes.Optional "render" ->
          Syntax.iter_unshadowed_idents arg ~f:(fun lid loc ->
              match lid with
              | Longident.Lident n when shadow_count ctx n > 0 -> ()
              | _ ->
                  iter_reachable_globals ctx lid ~f:(fun key ~via ~blessed:_ ->
                      if not (Hashtbl.mem seen (key, loc.loc_start.pos_lnum))
                      then begin
                        Hashtbl.replace seen (key, loc.loc_start.pos_lnum) ();
                        emit ctx ~loc ~rule:"pure-render"
                          (Printf.sprintf
                             "mutable global %s is reachable from a Plan \
                              render function%s; renders must be \
                              effect-free — accumulate on the serial path \
                              after the batch, then render the result"
                             (Callgraph.key_to_string key) (via_string via))
                      end))
      | Asttypes.Nolabel | Asttypes.Labelled _ | Asttypes.Optional _ -> ())
    args

(* ------------------------------------------------------------------ *)
(* Main per-file pass                                                  *)

let classify_rhs ctx e =
  if Callgraph.is_domain_safe_init e then Safe
  else if Callgraph.is_mutable_init ctx.db ~lib:ctx.lib ~modname:ctx.modname e
  then Mut
  else Unknown

let run_structure ctx str =
  let open Ast_iterator in
  (* [vars] carries (name, classification) pairs so the escape analysis
     knows what a captured name aliases. *)
  let with_vars ctx vars k =
    List.iter
      (fun (n, c) ->
        Hashtbl.replace ctx.shadow n (shadow_count ctx n + 1);
        let prev = Option.value ~default:[] (Hashtbl.find_opt ctx.locals n) in
        Hashtbl.replace ctx.locals n (c :: prev))
      vars;
    k ();
    List.iter
      (fun (n, _) ->
        Hashtbl.replace ctx.shadow n (shadow_count ctx n - 1);
        match Hashtbl.find_opt ctx.locals n with
        | Some (_ :: rest) -> Hashtbl.replace ctx.locals n rest
        | _ -> ())
      vars
  in
  let unknowns vars = List.map (fun n -> (n, Unknown)) vars in
  let with_allows allows k =
    match allows with
    | [] -> k ()
    | _ ->
        ctx.allow_stack <- allows :: ctx.allow_stack;
        k ();
        ctx.allow_stack <- List.tl ctx.allow_stack
  in
  (* Binding vars with classification: a simple [let x = rhs] gets its
     RHS classified; destructuring patterns stay Unknown. *)
  let vb_vars vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> [ (txt, classify_rhs ctx vb.pvb_expr) ]
    | _ -> unknowns (Syntax.pat_vars vb.pvb_pat)
  in
  let rec expr it e =
    let sub e = expr it e in
    let visit_case c =
      with_vars ctx (unknowns (Syntax.pat_vars c.pc_lhs)) (fun () ->
          Option.iter sub c.pc_guard;
          sub c.pc_rhs)
    in
    with_allows (Syntax.attr_allows e.pexp_attributes) (fun () ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> check_ident ctx txt e.pexp_loc
        | Pexp_apply (fn, args) ->
            (match fn.pexp_desc with
            | Pexp_ident { txt = Longident.Lident (("=" | "<>" | "==" | "!=") as op); _ }
              -> (
                match args with
                | [ (_, a); (_, b) ] ->
                    if is_floaty a || is_floaty b then
                      emit ctx ~loc:e.pexp_loc ~rule:"float-equality"
                        (Printf.sprintf
                           "(%s) on floating-point operands; compare with an \
                            epsilon or Float.compare's total order"
                           op)
                    else if is_composite_literal a || is_composite_literal b
                    then
                      emit ctx ~loc:e.pexp_loc ~rule:"poly-compare"
                        (Printf.sprintf
                           "structural (%s) against a composite literal; use \
                            a typed equality"
                           op)
                | _ -> ())
            | _ -> ());
            (match pmap_callee fn with
            | Some callee -> check_pmap_site ctx callee args
            | None -> ());
            if render_callee fn then check_render_site ctx args;
            sub fn;
            List.iter (fun (_, a) -> sub a) args
        | Pexp_assert
            { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
          ->
            emit ctx ~loc:e.pexp_loc ~rule:"assert-false"
              "bare `assert false`; raise a contextful exception \
               (invalid_arg, Rt.Invalid_heap_state, failwith with the \
               unexpected value)"
        | Pexp_let (rf, vbs, body) ->
            let vars = List.concat_map vb_vars vbs in
            let visit_vb vb =
              with_allows (Syntax.attr_allows vb.pvb_attributes) (fun () ->
                  sub vb.pvb_expr)
            in
            (match rf with
            | Recursive ->
                with_vars ctx vars (fun () ->
                    List.iter visit_vb vbs;
                    sub body)
            | Nonrecursive ->
                List.iter visit_vb vbs;
                with_vars ctx vars (fun () -> sub body))
        | Pexp_fun (_, dflt, pat, body) ->
            Option.iter sub dflt;
            with_vars ctx (unknowns (Syntax.pat_vars pat)) (fun () -> sub body)
        | Pexp_function cases ->
            check_catch_all ctx cases;
            List.iter visit_case cases
        | Pexp_match (s, cases) ->
            sub s;
            check_catch_all ctx cases;
            List.iter visit_case cases
        | Pexp_try (s, cases) ->
            sub s;
            List.iter visit_case cases
        | Pexp_for (pat, a, b, _, body) ->
            sub a;
            sub b;
            with_vars ctx (unknowns (Syntax.pat_vars pat)) (fun () -> sub body)
        | _ -> default_iterator.expr it e)
  in
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            with_allows (Syntax.attr_allows vb.pvb_attributes) (fun () ->
                default_iterator.value_binding it vb))
          vbs
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; structure_item } in
  it.structure it str

let file_level_allows str =
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_attribute a ->
          List.fold_left
            (fun acc r -> SS.add r acc)
            acc
            (Syntax.attr_allows [ a ])
      | _ -> acc)
    SS.empty str

let analyze ?rules sources =
  let enabled r =
    String.equal r parse_error_rule
    || match rules with None -> true | Some l -> List.mem r l
  in
  let db = Callgraph.build sources in
  let findings = ref [] and waived = ref [] in
  List.iter
    (fun (s : Source.t) ->
      match s.ast with
      | Source.Signature _ ->
          (* Interfaces carry no expressions; every current rule is about
             runtime behaviour, so a parse is all they need. *)
          ()
      | Source.Structure str ->
          let module_defs =
            List.fold_left
              (fun acc item ->
                match item.pstr_desc with
                | Pstr_value (_, vbs) ->
                    List.fold_left
                      (fun acc vb ->
                        List.fold_left
                          (fun acc n -> SS.add n acc)
                          acc
                          (Syntax.pat_vars vb.pvb_pat))
                      acc vbs
                | _ -> acc)
              SS.empty str
          in
          let ctx =
            {
              file = s.file;
              modname = s.modname;
              lib = s.library;
              enabled;
              module_defs;
              file_allowed = file_level_allows str;
              comment_allow =
                List.map
                  (fun (l, rs) -> (l, SS.of_list rs))
                  (Source.line_waivers s);
              allow_stack = [];
              shadow = Hashtbl.create 16;
              locals = Hashtbl.create 16;
              db;
              findings = [];
              waived = [];
            }
          in
          run_structure ctx str;
          findings := ctx.findings @ !findings;
          waived := ctx.waived @ !waived)
    sources;
  {
    findings = List.sort Finding.compare !findings;
    waived = List.sort Finding.compare !waived;
  }

let analyze_files ?rules files =
  let parsed, errors =
    List.fold_left
      (fun (ok, errs) file ->
        match Source.parse_file file with
        | Ok s -> (s :: ok, errs)
        | Error msg ->
            ( ok,
              {
                Finding.file;
                line = 1;
                col = 0;
                rule = parse_error_rule;
                severity = Finding.Error;
                message = msg;
              }
              :: errs ))
      ([], []) files
  in
  let r = analyze ?rules (List.rev parsed) in
  { r with findings = List.sort Finding.compare (errors @ r.findings) }
