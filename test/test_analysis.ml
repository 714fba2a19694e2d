(* Tests for the Th_analysis AST analyzer (lib/analysis).

   Every rule in Th_analysis.Rule.all has a positive and a negative
   fixture under fixtures/analysis/, named <rule>_pos.ml and
   <rule>_neg.ml with the rule's dashes turned into underscores. The
   positive one must produce a finding of its rule, the negative one
   must produce none; the suite derives the file names from the
   registry, so a new rule without fixtures fails "every rule has a
   fixture case". *)

module Finding = Th_analysis.Finding
module Engine = Th_analysis.Engine
module Source = Th_analysis.Source
module Report = Th_analysis.Report
module Rule = Th_analysis.Rule

let fixture_dir = Filename.concat "fixtures" "analysis"

let fixture_basename ~polarity rule =
  String.map (fun c -> if c = '-' then '_' else c) rule
  ^ (match polarity with `Pos -> "_pos.ml" | `Neg -> "_neg.ml")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analyze_fixture ?rules file =
  let path = Filename.concat fixture_dir file in
  match Source.parse_file path with
  | Ok s -> Engine.analyze ?rules [ s ]
  | Error m -> Alcotest.failf "fixture %s does not parse: %s" file m

let positive_source rule =
  read_file (Filename.concat fixture_dir (fixture_basename ~polarity:`Pos rule))

let has_rule rule fs = List.exists (fun f -> String.equal f.Finding.rule rule) fs

let contains_sub hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Each rule: positive fixture triggers, negative fixture is clean     *)

(* The positive fixture is also run with only its own rule enabled, as
   [lint.exe --rules <rule>] does: the rule must still fire on its own,
   and every finding must be that rule's. *)
let test_rule_fixtures () =
  List.iter
    (fun (r : Rule.t) ->
      let pos_file = fixture_basename ~polarity:`Pos r.name in
      let pos = analyze_fixture pos_file in
      if not (has_rule r.name pos.Engine.findings) then
        Alcotest.failf "positive fixture for %s produced no %s finding" r.name
          r.name;
      let alone = analyze_fixture ~rules:[ r.name ] pos_file in
      if alone.Engine.findings = [] then
        Alcotest.failf "%s alone finds nothing in %s" r.name pos_file;
      List.iter
        (fun (f : Finding.t) ->
          if not (String.equal f.rule r.name) then
            Alcotest.failf "%s alone reported a %s finding in %s" r.name f.rule
              pos_file)
        (alone.Engine.findings @ alone.Engine.waived);
      let neg = analyze_fixture (fixture_basename ~polarity:`Neg r.name) in
      if has_rule r.name neg.Engine.findings || has_rule r.name neg.Engine.waived
      then Alcotest.failf "negative fixture for %s is not clean" r.name)
    Rule.all

(* Every rule in the registry has both fixture files, so the loop above
   really covers the whole rule surface. *)
let test_registry_covered () =
  List.iter
    (fun (r : Rule.t) ->
      List.iter
        (fun polarity ->
          let file = fixture_basename ~polarity r.name in
          if not (Sys.file_exists (Filename.concat fixture_dir file)) then
            Alcotest.failf "rule %s has no fixture %s" r.name file)
        [ `Pos; `Neg ])
    Rule.all

(* ------------------------------------------------------------------ *)
(* Acceptance: the domain-safety rule flags a global mutated from a    *)
(* scheduler cell, and names the offending global                      *)

let test_pmap_acceptance () =
  let r =
    analyze_fixture (fixture_basename ~polarity:`Pos "pmap-mutable-global")
  in
  match
    List.filter
      (fun f -> String.equal f.Finding.rule "pmap-mutable-global")
      r.Engine.findings
  with
  | [] -> Alcotest.fail "no pmap-mutable-global finding on the mutation fixture"
  | fs ->
      (* The cell thunk both calls [bump] (transitive
         mutation) and assigns [total] directly; the finding must point
         at the global by name so the report is actionable. *)
      if
        not
          (List.exists (fun f -> contains_sub f.Finding.message "total") fs)
      then
        Alcotest.failf "pmap finding does not name the global: %s"
          (String.concat "; " (List.map (fun f -> f.Finding.message) fs))

(* ------------------------------------------------------------------ *)
(* Cross-library escape propagation: a bench closure that reaches a    *)
(* mutable global in lib/metrics through TWO hops and a library        *)
(* boundary is still flagged. Regression for the old analyzer, which   *)
(* resolved calls only inside one library and was blind to this.       *)

let parse_ok ~file src =
  match Source.parse_string ~file src with
  | Ok s -> s
  | Error m -> Alcotest.failf "%s does not parse: %s" file m

let test_cross_library_two_hop () =
  (* lib/metrics/recorder.ml — the mutation lives two calls deep. *)
  let metrics =
    parse_ok ~file:"lib/metrics/recorder.ml"
      "let counts : (string, int) Hashtbl.t = Hashtbl.create 16\n\
       let bump k =\n\
      \  let n = Option.value ~default:0 (Hashtbl.find_opt counts k) in\n\
      \  Hashtbl.replace counts k (n + 1)\n\
       let note k = bump k\n"
  in
  (* bench/driver.ml — a local module with the SAME name as the metrics
     one, but pure: resolution must pick Th_metrics.Recorder for the
     wrapped path and the local Recorder for the bare one. *)
  let bench =
    parse_ok ~file:"bench/driver.ml"
      "module Recorder = struct\n\
      \  let note k = String.length k\n\
       end\n\
       let tainted sched xs =\n\
      \  Th_exec.Scheduler.run_thunks sched\n\
      \    (List.map (fun x () -> Th_metrics.Recorder.note x) xs)\n\
       let clean sched xs =\n\
      \  Th_exec.Scheduler.run_thunks sched\n\
      \    (List.map (fun x () -> Recorder.note x) xs)\n"
  in
  let r = Engine.analyze [ metrics; bench ] in
  let pmap =
    List.filter
      (fun f -> String.equal f.Finding.rule "pmap-mutable-global")
      r.Engine.findings
  in
  (match pmap with
  | [] ->
      Alcotest.fail
        "two-hop bench -> lib/metrics mutation not flagged (cross-library \
         propagation regressed)"
  | fs ->
      if not (List.for_all (fun f -> f.Finding.file = "bench/driver.ml") fs)
      then Alcotest.fail "finding not attributed to the capturing bench file";
      if not (List.exists (fun f -> contains_sub f.Finding.message "counts") fs)
      then
        Alcotest.failf "finding does not name the mutated global: %s"
          (String.concat "; " (List.map (fun f -> f.Finding.message) fs)));
  (* Exactly one closure is tainted: the pure local Recorder.note must
     not pick up the th_metrics effect summary through the name clash. *)
  Alcotest.(check int) "only the Th_metrics call site is flagged" 1
    (List.length pmap)

(* ------------------------------------------------------------------ *)
(* Waivers divert findings, never drop them                            *)

let test_waiver_comment_fixture () =
  let r = analyze_fixture "waiver_comment.ml" in
  Alcotest.(check int)
    "one unwaived hashtbl-order finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "hashtbl-order")
          r.Engine.findings));
  Alcotest.(check int)
    "one waived hashtbl-order finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "hashtbl-order")
          r.Engine.waived))

let test_waiver_attribute_fixture () =
  let r = analyze_fixture "waiver_attribute.ml" in
  Alcotest.(check int)
    "one unwaived obj-magic finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "obj-magic")
          r.Engine.findings));
  Alcotest.(check int)
    "one waived obj-magic finding" 1
    (List.length
       (List.filter
          (fun f -> String.equal f.Finding.rule "obj-magic")
          r.Engine.waived))

(* qcheck: for EVERY rule's positive fixture, a file-level
   [@@@th.allow] waiver moves all of that rule's findings to the waived
   list — none reach the reporter, none are lost. *)
let prop_waived_never_reported =
  QCheck.Test.make ~count:50 ~name:"file-level waiver diverts every finding"
    (QCheck.int_range 0 (List.length Rule.all - 1))
    (fun i ->
      let rule = (List.nth Rule.all i).Rule.name in
      let src =
        Printf.sprintf "[@@@th.allow %S]\n%s" rule (positive_source rule)
      in
      match Source.parse_string ~file:"waived_probe.ml" src with
      | Error m -> QCheck.Test.fail_reportf "probe does not parse: %s" m
      | Ok s ->
          let r = Engine.analyze [ s ] in
          (not (has_rule rule r.Engine.findings))
          && has_rule rule r.Engine.waived)

(* qcheck: the escape-capture bless token diverts, never drops — a
   [domain_shared] allow WITH a justification moves the finding to
   waived; a bare token (no justification) waives nothing. *)
let prop_domain_shared_diverts =
  let justification =
    QCheck.Gen.(
      string_size ~gen:(char_range 'a' 'z') (int_range 1 12) >>= fun w1 ->
      string_size ~gen:(char_range 'a' 'z') (int_range 1 12) >>= fun w2 ->
      return (w1 ^ " " ^ w2))
  in
  QCheck.Test.make ~count:50
    ~name:"domain_shared bless diverts findings, bare token does not"
    (QCheck.make QCheck.Gen.(pair justification bool))
    (fun (why, justified) ->
      let payload = if justified then "domain_shared " ^ why else "domain_shared" in
      let src =
        Printf.sprintf "[@@@th.allow %S]\n%s" payload
          (positive_source "escape-capture")
      in
      match Source.parse_string ~file:"bench/bless_probe.ml" src with
      | Error m -> QCheck.Test.fail_reportf "probe does not parse: %s" m
      | Ok s ->
          let r = Engine.analyze [ s ] in
          let reported = has_rule "escape-capture" r.Engine.findings in
          let waived = has_rule "escape-capture" r.Engine.waived in
          if justified then (not reported) && waived
          else reported && not waived)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)

let arbitrary_finding =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\x01' '\xff') (int_range 0 20) in
  let gen =
    str >>= fun file ->
    int_range 0 100_000 >>= fun line ->
    int_range 0 500 >>= fun col ->
    oneofl (List.map (fun (r : Rule.t) -> r.name) Rule.all) >>= fun rule ->
    str >>= fun message ->
    return { Finding.file; line; col; rule; severity = Finding.Error; message }
  in
  QCheck.make gen

let prop_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"JSON report round-trips"
    QCheck.(pair (small_list arbitrary_finding) (small_list arbitrary_finding))
    (fun (findings, waived) ->
      match Report.of_json (Report.to_json ~waived findings) with
      | Ok (fs, ws) -> fs = findings && ws = waived
      | Error m -> QCheck.Test.fail_reportf "of_json failed: %s" m)

let test_json_rejects () =
  let finding extra =
    Printf.sprintf
      {|{"version":1,"findings":[{"file":"a.ml","line":1,"severity":%s}],"waived":[]}|}
      extra
  in
  List.iter
    (fun (what, doc) ->
      match Report.of_json doc with
      | Ok _ -> Alcotest.failf "%s accepted: %s" what doc
      | Error _ -> ())
    [
      ("unknown version", {|{"version":2,"findings":[],"waived":[]}|});
      ("unknown severity", finding {|"fatal"|});
      (* No rule gives a warning: the severity is gone from the schema. *)
      ("warning severity", finding {|"warning"|});
      ("unknown field", finding {|"error","owner":"x"|});
      ("non-integer line", finding {|"error","col":1.5|});
      ("malformed JSON", {|{"version":1,"findings":[|});
    ];
  match Report.of_json (finding {|"error"|}) with
  | Ok ([ f ], []) ->
      Alcotest.(check string) "severity parsed" "error"
        (Finding.severity_to_string f.Finding.severity)
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "well-formed report rejected: %s" e

(* ------------------------------------------------------------------ *)
(* CLI contract pieces that live in the library                        *)

let test_explain_unknown_rule () =
  Alcotest.(check bool) "unknown rule not found" true (Rule.find "no-such" = None);
  Alcotest.(check bool)
    "every registered rule resolvable" true
    (List.for_all (fun (r : Rule.t) -> Rule.find r.name <> None) Rule.all);
  List.iter
    (fun (r : Rule.t) ->
      if String.trim r.synopsis = "" || String.trim r.explain = "" then
        Alcotest.failf "rule %s has an empty synopsis or --explain body" r.name;
      if String.trim (Rule.explain_text r) = "" then
        Alcotest.failf "--explain %s prints nothing" r.name)
    Rule.all

(* ------------------------------------------------------------------ *)
(* Policy.make is a domain-crossing sink: placement-policy callbacks   *)
(* run on whichever worker domain owns the runtime                     *)

let test_policy_capture_flagged () =
  let r = analyze_fixture "policy_capture_pos.ml" in
  match
    List.filter
      (fun f -> String.equal f.Finding.rule "escape-capture")
      r.Engine.findings
  with
  | [] ->
      Alcotest.fail
        "no escape-capture finding on the Policy.make capture fixture"
  | f :: _ ->
      Alcotest.(check bool) "finding names the captured local" true
        (contains_sub f.Finding.message "\"moved\"");
      Alcotest.(check bool) "finding names the Policy.make sink" true
        (contains_sub f.Finding.message "Policy.make")

let test_policy_capture_atomic_clean () =
  let r = analyze_fixture "policy_capture_neg.ml" in
  if
    has_rule "escape-capture" r.Engine.findings
    || has_rule "escape-capture" r.Engine.waived
  then Alcotest.fail "Atomic-backed policy state must not be flagged"

(* ------------------------------------------------------------------ *)
(* File-system checks over the pos/neg fixture trees                   *)

module Fscheck = Th_analysis.Fscheck

let test_missing_mli_fixtures () =
  let tree p = Filename.concat (Filename.concat "fixtures" "missing_mli") p in
  (match Fscheck.missing_mli (Fscheck.collect_files (tree "pos")) with
  | [ f ] ->
      Alcotest.(check string) "rule" "missing-mli" f.Finding.rule;
      Alcotest.(check bool) "names the unsealed unit" true
        (contains_sub f.Finding.file "widget.ml")
  | fs ->
      Alcotest.failf "expected exactly one missing-mli finding, got %d"
        (List.length fs));
  Alcotest.(check int) "sealed tree is clean" 0
    (List.length (Fscheck.missing_mli (Fscheck.collect_files (tree "neg"))))

let suite =
  [
    Alcotest.test_case "positive fixtures trigger, negatives clean" `Quick
      test_rule_fixtures;
    Alcotest.test_case "every rule has a fixture case" `Quick
      test_registry_covered;
    Alcotest.test_case "pmap cell mutating a global is flagged by name" `Quick
      test_pmap_acceptance;
    Alcotest.test_case "two-hop cross-library mutation is flagged" `Quick
      test_cross_library_two_hop;
    Alcotest.test_case "Policy.make capture is flagged" `Quick
      test_policy_capture_flagged;
    Alcotest.test_case "Policy.make with Atomic state is clean" `Quick
      test_policy_capture_atomic_clean;
    Alcotest.test_case "comment waiver diverts, not drops" `Quick
      test_waiver_comment_fixture;
    Alcotest.test_case "attribute waiver diverts, not drops" `Quick
      test_waiver_attribute_fixture;
    QCheck_alcotest.to_alcotest prop_waived_never_reported;
    QCheck_alcotest.to_alcotest prop_domain_shared_diverts;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "JSON report rejects schema violations" `Quick
      test_json_rejects;
    Alcotest.test_case "missing-mli pos/neg fixture trees" `Quick
      test_missing_mli_fixtures;
    Alcotest.test_case "rule registry lookups" `Quick test_explain_unknown_rule;
  ]
