(* Tests for CDF computation and report helpers. *)

open Th_sim
module Report = Th_metrics.Report
module Cdf = Th_metrics.Cdf

let test_cdf_points_sorted () =
  let pts = Cdf.points ~buckets:4 [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check int) "buckets+1 points" 5 (List.length pts);
  let values = List.map snd pts in
  Alcotest.(check (list (float 1e-9))) "monotone percentiles"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] values

let test_cdf_empty () =
  Alcotest.(check int) "empty input" 0 (List.length (Cdf.points []))

let test_cdf_fraction () =
  let s = [ 0.0; 0.0; 50.0; 100.0 ] in
  Alcotest.(check (float 1e-9)) "half at or below zero" 0.5
    (Cdf.fraction_at_or_below s 0.0);
  Alcotest.(check (float 1e-9)) "all below max" 1.0
    (Cdf.fraction_at_or_below s 100.0)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf points are monotone" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 100.0))
    (fun samples ->
      let pts = Cdf.points samples in
      let rec mono = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono pts)

let breakdown other serde minor major =
  let c = Clock.create () in
  Clock.advance c Clock.Other other;
  Clock.advance c Clock.Serde_io serde;
  Clock.advance c Clock.Minor_gc minor;
  Clock.advance c Clock.Major_gc major;
  Clock.breakdown c

let test_first_total_skips_oom () =
  let rows =
    [ Report.oom "dead"; Report.row "alive" (breakdown 10.0 0.0 0.0 0.0) ]
  in
  Alcotest.(check (option (float 1e-9))) "first non-OOM total" (Some 10.0)
    (Report.first_total rows)

let test_speedup () =
  let base = breakdown 100.0 0.0 0.0 0.0 in
  let fast = breakdown 60.0 0.0 0.0 0.0 in
  Alcotest.(check (float 1e-9)) "40% faster" 0.4
    (Report.speedup ~baseline:base fast)

module Csv = Th_metrics.Csv

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_rendering () =
  let out =
    Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "a,b" ] ]
  in
  Alcotest.(check string) "rendered" "x,y\n1,2\n3,\"a,b\"\n" out

let test_csv_breakdown_row () =
  let c = Clock.create () in
  Clock.advance c Clock.Other 1e9;
  let row = Csv.breakdown_row ~label:"run" (Some (Clock.breakdown c)) in
  Alcotest.(check (list string)) "row"
    [ "run"; "1.000000"; "0.000000"; "0.000000"; "0.000000"; "1.000000" ]
    row;
  Alcotest.(check (list string)) "oom row"
    [ "dead"; "OOM"; "OOM"; "OOM"; "OOM"; "OOM" ]
    (Csv.breakdown_row ~label:"dead" None)

(* ------------------------------------------------------------------ *)
(* Bench_log: schema-2 merge-update and schema-1 compatibility.        *)

module Bench_log = Th_metrics.Bench_log

let section name cell_wall_s =
  {
    Bench_log.name;
    jobs = 2;
    cells = 4;
    cell_wall_s;
    render_wall_s = 0.25;
  }

let log sections =
  { Bench_log.jobs = 2; sections; total_wall_s = 10.0; total_cpu_s = 19.0 }

let with_tmp_json f =
  let path = Filename.temp_file "bench_log_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_bench_log_merge_update () =
  with_tmp_json (fun path ->
      (* First run records fig7 and soak... *)
      Bench_log.write ~path (log [ section "fig7" 1.0; section "soak" 2.0 ]);
      (* ...a partial re-run refreshes soak and adds fig8: fig7 must
         survive (the clobbering this layer replaced). *)
      Bench_log.write ~path (log [ section "soak" 5.0; section "fig8" 3.0 ]);
      let names = List.map (fun s -> s.Bench_log.name) in
      let merged = Bench_log.read_sections path in
      Alcotest.(check (list string))
        "kept sections in place, new ones appended"
        [ "fig7"; "soak"; "fig8" ] (names merged);
      let soak = List.nth merged 1 in
      Alcotest.(check (float 1e-6))
        "re-run section updated in place" 5.0 soak.Bench_log.cell_wall_s;
      (* [write] renames a temp sibling over the target; none may stay. *)
      let base = Filename.basename path in
      let strays =
        List.filter
          (fun f ->
            (not (String.equal f base)) && String.starts_with ~prefix:base f)
          (Array.to_list (Sys.readdir (Filename.dirname path)))
      in
      Alcotest.(check (list string)) "no temp sibling left behind" [] strays)

let test_bench_log_v1_compat () =
  with_tmp_json (fun path ->
      let oc = open_out path in
      output_string oc
        {|{
  "schema": "teraheap-bench-harness/1",
  "jobs": 3,
  "total_wall_s": 2.0,
  "total_cpu_s": 2.0,
  "sections": [
    { "name": "fig7", "wall_s": 1.5, "cpu_s": 1.4 }
  ]
}|};
      close_out oc;
      match Bench_log.read_sections path with
      | [ s ] ->
          Alcotest.(check string) "name" "fig7" s.Bench_log.name;
          Alcotest.(check int) "jobs falls back to the top level" 3
            s.Bench_log.jobs;
          Alcotest.(check (float 1e-6))
            "v1 wall_s lands in cell_wall_s" 1.5 s.Bench_log.cell_wall_s;
          Alcotest.(check (float 1e-6)) "no render time in v1" 0.0
            s.Bench_log.render_wall_s
      | other ->
          Alcotest.failf "expected one section, got %d" (List.length other))

let test_bench_log_speedups () =
  let t = log [ section "a" 20.0; section "b" 9.5 ] in
  (* serial equivalent = 20 + 9.5 + 2 * 0.25 = 30; wall = 10. *)
  Alcotest.(check (float 1e-6))
    "measured speedup = serial-equivalent / wall" 3.0
    (Bench_log.speedup_vs_serial_measured t);
  Alcotest.(check (float 1e-6))
    "estimated speedup = cpu / wall" 1.9
    (Bench_log.speedup_vs_serial_est t)

let test_bench_log_unparsable () =
  with_tmp_json (fun path ->
      let oc = open_out path in
      output_string oc "not json at all {";
      close_out oc;
      Alcotest.(check int)
        "unparsable file yields no sections" 0
        (List.length (Bench_log.read_sections path));
      (* The next write starts fresh instead of failing. *)
      Bench_log.write ~path (log [ section "fig7" 1.0 ]);
      Alcotest.(check int) "write recovers" 1
        (List.length (Bench_log.read_sections path)))

let test_bench_log_parse_sections_total () =
  (* Well-formed document: sections come back under Ok. *)
  (match
     Bench_log.parse_sections
       {|{ "jobs": 2, "sections": [ { "name": "fig7", "wall_s": 1.0 } ] }|}
   with
  | Ok [ s ] -> Alcotest.(check string) "name" "fig7" s.Bench_log.name
  | Ok other -> Alcotest.failf "expected one section, got %d" (List.length other)
  | Error e -> Alcotest.failf "well-formed document rejected: %s" e);
  (* No sections is Ok [], not an error. *)
  (match Bench_log.parse_sections {|{ "jobs": 2 }|} with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "sections invented out of nothing"
  | Error e -> Alcotest.failf "sectionless document rejected: %s" e);
  (* Malformed input returns a positioned Error — never raises. *)
  match Bench_log.parse_sections {|{ "jobs": |} with
  | Ok _ -> Alcotest.fail "malformed document accepted"
  | Error e ->
      Alcotest.(check bool) "error names an offset" true
        (let rec has i =
           i + 6 <= String.length e
           && (String.sub e i 6 = "offset" || has (i + 1))
         in
         has 0)

let suite =
  [
    Alcotest.test_case "cdf points sorted" `Quick test_cdf_points_sorted;
    Alcotest.test_case "cdf handles empty input" `Quick test_cdf_empty;
    Alcotest.test_case "cdf fraction_at_or_below" `Quick test_cdf_fraction;
    QCheck_alcotest.to_alcotest prop_cdf_monotone;
    Alcotest.test_case "first_total skips OOM rows" `Quick
      test_first_total_skips_oom;
    Alcotest.test_case "speedup" `Quick test_speedup;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
    Alcotest.test_case "csv breakdown rows" `Quick test_csv_breakdown_row;
    Alcotest.test_case "bench log merge-updates by section" `Quick
      test_bench_log_merge_update;
    Alcotest.test_case "bench log reads schema-1 files" `Quick
      test_bench_log_v1_compat;
    Alcotest.test_case "bench log speedup arithmetic" `Quick
      test_bench_log_speedups;
    Alcotest.test_case "bench log survives unparsable files" `Quick
      test_bench_log_unparsable;
    Alcotest.test_case "bench log parse_sections is total" `Quick
      test_bench_log_parse_sections_total;
  ]
