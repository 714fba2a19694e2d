(* Wall-clock perf tracker for the benchmark harness: records per-section
   and total wall/CPU time plus the worker count, and serialises them to
   BENCH_harness.json so the harness's own performance trajectory is
   versioned alongside the simulation results.

   Schema 2: every section is stamped with the jobs count it actually
   ran at, its cell count, the summed per-cell wall time (the
   serial-equivalent cost measured inside the scheduler) and its render
   time; the top level carries a *measured* speedup-vs-serial —
   serial-equivalent seconds over actual wall seconds — next to the
   older cpu/wall estimate. [write] merge-updates the existing file:
   sections are keyed by name, so `bench soak` refreshes the soak entry
   without clobbering the sections a previous full run recorded. *)

type section = {
  name : string;
  jobs : int;
  cells : int;
  cell_wall_s : float;  (* summed per-cell wall time: serial-equivalent *)
  render_wall_s : float;
}

type t = {
  jobs : int;
  sections : section list;
  total_wall_s : float;
  total_cpu_s : float;
}

module Json = Th_json.Json

let schema = "teraheap-bench-harness/2"

let default_path = "BENCH_harness.json"

let section_wall_s s = s.cell_wall_s +. s.render_wall_s

(* Serial-equivalent seconds of this run: what the same cells plus
   renders cost end to end, summed as if executed back to back. *)
let serial_equiv_s t =
  List.fold_left (fun acc s -> acc +. section_wall_s s) 0.0 t.sections

(* Measured speedup: serial-equivalent over actual wall. Unlike the
   cpu/wall estimate below, both terms are monotonic-clock measurements
   of this very run, so scheduler idle time and domain spawn overhead
   show up honestly. *)
let speedup_vs_serial_measured t =
  if t.total_wall_s > 0.0 then serial_equiv_s t /. t.total_wall_s else 1.0

(* [Sys.time] sums CPU time over every domain, so on a CPU-bound harness
   it approximates what a serial run would need in wall time; the ratio
   to actual wall time estimates the speedup. Kept for continuity with
   schema 1. *)
let speedup_vs_serial_est t =
  if t.total_wall_s > 0.0 then t.total_cpu_s /. t.total_wall_s else 1.0

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

(* A non-finite reading (zero wall time) prints as 0.0 so the document
   stays valid JSON. *)
let num f =
  Json.Number (if Float.is_finite f then Printf.sprintf "%.6f" f else "0.0")

let int n = Json.Number (string_of_int n)

let to_json_sections t ~sections =
  let section s =
    Json.Object
      [
        ("name", Json.String s.name);
        ("jobs", int s.jobs);
        ("cells", int s.cells);
        ("cell_wall_s", num s.cell_wall_s);
        ("render_wall_s", num s.render_wall_s);
        ("wall_s", num (section_wall_s s));
      ]
  in
  Json.to_string
    (Json.Object
       [
         ("schema", Json.String schema);
         ("jobs", int t.jobs);
         ("total_wall_s", num t.total_wall_s);
         ("total_cpu_s", num t.total_cpu_s);
         ("serial_equiv_s", num (serial_equiv_s t));
         ("speedup_vs_serial_measured", num (speedup_vs_serial_measured t));
         ("speedup_vs_serial_est", num (speedup_vs_serial_est t));
         ("sections", Json.Array (List.map section sections));
       ])

let to_json t = to_json_sections t ~sections:t.sections

(* Accept both schema 1 ({ name, wall_s, cpu_s }, jobs only at the top
   level) and schema 2 sections. *)
let sections_of_json j =
  let int_at key v = Option.bind (Json.member key v) Json.to_int in
  let float_at key v = Option.bind (Json.member key v) Json.to_float in
  let top_jobs = Option.value ~default:1 (int_at "jobs" j) in
  match Json.member "sections" j with
  | Some (Json.Array items) ->
      List.filter_map
        (fun item ->
          match Json.member "name" item with
          | Some (Json.String name) ->
              let f key ~fallback =
                Option.value ~default:fallback (float_at key item)
              in
              Some
                {
                  name;
                  jobs = Option.value ~default:top_jobs (int_at "jobs" item);
                  cells = Option.value ~default:0 (int_at "cells" item);
                  cell_wall_s =
                    f "cell_wall_s" ~fallback:(f "wall_s" ~fallback:0.0);
                  render_wall_s = f "render_wall_s" ~fallback:0.0;
                }
          | _ -> None)
        items
  | _ -> []

let parse_sections contents =
  Result.map sections_of_json (Json.of_string contents)

let read_sections path =
  match
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))
    end
    else None
  with
  | None -> []
  | Some contents -> (
      match parse_sections contents with Ok sections -> sections | Error _ -> [])
  | exception Sys_error _ -> []

(* Sections from [previous] that this run did not re-record keep their
   old entry and relative order; re-run sections are updated in place
   and new ones are appended in run order. *)
let merge ~previous current =
  let kept_or_updated =
    List.map
      (fun old ->
        match List.find_opt (fun s -> s.name = old.name) current with
        | Some updated -> updated
        | None -> old)
      previous
  in
  let appended =
    List.filter (fun s -> not (List.exists (fun o -> o.name = s.name) previous))
      current
  in
  kept_or_updated @ appended

(* The document goes to a temp sibling that is then renamed over
   [path]: a rename within one directory is atomic, so two concurrent
   bench runs never leave a torn file behind. *)
let write ?(path = default_path) t =
  let previous = read_sections path in
  let merged = merge ~previous t.sections in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      output_string oc (to_json_sections t ~sections:merged);
      close_out oc;
      Sys.rename tmp path)
