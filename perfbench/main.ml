(* Host-time benchmark of the simulator.

     dune exec --root . ./perfbench/main.exe -- --workload NAME \
       [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
     dune exec --root . ./perfbench/main.exe -- --self-test

   One invocation measures one workload (see Subjects.all) in its own
   process. It runs one untimed warm-up and times whole simulated runs
   until [--seconds] have passed (at least [min_runs]); between runs,
   [setup_children] child processes each set the system up [setup_reps]
   times, and the median of their median set-up times is reported.
   Host times are scaled by a calibration loop run next to them in a
   child process of its own (see [calibrate]). Every run's simulated
   results are checked against a digest; the last stdout line is one
   JSON object with [correct], [attempted], [failed] and the metrics,
   and the line before it gives the unscaled medians. With [--trace 1]
   untraced and traced runs alternate and the per-layer metrics are
   reported instead; the traced runs' spans are written to [--spans]
   when the benchmark ends. [--self-test] runs the self-checks on the
   two fastest workloads. See NOTES.md. *)

(* Sys.time measures CPU time for cpu_s and the calibration; host time
   never feeds a simulated result, which all come from Th_sim.Clock. *)
[@@@th.allow "wall-clock"]

module Wall = Th_exec.Wall
module Rt = Th_psgc.Rt
module Run_result = Th_workloads.Run_result
module Gc_stats = Th_psgc.Gc_stats
module H2 = Th_core.H2
module Device = Th_device.Device
module Page_cache = Th_device.Page_cache
module Monitor = Th_resilience.Monitor
module Fault = Th_sim.Fault

let setup_reps = 51

let setup_children = 15

let min_runs = 3

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- calibration ---- *)

(* The host's speed drifts: over a few minutes the same spark-th-pr run
   of the same binary took anywhere from 0.32 to 0.47 s, in CPU time as
   much as in wall time, and the drift moves every run of an invocation
   together. A fixed loop that does not use the simulator measures that
   speed between runs; a run's host times are scaled by
   [reference_cal_s] over the mean loop time just before and just after
   it. They are reported at the speed at which the loop takes
   [reference_cal_s], about what it took on an idle 2-vCPU Xeon at
   2.0 GHz. *)
let reference_cal_s = 0.15

(* Wall and CPU seconds the loop took. *)
let calibration_loop () =
  Gc.full_major ();
  let c0 = Sys.time () and t0 = Wall.now_ns () in
  let h = Hashtbl.create 16 in
  for i = 0 to 200_000 do
    Hashtbl.replace h (i * 7919) i
  done;
  let a = Array.init 200_000 (fun i -> i * 7919 mod 100_003) in
  Array.sort Int.compare a;
  ignore (Sys.opaque_identity (List.rev (List.init 300_000 Fun.id), h, a));
  (Int64.to_float (Int64.sub (Wall.now_ns ()) t0) /. 1e9, Sys.time () -. c0)

(* The first number on the [key] line of /proc/self/status. *)
let status_int key =
  let prefix = key ^ ":" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line -> (
            let n = String.length prefix in
            let rest = String.sub line n (String.length line - n) in
            match Scanf.sscanf rest " %d" Fun.id with
            | v -> Some v
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                None)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* The host's vCPUs drift apart in speed: unpinned, a loop in another
   process hardly tracked the run it was meant to scale (correlation
   0.12-0.20), pinned to the run's CPU it did (0.40-0.68). So the
   benchmark pins itself, and with it every child it starts, to the
   first CPU it may use. Without [taskset] it runs unpinned. *)
let pin_to_one_cpu () =
  let cpu = Option.value ~default:0 (status_int "Cpus_allowed_list") in
  let args =
    [| "taskset"; "-p"; "-c"; string_of_int cpu;
       string_of_int (Unix.getpid ()) |]
  in
  let pinned =
    match
      Unix.create_process "taskset" args Unix.stdin Unix.stderr Unix.stderr
    with
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> true
        | _ -> false)
    | exception Unix.Unix_error _ -> false
  in
  if not pinned then
    prerr_endline "perfbench: could not pin to one CPU; running unpinned"

(* The loop runs in a child process ([--calibrator]) whose heap holds
   nothing but the loop's own data and whose GC settings are fixed here,
   so neither the simulator's heap nor a GC setting made by a simulator
   library reaches the scale factor. For each line it reads, a count n,
   the child runs the loop n times and answers with the mean wall and
   CPU seconds; the parent waits for the answer, so the two never run
   at once. *)
let serve_calibration () =
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let rec serve () =
    match Option.map int_of_string_opt (In_channel.input_line stdin) with
    | None -> ()
    | Some n ->
        let n = max 1 (Option.value ~default:1 n) in
        let loops = List.init n (fun _ -> calibration_loop ()) in
        let sum f = List.fold_left (fun acc l -> acc +. f l) 0.0 loops in
        Printf.printf "%.17g %.17g\n%!" (sum fst /. float n)
          (sum snd /. float n);
        serve ()
  in
  serve ()

type calibrator = in_channel * out_channel

let with_calibrator f =
  let exe = Sys.executable_name in
  let cal = Unix.open_process_args exe [| exe; "--calibrator" |] in
  Fun.protect
    ~finally:(fun () -> ignore (Unix.close_process cal))
    (fun () -> f cal)

(* Mean wall and CPU seconds of [loops] loops in the calibrator. *)
let calibrate ?(loops = 1) ((ic, oc) : calibrator) =
  Printf.fprintf oc "%d\n%!" loops;
  match In_channel.input_line ic with
  | Some line -> Scanf.sscanf line "%f %f" (fun w c -> (w, c))
  | None -> failwith "perfbench: the calibration process ended"

(* ---- one run ---- *)

type run = {
  snap : Subjects.snapshot;
  wall_s : float;  (** host times as measured *)
  cpu_s : float;
  scale : float * float;
      (** factors that scale wall and CPU times, set in [measure] *)
  alloc_words : float;
  host_minor : int;
  host_major : int;
  hook_kept : bool;  (** the run left [safepoint_hook] as it found it *)
  gc_self_s : float * float;  (** traced runs: minor, major self time *)
}

(* A GC span: [parent] is the enclosing GC span's id, or 0 (the run). *)
type span = {
  run_id : int;
  id : int;
  parent : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
}

let spans : span list ref = ref []

type frame = {
  f_id : int;
  f_name : string;
  f_start : int64;
  mutable child_ns : int64;  (** time covered by nested GC spans *)
}

(* Chain a host-clock hook behind the installed one: it runs after the
   previous hook at Before_* and before it at After_*, so a GC span
   covers the collector and not the other observers. Self times
   (span minus nested GC spans) accumulate into [minor] and [major]. *)
let install_probe (rt : Rt.t) ~run_id =
  let prev = rt.Rt.safepoint_hook in
  let call_prev p = match prev with Some f -> f p | None -> () in
  let minor = ref 0L and major = ref 0L in
  let stack = ref [] and next_id = ref 1 in
  let enter name =
    stack :=
      {
        f_id = !next_id;
        f_name = name;
        f_start = Wall.now_ns ();
        child_ns = 0L;
      }
      :: !stack;
    incr next_id
  in
  let leave total =
    let stop = Wall.now_ns () in
    match !stack with
    | [] -> ()
    | fr :: rest ->
        stack := rest;
        let dur = Int64.sub stop fr.f_start in
        total := Int64.add !total (Int64.sub dur fr.child_ns);
        let parent =
          match rest with
          | up :: _ ->
              up.child_ns <- Int64.add up.child_ns dur;
              up.f_id
          | [] -> 0
        in
        spans :=
          {
            run_id;
            id = fr.f_id;
            parent;
            name = fr.f_name;
            start_ns = fr.f_start;
            end_ns = stop;
          }
          :: !spans
  in
  rt.Rt.safepoint_hook <-
    Some
      (function
      | Rt.Before_minor as p ->
          call_prev p;
          enter "psgc.minor"
      | Rt.Before_major as p ->
          call_prev p;
          enter "psgc.major"
      | Rt.After_minor as p ->
          leave minor;
          call_prev p
      | Rt.After_major as p ->
          leave major;
          call_prev p);
  fun () ->
    rt.Rt.safepoint_hook <- prev;
    (Int64.to_float !minor /. 1e9, Int64.to_float !major /. 1e9)

(* Median unscaled set-up time. A full major GC before each set-up
   frees the previous system, so after the first few set-ups reuse
   memory already faulted in and the median times the set-up code, not
   page faults. *)
let setup_median (w : Subjects.t) ~seed =
  median
    (List.init setup_reps (fun _ ->
         Gc.full_major ();
         let t0 = Wall.now_ns () in
         ignore (Sys.opaque_identity (w.Subjects.setup ~seed));
         Int64.to_float (Int64.sub (Wall.now_ns ()) t0) /. 1e9))

(* [setup_median] in a fresh child process, so the parent's heap does
   not change the set-ups. *)
let setup_in_child (w : Subjects.t) ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--setup-only"; "--workload"; w.Subjects.name;
         "--seed"; string_of_int seed |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some v -> v
  | _ -> failwith "perfbench: the set-up child process failed"

(* Each run starts from a collected host heap, as a fresh process
   would, so one run's garbage is not charged to the next and peak RSS
   stays that of a single run. *)
let run_once ?run_id (w : Subjects.t) ~seed =
  Gc.full_major ();
  let sys = w.Subjects.setup ~seed in
  let hook = sys.Subjects.rt.Rt.safepoint_hook in
  let uninstall =
    match run_id with
    | Some run_id -> install_probe sys.Subjects.rt ~run_id
    | None -> fun () -> (0.0, 0.0)
  in
  let g0 = Gc.quick_stat () in
  let c0 = Sys.time () in
  let t0 = Wall.now_ns () in
  let result = sys.Subjects.run () in
  let t1 = Wall.now_ns () in
  let c1 = Sys.time () in
  let g1 = Gc.quick_stat () in
  Option.iter
    (fun run_id ->
      spans :=
        { run_id; id = 0; parent = -1; name = "run"; start_ns = t0;
          end_ns = t1 }
        :: !spans)
    run_id;
  let gc_self_s = uninstall () in
  let words (s : Gc.stat) =
    s.minor_words +. s.major_words -. s.promoted_words
  in
  {
    snap = Subjects.snapshot sys result;
    wall_s = Int64.to_float (Int64.sub t1 t0) /. 1e9;
    cpu_s = c1 -. c0;
    scale = (1.0, 1.0);
    alloc_words = words g1 -. words g0;
    host_minor = g1.minor_collections - g0.minor_collections;
    host_major = g1.major_collections - g0.major_collections;
    hook_kept = sys.Subjects.rt.Rt.safepoint_hook == hook;
    gc_self_s;
  }

(* ---- checks ---- *)

type checker = {
  w : Subjects.t;
  mutable digest : string option;
      (** the reference, or the first run's digest on a held-out seed *)
  mutable monitor_ref : Monitor.summary option;
      (** the first untraced run's monitor summary *)
  mutable attempted : int;
  mutable failed : int;
}

let checker (w : Subjects.t) ~seed =
  let reference =
    if seed = Subjects.default_seed || not w.Subjects.seeded then
      Some w.Subjects.reference
    else None
  in
  { w; digest = reference; monitor_ref = None; attempted = 0; failed = 0 }

let fail ck fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perfbench: %s: %s\n%!" ck.w.Subjects.name msg;
      false)
    fmt

(* The self-checks every run must pass: expected outcome, the same
   digest as the reference (or, on a held-out seed, as the first run),
   the hook left as found, GC self time within the run, and the same
   monitor summary as the first run. The first run is the untraced
   warm-up, so every traced run is compared against an untraced one. *)
let check ck r =
  let outcome = r.snap.Subjects.result.Run_result.outcome in
  let outcome_ok =
    outcome = ck.w.Subjects.expected
    || fail ck "outcome %s, expected %s"
         (Subjects.outcome_name outcome)
         (Subjects.outcome_name ck.w.Subjects.expected)
  in
  let d = r.snap.Subjects.digest in
  let digest_ok =
    match ck.digest with
    | None ->
        ck.digest <- Some d;
        true
    | Some want ->
        String.equal d want || fail ck "digest %s, expected %s" d want
  in
  let hook_ok = r.hook_kept || fail ck "the run replaced safepoint_hook" in
  let minor, major = r.gc_self_s in
  let gc_ok =
    minor +. major <= r.wall_s
    || fail ck "GC host time %.6f s exceeds run wall %.6f s" (minor +. major)
         r.wall_s
  in
  let monitor_ok =
    match r.snap.Subjects.summary with
    | None -> true
    | Some s -> (
        match ck.monitor_ref with
        | None ->
            ck.monitor_ref <- Some s;
            true
        | Some m ->
            (* Monitor.summary has no typed equality; it is plain data
               without closures, so structural compare is exact. *)
            ((compare s m) [@th.allow "poly-compare"]) = 0
            || fail ck "monitor summary differs from the untraced run's")
  in
  outcome_ok && digest_ok && hook_ok && gc_ok && monitor_ok

let attempt ck ~seed ?run_id () =
  ck.attempted <- ck.attempted + 1;
  match run_once ?run_id ck.w ~seed with
  | r when check ck r ->
      Printf.eprintf "perfbench: %s run %d%s: wall %.4f s, cpu %.4f s\n%!"
        ck.w.Subjects.name ck.attempted
        (if Option.is_some run_id then " (traced)" else "")
        r.wall_s r.cpu_s;
      Some r
  | _ ->
      ck.failed <- ck.failed + 1;
      None
  | exception e ->
      ck.failed <- ck.failed + 1;
      ignore (fail ck "run raised %s" (Printexc.to_string e));
      None

(* ---- measurement ---- *)

let peak_rss_mb () =
  Option.fold ~none:0.0
    ~some:(fun kb -> float_of_int kb /. 1024.0)
    (status_int "VmHWM")

type measured = {
  peak_rss_mb : float;  (** after the warm-up: the peak of one run *)
  untraced : run list;
  traced : run list;
  overheads_s : float list;
      (** per round: scaled traced wall minus the round's untraced wall *)
  setups_s : float list;  (** scaled median set-up time of each child *)
}

let wall r = r.wall_s *. fst r.scale

let cpu r = r.cpu_s *. snd r.scale

(* Warm up once, then run until [seconds] have passed: at least
   [min_runs] untraced runs, and with [trace] an untraced and a traced
   run in each round, at least one round. A round starts only if the
   last one would still fit in the time left.

   Without [trace] each round also starts some of the [setup_children]
   set-up children, as many as spread them over the rounds that the
   warm-up's length says will fit; any left over start after the last
   round. The set-up time drifts over tens of seconds, from CPU to CPU
   and from process to process by up to 1.6x, more than the
   calibration follows; spread over the rounds, the children's median
   is steadier than that of children started back to back. *)
let measure ck cal ~seed ~seconds ~trace =
  let warm_up = attempt ck ~seed () in
  let peak_rss_mb = peak_rss_mb () in
  let before = ref (calibrate cal) in
  (* A run between calibrations [before] and [after]. A run averages the
     host's speed over its whole length, two short loops only sample
     it; so the calibration after a run lasts about a tenth of it. *)
  let timed ?run_id () =
    let r = attempt ck ~seed ?run_id () in
    let loops =
      Option.fold ~none:1
        ~some:(fun r -> int_of_float (0.1 *. r.wall_s /. reference_cal_s))
        r
    in
    let after = calibrate ~loops cal in
    let k sel = reference_cal_s /. ((sel !before +. sel after) /. 2.0) in
    let scale = (k fst, k snd) in
    before := after;
    Printf.eprintf "perfbench: scale %.4f\n%!" (fst scale);
    Option.map (fun r -> { r with scale }) r
  in
  (* A set-up child between calibrations, scaled like a run. *)
  let timed_setup () =
    let v = setup_in_child ck.w ~seed in
    let after = calibrate cal in
    let k = reference_cal_s /. ((fst !before +. fst after) /. 2.0) in
    before := after;
    v *. k
  in
  let setups_wanted = if trace then 0 else setup_children in
  let per_round =
    let rounds =
      Option.fold ~none:1
        ~some:(fun r -> int_of_float (seconds /. Float.max r.wall_s 1e-3))
        warm_up
    in
    (setups_wanted + max 1 rounds - 1) / max 1 rounds
  in
  let deadline = Wall.now_s () +. seconds in
  let min_rounds = if trace then 1 else min_runs in
  let rec loop round last untraced traced overheads setups =
    if round >= min_rounds && Wall.now_s () +. last > deadline then
      {
        peak_rss_mb;
        untraced = List.rev untraced;
        traced = List.rev traced;
        overheads_s = overheads;
        setups_s =
          setups
          @ List.init
              (setups_wanted - List.length setups)
              (fun _ -> timed_setup ());
      }
    else
      let t0 = Wall.now_s () in
      let u = timed () in
      let t = if trace then timed ~run_id:(round + 1) () else None in
      let cons o l = match o with Some r -> r :: l | None -> l in
      let overheads =
        match (u, t) with
        | Some u, Some t -> (wall t -. wall u) :: overheads
        | _ -> overheads
      in
      let setups =
        List.init
          (min per_round (setups_wanted - List.length setups))
          (fun _ -> timed_setup ())
        @ setups
      in
      loop (round + 1) (Wall.elapsed_s ~since:t0) (cons u untraced)
        (cons t traced) overheads setups
  in
  loop 0 0.0 [] [] [] []

(* ---- metrics ---- *)

type value = Float of float | Int of int

let end_to_end m =
  let med f = median (List.map f m.untraced) in
  [
    ("wall_s", Float (med wall), "s");
    ("cpu_s", Float (med cpu), "s");
    ("setup_s", Float (median m.setups_s), "s");
    ("peak_rss_mb", Float m.peak_rss_mb, "MB");
  ]

(* Metrics of the traced runs. Host times are scaled medians over the
   traced runs; simulated quantities repeat exactly from run to run (the digest
   checks it), so the last traced run supplies them. A layer the
   workload does not have reports zeroes. *)
let per_layer m =
  let med l f = median (List.map f l) in
  let snap = List.fold_left (fun _ r -> Some r.snap) None m.traced in
  let field f = Option.bind snap f in
  let int f o = Option.fold ~none:0 ~some:f o in
  let ns f o = Option.fold ~none:0.0 ~some:f o /. 1e9 in
  let result = Option.map (fun s -> s.Subjects.result) snap in
  let h2 = Option.bind result (fun r -> r.Run_result.h2_stats) in
  let faults = Option.bind result (fun r -> r.Run_result.faults) in
  let summary = field (fun s -> s.Subjects.summary) in
  let pc = field (fun s -> s.Subjects.cache) in
  let phases = Option.map (fun s -> s.Subjects.phases) snap in
  let secs name v = (name, Float v, "s") in
  let count name n = (name, Int n, "count") in
  let bytes name n = (name, Int n, "bytes") in
  let minor_s = med m.traced (fun r -> fst r.gc_self_s *. fst r.scale) in
  let major_s = med m.traced (fun r -> snd r.gc_self_s *. fst r.scale) in
  let minor_n = int (fun r -> r.Run_result.minor_gcs) result in
  let major_n = int (fun r -> r.Run_result.major_gcs) result in
  let per_cycle name s n =
    (name, Float (if n = 0 then 0.0 else s *. 1e3 /. float_of_int n), "ms")
  in
  let device key =
    let d = field (fun s -> List.assoc_opt key s.Subjects.device_stats) in
    let name k = Printf.sprintf "device.%s.%s" key k in
    [
      count (name "read_ops") (int (fun d -> d.Device.read_ops) d);
      count (name "write_ops") (int (fun d -> d.Device.write_ops) d);
      bytes (name "bytes_read") (int (fun d -> d.Device.bytes_read) d);
      bytes (name "bytes_written") (int (fun d -> d.Device.bytes_written) d);
    ]
  in
  let hits = int (fun c -> c.Page_cache.hits) pc in
  let misses = int (fun c -> c.Page_cache.misses) pc in
  let host f = Float (med m.untraced f) in
  [
    secs "psgc.minor.host_s" minor_s;
    secs "psgc.major.host_s" major_s;
    per_cycle "psgc.minor.host_ms_per_cycle" minor_s minor_n;
    per_cycle "psgc.major.host_ms_per_cycle" major_s major_n;
    count "psgc.minor.cycles" minor_n;
    count "psgc.major.cycles" major_n;
    secs "psgc.major.sim_marking_s"
      (ns (fun p -> p.Gc_stats.marking_ns) phases);
    secs "psgc.major.sim_precompact_s"
      (ns (fun p -> p.Gc_stats.precompact_ns) phases);
    secs "psgc.major.sim_adjust_s" (ns (fun p -> p.Gc_stats.adjust_ns) phases);
    secs "psgc.major.sim_compact_s"
      (ns (fun p -> p.Gc_stats.compact_ns) phases);
    secs "workloads.mutator.host_s"
      (med m.traced (fun r ->
           (r.wall_s -. fst r.gc_self_s -. snd r.gc_self_s) *. fst r.scale));
    count "device.page_cache.hits" hits;
    count "device.page_cache.misses" misses;
    count "device.page_cache.evictions"
      (int (fun c -> c.Page_cache.evictions) pc);
    count "device.page_cache.writebacks"
      (int (fun c -> c.Page_cache.writebacks) pc);
    ( "device.page_cache.hit_ratio",
      Float
        (if hits + misses = 0 then 0.0
         else float hits /. float (hits + misses)),
      "ratio" );
  ]
  @ List.concat_map device [ "h2"; "offheap"; "ooc" ]
  @ [
      count "core.h2.moves" (int (fun h -> h.H2.moves_to_h2) h2);
      bytes "core.h2.bytes_moved" (int (fun h -> h.H2.bytes_moved) h2);
      count "core.h2.regions_allocated"
        (int (fun h -> h.H2.regions_allocated) h2);
      count "core.h2.regions_reclaimed"
        (int (fun h -> h.H2.regions_reclaimed) h2);
      bytes "core.h2.readback_bytes" (int (fun h -> h.H2.readback_bytes) h2);
      bytes "core.h2.rmw_bytes" (int (fun h -> h.H2.rmw_bytes) h2);
      secs "core.h2.minor_scan_sim_s"
        (ns (fun h -> h.H2.minor_scan_time_ns) h2);
      secs "serde.sim_s"
        (ns
           (fun b -> b.Th_sim.Clock.serde_io_ns)
           (Option.bind result (fun r -> r.Run_result.breakdown)));
      count "sim.fault.retries" (int (fun f -> f.Fault.retries) faults);
      count "sim.fault.injected"
        (int
           (fun f ->
             f.Fault.read_errors + f.Fault.write_errors + f.Fault.spiked_ops
             + f.Fault.stalls + f.Fault.enospc_rejections)
           faults);
      count "resilience.moves_suppressed"
        (int (fun r -> r.Monitor.moves_suppressed) summary);
      count "resilience.fallback_serializations"
        (int (fun r -> r.Monitor.fallback_serializations) summary);
      secs "resilience.breaker_open_sim_s"
        (ns (fun r -> r.Monitor.time_open_ns) summary);
      count "resilience.slo_violations"
        (int (fun r -> r.Monitor.slo_violations) summary);
      ("host.alloc_mwords", host (fun r -> r.alloc_words /. 1e6), "Mwords");
      ("host.minor_collections", host (fun r -> float r.host_minor), "count");
      ("host.major_collections", host (fun r -> float r.host_major), "count");
      secs "trace.overhead_s" (median m.overheads_s);
    ]

(* ---- output ---- *)

let json_value = function
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "0"

(* The unscaled medians, so that a change in a scaled time can be set
   against the times as measured. *)
let print_raw m =
  let med f = median (List.map f m.untraced) in
  Printf.printf "perfbench: unscaled median wall_s %.6f cpu_s %.6f\n"
    (med (fun r -> r.wall_s))
    (med (fun r -> r.cpu_s))

let print_result ck metrics =
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_value v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ck.failed = 0) ck.attempted ck.failed
    (String.concat ", " body)

let write_spans path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"run\": %d, \"span\": %d, \"parent\": %d, \"name\": %S, \
         \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        sp.run_id sp.id sp.parent sp.name sp.start_ns sp.end_ns)
    (List.rev !spans);
  close_out oc

(* ---- entry points ---- *)

(* Run the traced measurement, which applies every self-check, on the
   two fastest workloads. *)
let self_test () =
  let ok =
    with_calibrator (fun cal ->
        List.for_all
          (fun name ->
            match Subjects.find name with
            | None -> false
            | Some w ->
                let seed = Subjects.default_seed in
                let ck = checker w ~seed in
                ignore (measure ck cal ~seed ~seconds:0.0 ~trace:true);
                Printf.printf "%s: %d runs, %d failed\n" name ck.attempted
                  ck.failed;
                ck.failed = 0)
          [ "spark-th-pr"; "stream-soak" ])
  in
  print_endline (if ok then "self-test: PASS" else "self-test: FAIL");
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref Subjects.default_seed in
  let seconds = ref 10.0 and trace = ref 0 and spans_path = ref "" in
  let mode = ref `Measure in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to measure");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics");
      ("--spans", Arg.Set_string spans_path, "FILE where traced spans go");
      ( "--self-test",
        Arg.Unit (fun () -> mode := `Self_test),
        " run the benchmark's self-checks" );
      ( "--setup-only",
        Arg.Unit (fun () -> mode := `Setup),
        " print the median set-up time (used by the benchmark itself)" );
      ( "--calibrator",
        Arg.Unit (fun () -> mode := `Calibrator),
        " serve calibration loops (used by the benchmark itself)" );
    ]
    (fun a ->
      Printf.eprintf "perfbench: unexpected argument %S\n" a;
      exit 2)
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let seed = !seed in
  (match !mode with
  | `Measure | `Self_test -> pin_to_one_cpu ()
  | `Setup | `Calibrator -> ());
  match (!mode, Subjects.find !workload) with
  | `Self_test, _ -> self_test ()
  | `Calibrator, _ -> serve_calibration ()
  | _, None ->
      Printf.eprintf "perfbench: unknown workload %S; known: %s\n" !workload
        (String.concat ", " (List.map (fun w -> w.Subjects.name) Subjects.all));
      exit 2
  | `Setup, Some w -> Printf.printf "%.17g\n" (setup_median w ~seed)
  | `Measure, Some w when !trace = 1 ->
      let ck = checker w ~seed in
      let m =
        with_calibrator (fun cal ->
            measure ck cal ~seed ~seconds:!seconds ~trace:true)
      in
      write_spans
        (if !spans_path <> "" then !spans_path
         else
           Printf.sprintf "perfbench/_out/spans-%s-%d.jsonl" w.Subjects.name
             seed);
      print_result ck (per_layer m)
  | `Measure, Some w ->
      let ck = checker w ~seed in
      let m =
        with_calibrator (fun cal ->
            measure ck cal ~seed ~seconds:!seconds ~trace:false)
      in
      print_raw m;
      print_result ck (end_to_end m)
