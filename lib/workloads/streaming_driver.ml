open Th_sim
module Runtime = Th_psgc.Runtime
module Obj_ = Th_objmodel.Heap_object
module Device = Th_device.Device
module Serializer = Th_serde.Serializer
module Monitor = Th_resilience.Monitor

type profile = {
  name : string;
  seed : int64;
  batches : int;
  batch_interval_ns : float;
  events_bytes_per_batch : int;
  window : int;
  state_bytes_per_batch : int;
  elems_per_batch : int;
  churn_updates_per_batch : int;
  reads_per_batch : int;
  h1_gb : int;
  dr2_gb : int;
}

let smoke =
  {
    name = "smoke";
    seed = 11L;
    batches = 40;
    batch_interval_ns = 50e6;
    events_bytes_per_batch = Size.kib 256;
    window = 8;
    state_bytes_per_batch = Size.kib 128;
    elems_per_batch = 16;
    churn_updates_per_batch = 4;
    reads_per_batch = 4;
    h1_gb = 2;
    dr2_gb = 1;
  }

(* 2000 batches x 5 simulated seconds of interval = ~2.8 simulated hours
   of service time; the window retains 64 batches (~8 MiB of operator
   state at paper scale), enough live old-generation data to make every
   major GC a real move-to-H2 decision. *)
let soak =
  {
    name = "soak";
    seed = 1031L;
    batches = 2000;
    batch_interval_ns = 5e9;
    events_bytes_per_batch = Size.kib 512;
    window = 64;
    state_bytes_per_batch = Size.kib 128;
    elems_per_batch = 16;
    churn_updates_per_batch = 8;
    reads_per_batch = 8;
    h1_gb = 12;
    dr2_gb = 2;
  }

let by_name = function
  | "smoke" -> Some smoke
  | "soak" -> Some soak
  | _ -> None

(* One retained batch of operator state. [On_heap] groups live in
   H1/H2 under GC management; [Serialized] groups were routed off-heap
   by the breaker and exist only as a byte stream on the device, plus
   [Deferred] groups that could not serialize (their closure contains
   JVM metadata) and simply wait in H1. *)
type slot =
  | On_heap of { root : Obj_.t; batch : int }
  | Serialized of { ser : Serializer.serialized; batch : int }

(* Every 7th batch captures an operator closure (JVM metadata) in its
   state group: that group can never take the serialize fallback, so an
   Open breaker must defer it in H1 — both fallback arms stay exercised. *)
let unserializable_every = 7

let stream_instant rt ~name args =
  let clock = Runtime.clock rt in
  match Clock.tracer clock with
  | None -> ()
  | Some tr ->
      Th_trace.Recorder.instant tr ~ts:(Clock.now_ns clock) ~cat:"stream"
        ~name ~args ()

(* Lineage recomputation cost, as in Block_manager. *)
let recompute_compute_factor = 3.0

let run ?h2_device ?faults ?monitor ~label rt (p : profile) =
  let prng = Prng.create p.seed in
  let chunk = Size.kib 64 in
  let window : slot option array = Array.make (max 1 p.window) None in
  let alive = ref 0 in
  try
    for batch = 0 to p.batches - 1 do
      (* Ingest: a burst of transient event records, dead by the end of
         the batch (young garbage), plus the per-event compute. *)
      for _ = 1 to p.events_bytes_per_batch / chunk do
        ignore (Runtime.alloc rt ~size:chunk ())
      done;
      Runtime.compute rt ~bytes:p.events_bytes_per_batch;

      (* Build this batch's state group: a root holding the windowed
         aggregation elements. *)
      let elems = max 1 p.elems_per_batch in
      let elem_size = max 64 (p.state_bytes_per_batch / elems) in
      let root = Runtime.alloc rt ~size:256 () in
      Runtime.add_root rt root;
      for i = 1 to elems - 1 do
        let kind =
          if
            unserializable_every > 0
            && batch mod unserializable_every = unserializable_every - 1
            && i = 1
          then Obj_.Jvm_metadata
          else Obj_.Data
        in
        let o = Runtime.alloc rt ~kind ~size:elem_size () in
        Runtime.write_ref rt root o
      done;

      (* Route the group: the nominal path tags it for move-to-H2 at the
         next major GC; with the circuit Open the batch goes to the
         serialize-to-offheap fallback, or stays deferred in H1 when its
         closure cannot serialize. *)
      let slot =
        match monitor with
        | Some m when not (Monitor.h2_allowed m) -> (
            match Serializer.serialize rt root with
            | Ok ser ->
                Monitor.note_fallback m ~bytes:ser.Serializer.bytes;
                stream_instant rt ~name:"batch_offheap"
                  [
                    ("batch", Th_trace.Event.Int batch);
                    ("bytes", Th_trace.Event.Int ser.Serializer.bytes);
                  ];
                (match h2_device with
                | Some d ->
                    Device.write d ~cat:Clock.Serde_io ~random:false
                      ser.Serializer.bytes
                | None -> ());
                (* The heap copy is dropped: garbage at the next GC. *)
                Runtime.remove_root rt root;
                Serialized { ser; batch }
            | Error _ ->
                Monitor.note_deferred m;
                stream_instant rt ~name:"batch_deferred"
                  [ ("batch", Th_trace.Event.Int batch) ];
                On_heap { root; batch })
        | _ ->
            (* Site 0: every batch root is the same logical allocation
               site even though each gets a fresh batch-numbered label. *)
            Runtime.h2_tag_root rt ~site:0 root ~label:batch;
            Runtime.h2_move rt ~label:batch;
            On_heap { root; batch }
      in

      (* Expire the oldest batch, then retain this one. *)
      let idx = batch mod Array.length window in
      (match window.(idx) with
      | Some (On_heap { root; _ }) ->
          Runtime.remove_root rt root;
          decr alive
      | Some (Serialized _) -> decr alive
      | None -> ());
      window.(idx) <- Some slot;
      incr alive;

      (* Slow churn: in-place updates against random retained batches —
         read-modify-writes once the victim has moved to H2 (§7.2). *)
      for _ = 1 to p.churn_updates_per_batch do
        match window.(Prng.int prng (Array.length window)) with
        | Some (On_heap { root; _ }) -> Runtime.update_obj rt root
        | Some (Serialized _) | None -> ()
      done;

      (* Serve point reads against the window. Serialized batches pay a
         checked device read plus deserialization; a read that exhausts
         its retries (or trips the watchdog) fails over to lineage
         recomputation, as in Block_manager. *)
      for _ = 1 to p.reads_per_batch do
        match window.(Prng.int prng (Array.length window)) with
        | Some (On_heap { root; _ }) -> Runtime.read_obj rt root
        | Some (Serialized { ser; _ }) ->
            let group =
              match h2_device with
              | None -> Serializer.deserialize rt ser
              | Some d -> (
                  match
                    Device.read_checked d ~cat:Clock.Serde_io ~random:false
                      ser.Serializer.bytes
                  with
                  | Ok () -> Serializer.deserialize rt ser
                  | Error _ ->
                      (match faults with
                      | Some f -> Fault.note_recompute f
                      | None -> ());
                      stream_instant rt ~name:"recompute"
                        [ ("bytes", Th_trace.Event.Int ser.Serializer.bytes) ];
                      Runtime.compute rt
                        ~bytes:
                          (int_of_float
                             (recompute_compute_factor
                             *. float_of_int ser.Serializer.bytes));
                      Serializer.rebuild rt ser)
            in
            Runtime.remove_root rt group
        | None -> ()
      done;

      (* Idle to the next batch boundary: this is what stretches the run
         to service horizons, and what lets breaker cooldowns elapse. *)
      Clock.advance (Runtime.clock rt) Clock.Other p.batch_interval_ns;
      match monitor with Some m -> Monitor.sample m | None -> ()
    done;
    Run_result.ok ~label rt ?h2_device ?faults ?monitor ()
  with
  | Runtime.Out_of_memory reason ->
      Run_result.oom ~reason ?h2_device ?faults ?monitor ~label rt
