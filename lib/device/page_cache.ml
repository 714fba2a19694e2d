type stats = { hits : int; misses : int; evictions : int; writebacks : int }

type node = {
  page : int;
  mutable dirty : bool;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  device : Device.t;
  clock : Th_sim.Clock.t;
  page_size : int;
  capacity : int;  (* pages *)
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable last_miss_page : int;  (* readahead stream detection *)
}

let create ?page_size ~capacity_bytes clock device =
  let page_size =
    match page_size with Some p -> p | None -> Device.page_size device
  in
  if page_size <= 0 then invalid_arg "Page_cache.create: page_size";
  let capacity = max 1 (capacity_bytes / page_size) in
  {
    device;
    clock;
    page_size;
    capacity;
    table = Hashtbl.create 4096;
    head = None;
    tail = None;
    resident = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    last_miss_page = min_int;
  }

let page_size t = t.page_size

let device t = t.device

let capacity_pages t = t.capacity

(* Doubly-linked LRU list maintenance. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch_lru t n =
  (* [t.head != Some n] was always true — physical inequality against a
     freshly allocated [Some] cell — so every touch relinked. Compare
     the payload nodes physically instead. *)
  let already_front = match t.head with Some h -> h == n | None -> false in
  if not already_front then begin
    unlink t n;
    push_front t n
  end

let evict_one t ~cat =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.page;
      t.resident <- t.resident - 1;
      t.evictions <- t.evictions + 1;
      if n.dirty then begin
        t.writebacks <- t.writebacks + 1;
        Device.write t.device ~cat ~random:true t.page_size
      end

let insert t ~cat page ~dirty =
  while t.resident >= t.capacity do
    evict_one t ~cat
  done;
  let n = { page; dirty; prev = None; next = None } in
  Hashtbl.replace t.table page n;
  push_front t n;
  t.resident <- t.resident + 1

(* A cached mmap access is an ordinary DRAM load; most of its cost is already
   accounted as mutator compute, so only a small residual is charged. *)
let hit_cost_ns _t = 10.0

(* Fault in a run of [miss_run] consecutive missing pages starting at
   [run_start] as one device read. A run continuing the previous miss
   stream is charged at transfer bandwidth only: OS readahead has already
   queued it. A checked read that fails leaves [last_miss_page] as it
   was. *)
let fetch_run t ~cat ~checked ~run_start ~miss_run =
  if miss_run = 0 then Ok ()
  else begin
    let bytes = miss_run * t.page_size in
    let r =
      if run_start = t.last_miss_page + 1 then
        (* Mutator-side streaming faults overlap with computation
           (readahead prefetches while the application works); GC-side
           scans stall the collector. *)
        let overlap =
          match cat with Th_sim.Clock.Other -> 0.35 | _ -> 1.0
        in
        if checked then
          Device.read_continuation_checked t.device ~cat ~overlap bytes
        else begin
          Device.read_continuation t.device ~cat ~overlap bytes;
          Ok ()
        end
      else
        let random = miss_run = 1 in
        if checked then Device.read_checked t.device ~cat ~random bytes
        else begin
          Device.read t.device ~cat ~random bytes;
          Ok ()
        end
    in
    (match r with
    | Ok () -> t.last_miss_page <- run_start + miss_run - 1
    | Error _ -> ());
    r
  end

(* Touch pages [page..last], accumulating runs of consecutive misses so
   sequential faults are charged as one streaming read. A failed run
   read ends the access: later pages are not touched. *)
let rec access_pages t ~cat ~checked ~write ~offset ~len ~last page
    run_start miss_run =
  if page > last then fetch_run t ~cat ~checked ~run_start ~miss_run
  else
    match Hashtbl.find_opt t.table page with
    | Some n -> (
        match fetch_run t ~cat ~checked ~run_start ~miss_run with
        | Error _ as e -> e
        | Ok () ->
            t.hits <- t.hits + 1;
            if write then n.dirty <- true;
            touch_lru t n;
            Th_sim.Clock.advance t.clock cat (hit_cost_ns t);
            access_pages t ~cat ~checked ~write ~offset ~len ~last (page + 1)
              run_start 0)
    | None ->
        t.misses <- t.misses + 1;
        let whole_page_write =
          write && offset <= page * t.page_size
          && offset + len >= (page + 1) * t.page_size
        in
        if not whole_page_write then begin
          let run_start = if miss_run = 0 then page else run_start in
          insert t ~cat page ~dirty:write;
          access_pages t ~cat ~checked ~write ~offset ~len ~last (page + 1)
            run_start (miss_run + 1)
        end
        else begin
          match fetch_run t ~cat ~checked ~run_start ~miss_run with
          | Error _ as e -> e
          | Ok () ->
              insert t ~cat page ~dirty:write;
              access_pages t ~cat ~checked ~write ~offset ~len ~last
                (page + 1) run_start 0
        end

(* One implementation for both entry points: the unchecked access is the
   checked one with device errors absorbed, so it always returns [Ok]. *)
let access_op t ~checked ~cat ~write ~offset ~len =
  if len > 0 then
    access_pages t ~cat ~checked ~write ~offset ~len
      ~last:((offset + len - 1) / t.page_size)
      (offset / t.page_size) 0 0
  else Ok ()

let access_checked t ~cat ~write ~offset ~len =
  access_op t ~checked:true ~cat ~write ~offset ~len

let access t ~cat ~write ~offset ~len =
  match access_op t ~checked:false ~cat ~write ~offset ~len with
  | Ok () | Error _ -> ()

let invalidate_range t ~offset ~len =
  if len > 0 then begin
    let first = offset / t.page_size in
    let last = (offset + len - 1) / t.page_size in
    for page = first to last do
      match Hashtbl.find_opt t.table page with
      | Some n ->
          unlink t n;
          Hashtbl.remove t.table page;
          t.resident <- t.resident - 1
      | None -> ()
    done
  end

let flush t ~cat =
  let dirty = ref 0 in
  (* Order-insensitive: only counts and clears each page's dirty flag.
     th-lint: allow hashtbl-order *)
  Hashtbl.iter (fun _ n -> if n.dirty then begin incr dirty; n.dirty <- false end) t.table;
  if !dirty > 0 then begin
    (match Th_sim.Clock.tracer t.clock with
    | None -> ()
    | Some tr ->
        Th_trace.Recorder.instant tr
          ~ts:(Th_sim.Clock.now_ns t.clock)
          ~cat:"cache" ~name:"flush"
          ~args:[ ("pages", Th_trace.Event.Int !dirty) ]
          ());
    t.writebacks <- t.writebacks + !dirty;
    Device.write t.device ~cat ~random:false (!dirty * t.page_size)
  end

let resident_pages t = t.resident

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.writebacks <- 0

let hit_ratio (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 1.0 else float_of_int s.hits /. float_of_int total
