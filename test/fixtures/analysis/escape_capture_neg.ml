let run sched xs =
  let hits = Atomic.make 0 in
  Th_exec.Scheduler.run_thunks sched
    (List.map (fun x () -> Atomic.incr hits; x) xs)
