let run sched xs =
  let acc = ref 0 in
  Th_exec.Scheduler.run_thunks sched
    (List.map (fun x () -> acc := !acc + x; x) xs)
