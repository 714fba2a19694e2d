let total = ref 0

let bump n = total := !total + n

let run sched xs =
  Th_exec.Scheduler.run_thunks sched
    (List.map (fun x () -> bump x; total := !total + x; x) xs)
