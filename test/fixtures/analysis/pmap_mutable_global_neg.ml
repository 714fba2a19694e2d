let run sched xs =
  let results =
    Th_exec.Scheduler.run_thunks sched
      (List.map (fun x () -> let acc = ref 0 in acc := x; !acc) xs)
  in
  let total = ref 0 in
  List.iter (fun r -> total := !total + r) results;
  !total
