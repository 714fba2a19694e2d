exception Io_error of string

let risky () = raise (Io_error "disk") [@@th.raises "Io_error"]

let run sched xs =
  Th_exec.Scheduler.run_thunks sched
    (List.map
       (fun x () ->
         (try risky () with Io_error _ -> ());
         x)
       xs)
