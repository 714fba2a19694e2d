let rendered = ref 0

let plan p =
  Th_exec.Plan.seal p ~render:(fun v ->
      incr rendered;
      string_of_int v)
