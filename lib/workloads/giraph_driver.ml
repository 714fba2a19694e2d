open Th_sim
module Runtime = Th_psgc.Runtime
module Engine = Th_giraph.Engine

let run ~label rt ~mode ?ooc_device ?h2_device ?faults ?(scale = 1.0)
    ?(seed = 0xC0FFEEL) (p : Giraph_profiles.t) =
  let params = Giraph_profiles.graph_params p ~scale in
  let prng = Prng.create seed in
  let ooc_dr2 = Size.paper_gb p.Giraph_profiles.ooc_dr2_gb in
  try
    let (_ : Engine.result) =
      Engine.run rt ~mode ?ooc_device ~ooc_dr2 ~prng
        ~algo:p.Giraph_profiles.algo params
    in
    Run_result.ok ~label rt ?h2_device ?faults ()
  with
  | Runtime.Out_of_memory reason ->
      Run_result.oom ~reason ?h2_device ?faults ~label rt
