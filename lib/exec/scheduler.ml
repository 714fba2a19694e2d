(* Shared-cursor Domain pool for experiment-cell batches.

   A batch of independent cells is ordered once at submission: cell
   indices sorted by descending cost hint, stable on the submission
   index (longest-expected-first list scheduling). The batch spawns
   [min (jobs - 1) (n - 1)] helper domains; each helper and the
   submitting domain claim the next position of that order through one
   fetch-and-add cursor and run the cell there, until the order runs
   out. The helpers are joined before [run_cells] returns, so no domain
   outlives a batch.

   Determinism: cells never share state and results land in per-cell
   slots, so the result list (and anything rendered from it, in
   submission order) is byte-identical for every jobs value; only which
   domain ran a cell, and the wall-clock stats, depend on scheduling. *)

type batch_stats = { cells : int; cell_wall_s : float array }

type t = { jobs : int; mutable last : batch_stats }

let default_jobs () = Domain.recommended_domain_count ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs must be >= 1";
  { jobs; last = { cells = 0; cell_wall_s = [||] } }

let last_batch t = t.last

let run_cells t cells =
  let arr = Array.of_list cells in
  let n = Array.length arr in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare arr.(b).Cell.cost arr.(a).Cell.cost)
    order;
  let results = Array.make n None in
  let durations = Array.make n 0.0 in
  (* Next position in [order] to run. It only moves by fetch_and_add,
     so every position is claimed by exactly one domain. *)
  let cursor = Atomic.make 0 in
  let rec claim () =
    let k = Atomic.fetch_and_add cursor 1 in
    if k < n then begin
      let i = order.(k) in
      let t0 = Wall.now_s () in
      let r =
        match arr.(i).Cell.run () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      durations.(i) <- Wall.elapsed_s ~since:t0;
      results.(i) <- Some r;
      claim ()
    end
  in
  (* The helpers share the batch's arrays, but each slot of [results]
     and [durations] is written only by the domain whose fetch_and_add
     claimed it, and [Domain.join] orders those writes before the reads
     below. *)
  let helpers =
    List.init (max 0 (min (t.jobs - 1) (n - 1))) (fun _ -> Domain.spawn claim)
  in
  claim ();
  List.iter Domain.join helpers;
  t.last <- { cells = n; cell_wall_s = durations };
  (* Collect in submission order; re-raise the first failure (by
     submission order) now that the whole batch has drained. *)
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> failwith "Scheduler.run_cells: cell finished without a result")

let run_thunks t thunks = run_cells t (List.map Cell.of_thunk thunks)
