type family =
  | Determinism
  | Domain_safety
  | Hygiene

type t = {
  name : string;
  family : family;
  severity : Finding.severity;
  synopsis : string;
  explain : string;
}

let family_to_string = function
  | Determinism -> "determinism"
  | Domain_safety -> "domain-safety"
  | Hygiene -> "invariant-hygiene"

let all =
  [
    {
      name = "hashtbl-order";
      family = Determinism;
      severity = Finding.Error;
      synopsis =
        "Hashtbl.iter/fold/to_seq visit bindings in unspecified hash order";
      explain =
        "The reproduction's validity rests on byte-identical stdout, CSV and \n\
         traces for any --jobs and any machine. Hashtbl iteration order \n\
         depends on the hash function and insertion history, so any \n\
         observable result built by Hashtbl.iter, Hashtbl.fold or \n\
         Hashtbl.to_seq* can differ between runs. Iterate a sorted view \n\
         (collect keys, sort with a typed comparator, then look up), or \n\
         waive the site when the body is provably order-insensitive \n\
         (commutative accumulation, independent per-key updates) and say \n\
         why in the waiver comment.";
    };
    {
      name = "wall-clock";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "real time read outside Th_exec.Wall (Sys.time, Unix.gettimeofday)";
      explain =
        "Simulated results must never depend on host time: every duration \n\
         in reports and traces comes from Th_sim.Clock. Sys.time, \n\
         Unix.gettimeofday, Unix.time and friends leak host-machine state \n\
         into the run. Harness self-timing (BENCH_harness.json, stderr \n\
         progress) is the one legitimate consumer and routes through \n\
         Th_exec.Wall or carries an explicit waiver stating the value \n\
         never reaches deterministic output.";
    };
    {
      name = "ambient-entropy";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "stdlib Random or Domain.self used as data";
      explain =
        "All stochastic choices must draw from an explicitly seeded \n\
         Th_sim.Prng stream so equal seeds give equal runs. Stdlib Random \n\
         (seeded or not — its state is global and shared across domains) \n\
         and Domain.self (an allocation-order-dependent token) smuggle \n\
         ambient nondeterminism into results. Thread a Th_sim.Prng.t, or \n\
         key per-domain state by submission index instead of domain id.";
    };
    {
      name = "poly-compare";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "polymorphic compare/hash where a typed comparator exists";
      explain =
        "Polymorphic compare walks runtime representations: it is slow on \n\
         the sort-heavy render paths, raises on functional values, and \n\
         orders floats with NaN traps. Structural equality on composite \n\
         literals has the same failure modes. Use the typed comparator \n\
         (Int.compare, String.compare, Float.compare, or a hand-written \n\
         lexicographic one) so the ordering is explicit in the source.";
    };
    {
      name = "float-equality";
      family = Determinism;
      severity = Finding.Error;
      synopsis = "= or <> on floating-point operands";
      explain =
        "Float equality is a correctness trap: NaN compares unequal to \n\
         itself and accumulated rounding makes equality contingent on \n\
         evaluation order — exactly what changes when work is re-batched \n\
         across domains. Compare against an epsilon, use Float.compare's \n\
         total order, or restructure to integer nanoseconds/bytes as the \n\
         simulator clock does.";
    };
    {
      name = "pmap-mutable-global";
      family = Domain_safety;
      severity = Finding.Error;
      synopsis =
        "mutable top-level state reachable from a closure run on a worker \
         domain";
      explain =
        "Benchmark cells submitted to the scheduler \n\
         (Scheduler.run_cells/run_thunks, Cell.make/of_thunk, \n\
         Plan.cell/cell_list/costed_list/grouped/grouped_costed) \n\
         execute on worker domains, and the select/observe callbacks \n\
         assembled by Policy.make run on whichever worker domain owns \n\
         the runtime that installs the policy. Any top-level ref, \n\
         Hashtbl, Vec, Buffer or array they touch — directly or through \n\
         a called function, which this rule resolves over the \n\
         intra-library call graph — is shared across domains \n\
         without synchronisation: a data race, and even when benign the \n\
         interleaving is nondeterministic. Confine mutable state to the \n\
         cell (create it inside the closure) and mutate shared structures \n\
         only on the serial render path after the batch returns.";
    };
    {
      name = "escape-capture";
      family = Domain_safety;
      severity = Finding.Error;
      synopsis =
        "local mutable value captured by a closure handed to a worker domain";
      explain =
        "Closures passed to Cell.make/of_thunk, Plan.cell*, \n\
         Scheduler.run_cells/run_thunks, Policy.make (placement-policy \n\
         callbacks run on the domain that owns the runtime — build each \n\
         policy inside its cell), or Domain.spawn execute on worker \n\
         domains. A captured local ref, array, Hashtbl, Buffer or record \n\
         with mutable fields becomes cross-domain shared state with no \n\
         synchronisation — the OCaml memory model makes the racing \n\
         accesses themselves well-defined, but the values observed are \n\
         not, and torn protocols (index published before payload) \n\
         follow. Allocate the state inside the \n\
         closure so it is domain-local, switch to Atomic.t (which the rule \n\
         recognises and never flags), or — when the sharing is by design, \n\
         e.g. a single-writer result slot read only after the batch joins, \n\
         or disjoint array indices per cell — bless the capture with \n\
         [@th.allow \"domain_shared <why it is safe>\"]. The justification \n\
         is mandatory: a bare \"domain_shared\" token waives nothing, and \n\
         a blessed finding is diverted to the waived list, never dropped.";
    };
    {
      name = "pure-render";
      family = Domain_safety;
      severity = Finding.Error;
      synopsis = "a Plan render function can touch mutable globals";
      explain =
        "Plan.seal ~render registers the serial epilogue that formats a \n\
         section's results after its cells complete; the batching \n\
         refactor's byte-identical-output guarantee rests on renders \n\
         being pure functions of the futures they read. A render that \n\
         mutates a global couples sections whose execution order is a \n\
         scheduling accident. The rule walks the render's reachable \n\
         definitions over the cross-library call graph, as \n\
         pmap-mutable-global does for cells, and flags every mutable \n\
         top-level value it reaches. Accumulate on the serial path after \n\
         the batch returns, then render the accumulated values.";
    };
    {
      name = "catch-all-match";
      family = Hygiene;
      severity = Finding.Error;
      synopsis = "wildcard branch in a match over card states or trace events";
      explain =
        "Matches over H2_card_table.state/event and Th_trace.Event \n\
         constructors must stay exhaustive by listing every constructor: \n\
         a catch-all branch silently absorbs any card state or trace \n\
         event added later, so the consumer (sanitizer rule, rollup, \n\
         exporter) keeps compiling but no longer audits the new case. \n\
         Replace `_` with the explicit constructors it stands for; adding \n\
         a constructor then breaks every consumer at compile time, which \n\
         is the point.";
    };
    {
      name = "obj-magic";
      family = Hygiene;
      severity = Finding.Error;
      synopsis = "Obj.magic defeats the type system";
      explain =
        "Obj.magic turns a type error into memory corruption the \n\
         Th_verify sanitizer can only catch at runtime, if a seed happens \n\
         to trigger it. There is no legitimate use in this codebase.";
    };
    {
      name = "assert-false";
      family = Hygiene;
      severity = Finding.Error;
      synopsis = "bare `assert false` carries no diagnostic context";
      explain =
        "A bare `assert false` reports only a file and line when the \n\
         impossible happens — in a seeded simulator the seed, heap phase \n\
         and offending value are all available and all lost. Raise a \n\
         contextful exception instead (Rt.Invalid_heap_state, invalid_arg \n\
         with the unexpected shape, failwith with the seed).";
    };
  ]

let names = List.map (fun r -> r.name) all

let find name = List.find_opt (fun r -> String.equal r.name name) all

let explain_text r =
  Printf.sprintf
    "%s (%s, %s)\n  %s\n\n%s\n\nWaive a specific site with [@th.allow %S] on \
     the expression, a\nwhole definition with [@@th.allow %S], a file with \
     [@@@th.allow %S],\nor a comment (* th-lint: allow %s *) on the line or \
     up to three lines\nabove the finding. Every waiver should say why the \
     site is safe.\n"
    r.name
    (family_to_string r.family)
    (Finding.severity_to_string r.severity)
    r.synopsis r.explain r.name r.name r.name r.name
