(** Top-level concurrent pin access optimization: panel-by-panel (the
    paper's production mode) or over a combined multi-panel instance
    (the Fig. 6 scalability mode).

    Every entry point runs a per-panel degradation ladder under the
    optional {!Budget}: the requested solver first (ILP or LR), then —
    on a typed solver failure, an injected fault or budget pressure —
    the next tier down, ending at the shrink-to-minimum assignment that
    Theorem 1 guarantees feasible.  The serving tier and a [degraded]
    flag are recorded per panel, so callers always get a validated
    assignment within the budget plus an honest account of how it was
    obtained. *)

type solver_kind = Ilp | Lr

type tier =
  | Tier_ilp  (** exact branch-and-bound *)
  | Tier_lr  (** Lagrangian relaxation *)
  | Tier_minimum  (** shrink-to-minimum fallback (paper Sec. 3.1) *)

type config = {
  gen : Interval_gen.config;
  lr : Lagrangian.config;
  ilp_warm_start : bool;
      (** seed the ILP incumbent with the LR solution *)
}

val default_config : config

type panel_report = {
  panel : int;
  pins : int;
  intervals : int;
  cliques : int;
  objective : float;
  lr_iterations : int;  (** 0 for the pure-ILP and minimum paths *)
  proven_optimal : bool;
      (** the serving tier ran to its own completion (ILP: optimality
          proved; LR: converged/plateaued before any budget expiry) *)
  served_by : tier;  (** which rung of the ladder produced the panel *)
  degraded : bool;
      (** the panel was not served by the requested solver running to
          completion — a lower tier answered or the budget cut in *)
}

type tpl_coloring = {
  tpl_params : Solver.Color_graph.params;  (** the deck that was on *)
  features : (int * int * int * int) array;
      (** distinct selected intervals as [(track, lo, hi, net)],
          canonically sorted — the coloring's input, independent of
          panel solve order (so independent of [j]) *)
  colors : Solver.Color_graph.assignment array;
      (** one assignment per feature, same indexing *)
  tpl_stitches : int;  (** features colored via a stitch *)
  tpl_residual : int;
      (** features left [Uncolored] — an honest residual, reported like
          [degraded] rather than hidden *)
}
(** Result of the global TPL coloring pass run after the panel merge
    when the [tpl] deck of {!Interval_gen.config} is on. *)

type t = {
  design : Netlist.Design.t;
  kind : solver_kind;  (** the *requested* solver *)
  assignments : (Netlist.Pin.id * Access_interval.t) list;
      (** conflict-free: one interval per pin of the design *)
  objective : float;  (** summed over panels *)
  reports : panel_report list;
  degraded : bool;  (** any panel degraded *)
  elapsed : float;  (** wall-clock seconds *)
  tpl : tpl_coloring option;
      (** [Some] iff the TPL deck was on in [config.gen.tpl] *)
}

type tune_hook = {
  tune_select : panel:int -> Problem.t -> config -> config * string;
      (** per-panel policy choice: given the built problem and the
          run's base config, return the config this panel solves under
          plus the canonical policy id for the trace.  Called in
          ascending panel order within each scheduling wave. *)
  tune_observe :
    panel:int ->
    policy:string ->
    objective:float ->
    delta:Obs.Metrics.snapshot ->
    unit;
      (** reward feedback: the panel's solved objective and its metrics
          window ({!Obs.Metrics.diff} across the merge of the panel's
          solve, e.g. [lr.iterations]; the first window of a wave also
          holds the executor's own [exec.*] join counters).  Called in
          ascending panel order after the panel's wave completes. *)
}
(** The adaptive-scheduling hook ([lib/tune]): a policy selector plus a
    reward observer, threaded through {!optimize}'s per-panel walk.
    Panels are processed in fixed-size waves — selections of one wave
    see the observations of every earlier wave but never an in-flight
    solve — so the policy trace and the output are deterministic and
    independent of [j]. *)

val optimize :
  ?config:config ->
  ?budget:Budget.t ->
  ?j:int ->
  ?tune:tune_hook ->
  kind:solver_kind ->
  Netlist.Design.t ->
  t
(** Solve every pin-bearing panel of the design independently: one
    {!Fanout} task per panel, which builds the panel's problem on the
    worker that solves it (no problem list is held resident) and runs
    the ladder under an equal, isolated share of the budget.  Once a
    panel's share is spent, it is served by the minimum tier, so the
    call still returns promptly with a feasible result.

    [j] (default 1) is the number of domains panels are fanned out
    over, the paper's production-mode concurrency ([j > 1] reuses the
    process-wide {!Exec.shared} work-stealing pool — no domain spawns
    per call).  Results, metrics, spans and spent work are merged back
    in panel order and a pool of one takes the same path, so [~j:n]
    returns bit-identical assignments, reports and objective to
    [~j:1] for any [n] — also under a finite work allowance.

    [tune] (default absent) threads a {!tune_hook} through the same
    loop, run over fixed-size waves of panels, each panel solving
    under the config its selector returned.  Each wave gets its
    panels' share of the remaining budget.
    @raise Cpr_error.Error ([Infeasible_panel]) when a pin has no
    access interval at all (blocked primary track) — no tier can serve
    such a design. *)

val optimize_combined :
  ?config:config ->
  ?budget:Budget.t ->
  kind:solver_kind ->
  Netlist.Design.t ->
  panels:int list ->
  t
(** Solve the given panels as a single instance (used by the Fig. 6
    sweep, where instance size is the experiment variable). *)

val build_panel : config -> Netlist.Design.t -> panel:int -> Problem.t
(** Build one panel's assignment problem (interval generation + conflict
    sweep) exactly as [optimize] does internally.
    @raise Cpr_error.Error ([Infeasible_panel]) when a pin of the panel
    has no access interval at all (blocked primary track). *)

val solve_panel :
  ?config:config ->
  ?budget:Budget.t ->
  ?warm_start:float array ->
  kind:solver_kind ->
  panel:int ->
  Problem.t ->
  (Netlist.Pin.id * Access_interval.t) list * float * panel_report * float array
(** Run the degradation ladder on one already-built problem, returning
    [(assignments, objective, report, multipliers)].  With
    [warm_start:None] this is exactly the per-panel step of {!optimize}
    (bit-identical output); [warm_start] seeds the LR tier's multiplier
    vector (one entry per [Problem.cliques] clique) from a previous
    solve, typically re-converging in far fewer iterations.
    [multipliers] is the LR tier's final vector ([[||]] when another
    tier served the panel).  The single-panel entry point of the
    incremental engine ([Eco.Engine]). *)

val color_assignments :
  Solver.Color_graph.params ->
  (Netlist.Pin.id * Access_interval.t) list ->
  tpl_coloring
(** The global TPL coloring pass on a merged assignment list: dedupe to
    distinct [(track, lo, hi, net)] features, canonically sort, run the
    deterministic greedy coloring of {!Solver.Color_graph.color}.
    Exactly what {!optimize} runs when the deck is on; exported so
    incremental callers ({!Eco.Engine}) recolor their merged
    assignments in lockstep with the from-scratch path. *)

val interval_of_pin : t -> Netlist.Pin.id -> Access_interval.t option

val validate : ?complete:bool -> t -> unit
(** Re-checks the global invariants: the interval of each assignment
    serves its pin, no pin is assigned twice, and no two assigned
    intervals of different nets overlap.  With [complete] (default)
    additionally every pin of the design must be assigned — pass
    [~complete:false] for [optimize_combined] over a panel subset.
    @raise Cpr_error.Error ([Solver_failure]) on violation. *)

val solver_kind_to_string : solver_kind -> string
val tier_to_string : tier -> string
val tier_of_kind : solver_kind -> tier
