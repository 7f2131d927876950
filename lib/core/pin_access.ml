type solver_kind = Ilp | Lr

type tier = Tier_ilp | Tier_lr | Tier_minimum

type config = {
  gen : Interval_gen.config;
  lr : Lagrangian.config;
  ilp_warm_start : bool;
}

let default_config =
  {
    gen = Interval_gen.default_config;
    lr = Lagrangian.default_config;
    ilp_warm_start = true;
  }

type panel_report = {
  panel : int;
  pins : int;
  intervals : int;
  cliques : int;
  objective : float;
  lr_iterations : int;
  proven_optimal : bool;
  served_by : tier;
  degraded : bool;
}

type tpl_coloring = {
  tpl_params : Solver.Color_graph.params;
  features : (int * int * int * int) array;
  colors : Solver.Color_graph.assignment array;
  tpl_stitches : int;
  tpl_residual : int;
}

type t = {
  design : Netlist.Design.t;
  kind : solver_kind;
  assignments : (Netlist.Pin.id * Access_interval.t) list;
  objective : float;
  reports : panel_report list;
  degraded : bool;
  elapsed : float;
  tpl : tpl_coloring option;
}

let solver_kind_to_string = function Ilp -> "ILP" | Lr -> "LR"

(* which rung of the degradation ladder actually served each panel *)
let m_tier_ilp = Obs.Metrics.counter "pao.tier.ilp"
let m_tier_lr = Obs.Metrics.counter "pao.tier.lr"
let m_tier_minimum = Obs.Metrics.counter "pao.tier.minimum"
let m_degraded = Obs.Metrics.counter "pao.degraded_panels"

let tier_counter = function
  | Tier_ilp -> m_tier_ilp
  | Tier_lr -> m_tier_lr
  | Tier_minimum -> m_tier_minimum

let tier_to_string = function
  | Tier_ilp -> "ILP"
  | Tier_lr -> "LR"
  | Tier_minimum -> "MIN"

let tier_of_kind = function Ilp -> Tier_ilp | Lr -> Tier_lr

(* Theorem 1: every pin's minimum interval exists and minimum intervals
   are pairwise disjoint, so this assignment is always feasible — the
   ladder's unconditional last rung. *)
let minimum_solution (problem : Problem.t) =
  let assignment =
    Array.init (Problem.num_pins problem) (fun slot ->
        Problem.minimum_interval problem ~slot)
  in
  Solution.make problem ~assignment

(* One tier attempt: (solution, lr_iterations, complete, tier) where
   [complete] means the tier ran to its own finish rather than being
   cut short by the budget. *)
let ilp_tier config ~budget (problem : Problem.t) =
  Obs.Trace.with_span "pao.tier.ilp" @@ fun () ->
  Fault.trip Fault.Ilp;
  let warm_start_of p =
    if config.ilp_warm_start then
      match Lagrangian.solve ~config:config.lr ~budget p with
      | lr when Solution.is_conflict_free lr.Lagrangian.solution ->
        Some lr.Lagrangian.solution
      | _ -> None
      | exception e when Cpr_error.recoverable e -> None
    else None
  in
  let solve p = Ilp.solve ~budget ?warm_start:(warm_start_of p) p in
  let r =
    try solve problem
    with Solver.Milp.Infeasible ->
      (* the design-rule clearance can make strict feasibility
         impossible (adjacent same-track pins); fall back to the
         paper's original conflict relation for this instance *)
      let relaxed =
        { problem.Problem.config with Interval_gen.clearance = 0; tpl = None }
      in
      let problem0 =
        Problem.of_intervals relaxed problem.Problem.design
          problem.Problem.intervals
      in
      solve problem0
  in
  (r.Ilp.solution, 0, r.Ilp.proven_optimal, Tier_ilp)

let lr_tier ?warm_start config ~budget (problem : Problem.t) =
  Obs.Trace.with_span "pao.tier.lr" @@ fun () ->
  Fault.trip Fault.Lr;
  let r = Lagrangian.solve ~config:config.lr ~budget ?warm_start problem in
  (r.Lagrangian.solution, r.Lagrangian.iterations,
   not r.Lagrangian.budget_expired, Tier_lr, r.Lagrangian.multipliers)

let minimum_tier (problem : Problem.t) =
  (minimum_solution problem, 0, true, Tier_minimum, [||])

let solve_problem ?warm_start config ~budget kind ~panel
    (problem : Problem.t) =
  Obs.Trace.with_span "pao.panel" @@ fun () ->
  let tiers =
    if Budget.exhausted budget then [ fun _ -> minimum_tier problem ]
    else
      match kind with
      | Ilp ->
        [
          (fun () ->
            let s, it, c, t = ilp_tier config ~budget problem in
            (s, it, c, t, [||]));
          (fun () -> lr_tier ?warm_start config ~budget problem);
          (fun _ -> minimum_tier problem);
        ]
      | Lr ->
        [
          (fun () -> lr_tier ?warm_start config ~budget problem);
          (fun _ -> minimum_tier problem);
        ]
  in
  let rec attempt = function
    | [] -> assert false
    | [ last ] -> last () (* last rung: typed errors propagate *)
    | f :: rest ->
      (try f () with e when Cpr_error.recoverable e -> attempt rest)
  in
  let solution, lr_iterations, complete, served_by, multipliers =
    attempt tiers
  in
  Obs.Metrics.incr (tier_counter served_by);
  if served_by <> tier_of_kind kind || not complete then
    Obs.Metrics.incr m_degraded;
  let objective = Solution.objective solution in
  let report =
    {
      panel;
      pins = Problem.num_pins problem;
      intervals = Problem.num_intervals problem;
      cliques = Problem.num_cliques problem;
      objective;
      lr_iterations;
      proven_optimal = complete;
      served_by;
      degraded = served_by <> tier_of_kind kind || not complete;
    }
  in
  let assignments =
    Array.to_list
      (Array.mapi
         (fun slot id ->
           (problem.Problem.pin_ids.(slot), problem.Problem.intervals.(id)))
         solution.Solution.assignment)
  in
  (assignments, objective, report, multipliers)

type tune_hook = {
  tune_select : panel:int -> Problem.t -> config -> config * string;
  tune_observe :
    panel:int ->
    policy:string ->
    objective:float ->
    delta:Obs.Metrics.snapshot ->
    unit;
}

(* Global TPL coloring pass: one deterministic greedy coloring over the
   distinct selected intervals of the whole design, run after the panel
   merge.  Being global, it sees cross-panel color conflicts no
   per-panel solver can, and its input — features canonically sorted by
   (track, lo, hi, net) — does not depend on panel solve order, so
   [~j:n] colorings are bit-identical to [~j:1]. *)
let color_assignments params assignments =
  let module I = Geometry.Interval in
  let table = Hashtbl.create 256 in
  List.iter
    (fun ((_ : Netlist.Pin.id), (iv : Access_interval.t)) ->
      Hashtbl.replace table (iv.track, I.lo iv.span, I.hi iv.span, iv.net) ())
    assignments;
  let features =
    Hashtbl.fold (fun key () acc -> key :: acc) table []
    |> List.sort compare |> Array.of_list
  in
  let feats =
    Array.map
      (fun (track, lo, hi, _net) -> Solver.Color_graph.feature ~track ~lo ~hi)
      features
  in
  let c = Solver.Color_graph.color params feats in
  {
    tpl_params = params;
    features;
    colors = c.Solver.Color_graph.assignment;
    tpl_stitches = c.Solver.Color_graph.stitches;
    tpl_residual = c.Solver.Color_graph.residual;
  }

let build_panel config design ~panel =
  try Problem.build_panel config.gen design ~panel
  with Interval_gen.Pin_unreachable pid ->
    Cpr_error.infeasible ~panel
      "pin %d unreachable: its primary track is blocked" pid

(* Assemble the result from per-panel solves in panel order. *)
let assemble config ~kind ~start design solved =
  let objective = List.fold_left (fun acc (_, o, _, _) -> acc +. o) 0.0 solved in
  let assignments = List.concat_map (fun (a, _, _, _) -> a) solved in
  let reports = List.map (fun (_, _, r, _) -> r) solved in
  {
    design;
    kind;
    assignments;
    objective;
    reports;
    degraded = List.exists (fun (r : panel_report) -> r.degraded) reports;
    elapsed = Unix_time.now () -. start;
    tpl =
      Option.map
        (fun params -> color_assignments params assignments)
        config.gen.Interval_gen.tpl;
  }

(* The one solve loop.  Each task is one panel (Sec. 3.4): it builds
   the panel's problem on the worker that solves it — no problem list
   is ever resident — and runs the ladder under its own budget slice.
   {!Fanout} merges results, metrics, spans and work back in panel
   order, so the output is the same at every [j]. *)
let solve_panels ?merged ~budget pool kind tasks =
  Fanout.map ~budget ?merged pool
    (fun budget (panel, config, problem) ->
      solve_problem config ~budget kind ~panel (problem ()))
    tasks

(* Tuning runs the same loop over fixed-size waves.  The wave's
   problems are built first so the selector — on the caller, in panel
   order — sees every panel before any of them solves; observations
   come back in panel order as each panel merges.  A panel's policy
   therefore depends on the rewards of earlier waves but never on an
   in-flight solve, and since the wave size is a constant the policy
   trace and the output are independent of [j].  Each wave gets its
   panels' share of the remaining budget. *)
let tune_wave = 8

let solve_tuned config ~budget pool ~tune kind design panels =
  let n = Array.length panels in
  let waves = ref [] and start = ref 0 in
  while !start < n do
    let len = min tune_wave (n - !start) and left = n - !start in
    let wave = Array.sub panels !start len in
    let wave_budget =
      Budget.sub budget
        ?seconds:
          (Option.map
             (fun s -> s *. float_of_int len /. float_of_int left)
             (Budget.remaining_seconds budget))
        ?work_units:
          (Option.map
             (fun w -> max 1 (w * len / left))
             (Budget.remaining_work budget))
        ()
    in
    let problems =
      Fanout.map pool (fun _ panel -> build_panel config design ~panel) wave
    in
    let chosen =
      Array.mapi (fun i panel -> tune.tune_select ~panel problems.(i) config) wave
    in
    let window = ref (Obs.Metrics.snapshot ()) in
    let observe i (_, objective, _, _) =
      let after = Obs.Metrics.snapshot () in
      tune.tune_observe ~panel:wave.(i) ~policy:(snd chosen.(i)) ~objective
        ~delta:(Obs.Metrics.diff ~before:!window ~after);
      window := after
    in
    let tasks =
      Array.mapi
        (fun i panel -> (panel, fst chosen.(i), Fun.const problems.(i)))
        wave
    in
    waves :=
      solve_panels ~merged:observe ~budget:wave_budget pool kind tasks :: !waves;
    start := !start + len
  done;
  Array.concat (List.rev !waves)

let optimize ?(config = default_config) ?budget ?(j = 1) ?tune ~kind design =
  Obs.Trace.with_span "pao.optimize" @@ fun () ->
  let start = Unix_time.now () in
  let budget = Budget.of_option budget in
  let pool = Exec.shared ~domains:j in
  let panels =
    List.init (Netlist.Design.num_panels design) Fun.id
    |> List.filter (fun panel -> Netlist.Design.pins_of_panel design panel <> [])
    |> Array.of_list
  in
  let solved =
    match tune with
    | Some tune -> solve_tuned config ~budget pool ~tune kind design panels
    | None ->
      solve_panels ~budget pool kind
        (Array.map
           (fun panel -> (panel, config, fun () -> build_panel config design ~panel))
           panels)
  in
  assemble config ~kind ~start design (Array.to_list solved)

(* Single-panel entry point for incremental callers (lib/eco): same
   degradation ladder as [optimize], but on one already-built problem,
   optionally warm-starting the LR tier from cached multipliers. *)
let solve_panel ?(config = default_config) ?budget ?warm_start ~kind ~panel
    problem =
  let budget = Budget.of_option budget in
  solve_problem ?warm_start config ~budget kind ~panel problem

let optimize_combined ?(config = default_config) ?budget ~kind design ~panels =
  Obs.Trace.with_span "pao.optimize" @@ fun () ->
  let start = Unix_time.now () in
  let problem =
    try Problem.build_panels config.gen design ~panels
    with Interval_gen.Pin_unreachable pid ->
      Cpr_error.infeasible "pin %d unreachable: its primary track is blocked"
        pid
  in
  let solved =
    if Problem.num_pins problem = 0 then []
    else
      [ solve_problem config ~budget:(Budget.of_option budget) kind ~panel:(-1)
          problem ]
  in
  assemble config ~kind ~start design solved

let interval_of_pin t pid =
  List.assoc_opt pid t.assignments

let validate ?(complete = true) t =
  let fail fmt =
    Printf.ksprintf
      (fun reason ->
        Cpr_error.solver_failure ~solver:"pin_access" "validate: %s" reason)
      fmt
  in
  let design = t.design in
  let num_pins = Array.length (Netlist.Design.pins design) in
  let seen = Array.make num_pins false in
  List.iter
    (fun (pid, iv) ->
      if seen.(pid) then fail "pin %d assigned twice" pid;
      seen.(pid) <- true;
      if not (Access_interval.serves iv pid) then
        fail "interval does not serve pin %d" pid)
    t.assignments;
  if complete then
    Array.iteri
      (fun pid assigned -> if not assigned then fail "pin %d unassigned" pid)
      seen;
  (* no overlap among assigned intervals of different nets (Problem 1) *)
  let distinct =
    List.sort_uniq
      (fun (a : Access_interval.t) b -> Int.compare a.id b.id)
      (List.map snd t.assignments)
  in
  let by_track = Hashtbl.create 64 in
  List.iter
    (fun (iv : Access_interval.t) ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt by_track iv.track)
      in
      Hashtbl.replace by_track iv.track (iv :: cur))
    distinct;
  Hashtbl.iter
    (fun _track ivs ->
      let arr = Array.of_list ivs in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = arr.(i) and b = arr.(j) in
          if
            a.Access_interval.net <> b.Access_interval.net
            && Access_interval.overlaps a b
          then
            fail "different-net intervals overlap on track %d"
              a.Access_interval.track
        done
      done)
    by_track
