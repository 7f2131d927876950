type config = {
  max_iterations : int;
  alpha : float;
  constant_step : float option;
  full_subgradient : bool;
  plateau_exit : int option;
  stall_halving : bool;
  warm_scale : float;
}

let default_config =
  {
    max_iterations = 200;
    alpha = 0.95;
    constant_step = None;
    full_subgradient = true;
    plateau_exit = Some 50;
    stall_halving = false;
    warm_scale = 1.0;
  }

(* metered in lockstep with [Budget.spend]: one LR iteration is one
   work unit and one tick of [lr.iterations] *)
let m_iterations = Obs.Metrics.counter "lr.iterations"
let m_step_size = Obs.Metrics.histogram "lr.step_size"
let m_violations = Obs.Metrics.histogram "lr.violations"

type iterate = { iteration : int; violations : int; relaxed_objective : float }

type result = {
  solution : Solution.t;
  iterations : int;
  best_violations : int;
  shrinks : int;
  budget_expired : bool;
  history : iterate list;
  multipliers : float array;
}

let multipliers r = r.multipliers

let dual_bound r =
  match r.history with
  | [] -> None
  | history ->
    Some
      (List.fold_left
         (fun acc it -> Float.min acc it.relaxed_objective)
         infinity history)

let max_gains (problem : Problem.t) ~gains =
  let intervals = problem.Problem.intervals in
  let n = Array.length intervals in
  let num_pins = Problem.num_pins problem in
  let npins id = List.length intervals.(id).Access_interval.pins in
  let order = Array.init n (fun i -> i) in
  (* non-increasing gain; ties broken by same-net pins served (prefer
     intra-panel connections), then id for determinism *)
  Array.sort
    (fun a b ->
      let c = Float.compare gains.(b) gains.(a) in
      if c <> 0 then c
      else
        let c = Int.compare (npins b) (npins a) in
        if c <> 0 then c else Int.compare a b)
    order;
  let assignment = Array.make num_pins (-1) in
  let remaining = ref num_pins in
  let select id =
    let slots =
      List.map
        (fun pid -> Problem.slot_of_pin problem pid)
        intervals.(id).Access_interval.pins
    in
    if List.for_all (fun slot -> assignment.(slot) < 0) slots then begin
      List.iter (fun slot -> assignment.(slot) <- id) slots;
      remaining := !remaining - List.length slots
    end
  in
  (try
     Array.iter
       (fun id ->
         if !remaining = 0 then raise Exit;
         select id)
       order
   with Exit -> ());
  assert (!remaining = 0);
  assignment

let solve ?(config = default_config) ?budget ?warm_start (problem : Problem.t)
    =
  let budget = Budget.of_option budget in
  let intervals = problem.Problem.intervals in
  let cliques = problem.Problem.cliques in
  let n = Array.length intervals in
  let profits = problem.Problem.profits in
  let lambda =
    match warm_start with
    | None -> Array.make (Array.length cliques) 0.0
    | Some w ->
      if Array.length w <> Array.length cliques then
        invalid_arg
          (Printf.sprintf
             "Lagrangian.solve: warm_start has %d multipliers, problem has \
              %d cliques"
             (Array.length w) (Array.length cliques));
      Array.map (Float.max 0.0) w
  in
  let penalties = Array.make n 0.0 in
  Array.iteri
    (fun m (clique : Conflict.clique) ->
      if lambda.(m) <> 0.0 then
        Array.iter
          (fun id -> penalties.(id) <- penalties.(id) +. lambda.(m))
          clique.Conflict.members)
    cliques;
  let gains = Array.make n 0.0 in
  let chosen = Array.make n false in
  let best_assignment = ref None in
  let best_gains = Array.make n 0.0 in
  let min_vio = ref max_int in
  let history = ref [] in
  let iterations = ref 0 in
  let k = ref 0 in
  let since_best = ref 0 in
  (* step-schedule policies (lib/tune): with the default config the
     factors below are exactly 1.0, so the computed step is bit-equal
     to the paper's [L_m / k^alpha] *)
  let warm_factor = if warm_start = None then 1.0 else config.warm_scale in
  let step k (clique : Conflict.clique) =
    let common_len =
      float_of_int (Geometry.Interval.length clique.Conflict.common)
    in
    let base =
      match config.constant_step with
      | Some t -> t *. common_len
      | None -> common_len /. Float.pow (float_of_int k) config.alpha
    in
    let halved =
      if config.stall_halving && !since_best >= 10 then
        base *. Float.pow 0.5 (float_of_int (!since_best / 10))
      else base
    in
    warm_factor *. halved
  in
  let stalled () =
    match config.plateau_exit with
    | Some limit -> !since_best >= limit
    | None -> false
  in
  let want_more () =
    !min_vio > 0 && !k < config.max_iterations && not (stalled ())
  in
  while want_more () && not (Budget.exhausted budget) do
    Obs.Trace.with_span "lr.iteration" @@ fun () ->
    incr k;
    Budget.spend budget 1;
    Obs.Metrics.incr m_iterations;
    for i = 0 to n - 1 do
      gains.(i) <- profits.(i) -. penalties.(i)
    done;
    let assignment = max_gains problem ~gains in
    Array.fill chosen 0 n false;
    Array.iter (fun id -> chosen.(id) <- true) assignment;
    (* penalize: walk every clique, count selections, move multipliers
       along the subgradient (Eq. 3) *)
    let vio = ref 0 in
    (* [lr.step_size] gets one sample per iteration — the mean step of
       the cliques it updated — so metering costs one observe per
       iteration, not one per clique *)
    let step_sum = ref 0.0 and steps = ref 0 in
    Array.iteri
      (fun m (clique : Conflict.clique) ->
        let cnt =
          Array.fold_left
            (fun acc id -> if chosen.(id) then acc + 1 else acc)
            0 clique.Conflict.members
        in
        let cap = clique.Conflict.cap in
        let g = float_of_int (cnt - cap) in
        if cnt > cap then incr vio;
        let update =
          if config.full_subgradient then cnt > cap || lambda.(m) > 0.0
          else cnt > cap
        in
        if update then begin
          let s = step !k clique in
          step_sum := !step_sum +. s;
          incr steps;
          let lam' = Float.max 0.0 (lambda.(m) +. (s *. g)) in
          let delta = lam' -. lambda.(m) in
          if delta <> 0.0 then begin
            lambda.(m) <- lam';
            Array.iter
              (fun id -> penalties.(id) <- penalties.(id) +. delta)
              clique.Conflict.members
          end
        end)
      cliques;
    if !steps > 0 then
      Obs.Metrics.observe m_step_size (!step_sum /. float_of_int !steps);
    let relaxed =
      let sel = ref 0.0 in
      Array.iteri (fun id c -> if c then sel := !sel +. gains.(id)) chosen;
      (* sum of lambda_m * cap_m; cap = 1 keeps the original sum *)
      let acc = ref !sel in
      Array.iteri
        (fun m lam ->
          acc := !acc +. (lam *. float_of_int cliques.(m).Conflict.cap))
        lambda;
      !acc
    in
    Obs.Metrics.observe m_violations (float_of_int !vio);
    history :=
      { iteration = !k; violations = !vio; relaxed_objective = relaxed }
      :: !history;
    if !vio < !min_vio then begin
      min_vio := !vio;
      best_assignment := Some (Array.copy assignment);
      Array.blit gains 0 best_gains 0 n;
      since_best := 0
    end
    else incr since_best;
    iterations := !k
  done;
  (* expired: the budget cut the loop short of its own exit criteria *)
  let budget_expired = want_more () && Budget.exhausted budget in
  let assignment =
    match !best_assignment with
    | Some a -> a
    | None ->
      (* max_iterations = 0: fall back to pure profits *)
      min_vio := max_int;
      max_gains problem ~gains:profits
  in
  let raw = Solution.make problem ~assignment in
  let solution, shrinks = Refine.remove_conflicts ~gains:best_gains raw in
  {
    solution;
    iterations = !iterations;
    best_violations = (if !min_vio = max_int then Solution.num_violations raw else !min_vio);
    shrinks;
    budget_expired;
    history = List.rev !history;
    multipliers = lambda;
  }
