(* The repository benchmark: three seeded workloads over the layers
   cpr_main drives, timed from outside with a monotonic clock, every
   output examined by lib/audit.

     perfbench --workload pao-cold|flow-j2|eco-route --seed N
               --seconds S --trace 0|1

   --trace 0 times the workload's public call for S seconds and prints
   the end-to-end metrics; --trace 1 alternates untraced and
   span-traced repetitions and prints the per-layer metrics.  Either
   way the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.

   Correctness never reads a clock: an operation fails when it raises
   or when a certificate, audit, degraded flag or output digest says
   so.  Clocks only decide how many repetitions fit in S seconds. *)

module PA = Pinaccess.Pin_access
module Engine = Eco.Engine

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---- workloads ---- *)

(* A run's input is [designs] seeded designs of the top shape; one
   round calls the workload's operation once per design. *)
let cold_scale = 0.05
let cold_designs = 4
let cold_setup_reps = 3
let eco_scale = 0.02
let eco_designs = 6
let eco_steps = 6
let dirty_fraction = 0.05
let min_rounds = 2
let microbench_reps = 20

(* Repetition loops stop here even when short of [--seconds], so a run
   on a slow machine still ends within its time limit. *)
let started = now ()
let hard_stop = 150.0

let flow_config =
  { Router.Cpr.default_config with Router.Cpr.jobs = 2; parallel_init = true }

let eco_config = { Engine.default_config with Engine.routing = true }
let top = Workloads.Suite.find "top"

(* The [top] circuit's shape at [scale] — Suite.design's arithmetic at
   10 grids per micron — with the benchmark's seed in place of the
   circuit's own. *)
let design ~scale ~seed =
  let shrink dim =
    max 2 (int_of_float (Float.round (float_of_int dim *. sqrt scale)))
  in
  let nets =
    max 8 (int_of_float (Float.round (float_of_int top.nets *. scale)))
  in
  Workloads.Generator.generate
    (Workloads.Generator.with_size ~name:"top" ~nets
       ~width:(shrink top.um_width * 10)
       ~height:(shrink top.um_height * 10)
       ~seed ())

let design_seed seed i = Int64.add (Int64.mul seed 1000L) (Int64.of_int i)
let stream_seed seed = Int64.add seed 7919L
let num_nets d = Array.length (Netlist.Design.nets d)

(* ---- output digests ---- *)

let hex_digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let pao_digest (p : PA.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (pid, (iv : Pinaccess.Access_interval.t)) ->
      Printf.bprintf b "%d:%d:%d:%d-%d;" pid iv.net iv.track
        (Geometry.Interval.lo iv.span)
        (Geometry.Interval.hi iv.span))
    p.PA.assignments;
  Printf.bprintf b "|%Lx" (Int64.bits_of_float p.PA.objective);
  hex_digest b

let flow_digest (f : Router.Flow.t) =
  let b = Buffer.create 65536 in
  Array.iteri
    (fun net route ->
      Printf.bprintf b "%d:" net;
      (match route with
      | None -> Buffer.add_char b '-'
      | Some (r : Rgrid.Route.t) ->
        List.iter (Printf.bprintf b "%d,") r.nodes;
        List.iter (fun (pid, x, y) -> Printf.bprintf b "v%d.%d.%d," pid x y)
          r.pin_vias);
      Buffer.add_char b ';')
    f.routes;
  Array.iter (fun c -> Buffer.add_char b (if c then '1' else '0')) f.clean;
  Printf.bprintf b "|%d|%d|%d|" (List.length f.violations) f.total_reroutes
    f.ripup_iterations;
  Option.iter (fun p -> Buffer.add_string b (pao_digest p)) f.pao;
  hex_digest b

(* ---- correctness checks (clock-free) ---- *)

let error_text e =
  match Pinaccess.Cpr_error.of_exn e with
  | Some t -> Pinaccess.Cpr_error.to_string t
  | None -> Printexc.to_string e

let check_pao (p : PA.t) =
  let validated =
    match PA.validate ~complete:true p with
    | () -> []
    | exception e -> [ "validate: " ^ error_text e ]
  in
  let certified =
    match Audit.certify_pin_access p with
    | Ok () -> []
    | Error r -> [ "certificate: " ^ Audit.reason_to_string r ]
  in
  let degraded =
    if p.PA.degraded || List.exists (fun (r : PA.panel_report) -> r.degraded) p.PA.reports
    then [ "a panel reports degraded" ]
    else []
  in
  validated @ certified @ degraded

let check_flow (f : Router.Flow.t) =
  (match f.pao with
  | None -> [ "flow carries no pin access result" ]
  | Some p -> check_pao p)
  @ List.map
      (fun i -> "flow audit: " ^ Audit.Flow_audit.issue_to_string i)
      (Audit.Flow_audit.run f)

let digest_check ~what ~expected actual =
  match Stats.same_digest ~what ~expected actual with
  | Ok () -> []
  | Error e -> [ e ]

let flag_disagreement tally what digests =
  match Stats.digests_agree digests with
  | Ok () -> ()
  | Error e -> Stats.flag tally (what ^ ": " ^ e)

let flag_broken tally what = function
  | [] -> ()
  | broken -> Stats.flag tally (what ^ ": " ^ String.concat "; " broken)

(* One checked operation: [op] alone is timed, its checks run after the
   clock stops.  A failed operation still advances the repetition loop
   by the time it took. *)
let timed_op tally op ~check =
  let t0 = now () in
  match Stats.attempt tally (fun () -> timed op) ~check:(fun (v, _) -> check v) with
  | Some (v, t) -> (Some v, t)
  | None -> (None, now () -. t0)

(* Run [rep] until the seconds it reports add up to [seconds], at least
   [min_reps] times, but never past [hard_stop] after start-up. *)
let repeat ~seconds ~min_reps rep =
  let rec go i acc spent =
    if (i >= min_reps && spent >= seconds) || (i >= 1 && now () -. started > hard_stop)
    then List.rev acc
    else
      let v, t = rep i in
      go (i + 1) (v :: acc) (spent +. t)
  in
  go 0 [] 0.0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

let print_result tally metrics notes =
  List.iter print_endline notes;
  List.iter
    (fun m -> Printf.printf "%-44s %.6g %s\n" m.name m.value m.unit_)
    metrics;
  Printf.printf "failed_share %d/%d = %g\n" (Stats.failed tally)
    (Stats.attempted tally)
    (if Stats.attempted tally = 0 then 1.0 else Stats.failed_share tally);
  List.iter (fun r -> Printf.printf "FAILED: %s\n" r) (Stats.reasons tally);
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = Stats.correct tally && Stats.attempted tally > 0 && finite in
  let body =
    List.map
      (fun m ->
        let v =
          if Float.is_integer m.value && Float.abs m.value < 1e15 then
            Printf.sprintf "%.0f" m.value
          else Printf.sprintf "%.17g" m.value
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (if Float.is_finite m.value then v else "null")
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (max 1 (Stats.attempted tally))
    (if Stats.attempted tally = 0 then 1 else Stats.failed tally)
    (String.concat ", " body)

(* ---- timed runs: end-to-end metrics ---- *)

(* Result quality summed over a run's designs. *)
type quality = {
  routed : int;
  nets : int;
  vias : int;
  wl : int;
  drc : int;
  objective : float;
}

let quality_of_flow ~objective (f : Router.Flow.t) =
  let s = Metrics.Eval.of_flow f in
  {
    routed = s.Metrics.Eval.routed_nets;
    nets = s.Metrics.Eval.total_nets;
    vias = s.Metrics.Eval.via_count;
    wl = s.Metrics.Eval.wirelength;
    drc = s.Metrics.Eval.violations;
    objective;
  }

let sum_quality qs =
  List.fold_left
    (fun a q ->
      {
        routed = a.routed + q.routed;
        nets = a.nets + q.nets;
        vias = a.vias + q.vias;
        wl = a.wl + q.wl;
        drc = a.drc + q.drc;
        objective = a.objective +. q.objective;
      })
    { routed = 0; nets = 0; vias = 0; wl = 0; drc = 0; objective = 0.0 }
    qs

(* What a timed run measured.  A round calls the workload's operation
   for every design of the run: [rounds] are round walls, [ops] single
   operation latencies.  Every operation returns a result for its
   whole design, so a round serves [served] nets; it absorbs [edits]
   edits. *)
type measured = {
  rounds : float list;
  ops : float list;
  setups : float list;
  served : float;
  edits : float;
  peak : float;
  quality : quality;
}

let end_to_end m =
  let round_s = Stats.median m.rounds in
  let tail = Stats.tail (List.map (fun s -> s *. 1000.0) m.ops) in
  let q = m.quality in
  let metrics =
    [
      { name = "wall_s"; value = round_s; unit_ = "s" };
      { name = "setup_s"; value = Stats.median m.setups; unit_ = "s" };
      { name = "nets_per_s"; value = m.served /. round_s; unit_ = "1/s" };
      { name = "edits_per_s"; value = m.edits /. round_s; unit_ = "1/s" };
      { name = "eco_step_p50_ms"; value = Stats.median m.ops *. 1000.0; unit_ = "ms" };
      { name = "eco_step_tail_ms"; value = tail.Stats.value; unit_ = "ms" };
      { name = "peak_heap_mb"; value = m.peak; unit_ = "MB" };
      {
        name = "routability_pct";
        value = 100.0 *. float_of_int q.routed /. float_of_int (max 1 q.nets);
        unit_ = "%";
      };
      { name = "via_count"; value = float_of_int q.vias; unit_ = "count" };
      { name = "wirelength"; value = float_of_int q.wl; unit_ = "grids" };
      { name = "drc_violations"; value = float_of_int q.drc; unit_ = "count" };
      { name = "pao_objective"; value = q.objective; unit_ = "objective" };
    ]
  in
  let note =
    Printf.sprintf "%d rounds; eco_step_tail_ms is %s over %d operations%s"
      (List.length m.rounds) tail.Stats.rank tail.Stats.samples
      (if tail.Stats.resolved then ""
       else " (no percentile leaves 10 beyond it; the median stands in)")
  in
  (metrics, note)

(* Per design, the output digests of every round must agree. *)
let flag_rounds tally what (rounds : string list list) =
  match rounds with
  | [] -> ()
  | first :: _ ->
    List.iteri
      (fun i _ ->
        flag_disagreement tally
          (Printf.sprintf "%s, design %d" what i)
          (List.map (fun r -> List.nth r i) rounds))
      first

let sum_times = List.fold_left (fun acc t -> acc +. t) 0.0

(* The cold workloads' set-up: generating the run's designs, done
   [cold_setup_reps] times (each generation one set-up sample); every
   repetition must yield byte-identical designs. *)
let cold_setup tally ~seed =
  let reps =
    List.init cold_setup_reps (fun _ ->
        List.init cold_designs (fun i ->
            timed (fun () -> design ~scale:cold_scale ~seed:(design_seed seed i))))
  in
  let text d = Digest.to_hex (Digest.string (Netlist.Design_io.to_string d)) in
  flag_rounds tally "generated designs" (List.map (List.map (fun (d, _) -> text d)) reps);
  (List.map fst (List.hd reps), List.concat_map (List.map snd) reps)

(* Rounds of one timed, checked [op] per design until [seconds] of
   operations are spent; [first] sees each design's first-round
   output.  Returns per round the (digest, latency) of every call. *)
let cold_rounds tally designs ~seconds ~op ~check ~digest ~first =
  repeat ~seconds ~min_reps:min_rounds (fun round ->
      let calls =
        List.mapi
          (fun i d ->
            Gc.full_major ();
            match timed_op tally (fun () -> op d) ~check:(check i) with
            | Some v, t ->
              if round = 0 then first i d v;
              (digest v, t)
            | None, t -> ("failed", t))
          designs
      in
      (calls, sum_times (List.map snd calls)))

let cold_measured tally what calls ~peak ~setups ~designs ~quality =
  flag_rounds tally what (List.map (List.map fst) calls);
  let nets = float_of_int (List.fold_left (fun acc d -> acc + num_nets d) 0 designs) in
  end_to_end
    {
      rounds = List.map (fun c -> sum_times (List.map snd c)) calls;
      ops = List.concat_map (List.map snd) calls;
      setups;
      served = nets;
      (* a cold solve absorbs its whole design: one add_net per net *)
      edits = nets;
      peak;
      quality = sum_quality quality;
    }

let timed_pao_cold tally ~seed ~seconds =
  let designs, setups = cold_setup tally ~seed in
  let outputs = Array.make cold_designs None in
  let calls =
    cold_rounds tally designs ~seconds
      ~op:(fun d -> PA.optimize ~kind:PA.Lr ~j:1 d)
      ~check:(fun _ -> check_pao)
      ~digest:pao_digest
      ~first:(fun i _ p -> outputs.(i) <- Some p)
  in
  let peak = peak_heap_mb () in
  (* each result's quality as the router sees it, outside the timed region *)
  let quality =
    List.concat
      (List.mapi
         (fun i d ->
           match outputs.(i) with
           | None -> []
           | Some p ->
             let flow = Router.Cpr.run_with_pao d p in
             flag_broken tally "routing a pao-cold result" (check_flow flow);
             [ quality_of_flow ~objective:p.PA.objective flow ])
         designs)
  in
  let metrics, note = cold_measured tally "pao-cold outputs" calls ~peak ~setups ~designs ~quality in
  (metrics, [ note; "pao digests " ^ String.concat " " (List.map fst (List.hd calls)) ])

let timed_flow_j2 tally ~seed ~seconds =
  let designs, setups = cold_setup tally ~seed in
  (* the -jN bit-identity references: pao-cold's own call, at j=1 *)
  let expected =
    Array.of_list
      (List.map
         (fun d ->
           let p = PA.optimize ~kind:PA.Lr ~j:1 d in
           flag_broken tally "j=1 reference" (check_pao p);
           pao_digest p)
         designs)
  in
  let check i (f : Router.Flow.t) =
    check_flow f
    @
    match f.pao with
    | Some p -> digest_check ~what:"PAO at j=2 vs j=1" ~expected:expected.(i) (pao_digest p)
    | None -> []
  in
  let quality = ref [] in
  let calls =
    cold_rounds tally designs ~seconds
      ~op:(fun d -> Router.Cpr.run ~config:flow_config d)
      ~check ~digest:flow_digest
      ~first:(fun _ _ (f : Router.Flow.t) ->
        let objective = match f.pao with Some p -> p.PA.objective | None -> nan in
        quality := quality_of_flow ~objective f :: !quality)
  in
  let peak = peak_heap_mb () in
  let metrics, note =
    cold_measured tally "flow-j2 outputs" calls ~peak ~setups ~designs ~quality:(List.rev !quality)
  in
  ( metrics,
    [
      note;
      "pao digests " ^ String.concat " " (Array.to_list expected);
      "flow digests " ^ String.concat " " (List.map fst (List.hd calls));
    ] )

(* Generate one design and its edit stream and cold-start a routing
   engine on it: one eco-route set-up sample. *)
let eco_setup tally ~seed =
  let (d, stream, engine), t =
    timed (fun () ->
        let d = design ~scale:eco_scale ~seed in
        let stream =
          Workloads.Eco_stream.local_moves ~seed:(stream_seed seed)
            ~steps:eco_steps ~dirty_fraction d
        in
        (d, stream, Engine.create ~config:eco_config d))
  in
  (match Engine.flow engine with
  | Some f -> flag_broken tally "cold engine" (check_pao (Engine.pao engine) @ check_flow f)
  | None -> Stats.flag tally "cold engine has no flow");
  (d, stream, engine, t)

let check_engine engine _report =
  check_pao (Engine.pao engine)
  @
  match Engine.flow engine with
  | Some f -> check_flow f
  | None -> [ "engine lost its flow" ]

let engine_digest engine =
  match Engine.flow engine with Some f -> flow_digest f | None -> "no-flow"

(* One replay of the stream; per step the latency, the report (when the
   step succeeded) and the engine's output digest. *)
let replay tally engine stream ~apply =
  List.map
    (fun batch ->
      let r, t = timed_op tally (fun () -> apply engine batch) ~check:(check_engine engine) in
      (t, r, engine_digest engine))
    stream

(* A round replays every design's stream on a freshly set-up engine. *)
let timed_eco_route tally ~seed ~seconds =
  let setups = ref [] and quality = ref [] and served = ref 0 and edits = ref 0 in
  let rounds =
    repeat ~seconds ~min_reps:min_rounds (fun round ->
        let replays =
          List.init eco_designs (fun i ->
              Gc.full_major ();
              let d, stream, engine, setup = eco_setup tally ~seed:(design_seed seed i) in
              setups := setup :: !setups;
              Gc.full_major ();
              let steps = replay tally engine stream ~apply:Engine.apply in
              if round = 0 then begin
                served := !served + (num_nets d * List.length steps);
                List.iter
                  (fun (_, r, _) ->
                    Option.iter (fun (r : Engine.step_report) -> edits := !edits + r.deltas) r)
                  steps;
                match Engine.flow engine with
                | Some f ->
                  quality :=
                    quality_of_flow ~objective:(Engine.pao engine).PA.objective f :: !quality
                | None -> ()
              end;
              ( String.concat "," (List.map (fun (_, _, g) -> g) steps),
                List.map (fun (t, _, _) -> t) steps ))
        in
        (replays, sum_times (List.concat_map snd replays)))
  in
  let peak = peak_heap_mb () in
  flag_rounds tally "eco-route replays" (List.map (List.map fst) rounds);
  let metrics, note =
    end_to_end
      {
        rounds = List.map (fun r -> sum_times (List.concat_map snd r)) rounds;
        ops = List.concat_map (List.concat_map snd) rounds;
        setups = !setups;
        served = float_of_int !served;
        edits = float_of_int !edits;
        peak;
        quality = sum_quality (List.rev !quality);
      }
  in
  (metrics, [ note ])

(* ---- traced runs: per-layer metrics ---- *)

let per_layer_units =
  [
    ("lagrangian.solve_s", "s");
    ("lagrangian.iterations", "count");
    ("lagrangian.ns_per_iteration_term", "ns");
    ("lagrangian.max_gains_ns_per_interval", "ns");
    ("pin_access.build_s", "s");
    ("interval_gen.intervals", "count");
    ("conflict.cliques", "count");
    ("refine.shrinks", "count");
    ("pin_access.optimize_s", "s");
    ("pin_access.share_of_flow", "ratio");
    ("exec.chunks", "count");
    ("exec.steals", "count");
    ("exec.steal_misses", "count");
    ("cpr.route_s", "s");
    ("negotiation.reroutes", "count");
    ("negotiation.ripup_rounds", "count");
    ("maze.expansions", "count");
    ("maze.pushes", "count");
    ("maze.alloc_words_per_expansion", "words");
    ("cpr.route_ns_per_expansion", "ns");
    ("drc.check_s", "s");
    ("eco.cache_hit_rate", "ratio");
    ("eco.panels_solved_per_step", "count");
    ("eco.warm_started_per_step", "count");
    ("eco.pao_ms_per_step", "ms");
    ("eco.route_ms_per_step", "ms");
    ("eco.frozen_nets_per_step", "count");
    ("eco.rerouted_nets_per_step", "count");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("obs.trace_overhead", "ratio");
  ]

(* Layers the benchmark wraps in spans; each reports count, total
   time, self time and self time's share of the operation's wall. *)
let span_layers =
  [
    "op";
    "pin_access.build_panel";
    "pin_access.solve_panel";
    "pin_access.optimize";
    "cpr.run_with_pao";
    "eco.apply";
    "drc.check";
    "lagrangian.max_gains";
  ]

let span_units = [ ("count", "count"); ("total_s", "s"); ("self_s", "s"); ("share", "ratio") ]

let all_per_layer =
  per_layer_units
  @ List.concat_map
      (fun l -> List.map (fun (f, u) -> (Printf.sprintf "span.%s.%s" l f, u)) span_units)
      span_layers

(* GC and scheduler deltas over a call: counts, so reading them from
   the untraced twin of a traced repetition costs no accuracy. *)
type counts = { minor : float; majors : int; chunks : int; steals : int; misses : int }

let no_counts = { minor = 0.0; majors = 0; chunks = 0; steals = 0; misses = 0 }
let pool () = Exec.shared ~domains:flow_config.Router.Cpr.jobs

let counted f =
  let exec0 = Exec.stats (pool ()) and gc0 = Gc.quick_stat () in
  let v = f () in
  let gc1 = Gc.quick_stat () and exec1 = Exec.stats (pool ()) in
  ( v,
    {
      minor = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
      chunks = exec1.Exec.chunks - exec0.Exec.chunks;
      steals = exec1.Exec.chunks_stolen - exec0.Exec.chunks_stolen;
      misses = exec1.Exec.steal_misses - exec0.Exec.steal_misses;
    } )

let add_counts a b =
  {
    minor = a.minor +. b.minor;
    majors = a.majors + b.majors;
    chunks = a.chunks + b.chunks;
    steals = a.steals + b.steals;
    misses = a.misses + b.misses;
  }

(* The untraced twin of a traced repetition: its wall, output digest
   and counts. *)
type untraced = { wall : float; digest : string; counts : counts }

let untraced tally op ~check ~digest =
  match timed_op tally (fun () -> counted op) ~check:(fun (v, _) -> check v) with
  | Some (v, counts), wall -> { wall; digest = digest v; counts }
  | None, wall -> { wall; digest = "failed"; counts = no_counts }

let counter delta name = float_of_int (Obs.Metrics.counter_delta delta name)

let delta_over f =
  let before = Obs.Metrics.snapshot () in
  let v = f () in
  (v, Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()))

(* Rebuild the whole-design result from per-panel solves exactly as
   Pin_access.optimize merges them: panel order, objective summed in
   that order. *)
let compose design solved ~elapsed =
  let reports = List.map snd solved in
  {
    PA.design;
    kind = PA.Lr;
    assignments = List.concat_map fst solved;
    objective =
      List.fold_left (fun acc (r : PA.panel_report) -> acc +. r.objective) 0.0 reports;
    reports;
    degraded = List.exists (fun (r : PA.panel_report) -> r.degraded) reports;
    elapsed;
    tpl = None;
  }

let panels design = List.init (Netlist.Design.num_panels design) Fun.id

(* Per-panel build and solve, sequentially, as child spans of [parent]. *)
let traced_panels spans ~parent design =
  List.map
    (fun panel ->
      let problem, _ =
        Spans.record spans ~parent "pin_access.build_panel" (fun _ ->
            PA.build_panel PA.default_config design ~panel)
      in
      if Pinaccess.Problem.num_pins problem = 0 then (problem, None)
      else
        let (a, _, r, _), _ =
          Spans.record spans ~parent "pin_access.solve_panel" (fun _ ->
              PA.solve_panel ~kind:PA.Lr ~panel problem)
        in
        (problem, Some (a, r)))
    (panels design)

(* The same calls fanned over the flow's domain pool, metrics buffered
   per task and merged in panel order as optimize does; the spans are
   stamped on the workers and added after the join. *)
let traced_panels_parallel spans ~parent design =
  Exec.map (pool ())
    (fun panel ->
      Obs.Metrics.buffered (fun () ->
          let t0 = now () in
          let problem = PA.build_panel PA.default_config design ~panel in
          let t1 = now () in
          if Pinaccess.Problem.num_pins problem = 0 then (problem, None, t0, t1, t1)
          else
            let a, _, r, _ = PA.solve_panel ~kind:PA.Lr ~panel problem in
            (problem, Some (a, r), t0, t1, now ())))
    (Array.of_list (panels design))
  |> Array.to_list
  |> List.map (fun ((problem, solved, t0, t1, t2), buffer) ->
         Obs.Metrics.flush buffer;
         ignore (Spans.add spans ~parent "pin_access.build_panel" ~start:t0 ~stop:t1);
         if solved <> None then
           ignore (Spans.add spans ~parent "pin_access.solve_panel" ~start:t1 ~stop:t2);
         (problem, solved))

let solved_panels built = List.filter_map snd built

(* Lagrangian.max_gains on every non-empty panel at iteration-0 gains
   (the profits), [microbench_reps] calls per panel in one span; ns per
   call per candidate interval. *)
let microbench spans problems =
  let ns, terms =
    List.fold_left
      (fun (ns, terms) (problem : Pinaccess.Problem.t) ->
        if Pinaccess.Problem.num_pins problem = 0 then (ns, terms)
        else
          let gains = Array.copy problem.profits in
          let (), span =
            Spans.record spans "lagrangian.max_gains" (fun _ ->
                for _ = 1 to microbench_reps do
                  ignore (Pinaccess.Lagrangian.max_gains problem ~gains)
                done)
          in
          ( ns +. (Spans.duration spans span *. 1e9),
            terms + (microbench_reps * Pinaccess.Problem.num_intervals problem) ))
      (0.0, 0) problems
  in
  if terms = 0 then 0.0 else ns /. float_of_int terms

(* DRC on the final layout; the extraction stays outside the span. *)
let traced_drc spans (f : Router.Flow.t) =
  let layout = Drc.Extract.of_routes f.design f.routes in
  let _, span = Spans.record spans "drc.check" (fun _ -> Drc.Check.run f.rules layout) in
  Spans.duration spans span

let find_layer spans name =
  match List.find_opt (fun (l : Spans.layer) -> l.name = name) (Spans.layers spans) with
  | Some l -> l
  | None -> { Spans.name; count = 0; total = 0.0; self = 0.0 }

let span_metrics spans ~op_wall =
  List.concat_map
    (fun name ->
      let l = find_layer spans name in
      [
        (Printf.sprintf "span.%s.count" name, float_of_int l.count);
        (Printf.sprintf "span.%s.total_s" name, l.total);
        (Printf.sprintf "span.%s.self_s" name, l.self);
        (Printf.sprintf "span.%s.share" name, l.self /. op_wall);
      ])
    span_layers

let layer_total spans name = (find_layer spans name).total
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Metrics every workload reads the same way: counters over the traced
   op, GC and scheduler counts from the untraced twin, and the span
   table — so call it last, once every span is recorded. *)
let common spans (u : untraced) delta ~op_wall =
  let expansions = counter delta "maze.expansions" in
  [
    ("lagrangian.iterations", counter delta "lr.iterations");
    ("refine.shrinks", counter delta "refine.shrinks");
    ("exec.chunks", float_of_int u.counts.chunks);
    ("exec.steals", float_of_int u.counts.steals);
    ("exec.steal_misses", float_of_int u.counts.misses);
    ("negotiation.reroutes", counter delta "negotiation.reroutes");
    ("negotiation.ripup_rounds", counter delta "negotiation.ripup_rounds");
    ("maze.expansions", expansions);
    ("maze.pushes", counter delta "maze.pushes");
    ("maze.alloc_words_per_expansion", ratio (counter delta "maze.alloc_words") expansions);
    ("gc.minor_words", u.counts.minor);
    ("gc.major_collections", float_of_int u.counts.majors);
    ("obs.trace_overhead", (op_wall /. u.wall) -. 1.0);
  ]
  @ span_metrics spans ~op_wall

(* Panel-build and LR metrics of per-panel solves. *)
let panel_metrics spans built =
  let solve_s = layer_total spans "pin_access.solve_panel" in
  let terms =
    List.fold_left
      (fun acc (_, (r : PA.panel_report)) -> acc + (r.lr_iterations * r.intervals))
      0 (solved_panels built)
  in
  let problems = List.map fst built in
  let sum f = float_of_int (List.fold_left (fun acc p -> acc + f p) 0 problems) in
  [
    ("lagrangian.solve_s", solve_s);
    ("lagrangian.ns_per_iteration_term", ratio (solve_s *. 1e9) (float_of_int terms));
    ("lagrangian.max_gains_ns_per_interval", microbench spans problems);
    ("pin_access.build_s", layer_total spans "pin_access.build_panel");
    ("interval_gen.intervals", sum Pinaccess.Problem.num_intervals);
    ("conflict.cliques", sum Pinaccess.Problem.num_cliques);
  ]

let traced_pao_cold tally d =
  let u =
    untraced tally (fun () -> PA.optimize ~kind:PA.Lr ~j:1 d) ~check:check_pao
      ~digest:pao_digest
  in
  let spans = Spans.create ~now in
  let (built, op), delta =
    delta_over (fun () -> Spans.record spans "op" (fun op -> traced_panels spans ~parent:op d))
  in
  let op_wall = Spans.duration spans op in
  ignore
    (Stats.attempt tally
       (fun () -> compose d (solved_panels built) ~elapsed:op_wall)
       ~check:(fun p ->
         check_pao p
         @ digest_check ~what:"traced pao-cold output" ~expected:u.digest (pao_digest p)));
  let pao_s =
    layer_total spans "pin_access.build_panel" +. layer_total spans "pin_access.solve_panel"
  in
  let panel = panel_metrics spans built in
  ( panel
    @ [
        ("pin_access.optimize_s", pao_s);
        ("pin_access.share_of_flow", pao_s /. op_wall);
      ]
    @ common spans u delta ~op_wall,
    u.wall +. op_wall )

let traced_flow_j2 tally d =
  let u =
    untraced tally
      (fun () -> Router.Cpr.run ~config:flow_config d)
      ~check:check_flow ~digest:flow_digest
  in
  let spans = Spans.create ~now in
  let ((built, pao_span, flow, route_span), op), delta =
    delta_over (fun () ->
        Spans.record spans "op" (fun op ->
            let (built, pao), pao_span =
              Spans.record spans ~parent:op "pin_access.optimize" (fun parent ->
                  let built = traced_panels_parallel spans ~parent d in
                  (built, compose d (solved_panels built) ~elapsed:0.0))
            in
            let flow, route_span =
              Spans.record spans ~parent:op "cpr.run_with_pao" (fun _ ->
                  Router.Cpr.run_with_pao ~config:flow_config d pao)
            in
            (built, pao_span, flow, route_span)))
  in
  let op_wall = Spans.duration spans op in
  ignore
    (Stats.attempt tally
       (fun () -> flow)
       ~check:(fun f ->
         check_flow f
         @ digest_check ~what:"traced flow-j2 output" ~expected:u.digest (flow_digest f)));
  let route_s = Spans.duration spans route_span and pao_s = Spans.duration spans pao_span in
  let drc_s = traced_drc spans flow in
  let panel = panel_metrics spans built in
  ( panel
    @ [
        ("pin_access.optimize_s", pao_s);
        ("pin_access.share_of_flow", pao_s /. op_wall);
        ("cpr.route_s", route_s);
        ("cpr.route_ns_per_expansion", ratio (route_s *. 1e9) (counter delta "maze.expansions"));
        ("drc.check_s", drc_s);
      ]
    @ common spans u delta ~op_wall,
    u.wall +. op_wall )

let traced_eco_route tally ~seed =
  (* untraced twin: a timed, audited replay like the timed runs' *)
  let _, stream, engine, _ = eco_setup tally ~seed in
  let counts = ref no_counts in
  let steps =
    replay tally engine stream ~apply:(fun e b ->
        let r, c = counted (fun () -> Engine.apply e b) in
        counts := add_counts !counts c;
        r)
  in
  let digests = List.map (fun (_, _, g) -> g) steps in
  let u =
    {
      wall = List.fold_left (fun acc (t, _, _) -> acc +. t) 0.0 steps;
      digest = String.concat "," digests;
      counts = !counts;
    }
  in
  (* traced: a fresh engine, one span per Engine.apply; the flows are
     kept and digested after the op, where the untraced twin's audits
     vouch for them through digest equality *)
  let _, _, engine, _ = eco_setup tally ~seed in
  let spans = Spans.create ~now in
  let (steps, op), delta =
    delta_over (fun () ->
        Spans.record spans "op" (fun parent ->
            List.map
              (fun batch ->
                let r, _ =
                  Spans.record spans ~parent "eco.apply" (fun _ ->
                      try Some (Engine.apply engine batch) with Eco.Delta.Invalid _ -> None)
                in
                (r, Engine.flow engine))
              stream))
  in
  let op_wall = Spans.duration spans op in
  List.iter
    (fun (r, _) ->
      ignore
        (Stats.attempt tally (fun () -> r) ~check:(function
          | Some _ -> []
          | None -> [ "traced step rejected its batch" ])))
    steps;
  flag_disagreement tally "traced eco-route replay"
    [
      u.digest;
      String.concat ","
        (List.map (fun (_, f) -> match f with Some f -> flow_digest f | None -> "no-flow") steps);
    ];
  let reports = List.filter_map fst steps in
  let n = float_of_int (max 1 (List.length reports)) in
  let sum f = List.fold_left (fun acc (r : Engine.step_report) -> acc +. f r) 0.0 reports in
  let per_step f = sum (fun r -> float_of_int (f r)) /. n in
  let pao_s = sum (fun r -> r.pao_wall) and route_s = sum (fun r -> r.route_wall) in
  let drc_s = match Engine.flow engine with Some f -> traced_drc spans f | None -> 0.0 in
  (* panel build and LR kernel on the final design, outside the op *)
  let final = Engine.design engine in
  let built =
    List.map
      (fun panel ->
        ( fst
            (Spans.record spans "pin_access.build_panel" (fun _ ->
                 PA.build_panel PA.default_config final ~panel)),
          None ))
      (panels final)
  in
  let panel = panel_metrics spans built in
  ( List.filter (fun (name, _) -> name <> "lagrangian.solve_s") panel
    @ [
        ("lagrangian.solve_s", pao_s);
        ("pin_access.optimize_s", pao_s);
        ("pin_access.share_of_flow", pao_s /. op_wall);
        ("cpr.route_s", route_s);
        ("cpr.route_ns_per_expansion", ratio (route_s *. 1e9) (counter delta "maze.expansions"));
        ("drc.check_s", drc_s);
        ( "eco.cache_hit_rate",
          ratio (sum (fun r -> float_of_int r.cache_hits)) (sum (fun r -> float_of_int r.panels)) );
        ("eco.panels_solved_per_step", per_step (fun r -> r.solved));
        ("eco.warm_started_per_step", per_step (fun r -> r.warm_started));
        ("eco.pao_ms_per_step", pao_s *. 1000.0 /. n);
        ("eco.route_ms_per_step", route_s *. 1000.0 /. n);
        ("eco.frozen_nets_per_step", per_step (fun r -> r.frozen_nets));
        ("eco.rerouted_nets_per_step", per_step (fun r -> r.rerouted_nets));
      ]
    @ common spans u delta ~op_wall,
    u.wall +. op_wall )

(* Alternate untraced and traced repetitions on the run's first design
   for [seconds]; each per-layer metric is the median over
   repetitions, a layer that does not run on the workload reads 0. *)
let traced tally ~workload ~seed ~seconds =
  let seed = design_seed seed 0 in
  let rep =
    match workload with
    | "pao-cold" ->
      let d = design ~scale:cold_scale ~seed in
      fun () -> traced_pao_cold tally d
    | "flow-j2" ->
      let d = design ~scale:cold_scale ~seed in
      fun () -> traced_flow_j2 tally d
    | _ -> fun () -> traced_eco_route tally ~seed
  in
  let reps = repeat ~seconds ~min_reps:2 (fun _ -> Gc.full_major (); rep ()) in
  let value name =
    Stats.median
      (List.map (fun rep -> Option.value ~default:0.0 (List.assoc_opt name rep)) reps)
  in
  ( List.map (fun (name, unit_) -> { name; value = value name; unit_ }) all_per_layer,
    [ Printf.sprintf "per-layer metrics: median of %d traced repetitions" (List.length reps) ] )

(* ---- command line ---- *)

let workloads = [ "pao-cold"; "flow-j2"; "eco-route" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload pao-cold|flow-j2|eco-route --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Int (fun n -> seed := Some n), " input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), " measured seconds");
      ("--trace", Arg.Int (fun t -> trace := Some t), " 1: per-layer traced run");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun _ -> usage ()) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as trace)
    when List.mem !workload workloads && seconds > 0.0 ->
    let tally = Stats.tally () in
    let seed64 = Int64.of_int seed in
    let metrics, notes =
      if trace = 1 then traced tally ~workload:!workload ~seed:seed64 ~seconds
      else
        match !workload with
        | "pao-cold" -> timed_pao_cold tally ~seed:seed64 ~seconds
        | "flow-j2" -> timed_flow_j2 tally ~seed:seed64 ~seconds
        | _ -> timed_eco_route tally ~seed:seed64 ~seconds
    in
    print_result tally metrics
      (Printf.sprintf "workload %s seed %d trace %d" !workload seed trace :: notes)
  | _ -> usage ()
