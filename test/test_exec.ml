(* The parallel executor: joins, chunked scheduling, deterministic
   error propagation, and the headline PR-3 guarantee — PAO and the
   full CPR flow produce bit-identical results at any [-j]. *)

module PA = Pinaccess.Pin_access
module Eval = Metrics.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_joins_all () =
  let xs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> (i * 7) + 1) xs in
  Exec.with_pool ~domains:4 (fun pool ->
      let got = Exec.map pool (fun i -> (i * 7) + 1) xs in
      check "map equals Array.map" true (got = expected);
      (* the pool is reusable across calls *)
      let again = Exec.map pool (fun i -> i - 3) xs in
      check "second map on same pool" true
        (again = Array.map (fun i -> i - 3) xs))

let test_mapi_indices () =
  let xs = Array.make 50 "x" in
  Exec.with_pool ~domains:3 (fun pool ->
      let got = Exec.mapi pool (fun i s -> Printf.sprintf "%s%d" s i) xs in
      check "mapi passes the element index" true
        (got = Array.init 50 (fun i -> Printf.sprintf "x%d" i)))

let test_sequential_executor () =
  let xs = Array.init 17 (fun i -> i) in
  let got = Exec.map Exec.sequential (fun i -> i * i) xs in
  check "sequential map" true (got = Array.map (fun i -> i * i) xs);
  check_int "sequential reports one domain" 1 (Exec.domains Exec.sequential)

(* Uneven sizes: every index must be computed exactly once, whatever
   the chunking does at the ragged end. *)
let test_uneven_chunks () =
  List.iter
    (fun n ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Exec.with_pool ~domains:4 (fun pool ->
          let got =
            Exec.mapi pool
              (fun i () ->
                Atomic.incr hits.(i);
                i)
              (Array.make n ())
          in
          check "results in order" true (got = Array.init n (fun i -> i)));
      Array.iteri
        (fun i h ->
          check_int (Printf.sprintf "n=%d index %d computed once" n i) 1
            (Atomic.get h))
        hits)
    [ 1; 2; 3; 7; 23; 64; 101 ]

(* A worker exception re-raises at the join, and when several tasks
   fail the lowest index wins — deterministic whatever the domain
   interleaving was. *)
let test_exception_propagation () =
  let boom i =
    Pinaccess.Cpr_error.Error
      (Pinaccess.Cpr_error.Solver_failure
         { solver = string_of_int i; reason = "boom" })
  in
  Exec.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "lowest failing index wins" (boom 37) (fun () ->
          ignore
            (Exec.mapi pool
               (fun i () -> if i = 37 || i = 73 then raise (boom i) else i)
               (Array.make 100 ()))))

(* with_pool must shut the domains down even when the body raises. *)
let test_with_pool_cleanup () =
  (try
     Exec.with_pool ~domains:2 (fun _ -> failwith "body blew up")
   with Failure _ -> ());
  (* a fresh pool still works afterwards *)
  Exec.with_pool ~domains:2 (fun pool ->
      check "pool after failed body" true
        (Exec.map pool (fun i -> i + 1) [| 1; 2; 3 |] = [| 2; 3; 4 |]))

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                *)
(* ------------------------------------------------------------------ *)

(* With a single thread the Chase–Lev deque must behave exactly like a
   model double-ended list: push/pop LIFO at the bottom, steal FIFO at
   the top, and no [Retry] (nobody to lose a race against). *)
let prop_deque_matches_model =
  let open QCheck in
  let op_gen = Gen.oneofl [ `Push; `Pop; `Steal ] in
  let ops = make ~print:(fun l -> string_of_int (List.length l))
      (Gen.list_size (Gen.int_range 1 200) op_gen) in
  Test.make ~name:"deque matches sequential model" ~count:200 ops (fun ops ->
      let d = Exec.Deque.create ~capacity:256 in
      let model = ref [] (* top is the head, bottom the tail *) in
      let next = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Push ->
            Exec.Deque.push d !next;
            model := !model @ [ !next ];
            incr next
          | `Pop -> (
            let got = Exec.Deque.pop d in
            match (got, List.rev !model) with
            | Some v, last :: rest ->
              assert (v = last);
              model := List.rev rest
            | None, [] -> ()
            | _ -> assert false)
          | `Steal -> (
            match (Exec.Deque.steal d, !model) with
            | Exec.Deque.Stolen v, first :: rest ->
              assert (v = first);
              model := rest
            | Exec.Deque.Empty, [] -> ()
            | Exec.Deque.Retry, _ -> assert false
            | _ -> assert false))
        ops;
      (* drain: everything still queued comes out FIFO from the top *)
      List.iter
        (fun expected ->
          match Exec.Deque.steal d with
          | Exec.Deque.Stolen v -> assert (v = expected)
          | _ -> assert false)
        !model;
      Exec.Deque.steal d = Exec.Deque.Empty)

(* The concurrent contract: whatever the interleaving of the owner's
   pushes/pops with thief domains stealing, every pushed value is
   consumed exactly once — none lost, none duplicated. *)
let prop_deque_no_lost_tasks =
  let open QCheck in
  let cfg = make
      ~print:(fun (n, thieves) -> Printf.sprintf "n=%d thieves=%d" n thieves)
      Gen.(pair (int_range 64 2000) (int_range 1 3)) in
  Test.make ~name:"no task lost or duplicated under steals" ~count:12 cfg
    (fun (n, thieves) ->
      let d = Exec.Deque.create ~capacity:n in
      let done_ = Atomic.make false in
      let thief () =
        let mine = ref [] in
        let rec loop () =
          match Exec.Deque.steal d with
          | Exec.Deque.Stolen v ->
            mine := v :: !mine;
            loop ()
          | Exec.Deque.Retry ->
            Domain.cpu_relax ();
            loop ()
          | Exec.Deque.Empty ->
            if Atomic.get done_ then !mine
            else begin
              Domain.cpu_relax ();
              loop ()
            end
        in
        loop ()
      in
      let thieves = List.init thieves (fun _ -> Domain.spawn thief) in
      let owner = ref [] in
      (* interleave pushes with occasional pops so the owner races the
         thieves at both ends, then drain LIFO *)
      for i = 0 to n - 1 do
        Exec.Deque.push d i;
        if i land 7 = 0 then
          match Exec.Deque.pop d with
          | Some v -> owner := v :: !owner
          | None -> ()
      done;
      let rec drain () =
        match Exec.Deque.pop d with
        | Some v ->
          owner := v :: !owner;
          drain ()
        | None -> ()
      in
      drain ();
      Atomic.set done_ true;
      let stolen = List.concat_map Domain.join thieves in
      let all = List.sort compare (!owner @ stolen) in
      all = List.init n (fun i -> i))

let test_deque_capacity () =
  let d = Exec.Deque.create ~capacity:4 in
  for i = 0 to 3 do
    Exec.Deque.push d i
  done;
  check "push past capacity raises" true
    (match Exec.Deque.push d 4 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_accounting () =
  Exec.with_pool ~domains:3 (fun pool ->
      let n = 100 in
      ignore (Exec.map pool (fun i -> i * 2) (Array.init n (fun i -> i)));
      let s = Exec.stats pool in
      check_int "one job fanned out" 1 s.Exec.jobs;
      check_int "every task counted" n s.Exec.tasks;
      (* chunk = max 1 (100 / (3 * 8)) = 4, so 25 chunks; each is
         either popped by its owner or stolen, exactly once *)
      check_int "chunks + steals covers the job" 25
        (s.Exec.chunks + s.Exec.chunks_stolen);
      check_int "depth histogram counts one entry per steal"
        s.Exec.chunks_stolen
        (Array.fold_left ( + ) 0 s.Exec.queue_depth);
      (* a second job accumulates *)
      ignore (Exec.map pool (fun i -> i) (Array.init n (fun i -> i)));
      let s2 = Exec.stats pool in
      check_int "jobs accumulate" 2 s2.Exec.jobs;
      check_int "tasks accumulate" (2 * n) s2.Exec.tasks)

let test_stats_sequential_zero () =
  ignore (Exec.map Exec.sequential (fun i -> i) (Array.init 10 (fun i -> i)));
  let s = Exec.stats Exec.sequential in
  check "sequential stats all zero" true
    (s.Exec.jobs = 0 && s.Exec.tasks = 0 && s.Exec.chunks = 0
   && s.Exec.chunks_stolen = 0)

(* ------------------------------------------------------------------ *)
(* Domain-local observability buffers                                 *)
(* ------------------------------------------------------------------ *)

let test_metrics_buffered_merge () =
  let c = Obs.Metrics.counter "test_exec.buffered" in
  let before = Obs.Metrics.value c in
  let (), buf =
    Obs.Metrics.buffered (fun () ->
        Obs.Metrics.add c 5;
        (* redirection is active: the global counter is untouched *)
        check_int "buffered add invisible" before (Obs.Metrics.value c))
  in
  check_int "still invisible before flush" before (Obs.Metrics.value c);
  Obs.Metrics.flush buf;
  check_int "flush lands the increments" (before + 5) (Obs.Metrics.value c)

(* ------------------------------------------------------------------ *)
(* Fanout: budget shares, input-order merge                           *)
(* ------------------------------------------------------------------ *)

module Budget = Pinaccess.Budget
module Fanout = Pinaccess.Fanout

(* Each task overruns its deadline share; a share opened at fan-out
   would already be spent when the later tasks start, but one opened
   at task start is live as long as the parent deadline is. *)
let test_fanout_deadline_opens_at_start () =
  let t = ref 0.0 in
  Obs.Clock.with_source
    (fun () -> !t)
    (fun () ->
      let budget = Budget.start ~seconds:10.0 () in
      let live_at_start =
        Fanout.map ~budget Exec.sequential
          (fun slice () ->
            let live = not (Budget.exhausted slice) in
            t := !t +. 3.0;
            live)
          (Array.make 4 ())
      in
      check "parent had time left at every start" true (!t -. 3.0 < 10.0);
      check "no task started with an expired share" true
        (Array.for_all Fun.id live_at_start))

let test_fanout_merge_order () =
  let c = Obs.Metrics.counter "test_exec.fanout" in
  let run pool =
    Obs.Metrics.reset ();
    let budget = Budget.start ~work_units:100 () in
    let sink, events = Obs.Trace.collect () in
    let merged = ref [] in
    let shares =
      Obs.Trace.with_sink sink (fun () ->
          Fanout.map ~budget
            ~merged:(fun i _ -> merged := (i, Obs.Metrics.value c) :: !merged)
            pool
            (fun slice i ->
              let share = Budget.remaining_work slice in
              Obs.Trace.with_span (string_of_int i) (fun () ->
                  Obs.Metrics.add c (i + 1);
                  Budget.spend slice 30);
              share)
            (Array.init 5 Fun.id))
    in
    ( List.rev !merged,
      List.map (fun e -> e.Obs.Trace.name) (events ()),
      Array.to_list shares,
      Budget.work_spent budget )
  in
  let expected =
    ( [ (0, 1); (1, 3); (2, 6); (3, 10); (4, 15) ],
      [ "0"; "1"; "2"; "3"; "4" ],
      List.init 5 (fun _ -> Some 20),
      150 )
  in
  check "1 domain: input-order merge, equal shares" true
    (run Exec.sequential = expected);
  Exec.with_pool ~domains:2 (fun pool ->
      check "2 domains: input-order merge, equal shares" true
        (run pool = expected))

exception Task of int

let test_fanout_lowest_exception () =
  let run pool =
    match
      Fanout.map pool
        (fun _ i -> if i = 2 || i = 5 then raise (Task i) else i)
        (Array.init 8 Fun.id)
    with
    | _ -> None
    | exception Task i -> Some i
  in
  check "1 domain: lowest index wins" true (run Exec.sequential = Some 2);
  Exec.with_pool ~domains:2 (fun pool ->
      check "2 domains: lowest index wins" true (run pool = Some 2))

(* ------------------------------------------------------------------ *)
(* Determinism: parallel == sequential, bit for bit                   *)
(* ------------------------------------------------------------------ *)

let small_design () =
  Workloads.Suite.design ~scale:0.12 (Workloads.Suite.find "ecc")

let test_pao_determinism () =
  let design = small_design () in
  let seq = PA.optimize ~kind:PA.Lr design in
  let par = PA.optimize ~kind:PA.Lr ~j:4 design in
  check "objective identical" true (seq.PA.objective = par.PA.objective);
  check "panel reports identical" true (seq.PA.reports = par.PA.reports);
  check "assignments identical" true (seq.PA.assignments = par.PA.assignments)

(* The solve loop builds each panel's problem on the worker that solves
   it (streamed) instead of holding the whole problem list resident;
   it must reproduce solving pre-built problems panel by panel byte for
   byte, at any [-j]. *)
let test_streamed_pao_identity () =
  let design = small_design () in
  let resident =
    List.init (Netlist.Design.num_panels design) Fun.id
    |> List.filter_map (fun panel ->
           let problem = PA.build_panel PA.default_config design ~panel in
           if Pinaccess.Problem.num_pins problem = 0 then None
           else Some (PA.solve_panel ~kind:PA.Lr ~panel problem))
  in
  let reports = List.map (fun (_, _, r, _) -> r) resident in
  let assignments = List.concat_map (fun (a, _, _, _) -> a) resident in
  let streamed = PA.optimize ~kind:PA.Lr design in
  let streamed_par = PA.optimize ~kind:PA.Lr ~j:4 design in
  check "streamed reports identical" true (streamed.PA.reports = reports);
  check "streamed assignments identical" true
    (streamed.PA.assignments = assignments);
  check "streamed -j4 reports identical" true
    (streamed_par.PA.reports = reports);
  check "streamed -j4 assignments identical" true
    (streamed_par.PA.assignments = assignments)

(* Every task gets an equal, isolated share of the work allowance at
   any domain count, so a finite work budget cuts the same panels short
   at [-j4] as at [-j1]. *)
let test_pao_work_budget_determinism () =
  let design = small_design () in
  List.iter
    (fun work_units ->
      let run j =
        let budget = Pinaccess.Budget.start ~work_units () in
        let r = PA.optimize ~budget ~kind:PA.Lr ~j design in
        (r, Pinaccess.Budget.work_spent budget)
      in
      let seq, seq_spent = run 1 and par, par_spent = run 4 in
      let label what = Printf.sprintf "work_units %d: %s" work_units what in
      check (label "reports identical") true (seq.PA.reports = par.PA.reports);
      check (label "assignments identical") true
        (seq.PA.assignments = par.PA.assignments);
      check_int (label "work spent identical") seq_spent par_spent)
    [ 50; 200; 1000 ]

(* Stage-2 coloring: on a design congested enough to need rip-up
   rounds, the pooled flow must still reproduce the sequential routing
   bit for bit — same routes, same iteration count, same verdicts. *)
let test_ripup_coloring_determinism () =
  let design = Workloads.Suite.design ~scale:0.18 (Workloads.Suite.find "ctl") in
  let seq = Router.Cpr.run design in
  let par =
    Router.Cpr.run
      ~config:{ Router.Cpr.default_config with jobs = 4; parallel_init = true }
      design
  in
  check "rip-up rounds actually ran" true
    (seq.Router.Flow.ripup_iterations >= 1);
  check_int "same rip-up iterations" seq.Router.Flow.ripup_iterations
    par.Router.Flow.ripup_iterations;
  check_int "same reroutes" seq.Router.Flow.total_reroutes
    par.Router.Flow.total_reroutes;
  check "routes bit-identical" true
    (seq.Router.Flow.routes = par.Router.Flow.routes);
  check "clean verdicts identical" true
    (seq.Router.Flow.clean = par.Router.Flow.clean)

let test_flow_determinism () =
  let design = small_design () in
  let seq = Eval.of_flow (Router.Cpr.run design) in
  let par =
    Eval.of_flow
      (Router.Cpr.run
         ~config:
           { Router.Cpr.default_config with jobs = 4; parallel_init = true }
         design)
  in
  check "routability identical" true
    (seq.Eval.routability = par.Eval.routability);
  check_int "via count identical" seq.Eval.via_count par.Eval.via_count;
  check_int "wirelength identical" seq.Eval.wirelength par.Eval.wirelength

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map joins all tasks" `Quick test_map_joins_all;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "sequential executor" `Quick
            test_sequential_executor;
          Alcotest.test_case "uneven chunk coverage" `Quick test_uneven_chunks;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "with_pool cleanup" `Quick test_with_pool_cleanup;
        ] );
      ( "deque",
        [
          QCheck_alcotest.to_alcotest prop_deque_matches_model;
          QCheck_alcotest.to_alcotest prop_deque_no_lost_tasks;
          Alcotest.test_case "capacity is hard" `Quick test_deque_capacity;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "sequential stats are zero" `Quick
            test_stats_sequential_zero;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics buffered merge" `Quick
            test_metrics_buffered_merge;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "deadline share opens at task start" `Quick
            test_fanout_deadline_opens_at_start;
          Alcotest.test_case "input-order merge at 1 and 2 domains" `Quick
            test_fanout_merge_order;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_fanout_lowest_exception;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pao j=4 equals j=1" `Quick test_pao_determinism;
          Alcotest.test_case "streamed pao equals resident" `Quick
            test_streamed_pao_identity;
          Alcotest.test_case "pao j=4 equals j=1 under work budgets" `Quick
            test_pao_work_budget_determinism;
          Alcotest.test_case "rip-up coloring equals sequential" `Quick
            test_ripup_coloring_determinism;
          Alcotest.test_case "flow parallel-init equals sequential" `Quick
            test_flow_determinism;
        ] );
    ]
