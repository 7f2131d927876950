(* The benchmark's own arithmetic: the tail rule, failure accounting,
   digest comparison and span self time.  Every case feeds at least one
   deliberately wrong input the code must reject. *)

let check_tail_rule () =
  Alcotest.(check (option int)) "40 samples: p75 leaves exactly 10" (Some 75)
    (Stats.tail_percentile ~n:40);
  Alcotest.(check (option int)) "100 samples: p90" (Some 90)
    (Stats.tail_percentile ~n:100);
  Alcotest.(check (option int)) "20 samples: only the median" (Some 50)
    (Stats.tail_percentile ~n:20);
  Alcotest.(check (option int)) "19 samples: refused" None
    (Stats.tail_percentile ~n:19);
  for n = 1 to 600 do
    match Stats.tail_percentile ~n with
    | None -> Alcotest.(check bool) "refused only below 20" true (n < 20)
    | Some p ->
      Alcotest.(check bool) "at least 10 beyond" true (Stats.beyond ~n p >= 10);
      if p < 99 then
        Alcotest.(check bool) "the next percentile has fewer" true
          (Stats.beyond ~n (p + 1) < 10)
  done

let check_tail_values () =
  let xs = List.init 40 (fun i -> float_of_int (40 - i)) in
  let t = Stats.tail xs in
  Alcotest.(check string) "rank" "p75" t.Stats.rank;
  Alcotest.(check (float 0.0)) "nearest-rank value" 30.0 t.Stats.value;
  Alcotest.(check bool) "resolved" true t.Stats.resolved;
  (* too few samples: a p99 here would rest on nothing *)
  let few = Stats.tail [ 5.0; 1.0; 9.0; 3.0; 100.0 ] in
  Alcotest.(check bool) "unresolved" false few.Stats.resolved;
  Alcotest.(check (float 0.0)) "median stands in" 5.0 few.Stats.value;
  Alcotest.(check (float 0.0)) "even median" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats: no samples") (fun () ->
      ignore (Stats.median []))

let check_failed_share () =
  let t = Stats.tally () in
  let ok = Stats.attempt t (fun () -> 1) ~check:(fun _ -> []) in
  Alcotest.(check (option int)) "success returns its output" (Some 1) ok;
  let rejected =
    Stats.attempt t
      (fun () -> raise (Eco.Delta.Invalid { index = Some 0; reason = "no such pin" }))
      ~check:(fun () -> [])
  in
  Alcotest.(check (option unit)) "a raised Delta.Invalid fails" None rejected;
  let audited = Stats.attempt t (fun () -> 2) ~check:(fun _ -> [ "flow audit: short" ]) in
  Alcotest.(check (option int)) "a failed audit fails" None audited;
  let raising_check =
    Stats.attempt t (fun () -> 3) ~check:(fun _ -> failwith "certificate crashed")
  in
  Alcotest.(check (option int)) "a raising check fails" None raising_check;
  Alcotest.(check int) "attempted" 4 (Stats.attempted t);
  Alcotest.(check int) "failed" 3 (Stats.failed t);
  Alcotest.(check (float 1e-12)) "failed_share" 0.75 (Stats.failed_share t);
  Alcotest.(check bool) "incorrect" false (Stats.correct t);
  Alcotest.(check int) "reasons kept" 3 (List.length (Stats.reasons t));
  let clean = Stats.tally () in
  ignore (Stats.attempt clean (fun () -> ()) ~check:(fun () -> []));
  Alcotest.(check bool) "clean run is correct" true (Stats.correct clean);
  Alcotest.(check (float 0.0)) "zero share" 0.0 (Stats.failed_share clean);
  Stats.flag clean "digests differ";
  Alcotest.(check bool) "a flag makes it incorrect" false (Stats.correct clean);
  Alcotest.(check int) "without counting an operation" 1 (Stats.attempted clean);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_share: nothing attempted") (fun () ->
      ignore (Stats.failed_share (Stats.tally ())))

let check_digests () =
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "equal" true (ok (Stats.digests_agree [ "a"; "a"; "a" ]));
  Alcotest.(check bool) "empty" true (ok (Stats.digests_agree []));
  (match Stats.digests_agree [ "a"; "a"; "b"; "a" ] with
  | Ok () -> Alcotest.fail "a differing digest was accepted"
  | Error e ->
    Alcotest.(check bool) "names the position" true
      (String.length e > 9 && String.sub e 0 9 = "output 2 "));
  Alcotest.(check bool) "reference match" true
    (ok (Stats.same_digest ~what:"j2 vs j1" ~expected:"x" "x"));
  Alcotest.(check bool) "reference mismatch" false
    (ok (Stats.same_digest ~what:"j2 vs j1" ~expected:"x" "y"))

let check_span_self_time () =
  let clock = ref 0.0 in
  let spans = Spans.create ~now:(fun () -> !clock) in
  let (), root =
    Spans.record spans "op" (fun parent ->
        (* two overlapping children (as on two domains) and a gap *)
        ignore (Spans.add spans ~parent "child" ~start:1.0 ~stop:4.0);
        ignore (Spans.add spans ~parent "child" ~start:2.0 ~stop:5.0);
        clock := 10.0)
  in
  Alcotest.(check (float 0.0)) "root duration" 10.0 (Spans.duration spans root);
  let layer name = List.find (fun (l : Spans.layer) -> l.name = name) (Spans.layers spans) in
  Alcotest.(check (float 1e-12)) "union, not sum" 6.0 (layer "op").Spans.self;
  Alcotest.(check int) "children counted" 2 (layer "child").Spans.count;
  Alcotest.(check (float 1e-12)) "children total" 6.0 (layer "child").Spans.total

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick check_tail_rule;
          Alcotest.test_case "tail values" `Quick check_tail_values;
          Alcotest.test_case "failed share" `Quick check_failed_share;
          Alcotest.test_case "digests" `Quick check_digests;
          Alcotest.test_case "span self time" `Quick check_span_self_time;
        ] );
    ]
