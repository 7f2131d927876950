let map ?budget ?(merged = fun _ _ -> ()) pool f xs =
  let budget = Budget.of_option budget in
  let n = max 1 (Array.length xs) in
  let seconds =
    Option.map (fun s -> s /. float_of_int n) (Budget.remaining_seconds budget)
  in
  let work_units =
    Option.map (fun w -> max 1 (w / n)) (Budget.remaining_work budget)
  in
  let trace_on = Obs.Trace.enabled () in
  let run x =
    (* the deadline share starts counting when the task does; the
       parent's work counter is only read here, never written, until
       the join below *)
    let slice = Budget.isolated budget ?seconds ?work_units () in
    let task () = f slice x in
    let (y, events), mbuf =
      Obs.Metrics.buffered (fun () ->
          if trace_on then Obs.Trace.buffered task else (task (), []))
    in
    (y, events, mbuf, slice)
  in
  Array.mapi
    (fun i (y, events, mbuf, slice) ->
      Obs.Metrics.flush mbuf;
      Obs.Trace.replay events;
      Budget.spend budget (Budget.work_spent slice);
      merged i y;
      y)
    (Exec.map pool run xs)
