(* One code path for every [j]: each cell is one {!Pinaccess.Fanout}
   task with its own isolated budget share and buffered observability,
   merged in input order, so sequential and parallel sweeps are
   bit-identical by construction. *)
let run ?(j = 1) ?budget config cells =
  Obs.Trace.with_span "libcheck.sweep" @@ fun () ->
  Pinaccess.Fanout.map ?budget
    (Exec.shared ~domains:(max 1 j))
    (fun budget cell -> Check.check_cell ~budget config cell)
    (Array.of_list cells)
  |> Array.to_list
