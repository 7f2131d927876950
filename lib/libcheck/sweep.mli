(** Library sweep: fan the cells of a library across the domain pool.

    Cells are independent — each solves its own synthesized die — so
    the sweep is one {!Pinaccess.Fanout.map} over them: every cell is
    metered by an equal, isolated {!Pinaccess.Budget} share with its
    metrics/trace output buffered, merged in input order.  Like the
    panel fan-out inside [Pin_access], that is one code path for every
    [j], so [-j 1] and [-j 4] runs produce bit-identical results (and
    so bit-identical reports) by construction, not by accident. *)

val run :
  ?j:int ->
  ?budget:Pinaccess.Budget.t ->
  Harness.config ->
  Workloads.Cell_lib.cell list ->
  Check.cell_result list
(** Check every cell, in input order.  [j] defaults to 1; the optional
    [budget] meters the whole sweep (split evenly across cells). *)
