(** Budgeted, observable fan-out of independent tasks.

    Panels are independent subproblems (paper Sec. 3.4), and so are a
    library sweep's cells and an ECO step's missed panels: each is one
    task, run on an {!Exec} executor, merged back in input order.  This
    module is that whole discipline in one place.  For every task it

    - carves an equal, {e isolated} share of the budget's remaining
      work ({!Budget.isolated}: a private counter, so domains share no
      mutable budget state);
    - opens the task's deadline share when the task starts, never at
      fan-out, so a task queued behind slow siblings does not start
      with an already-expired slice while the budget has time left;
    - runs the task under [Obs.Metrics.buffered] (and
      [Obs.Trace.buffered] when tracing is on);

    and, on the caller after the executor joins, flushes each task's
    metrics, replays its spans and spends its work on the budget in
    input order.  A pool of one domain ({!Exec.sequential}) takes the
    same path, so the merged results, metrics, spans and budget
    accounting are identical at every domain count — also under a
    finite work allowance.  Only a deadline, which reads the clock,
    can tell runs apart. *)

val map :
  ?budget:Budget.t ->
  ?merged:(int -> 'b -> unit) ->
  Exec.t ->
  (Budget.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map ?budget pool f xs] is [f slice_i xs.(i)] for every [i], in
    input order.  Without [budget] every task gets an unlimited slice.
    [merged i y] (default: nothing) runs on the caller right after
    task [i]'s metrics, spans and work were merged, in input order —
    the place to read a per-task metrics window.

    If tasks raise, the exception of the lowest input index is
    re-raised ({!Exec.map}'s contract) and nothing is merged. *)
