(** The benchmark's own arithmetic: sample summaries, the tail rule,
    failure accounting and output-digest comparison.

    Kept free of the solver libraries (and of any clock) so it can be
    tested in isolation, and so no correctness verdict the benchmark
    prints can depend on how fast the machine is. *)

(** {2 Sample summaries} *)

val median : float list -> float
(** Midpoint of the sorted samples (mean of the two middle ones for an
    even count).  @raise Invalid_argument on an empty list. *)

val beyond : n:int -> int -> int
(** [beyond ~n p] is the number of samples strictly above the
    nearest-rank [p]-th percentile of [n] samples: the
    [ceil (p * n / 100)]-th smallest (1-based). *)

val min_beyond : int
(** A tail percentile must leave at least this many samples (10)
    beyond it; a rarer percentile is one or two samples' noise. *)

val tail_percentile : n:int -> int option
(** The highest integer percentile in [[50, 99]] that leaves at least
    {!min_beyond} of [n] samples beyond it, or [None] when even the
    median does not (fewer than 20 samples): the rule refuses to name
    a tail it cannot resolve. *)

type tail = {
  rank : string;  (** ["p75"], or ["p50"] when no tail is resolvable *)
  value : float;
  samples : int;
  resolved : bool;  (** [false]: too few samples, [value] is the median *)
}

val tail : float list -> tail
(** The tail by {!tail_percentile}; with too few samples it falls back
    to the median and says so in [resolved], never to a percentile
    the rule refused. *)

(** {2 Failure accounting} *)

type tally
(** Operations attempted and failed, with the reasons of the first few
    failures. *)

val tally : unit -> tally

val attempt : tally -> (unit -> 'a) -> check:('a -> string list) -> 'a option
(** Run one operation and its correctness checks.  The operation
    fails when it raises (any exception, e.g. a rejected ECO delta) or
    when [check] returns a non-empty list of broken checks; either way
    it is counted, its reasons kept, and [None] returned. *)

val flag : tally -> string -> unit
(** Mark the run incorrect without counting an operation: a check on
    the run as a whole (e.g. digests across operations) failed. *)

val attempted : tally -> int
val failed : tally -> int

val failed_share : tally -> float
(** [failed / attempted].  @raise Invalid_argument when nothing was
    attempted. *)

val correct : tally -> bool
(** No operation failed and nothing was {!flag}ged. *)

val reasons : tally -> string list
(** Oldest first, at most 20. *)

(** {2 Output digests} *)

val digests_agree : string list -> (unit, string) result
(** Every digest equals the first (an empty or singleton list agrees);
    [Error] names the first position that differs. *)

val same_digest : what:string -> expected:string -> string -> (unit, string) result
(** Compare one digest against a reference computed another way. *)
