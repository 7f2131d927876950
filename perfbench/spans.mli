(** Spans recorded by the benchmark around its calls into each layer
    (never inside the program), kept in memory and summarized per
    layer at the end of a traced run. *)

type t

val create : now:(unit -> float) -> t
(** [now] is the clock (seconds) spans are stamped with. *)

val record : t -> ?parent:int -> string -> (int -> 'a) -> 'a * int
(** [record t ~parent name f] runs [f id] inside a new span [id] (so
    [f] can parent further spans on it) and returns its result with
    the id.  Without [parent] the span is a root. *)

val add : t -> ?parent:int -> string -> start:float -> stop:float -> int
(** Add a span measured elsewhere, e.g. on a worker domain. *)

val duration : t -> int -> float

type layer = {
  name : string;
  count : int;
  total : float;  (** summed span durations *)
  self : float;
      (** summed durations minus, per span, the part of its interval
          its child spans cover (their union, so overlapping children
          running on other domains are not subtracted twice) *)
}

val layers : t -> layer list
(** One entry per span name, sorted by name. *)
