(** Exists only for perfbench/, which names these three, until the next benchmark change. *)

type t = Vsync_obs.Tracer.t

val obs : t -> Vsync_obs.Tracer.t
val create_clock : now:(unit -> int) -> t
