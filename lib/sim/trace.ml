(* Exists only for perfbench/, which names these three, until the next benchmark change. *)

type t = Vsync_obs.Tracer.t

let obs t = t
let create_clock ~now = Vsync_obs.Tracer.create ~now ()
