(* Clocks for what the benchmark times itself: a monotonic source for
   durations (the backend's own clock is the wall time of day) and the
   process's CPU time. *)

let ns () = Int64.to_int (Monotonic_clock.now ())
let s () = float_of_int (ns ()) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
