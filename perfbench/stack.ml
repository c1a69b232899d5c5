(* A deployment the workloads drive: the runtimes plus the clock that
   moves them.  Built either through [World] (the public harness) or,
   when the backend boundary is to be timed, from the same parts
   [World] uses, over a wrapped [Backend.t]. *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Wallclock = Vsync_backend.Wallclock

type t = {
  now : unit -> int;  (** backend µs *)
  run_for : int -> unit;
  runtimes : Runtime.t array;
  trace : Vsync_sim.Trace.t;
  world : World.t option;
  wall : Wallclock.t option;
}

(* The wall-clock configuration of [bench soak --wall]: the modelled
   CPU knobs and link latencies zeroed, so the stack runs as fast as the
   machine lets it. *)
let wall_runtime_config =
  {
    Runtime.default_config with
    Runtime.cpu_send_us = 0;
    cpu_recv_us = 0;
    cpu_us_per_kb = 0;
    cpu_us_per_extra_packet = 0;
  }

let wall_config =
  {
    Wallclock.default_config with
    Wallclock.wc_intra_site_us = 0;
    wc_inter_site_us = 1;
    wc_jitter_us = 1;
  }

let of_world w =
  {
    now = (fun () -> World.now w);
    run_for = World.run_for w;
    runtimes = Array.init (World.n_sites w) (World.runtime w);
    trace = World.trace w;
    world = Some w;
    wall = None;
  }

let wall_world ~seed ~sites =
  of_world
    (World.create ~backend:(World.Wall wall_config) ~seed ~runtime_config:wall_runtime_config
       ~sites ())

let wrapped_wall ~seed ~sites ~wrap =
  let wall = Wallclock.create ~config:wall_config ~seed ~sites () in
  let fabric = Runtime.make_fabric (wrap (Wallclock.backend wall)) in
  let trace = Vsync_sim.Trace.create_clock ~now:(fun () -> Wallclock.now wall) in
  {
    now = (fun () -> Wallclock.now wall);
    run_for = (fun us -> ignore (Wallclock.run_until wall (Wallclock.now wall + us)));
    runtimes =
      Array.init sites (fun site ->
          Runtime.create ~config:wall_runtime_config fabric ~site ~trace ());
    trace;
    world = None;
    wall = Some wall;
  }

let proc t ~site ~name = Runtime.spawn_proc t.runtimes.(site) ~name ()

(* Wall-clock driver events fired so far (none visible through [World]). *)
let events_fired t = Option.fold ~none:0 ~some:Wallclock.events_fired t.wall

let setup_trials = 101

(* Builds [setup_trials] deployments with [make], timing each from
   nothing to ready; returns the times and the last deployment, which
   the measured phase then uses. *)
let timed_setups make =
  let rec go i acc =
    let t0 = Clock.s () in
    let d = make i in
    let acc = (Clock.s () -. t0) :: acc in
    if i + 1 < setup_trials then go (i + 1) acc else (List.rev acc, d)
  in
  go 0 []

(* Drives the stack in slices until [pred] holds or [timeout_us] of
   backend time passes; [on_slice] runs between slices. *)
let run_cond ?(slice_us = 2_000) ?(on_slice = ignore) t ~timeout_us pred =
  let deadline = t.now () + timeout_us in
  let rec go () =
    if pred () then true
    else if t.now () >= deadline then pred ()
    else begin
      t.run_for (min slice_us (max 1 (deadline - t.now ())));
      on_slice ();
      go ()
    end
  in
  go ()

(* Drives the stack until every live site's protocol state has drained,
   as the oracle's hygiene check requires; false if it did not within
   ten seconds. *)
let quiesce ~slice_us t =
  run_cond ~slice_us t ~timeout_us:10_000_000 (fun () ->
      Array.for_all
        (fun rt ->
          (not (Runtime.alive rt))
          || Runtime.pending_unstable rt = 0
             && Runtime.pending_held_frames rt = 0
             && Runtime.pending_sessions rt = 0
             && Runtime.pending_store rt = 0
             && Runtime.dedup_residue rt = 0)
        t.runtimes)

(* One group with [members.(i)] at site [i]: created by the first,
   joined by the rest.  Fails unless every join succeeds in time. *)
let form_group t ~name members =
  let gid = ref None in
  Runtime.spawn_task members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) name));
  if not (run_cond t ~timeout_us:30_000_000 (fun () -> !gid <> None)) then
    failwith "form_group: create timed out";
  let gid = Option.get !gid in
  let joined = ref 0 and refused = ref None in
  Array.iteri
    (fun i p ->
      if i > 0 then
        Runtime.spawn_task p (fun () ->
            ignore (Runtime.pg_lookup p name);
            match Runtime.pg_join p gid ~credentials:(Message.create ()) with
            | Ok () -> incr joined
            | Error e -> refused := Some e))
    members;
  let n = Array.length members - 1 in
  if not (run_cond t ~timeout_us:30_000_000 (fun () -> !joined = n || !refused <> None)) then
    failwith "form_group: joins timed out";
  Option.iter (fun e -> failwith ("form_group: join refused: " ^ e)) !refused;
  gid
