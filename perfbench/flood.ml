(* The [flood] workload: one-way multicast on the wall-clock backend.

   Three sites, one member per site, every member a sender.  Traffic is
   7:1 CBCAST:ABCAST with a seeded payload-size mix, a tenth of it above
   the 4 KB packet limit.  A paced open-loop phase at a fixed aggregate
   rate gives latency (timed from each send's due time); a backlogged
   phase with a fixed number of multicasts outstanding per sender gives
   throughput.  No replies and no membership changes: the work is
   transport, CPU model, causal/total hold-back and the wall-clock
   driver. *)

open Perfbench_stats
open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Entry = Vsync_msg.Entry
module Rng = Vsync_util.Rng

let sites = 3
let paced_rate = 1050 (* aggregate multicasts per second, paced phase *)
let outstanding = 8 (* per sender, backlogged phase *)
let ab_one_in = 8 (* 7:1 CBCAST:ABCAST *)

(* payload bytes and weight; 6000 B spans two 4 KB packets *)
let size_mix = [ (64, 50); (512, 25); (2048, 15); (6000, 10) ]
let warmup_us = 200_000 (* backlogged phase before its throughput window opens *)
let drain_us = 15_000_000
let slice_us = 5_000
let e_app = Entry.user 0

let pick_size r =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 size_mix in
  let x = Rng.int r total in
  let rec go acc = function
    | [ (b, _) ] -> b
    | (b, w) :: rest -> if x < acc + w then b else go (acc + w) rest
    | [] -> assert false
  in
  go 0 size_mix

(* The message every send carries: its tag and its padding. *)
let make_msg ~tag ~bytes =
  let m = Message.create () in
  Message.set_int m "tag" tag;
  Message.set_bytes m "pad" (Bytes.make bytes 'x');
  m

type info = {
  sender : int;
  seq : int;
  mode : Types.mode;
  due : int;
  bytes : int;
  paced : bool;
  mutable mask : int;
}

type result = {
  sent : int;
  failed : int;
  errors : string list;
  lat_ms : Stats.samples array;
      (** paced: due time to delivery, one per member per message, by
          one-second window of the due time *)
  ab_lat_ms : Stats.samples array;  (** the ABCAST ones, by the same windows *)
  late_ms : Stats.samples;  (** paced: how late the generator sent *)
  tput : float;  (** deliveries per member per second in the throughput window *)
  win_deliveries : int;
  payload_delivered : int;  (** bytes, every delivery of the run *)
  win_wall_s : float;
  win_cpu_s : float;
  gauges : Probe.gauges;  (** maxima over both phases *)
}

let setup ~stack =
  let members =
    Array.init sites (fun s -> Stack.proc stack ~site:s ~name:(Printf.sprintf "f%d" s))
  in
  let gid = Stack.form_group stack ~name:"flood" members in
  (members, gid)

let run ~(stack : Stack.t) ~members ~gid ~seed ?oracle ~paced_us ~backlog_us () =
  let n = Array.length members in
  let full = (1 lsl n) - 1 in
  let infos : (int, info) Hashtbl.t = Hashtbl.create 8192 in
  let rngs = Array.init n (fun s -> Rng.create (Int64.of_int ((seed * 7919) + s + 1))) in
  let seqs = Array.make n 0 in
  let next_tag = ref 0 and completed = ref 0 in
  let errors = ref [] in
  let err fmt =
    Printf.ksprintf (fun s -> if List.length !errors < 8 then errors := s :: !errors) fmt
  in
  let fifo = Array.make_matrix n n 0 in
  let ab_hash = Array.make n 0 and ab_count = Array.make n 0 in
  let late_ms = Stats.samples () in
  let lat_ms = Array.init (max 1 (paced_us / 1_000_000)) (fun _ -> Stats.samples ()) in
  let ab_lat_ms = Array.init (Array.length lat_ms) (fun _ -> Stats.samples ()) in
  let backlog_on = ref false and window = ref false in
  let win_deliveries = ref 0 and payload_delivered = ref 0 in
  let gauges = Probe.gauges () in
  let on_slice () =
    Probe.sample_gauges gauges stack.Stack.runtimes;
    Probe.sample_heap gauges
  in
  let t0 = stack.Stack.now () + 10_000 in
  let rec send s ~due ~paced =
    let r = rngs.(s) in
    let mode = if Rng.int r ab_one_in = 0 then Types.Abcast else Types.Cbcast in
    let bytes = pick_size r in
    let tag = !next_tag in
    incr next_tag;
    seqs.(s) <- seqs.(s) + 1;
    Hashtbl.replace infos tag { sender = s; seq = seqs.(s); mode; due; bytes; paced; mask = 0 };
    let p = members.(s) in
    Option.iter (fun o -> Oracle.note_send o p ~mode ~tag) oracle;
    ignore
      (Runtime.bcast p mode ~dest:(Addr.Group gid) ~entry:e_app (make_msg ~tag ~bytes)
         ~want:Types.No_reply)
  and complete info =
    incr completed;
    if !backlog_on && not info.paced then
      Runtime.spawn_task members.(info.sender) (fun () ->
          send info.sender ~due:(stack.Stack.now ()) ~paced:false)
  in
  let deliver m msg =
    let tag = Option.value ~default:(-1) (Message.get_int msg "tag") in
    match Hashtbl.find_opt infos tag with
    | None -> err "member %d: delivery of an unknown or completed message" m
    | Some info ->
      let bit = 1 lsl m in
      if info.mask land bit <> 0 then err "member %d: message %d delivered twice" m info.seq
      else begin
        info.mask <- info.mask lor bit;
        (match info.mode with
        | Types.Cbcast ->
          if info.seq <= fifo.(m).(info.sender) then
            err "member %d: CBCAST %d of sender %d after %d (FIFO)" m info.seq info.sender
              fifo.(m).(info.sender);
          fifo.(m).(info.sender) <- info.seq
        | Types.Abcast | Types.Gbcast ->
          ab_hash.(m) <- ((ab_hash.(m) * 1_000_003) + (info.sender * 1_000_000) + info.seq) land max_int;
          ab_count.(m) <- ab_count.(m) + 1);
        payload_delivered := !payload_delivered + info.bytes;
        if info.paced then begin
          let w = min (Array.length lat_ms - 1) ((info.due - t0) / 1_000_000) in
          let ms = float_of_int (stack.Stack.now () - info.due) /. 1000. in
          Stats.add lat_ms.(w) ms;
          if info.mode = Types.Abcast then Stats.add ab_lat_ms.(w) ms
        end
        else if !window then incr win_deliveries;
        if info.mask = full then begin
          Hashtbl.remove infos tag;
          complete info
        end
      end
  in
  Array.iteri
    (fun m p ->
      match oracle with
      | Some o -> Oracle.bind_tap o p e_app (deliver m)
      | None -> Runtime.bind p e_app (deliver m))
    members;
  let run_until t_end =
    ignore
      (Stack.run_cond ~slice_us ~on_slice stack
         ~timeout_us:(max 0 (t_end - stack.Stack.now ()))
         (fun () -> stack.Stack.now () >= t_end))
  in
  (* Paced phase: each sender on its own fixed schedule, staggered. *)
  let interval = n * 1_000_000 / paced_rate in
  let paced_end = t0 + paced_us in
  Array.iteri
    (fun s p ->
      Runtime.spawn_task p (fun () ->
          let rec loop k =
            let due = t0 + (s * interval / n) + (k * interval) in
            if due < paced_end then begin
              let now = stack.Stack.now () in
              if due > now then Runtime.sleep p (due - now);
              Stats.add late_ms (float_of_int (stack.Stack.now () - due) /. 1000.);
              send s ~due ~paced:true;
              loop (k + 1)
            end
          in
          loop 0))
    members;
  run_until paced_end;
  (* Backlogged phase: [outstanding] per sender, each completion (the
     message delivered at every member) releasing the next send. *)
  backlog_on := true;
  let b0 = stack.Stack.now () in
  Array.iteri
    (fun s p ->
      for _ = 1 to outstanding do
        Runtime.spawn_task p (fun () -> send s ~due:(stack.Stack.now ()) ~paced:false)
      done)
    members;
  run_until (b0 + warmup_us);
  let cpu0 = Clock.cpu_s () and wall0 = Clock.s () in
  window := true;
  run_until (b0 + backlog_us);
  window := false;
  let cpu1 = Clock.cpu_s () and wall1 = Clock.s () in
  backlog_on := false;
  ignore
    (Stack.run_cond ~slice_us ~on_slice stack ~timeout_us:drain_us (fun () ->
         !completed = !next_tag));
  let failed = !next_tag - !completed in
  if failed = 0 then
    Array.iteri
      (fun m h ->
        if h <> ab_hash.(0) || ab_count.(m) <> ab_count.(0) then
          err "member %d: ABCAST delivery order differs from member 0's" m)
      ab_hash;
  let win_wall_s = wall1 -. wall0 in
  {
    sent = !next_tag;
    failed;
    errors = List.rev !errors;
    lat_ms;
    ab_lat_ms;
    late_ms;
    tput = float_of_int !win_deliveries /. float_of_int n /. win_wall_s;
    win_deliveries = !win_deliveries;
    payload_delivered = !payload_delivered;
    win_wall_s;
    win_cpu_s = cpu1 -. cpu0;
    gauges;
  }

(* --- the two runs ----------------------------------------------------- *)

let e2e ~seed ~seconds =
  let us = seconds * 1_000_000 in
  let setups, (stack, members, gid) =
    Stack.timed_setups (fun i ->
        let stack = Stack.wall_world ~seed:(Int64.of_int ((seed * 31) + i)) ~sites in
        let members, gid = setup ~stack in
        (stack, members, gid))
  in
  Gc.compact ();
  let r = run ~stack ~members ~gid ~seed ~paced_us:(us / 2) ~backlog_us:(us / 2) () in
  (* How late the generator sent, beside the latencies it qualifies. *)
  let late =
    match Stats.dist r.late_ms with
    | Some d -> Printf.sprintf "; generator late p99 %.3f ms" d.Stats.tail
    | None -> ""
  in
  {
    Stats.backend = "wall";
    attempted = r.sent;
    failed = r.failed;
    errors = r.errors;
    lines =
      [ Stats.line "setup_s" "s" (Stats.median setups) (Stats.trials_basis "set-ups" setups);
        Stats.line "tput" "1/s" r.tput
          (Printf.sprintf "deliveries per member per second: %d deliveries in %.2f s"
             r.win_deliveries r.win_wall_s) ]
      @ List.map
          (fun l -> { l with Stats.basis = l.Stats.basis ^ late })
          (Stats.windowed_lines ~p50:"lat_p50_ms" ~tail:"lat_p99_ms" ~unit_:"ms" ~window:"1 s"
             r.lat_ms
          @ Stats.windowed_lines ~want:0.9 ~p50:"ordered_p50_ms" ~tail:"ordered_p90_ms" ~unit_:"ms"
              ~window:"1 s ABCAST" r.ab_lat_ms)
      @ [ Stats.line "heap_mb" "MB" (Probe.heap_mb r.gauges) "peak major heap, both phases" ];
  }

(* The traced run, in three parts sharing the run's seconds:
   - the attributed run, over a wrapped backend with the typed tracer
     feeding the stage probe;
   - the oracle run, the full [Oracle] over a traced [World];
   - an untraced run, the baseline for the tracing overhead. *)
let traced ~seed ~seconds =
  let us = seconds * 1_000_000 in
  let msg =
    let r = Rng.create (Int64.of_int (seed + 17)) in
    let sizes = Array.init 512 (fun _ -> pick_size r) in
    Probe.msg_lines ~what:"messages of the workload's size mix" ~n:512 (fun i ->
        make_msg ~tag:i ~bytes:sizes.(i))
  in
  let bp = Probe.backend_probe () and st = Probe.stages () in
  let stack = Stack.wrapped_wall ~seed:(Int64.of_int seed) ~sites ~wrap:(Probe.wrap bp) in
  let members, gid = setup ~stack in
  Probe.attach st (Vsync_sim.Trace.obs stack.Stack.trace);
  Gc.compact ();
  let c0 = Probe.counters stack.Stack.runtimes and ev0 = Stack.events_fired stack in
  st.Probe.s_on <- true;
  bp.Probe.on <- true;
  let r = run ~stack ~members ~gid ~seed ~paced_us:(us / 4) ~backlog_us:(us / 4) () in
  bp.Probe.on <- false;
  st.Probe.s_on <- false;
  let c = Probe.diff c0 (Probe.counters stack.Stack.runtimes) and events = Stack.events_fired stack - ev0 in
  Probe.write_records st ~workload:"flood";
  (* the oracle run *)
  let ostack = Stack.wall_world ~seed:(Int64.of_int (seed + 1)) ~sites in
  let omembers, ogid = setup ~stack:ostack in
  let world = Option.get ostack.Stack.world in
  let tr = Vsync_sim.Trace.obs (World.trace world) in
  Vsync_obs.Tracer.set_classes tr [ Vsync_obs.Event.Transport; Vsync_obs.Event.Proto ];
  Vsync_obs.Tracer.set_enabled tr true;
  let oracle = Oracle.create world ~gid:ogid in
  let ro =
    run ~stack:ostack ~members:omembers ~gid:ogid ~seed ~oracle ~paced_us:(us * 3 / 20)
      ~backlog_us:(us * 3 / 20) ()
  in
  let drained = Stack.quiesce ~slice_us ostack in
  let oracle_errors =
    (if drained then [] else [ "oracle run: protocol state did not drain" ])
    @ List.map (fun v -> Format.asprintf "oracle: %a" Oracle.pp_violation v) (Oracle.check oracle)
  in
  (* the untraced baseline *)
  let bstack = Stack.wall_world ~seed:(Int64.of_int (seed + 2)) ~sites in
  let bmembers, bgid = setup ~stack:bstack in
  let rb = run ~stack:bstack ~members:bmembers ~gid:bgid ~seed ~paced_us:(us / 20) ~backlog_us:(us / 5) () in
  let cpu_per r = r.win_cpu_s /. float_of_int (max 1 r.win_deliveries) in
  let late = Stats.dist r.late_ms in
  {
    Stats.backend = "wall";
    attempted = r.sent + ro.sent + rb.sent;
    failed = r.failed + ro.failed + rb.failed;
    errors = r.errors @ ro.errors @ rb.errors @ oracle_errors;
    lines =
      [ Stats.line "backend.idle_frac" "ratio" (1. -. (r.win_cpu_s /. r.win_wall_s))
          (Printf.sprintf "%.3f CPU s in %.3f s of backlogged phase" r.win_cpu_s r.win_wall_s);
        Stats.line "backend.events_per_msg" "count" (Probe.per_msg st events)
          (Printf.sprintf "%d driver events, %s" events (Probe.delivers_basis st)) ]
      @ Probe.backend_lines bp
      @ Probe.cost_lines st c
      @ Probe.transport_lines ~payload_bytes:r.payload_delivered st
      @ Probe.gauge_lines r.gauges
      @ Probe.stage_lines st
      @ Probe.no_view_lines
      @ [ Tq.eval_line ~what:"the initial relation" (Twentyq.Database.demo_cars ()) ]
      @ msg
      @ Probe.no_sim_lines
      @ [ Probe.overhead_line ~traced:(cpu_per r) ~untraced:(cpu_per rb)
            ~what:"CPU s per delivery, backlogged phase" ]
      @ (match late with
        | Some d ->
          [ Stats.line "gen.late_ms.p99" "ms" d.Stats.tail
              (Printf.sprintf "n=%d sends, p%g" d.Stats.n (100. *. d.Stats.tail_q)) ]
        | None -> [ Stats.absent "gen.late_ms.p99" "ms" "no paced sends" ]);
  }
