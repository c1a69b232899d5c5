(* The [churn] workload: crash, failover and rejoin on the simulator.

   Five sites under the paper's link and CPU constants (the simulator's
   defaults).  Four members send paced open-loop traffic, each on a
   fixed schedule at a seeded phase, 3:1 CBCAST:ABCAST with 256 B
   payloads.  The fifth site crashes at a
   seeded moment, restarts a fixed time later, and a fresh process there
   rejoins the group.  The only workload that exercises failure
   detection, flush and view change, rejoin and the [lib/sim] engine; it
   bypasses the wall-clock driver.  Each trial is deterministic in its
   seed, so the virtual-time metrics repeat exactly. *)

open Perfbench_stats
open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Entry = Vsync_msg.Entry
module Rng = Vsync_util.Rng
module Engine = Vsync_sim.Engine

let sites = 5
let senders = 4 (* sites 0..3 send; site 4 is the one that crashes *)
let victim = 4
let rate = 15 (* multicasts per sender per virtual second *)
let ab_one_in = 4 (* 3:1 CBCAST:ABCAST *)
let payload = 256
let traffic_us = 12_000_000
let crash_from_us = 3_000_000 (* plus a seeded offset below one second *)
let restart_after_us = 4_000_000
let trials = 100 (* per run; the virtual-time metrics come from these *)
let e_app = Entry.user 0

type trial = {
  setup_s : float;
  sim_wall_s : float;
  sim_cpu_s : float;
  reference_s : float;  (** the reference job's time, mean of before and after the run *)
  deliveries : int;
  events : int;
  sent : int;
  failed : int;
  errors : string list;
  vlat_ms : Stats.samples;
  ab_vlat_ms : Stats.samples;  (** the ABCAST ones *)
  late_ms : Stats.samples;  (** how late, in virtual ms, the generator sent *)
  failover_ms : float;
  rejoin_ms : float;
  digest : string;
  win : Probe.counters;
}

type info = { due : int; ab : bool; mutable mask : int }

(* A fixed pure-OCaml job (hashing, allocation, sorting) that runs none
   of the repository's code.  Timed around every trial, it measures how
   fast the machine is at that moment: on a shared host that drifts by
   far more than any bound over minutes, and the simulator's speed
   drifts with it.  Scaling each trial's rate by it leaves what the
   code changed. *)
let reference_s () =
  let t0 = Clock.s () in
  let h = Hashtbl.create 4096 in
  for i = 0 to 4_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (Array.make 4 i);
    if i land 3 = 0 then Hashtbl.remove h ((i / 2 * 7919) land 0xffff)
  done;
  ignore (Sys.opaque_identity (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])));
  Clock.s () -. t0

(* The workload's [tput] is reported for a machine on which [reference_s] takes
   this long. *)
let reference_nominal_s = 0.001

(* One trial; [gauges] collects the peaks of this and other trials. *)
let trial ~seed ~gauges ?stages () =
  (* Each trial starts from a compacted heap, so its peak is its own. *)
  Gc.compact ();
  let t0 = Clock.s () in
  let w = World.create ~seed:(Int64.of_int seed) ~sites () in
  let stack = Stack.of_world w in
  let members =
    Array.init sites (fun s -> Stack.proc stack ~site:s ~name:(Printf.sprintf "c%d" s))
  in
  let gid = Stack.form_group stack ~name:"churn" members in
  let setup_s = Clock.s () -. t0 in
  Option.iter
    (fun st ->
      Probe.attach st (Vsync_sim.Trace.obs (World.trace w));
      st.Probe.s_on <- true)
    stages;
  let o = Oracle.create w ~gid in
  let r = Rng.create (Int64.of_int (seed + 1)) in
  let errors = ref [] in
  let err e =
    if List.length !errors < 8 then errors := Printf.sprintf "trial seed %d: %s" seed e :: !errors
  in
  let infos : (int, info) Hashtbl.t = Hashtbl.create 1024 in
  let next_tag = ref 0 and deliveries = ref 0 and refused = ref 0 in
  let vlat_ms = Stats.samples () and ab_vlat_ms = Stats.samples () and late_ms = Stats.samples () in
  let survivors = (1 lsl senders) - 1 in
  let deliver m msg =
    match Option.bind (Message.get_int msg "tag") (Hashtbl.find_opt infos) with
    | None -> err (Printf.sprintf "member %d: delivery of an unknown message" m)
    | Some info ->
      incr deliveries;
      let ms = float_of_int (World.now w - info.due) /. 1000. in
      Stats.add vlat_ms ms;
      if info.ab then Stats.add ab_vlat_ms ms;
      if m < senders then info.mask <- info.mask lor (1 lsl m)
  in
  Array.iteri (fun m p -> Oracle.bind_tap o p e_app (deliver m)) members;
  (* Failover: crash until every survivor has a view without the victim. *)
  let crash_at = ref 0 and restart_at = ref 0 and rejoin_at = ref None in
  let failover_at = Array.make senders None in
  Array.iteri
    (fun m p ->
      if m < senders then
        Runtime.pg_monitor p gid (fun v _ ->
            if !crash_at > 0 && failover_at.(m) = None && not (List.mem victim (View.sites v)) then
              failover_at.(m) <- Some (World.now w)))
    members;
  let start = World.now w + 10_000 in
  let interval = 1_000_000 / rate in
  Array.iteri
    (fun s p ->
      if s < senders then
        let phase = Rng.int r interval in
        Runtime.spawn_task p (fun () ->
            let rec loop due =
              if due < start + traffic_us then begin
                let now = World.now w in
                if due > now then Runtime.sleep p (due - now);
                Stats.add late_ms (float_of_int (World.now w - due) /. 1000.);
                let ab = Rng.int r ab_one_in = 0 in
                let mode = if ab then Types.Abcast else Types.Cbcast in
                let tag = !next_tag in
                incr next_tag;
                Hashtbl.replace infos tag { due; ab; mask = 0 };
                let m = Message.create () in
                Message.set_int m "tag" tag;
                Message.set_bytes m "pad" (Bytes.make payload 'x');
                Oracle.note_send o p ~mode ~tag;
                ignore (Runtime.bcast p mode ~dest:(Addr.Group gid) ~entry:e_app m ~want:Types.No_reply);
                loop (due + interval)
              end
            in
            loop (start + phase)))
    members;
  let eng = World.engine w in
  let crash_delay = start - World.now w + crash_from_us + Rng.int r 1_000_000 in
  ignore
    (Engine.schedule eng ~delay:crash_delay (fun () ->
         crash_at := World.now w;
         Option.iter (fun st -> st.Probe.crash_at <- Some !crash_at) stages;
         World.crash_site w victim));
  ignore
    (Engine.schedule eng ~delay:(crash_delay + restart_after_us) (fun () ->
         World.restart_site w victim;
         restart_at := World.now w;
         let p = World.proc w ~site:victim ~name:"rejoin" in
         World.run_task w p (fun () ->
             ignore (Runtime.pg_lookup p "churn");
             match Runtime.pg_join p gid ~credentials:(Message.create ()) with
             | Ok () ->
               rejoin_at := Some (World.now w);
               Oracle.bind_tap o p e_app (deliver victim)
             | Error e ->
               incr refused;
               err ("rejoin refused: " ^ e))));
  let on_slice () =
    Probe.sample_gauges gauges stack.Stack.runtimes;
    Probe.sample_heap gauges
  in
  let ev0 = Engine.events_fired eng in
  let c0 = Probe.counters stack.Stack.runtimes in
  let ref0 = reference_s () in
  let w0 = Clock.s () and cpu0 = Clock.cpu_s () in
  let all_done () =
    World.now w >= start + traffic_us
    && !rejoin_at <> None
    && Hashtbl.fold (fun _ i ok -> ok && i.mask = survivors) infos true
  in
  ignore (Stack.run_cond ~slice_us:100_000 ~on_slice stack ~timeout_us:(traffic_us + 30_000_000) all_done);
  let quiet = Stack.quiesce ~slice_us:100_000 stack in
  let sim_wall_s = Clock.s () -. w0 and sim_cpu_s = Clock.cpu_s () -. cpu0 in
  let reference_s = (ref0 +. reference_s ()) /. 2. in
  let events = Engine.events_fired eng - ev0 in
  let c1 = Probe.counters stack.Stack.runtimes in
  if not quiet then err "protocol state did not drain";
  List.iter
    (fun v -> err (Format.asprintf "oracle: %a" Oracle.pp_violation v))
    (Oracle.check o);
  let undelivered = Hashtbl.fold (fun _ i n -> if i.mask = survivors then n else n + 1) infos 0 in
  let at_ms a b = float_of_int (a - b) /. 1000. in
  let failover_ms =
    if Array.exists Option.is_none failover_at then begin
      err "a survivor never installed a view without the crashed site";
      nan
    end
    else at_ms (Array.fold_left (fun acc x -> max acc (Option.get x)) 0 failover_at) !crash_at
  in
  let rejoin_ms = match !rejoin_at with Some t -> at_ms t !restart_at | None -> nan in
  {
    setup_s;
    sim_wall_s;
    sim_cpu_s;
    reference_s;
    deliveries = !deliveries;
    events;
    sent = !next_tag + 1;
    failed = undelivered + !refused + (if !rejoin_at = None && !refused = 0 then 1 else 0);
    errors = List.rev !errors;
    vlat_ms;
    ab_vlat_ms;
    late_ms;
    failover_ms;
    rejoin_ms;
    digest = Oracle.history_digest o;
    win = Probe.diff c0 c1;
  }

let trial_seed ~seed i = (seed * 1000) + i

(* Runs [trials] trials, then repeats them in order until [seconds]
   have passed: the repeats add to [tput] and must reproduce each
   trial's delivery history and failover time exactly.  [tput] is the
   median of the trials' own simulated deliveries per wall second, each
   scaled by the reference job timed around it.  The virtual latencies
   are pooled over the first [trials]. *)
let e2e ~seed ~seconds =
  let t_end = Clock.s () +. float_of_int seconds in
  let rates = ref [] and refs = ref [] and sent = ref 0 and failed = ref 0 in
  let setups = ref [] and errors = ref [] and gauges = Probe.gauges () in
  let vlat = Stats.samples () and ab_vlat = Stats.samples () in
  let account t =
    rates := (float_of_int t.deliveries /. t.sim_wall_s) :: !rates;
    refs := t.reference_s :: !refs;
    sent := !sent + t.sent;
    failed := !failed + t.failed;
    setups := t.setup_s :: !setups;
    errors := List.rev_append t.errors !errors
  in
  let first =
    Array.init trials (fun i ->
        let t = trial ~seed:(trial_seed ~seed i) ~gauges () in
        account t;
        Stats.add_all vlat t.vlat_ms;
        Stats.add_all ab_vlat t.ab_vlat_ms;
        (t.digest, t.failover_ms))
  in
  let i = ref 0 in
  while Clock.s () < t_end do
    let k = !i mod trials in
    let t = trial ~seed:(trial_seed ~seed k) ~gauges () in
    account t;
    if (t.digest, t.failover_ms) <> first.(k) then
      errors := Printf.sprintf "trial seed %d did not repeat" (trial_seed ~seed k) :: !errors;
    incr i
  done;
  let virtual_ms what l = { l with Stats.basis = Printf.sprintf "virtual ms, %s, %s" what l.Stats.basis } in
  {
    Stats.backend = "sim";
    attempted = !sent;
    failed = !failed;
    errors = List.rev !errors;
    lines =
      [ Stats.line "setup_s" "s" (Stats.median !setups) (Stats.trials_basis "set-ups" !setups);
        (let scaled = List.map2 (fun r k -> r *. k /. reference_nominal_s) !rates !refs in
         Stats.line "tput" "1/s" (Stats.median scaled)
           (Printf.sprintf
              "simulated deliveries per wall second, %s; unscaled median %.0f/s, reference job \
               median %.3f ms"
              (Stats.trials_basis "trials, each scaled to the reference speed" scaled)
              (Stats.median !rates)
              (1000. *. Stats.median !refs))) ]
      @ List.map (virtual_ms "every delivery")
          (Stats.dist_lines ~p50:"lat_p50_ms" ~tail:"lat_p99_ms" ~unit_:"ms" vlat)
      @ List.map (virtual_ms "ABCAST deliveries")
          (Stats.dist_lines ~want:0.9 ~p50:"ordered_p50_ms" ~tail:"ordered_p90_ms" ~unit_:"ms" ab_vlat)
      @ [ Stats.line "heap_mb" "MB" (Probe.heap_mb gauges) "peak major heap of any trial" ];
  }

(* The traced run: the run's first trial seeds, each run traced (the
   stage probe on the typed tracer) and again untraced, until the
   seconds are spent.  The simulator and GC costs come from the
   untraced trials, the attribution from the traced ones; the JSONL
   written out holds the first traced trial. *)
let traced ~seed ~seconds =
  let st = Probe.stages () and g = Probe.gauges () and ug = Probe.gauges () in
  let t_end = Clock.s () +. float_of_int seconds in
  let rec go i tr un =
    if i >= 2 && (Clock.s () >= t_end || i >= trials) then (List.rev tr, List.rev un)
    else begin
      Probe.new_deployment st;
      let t = trial ~seed:(trial_seed ~seed i) ~gauges:g ~stages:st () in
      if i = 0 then Probe.write_records st ~workload:"churn";
      st.Probe.records <- [];
      st.Probe.kept <- 0;
      st.Probe.s_on <- false;
      let u = trial ~seed:(trial_seed ~seed i) ~gauges:ug () in
      go (i + 1) (t :: tr) (u :: un)
    end
  in
  let tr, un = go 0 [] [] in
  let sum f l = List.fold_left (fun acc t -> acc + f t) 0 l in
  let fsum f l = List.fold_left (fun acc t -> acc +. f t) 0. l in
  let events = sum (fun t -> t.events) un and deliveries = sum (fun t -> t.deliveries) un in
  let ns_per_event l = 1e9 *. fsum (fun t -> t.sim_wall_s) l /. float_of_int (sum (fun t -> t.events) l) in
  let alloc = fsum (fun t -> t.win.Probe.alloc_words) un and majors = sum (fun t -> t.win.Probe.major_gcs) un in
  let un_basis = Printf.sprintf "%d untraced trials, %d deliveries" (List.length un) deliveries in
  let median_ms s name =
    match Stats.dist s with
    | Some d -> [ Stats.line name "virtual_ms" d.Stats.p50 (Stats.samples_basis d.Stats.n) ]
    | None -> [ Stats.absent name "virtual_ms" "no samples" ]
  in
  (* Failover and rejoin times are means: per trial they take a few
     discrete values, so a median would jump between them from seed to
     seed. *)
  let mean_ms name f =
    let xs = List.map f tr in
    Stats.line name "virtual_ms"
      (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
      (Printf.sprintf "mean of %d traced trials, spread %.3f" (List.length xs) (Stats.spread xs))
  in
  let late = Stats.samples () in
  List.iter (fun t -> Stats.add_all late t.late_ms) tr;
  let no_wrap = "the simulated backend is built inside World, unwrapped" in
  {
    Stats.backend = "sim";
    attempted = sum (fun t -> t.sent) (tr @ un);
    failed = sum (fun t -> t.failed) (tr @ un);
    errors = List.concat_map (fun t -> t.errors) (tr @ un);
    lines =
      [ Stats.line "backend.idle_frac" "ratio"
          (1. -. (fsum (fun t -> t.sim_cpu_s) un /. fsum (fun t -> t.sim_wall_s) un))
          (Printf.sprintf "%.3f CPU s in %.3f s, %s" (fsum (fun t -> t.sim_cpu_s) un)
             (fsum (fun t -> t.sim_wall_s) un) un_basis);
        Stats.line "backend.events_per_msg" "count"
          (float_of_int events /. float_of_int (max 1 deliveries))
          (Printf.sprintf "simulator engine events, %s" un_basis);
        Stats.absent "backend.timer_lag_us.p50" "us" no_wrap;
        Stats.absent "backend.timer_lag_us.p99" "us" no_wrap;
        Stats.absent "backend.rx_cb_us" "us" no_wrap;
        Stats.absent "backend.timer_cb_us" "us" no_wrap;
        Stats.line "cpu.modelled_us_per_msg" "us"
          (Probe.per_msg st (sum (fun t -> t.win.Probe.cpu_busy_us) tr))
          (Probe.delivers_basis st) ]
      @ Probe.transport_lines ~payload_bytes:(st.Probe.delivers * payload) st
      @ Probe.gauge_lines g
      @ Probe.stage_lines st
      @ [ Stats.line "view.changes" "count"
            (float_of_int st.Probe.view_changes /. float_of_int (List.length tr))
            (Printf.sprintf "views installed per trial, %d traced trials" (List.length tr)) ]
      @ median_ms st.Probe.detect_ms "view.detect_ms"
      @ median_ms st.Probe.flush_ms "view.flush_ms"
      @ [ mean_ms "view.failover_ms" (fun t -> t.failover_ms);
          mean_ms "view.rejoin_ms" (fun t -> t.rejoin_ms);
          Tq.eval_line ~what:"the initial relation" (Twentyq.Database.demo_cars ()) ]
      @ Probe.msg_lines ~what:"messages of the workload's shape" ~n:512 (fun i ->
            let m = Message.create () in
            Message.set_int m "tag" i;
            Message.set_bytes m "pad" (Bytes.make payload 'x');
            m)
      @ [ Stats.line "sim.events_per_msg" "count"
            (float_of_int events /. float_of_int (max 1 deliveries)) un_basis;
          Stats.line "sim.ns_per_event" "ns" (ns_per_event un) un_basis;
          Stats.line "gc.alloc_words_per_msg" "words" (alloc /. float_of_int (max 1 deliveries)) un_basis;
          Stats.line "gc.major_per_kmsg" "count"
            (1000. *. float_of_int majors /. float_of_int (max 1 deliveries)) un_basis;
          Probe.overhead_line ~traced:(ns_per_event tr) ~untraced:(ns_per_event un)
            ~what:"wall ns per engine event, same trial seeds" ]
      @
      match Stats.dist late with
      | Some d ->
        [ Stats.line "gen.late_ms.p99" "ms" d.Stats.tail
            (Printf.sprintf "virtual ms, n=%d sends, p%g" d.Stats.n (100. *. d.Stats.tail_q)) ]
      | None -> [ Stats.absent "gen.late_ms.p99" "ms" "no sends" ];
  }
