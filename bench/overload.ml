(* Sustained-overload sweep: the flow-control tentpole's proof.

   Calibrates the cluster's clean ABCAST delivery rate, then offers
   2x/5x/10x that rate from paced open-loop senders (one per site) for
   a fixed window, in two configurations:

   - [static]: the default tuning — no credits, fixed delayed ack,
     static origination window — with plain asynchronous [bcast], so
     overload piles into the ABCAST backlog;
   - [flowctl]: adaptive tuning (AIMD window, RTT-derived delayed ack,
     transport credits, [ab_queue_limit]) with [bcast_wait], so
     admission control parks the senders instead of growing queues.

   Per decile of the window we sample the queue-depth gauges
   (runtime.ab_queue / ab_inflight, transport.sendq_depth /
   credit_waiting, max over sites); per delivery we record latency from
   an origination stamp in the payload.  Acceptance, at 10x:

   - flowctl sustained throughput >= static;
   - flowctl queue gauges bounded: no gauge strictly grows across all
     deciles of the window;
   - p99 delivery latency reported for both configurations.

     dune exec bench/main.exe -- overload
     dune exec bench/main.exe -- overload --smoke --json BENCH_overload.json *)

open Vsync_core
module Addr = Vsync_msg.Addr
module Message = Vsync_msg.Message
module Metrics = Vsync_obs.Metrics

let flowctl_runtime_config =
  let d = Runtime.default_config in
  {
    d with
    Runtime.ab_adaptive = true;
    ab_queue_limit = 64;
    endpoint =
      {
        d.Runtime.endpoint with
        Vsync_transport.Endpoint.adaptive_ack = true;
        credit_bytes = 64 * 1024;
        credit_frames = 64;
      };
  }

(* Aggregate clean-run delivery rate (msgs/s originated, all members
   delivering) from a closed-loop burst on the default configuration. *)
let calibrate ~sites =
  let c = Harness.make_cluster ~seed:0xCA11L ~sites () in
  let w = c.Harness.w in
  let n = if !Harness.smoke then 120 else 400 in
  let delivered = ref 0 in
  Array.iter (fun m -> Runtime.bind m Harness.e_app (fun _ -> incr delivered)) c.Harness.members;
  let t0 = World.now w in
  World.run_task w c.Harness.members.(0) (fun () ->
      for _ = 1 to n do
        ignore
          (Runtime.bcast c.Harness.members.(0) Types.Abcast ~dest:(Addr.Group c.Harness.gid)
             ~entry:Harness.e_app (Harness.padded_msg 128) ~want:Types.No_reply)
      done);
  let budget = ref 4_000 in
  while !delivered < n * sites && !budget > 0 do
    World.run_for w 10_000;
    decr budget
  done;
  let dt = World.now w - t0 in
  if !delivered < n * sites then failwith "overload: calibration did not drain";
  n * 1_000_000 / max 1 dt

type decile_sample = {
  o_idx : int;
  o_delivered : int;  (* cumulative *)
  o_ab_queue : int;  (* each gauge: max over sites at the boundary *)
  o_ab_inflight : int;
  o_sendq : int;
  o_credit_waiting : int;
}

type run_result = {
  r_label : string;
  r_mult : int;
  r_offered : int;  (* aggregate msgs/s *)
  r_attempted : int;
  r_delivered : int;  (* deliveries within the window, all members *)
  r_msgs_per_s : float;  (* delivered per member per sim-second *)
  r_lat : Harness.latency_stats option;
  r_waits : int;  (* bcast_wait calls that had to park *)
  r_ab_window : int option;  (* live window at the end (flowctl) *)
  r_deciles : decile_sample list;
}

let gauge_max w name =
  let m = ref 0 in
  for s = 0 to World.n_sites w - 1 do
    match Metrics.read_int (Runtime.metrics (World.runtime w s)) name with
    | Some v when v > !m -> m := v
    | _ -> ()
  done;
  !m

let overload_run ~label ~runtime_config ~use_wait ~mult ~offered ~duration_us ~sites =
  let c =
    Harness.make_cluster ~seed:(Int64.of_int (0x0F10 + mult)) ?runtime_config ~sites ()
  in
  let w = c.Harness.w in
  let delivered = ref 0 in
  let lats = ref [] in
  Array.iter
    (fun m ->
      Runtime.bind m Harness.e_app (fun msg ->
          incr delivered;
          match Message.get_int msg "t0" with
          | Some t0 -> lats := (World.now w - t0) :: !lats
          | None -> ()))
    c.Harness.members;
  let t_end = World.now w + duration_us in
  let attempted = ref 0 and waits = ref 0 in
  (* One paced open-loop sender per site: [batch] sends, then sleep
     long enough to hold the aggregate rate at [offered]. *)
  let batch = 4 in
  let per_sender = max 1 (offered / sites) in
  let interval_us = max 1 (batch * 1_000_000 / per_sender) in
  for i = 0 to sites - 1 do
    let p = c.Harness.members.(i) in
    World.run_task w p (fun () ->
        while World.now w < t_end do
          for _ = 1 to batch do
            incr attempted;
            let m = Harness.padded_msg 128 in
            Message.set_int m "t0" (World.now w);
            if use_wait then
              ignore
                (Runtime.bcast_wait
                   ~on_backpressure:(fun _ -> incr waits)
                   p Types.Abcast ~dest:(Addr.Group c.Harness.gid) ~entry:Harness.e_app m
                   ~want:Types.No_reply)
            else
              ignore
                (Runtime.bcast p Types.Abcast ~dest:(Addr.Group c.Harness.gid)
                   ~entry:Harness.e_app m ~want:Types.No_reply)
          done;
          Runtime.sleep p interval_us
        done)
  done;
  let slice = duration_us / 10 in
  let deciles = ref [] in
  for d = 1 to 10 do
    World.run_for w slice;
    deciles :=
      {
        o_idx = d;
        o_delivered = !delivered;
        o_ab_queue = gauge_max w "runtime.ab_queue";
        o_ab_inflight = gauge_max w "runtime.ab_inflight";
        o_sendq = gauge_max w "transport.sendq_depth";
        o_credit_waiting = gauge_max w "transport.credit_waiting";
      }
      :: !deciles;
    Harness.note_gc ()
  done;
  {
    r_label = label;
    r_mult = mult;
    r_offered = offered;
    r_attempted = !attempted;
    r_delivered = !delivered;
    r_msgs_per_s =
      float_of_int !delivered /. float_of_int sites
      /. (float_of_int duration_us /. 1_000_000.0);
    r_lat = Harness.latency_stats !lats;
    r_waits = !waits;
    r_ab_window = Runtime.ab_window_now (World.runtime w 0) c.Harness.gid;
    r_deciles = List.rev !deciles;
  }

(* "Bounded" in the acceptance sense: the gauge does not strictly grow
   across every decile of the window. *)
let monotonic xs =
  match xs with
  | [] | [ _ ] -> false
  | x :: rest -> fst (List.fold_left (fun (mono, prev) v -> (mono && v > prev, v)) (true, x) rest)

let bounded_gauges r =
  let series f = List.map f r.r_deciles in
  List.for_all
    (fun f -> not (monotonic (series f)))
    [
      (fun d -> d.o_ab_queue); (fun d -> d.o_ab_inflight); (fun d -> d.o_sendq);
      (fun d -> d.o_credit_waiting);
    ]

let run () =
  let sites = 3 in
  let duration_us = if !Harness.smoke then 5_000_000 else 20_000_000 in
  let base = calibrate ~sites in
  Printf.printf "calibrated clean ABCAST rate: %d msgs/s (aggregate, %d sites)\n%!" base sites;
  let mults = [ 2; 5; 10 ] in
  let sweep =
    List.map
      (fun mult ->
        let offered = base * mult in
        let static =
          overload_run ~label:"static" ~runtime_config:None ~use_wait:false ~mult ~offered
            ~duration_us ~sites
        in
        let flowctl =
          overload_run ~label:"flowctl" ~runtime_config:(Some flowctl_runtime_config)
            ~use_wait:true ~mult ~offered ~duration_us ~sites
        in
        (mult, static, flowctl))
      mults
  in
  let lat_cell = function
    | None -> "-"
    | Some l -> Printf.sprintf "%.1f / %.1f" l.Harness.median_ms l.Harness.p99_ms
  in
  let peak f r = List.fold_left (fun acc d -> max acc (f d)) 0 r.r_deciles in
  let row (mult, r) =
    [
      Printf.sprintf "%dx" mult;
      r.r_label;
      string_of_int r.r_offered;
      Printf.sprintf "%.0f" r.r_msgs_per_s;
      lat_cell r.r_lat;
      string_of_int (peak (fun d -> d.o_ab_queue) r);
      string_of_int (peak (fun d -> d.o_sendq) r);
      string_of_int r.r_waits;
      (if bounded_gauges r then "yes" else "NO");
    ]
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "sustained overload: %ds window, %d sites, paced senders at N x clean rate"
         (duration_us / 1_000_000) sites)
    ~header:
      [
        "load"; "config"; "offered/s"; "msgs/s/member"; "lat ms (p50/p99)"; "peak ab_queue";
        "peak sendq"; "bp waits"; "bounded";
      ]
    (List.concat_map (fun (mult, s, f) -> [ row (mult, s); row (mult, f) ]) sweep);
  let _, static10, flowctl10 =
    List.find (fun (m, _, _) -> m = 10) sweep
  in
  let tput_ok = flowctl10.r_msgs_per_s >= static10.r_msgs_per_s in
  let bounded_ok = bounded_gauges flowctl10 in
  let p99 r = match r.r_lat with Some l -> l.Harness.p99_ms | None -> Float.nan in
  Printf.printf "10x: flowctl %.0f vs static %.0f msgs/s/member (acceptance: >=) %s\n"
    flowctl10.r_msgs_per_s static10.r_msgs_per_s
    (if tput_ok then "PASS" else "FAIL");
  Printf.printf "10x: flowctl queue gauges bounded across deciles %s\n"
    (if bounded_ok then "PASS" else "FAIL");
  Printf.printf "10x p99 delivery latency: flowctl %.1f ms vs static %.1f ms\n" (p99 flowctl10)
    (p99 static10);

  (match !Harness.json_path with
  | None -> ()
  | Some path ->
    let module J = Harness.Json in
    let decile_json d =
      J.Obj
        [
          ("decile", J.Int d.o_idx);
          ("delivered", J.Int d.o_delivered);
          ("ab_queue", J.Int d.o_ab_queue);
          ("ab_inflight", J.Int d.o_ab_inflight);
          ("sendq_depth", J.Int d.o_sendq);
          ("credit_waiting", J.Int d.o_credit_waiting);
        ]
    in
    let run_json r =
      J.Obj
        ([
           ("label", J.Str r.r_label);
           ("offered_msgs_per_s", J.Int r.r_offered);
           ("attempted", J.Int r.r_attempted);
           ("delivered", J.Int r.r_delivered);
           ("msgs_per_s_per_member", J.Float r.r_msgs_per_s);
           ("backpressure_waits", J.Int r.r_waits);
         ]
        @ (match r.r_lat with
          | None -> []
          | Some l ->
            [
              ("median_ms", J.Float l.Harness.median_ms); ("p99_ms", J.Float l.Harness.p99_ms);
              ("max_ms", J.Float l.Harness.max_ms);
            ])
        @ (match r.r_ab_window with
          | Some n -> [ ("ab_window_final", J.Int n) ]
          | None -> [])
        @ [ ("bounded_gauges", J.Bool (bounded_gauges r));
            ("deciles", J.List (List.map decile_json r.r_deciles)) ])
    in
    Harness.write_json path
      (J.Obj
         [
           ("bench", J.Str "overload");
           ("smoke", J.Bool !Harness.smoke);
           ("sites", J.Int sites);
           ("window_us", J.Int duration_us);
           ("base_rate_msgs_per_s", J.Int base);
           ( "sweep",
             J.List
               (List.map
                  (fun (mult, s, f) ->
                    J.Obj
                      [ ("mult", J.Int mult); ("static", run_json s); ("flowctl", run_json f) ])
                  sweep) );
           ( "acceptance",
             J.Obj
               [
                 ("tput_10x_static", J.Float static10.r_msgs_per_s);
                 ("tput_10x_flowctl", J.Float flowctl10.r_msgs_per_s);
                 ("tput_ok", J.Bool tput_ok);
                 ("bounded_ok", J.Bool bounded_ok);
                 ("p99_ms_static_10x", J.Float (p99 static10));
                 ("p99_ms_flowctl_10x", J.Float (p99 flowctl10));
               ] );
         ]);
    Printf.printf "overload: JSON written to %s\n" path);
  Harness.exit_unless (tput_ok && bounded_ok)
