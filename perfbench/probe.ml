(* Measuring the stack from outside.

   Three probes, none of which reaches inside [lib/]:
   - a wrapper around the [Backend.t] record, timing every packet
     delivery and timer callback that crosses it;
   - a sink on the existing typed tracer, pairing events by uid into
     per-stage waits;
   - samplers of the runtimes' registered gauges, transport counters,
     modelled CPU and the OCaml GC. *)

open Perfbench_stats
module Backend = Vsync_backend.Backend
module Event = Vsync_obs.Event
module Tracer = Vsync_obs.Tracer
module Metrics = Vsync_obs.Metrics
module Runtime = Vsync_core.Runtime
module Message = Vsync_msg.Message

(* --- backend boundary ------------------------------------------------- *)

type backend_probe = {
  mutable on : bool;
  rx_cb_ns : Stats.samples;
  timer_cb_ns : Stats.samples;
  timer_lag_us : Stats.samples;
}

let backend_probe () =
  {
    on = false;
    rx_cb_ns = Stats.samples ();
    timer_cb_ns = Stats.samples ();
    timer_lag_us = Stats.samples ();
  }

(* The same backend with every callback timed.  A timer's lag is
   measured against its deadline as the backend clamps it (never
   earlier than the moment it was set). *)
let wrap p bk =
  Backend.v ~kind:(Backend.kind bk)
    ~now:(fun () -> Backend.now bk)
    ~schedule_at:(fun at f ->
      let deadline = max at (Backend.now bk) in
      Backend.schedule_at bk at (fun () ->
          if p.on then begin
            Stats.add p.timer_lag_us (float_of_int (Backend.now bk - deadline));
            let t0 = Clock.ns () in
            f ();
            Stats.add p.timer_cb_ns (float_of_int (Clock.ns () - t0))
          end
          else f ()))
    ~send:(fun src dst bytes deliver ->
      Backend.send bk ~src ~dst ~bytes (fun () ->
          if p.on then begin
            let t0 = Clock.ns () in
            deliver ();
            Stats.add p.rx_cb_ns (float_of_int (Clock.ns () - t0))
          end
          else deliver ()))
    ~n_sites:(Backend.n_sites bk) ~max_packet_bytes:(Backend.max_packet_bytes bk)
    ~intra_site_us:(Backend.intra_site_us bk) ~rng:(Backend.rng bk)

(* --- typed-event stages ----------------------------------------------- *)

(* Waits between protocol milestones, paired by uid from the Transport
   and Proto event classes.  Times are the tracer's clock: real µs on
   the wall backend, virtual µs on the simulator. *)
type stages = {
  mutable s_on : bool;
  origin_us : Stats.samples;  (* Originate -> first Frame_tx of the uid *)
  transit_us : Stats.samples;  (* data Frame_tx -> the matching Frame_rx *)
  cb_holdback_us : Stats.samples;  (* cb_data Frame_rx -> Deliver at that site *)
  ab_holdback_us : Stats.samples;  (* ab_data Frame_rx -> Deliver at that site *)
  abvote_us : Stats.samples;  (* Originate -> first Ab_commit *)
  stable_us : Stats.samples;  (* Deliver -> Stabilize at that site *)
  flush_ms : Stats.samples;  (* Wedge -> View_install at that site *)
  detect_ms : Stats.samples;  (* noted crash -> first Wedge after it *)
  orig : (int * int, int * bool ref) Hashtbl.t;  (* uid -> originate time, tx seen *)
  tx : (int * int * int * int, int) Hashtbl.t;  (* src, dst, uid *)
  rx : (int * int * int, int * bool) Hashtbl.t;  (* site, uid -> time, is ABCAST *)
  dl : (int * int * int, int) Hashtbl.t;  (* site, uid -> delivery time *)
  wedged : (int, int) Hashtbl.t;  (* site -> wedge time *)
  views : (int * int, unit) Hashtbl.t;  (* group, view id installed somewhere *)
  mutable view_changes : int;
  mutable crash_at : int option;
  mutable delivers : int;
  mutable packets : int;
  mutable frames : int;  (* carried by those packets *)
  mutable packet_bytes : int;
  mutable acks : int;
  mutable retransmits : int;  (* frames resent *)
  mutable records : Event.record list;  (* newest first; written out at the end *)
  mutable kept : int;
}

(* Events retained for the written trace: the first of a run, bounding
   the sink's memory; the stage pairing sees every event. *)
let max_records = 200_000

let stages () =
  let s = Stats.samples in
  {
    s_on = false;
    origin_us = s ();
    transit_us = s ();
    cb_holdback_us = s ();
    ab_holdback_us = s ();
    abvote_us = s ();
    stable_us = s ();
    flush_ms = s ();
    detect_ms = s ();
    orig = Hashtbl.create 1024;
    tx = Hashtbl.create 1024;
    rx = Hashtbl.create 1024;
    dl = Hashtbl.create 1024;
    wedged = Hashtbl.create 8;
    views = Hashtbl.create 8;
    view_changes = 0;
    crash_at = None;
    delivers = 0;
    packets = 0;
    frames = 0;
    packet_bytes = 0;
    acks = 0;
    retransmits = 0;
    records = [];
    kept = 0;
  }

let since s k at0 at = Stats.add s (float_of_int (at - at0) /. k)
let is_data kind = String.equal kind "cb_data" || String.equal kind "ab_data"

let on_record st (r : Event.record) =
  if st.s_on then begin
    if st.kept < max_records then begin
      st.records <- r :: st.records;
      st.kept <- st.kept + 1
    end;
    let at = r.Event.at in
    match r.Event.ev with
    | Event.Originate { usite; useq; _ } -> Hashtbl.replace st.orig (usite, useq) (at, ref false)
    | Event.Frame_tx { site; dst; kind; usite; useq } ->
      (match Hashtbl.find_opt st.orig (usite, useq) with
      | Some (t0, seen) when not !seen ->
        seen := true;
        since st.origin_us 1. t0 at
      | Some _ | None -> ());
      if is_data kind then Hashtbl.replace st.tx (site, dst, usite, useq) at
    | Event.Frame_rx { site; src; kind; usite; useq } when is_data kind ->
      (match Hashtbl.find_opt st.tx (src, site, usite, useq) with
      | Some t0 ->
        Hashtbl.remove st.tx (src, site, usite, useq);
        since st.transit_us 1. t0 at
      | None -> ());
      Hashtbl.replace st.rx (site, usite, useq) (at, String.equal kind "ab_data")
    | Event.Ab_commit { usite; useq; _ } -> (
      match Hashtbl.find_opt st.orig (usite, useq) with
      | Some (t0, _) ->
        Hashtbl.remove st.orig (usite, useq);
        since st.abvote_us 1. t0 at
      | None -> ())
    | Event.Deliver { site; usite; useq; _ } ->
      st.delivers <- st.delivers + 1;
      (match Hashtbl.find_opt st.rx (site, usite, useq) with
      | Some (t0, ab) ->
        Hashtbl.remove st.rx (site, usite, useq);
        since (if ab then st.ab_holdback_us else st.cb_holdback_us) 1. t0 at
      | None -> ());
      Hashtbl.replace st.dl (site, usite, useq) at
    | Event.Stabilize { site; usite; useq } -> (
      match Hashtbl.find_opt st.dl (site, usite, useq) with
      | Some t0 ->
        Hashtbl.remove st.dl (site, usite, useq);
        since st.stable_us 1. t0 at
      | None -> ())
    | Event.Wedge { site; _ } ->
      if not (Hashtbl.mem st.wedged site) then Hashtbl.replace st.wedged site at;
      (match st.crash_at with
      | Some c ->
        st.crash_at <- None;
        since st.detect_ms 1000. c at
      | None -> ())
    | Event.View_install { site; group; view_id; _ } ->
      if not (Hashtbl.mem st.views (group, view_id)) then begin
        Hashtbl.replace st.views (group, view_id) ();
        st.view_changes <- st.view_changes + 1
      end;
      (match Hashtbl.find_opt st.wedged site with
      | Some t0 ->
        Hashtbl.remove st.wedged site;
        since st.flush_ms 1000. t0 at
      | None -> ())
    | Event.Packet_send { nframes; bytes; _ } ->
      st.packets <- st.packets + 1;
      st.frames <- st.frames + nframes;
      st.packet_bytes <- st.packet_bytes + bytes
    | Event.Ack_send _ -> st.acks <- st.acks + 1
    | Event.Retransmit { nframes; _ } -> st.retransmits <- st.retransmits + nframes
    | _ -> ()
  end

(* Forgets the uid pairings before a new deployment reuses the uids;
   samples and tallies carry over. *)
let new_deployment st =
  Hashtbl.reset st.orig;
  Hashtbl.reset st.tx;
  Hashtbl.reset st.rx;
  Hashtbl.reset st.dl;
  Hashtbl.reset st.wedged;
  Hashtbl.reset st.views;
  st.crash_at <- None

(* Turns on the Transport and Proto classes of [tr] and feeds every
   event to [st]. *)
let attach st tr =
  Tracer.set_classes tr [ Event.Transport; Event.Proto ];
  Tracer.set_enabled tr true;
  Tracer.add_sink tr (on_record st)

(* Writes the retained events as JSONL, oldest first, to one file per
   workload that each traced run overwrites. *)
let write_records st ~workload =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir (Printf.sprintf "trace-%s.jsonl" workload)) in
  List.iter (fun r -> Vsync_obs.Jsonl.sink_to_channel oc r) (List.rev st.records);
  close_out oc

(* --- gauges, counters, GC --------------------------------------------- *)

type gauges = {
  mutable pending_store : int;
  mutable ab_queue : int;
  mutable sendq_depth : int;
  mutable inflight : int;
  mutable heap_words : int;
}

let gauges () = { pending_store = 0; ab_queue = 0; sendq_depth = 0; inflight = 0; heap_words = 0 }

let read rt name = Option.value ~default:0 (Metrics.read_int (Runtime.metrics rt) name)

(* Folds the current value of each gauge into its running maximum
   (per-site gauges summed over the sites first). *)
let sample_gauges g runtimes =
  let sum name = Array.fold_left (fun acc rt -> acc + read rt name) 0 runtimes in
  g.pending_store <- max g.pending_store (sum "runtime.pending_store");
  g.ab_queue <- max g.ab_queue (sum "runtime.ab_queue");
  g.sendq_depth <- max g.sendq_depth (sum "transport.sendq_depth");
  g.inflight <- max g.inflight (sum "transport.inflight")

let sample_heap g = g.heap_words <- max g.heap_words (Gc.quick_stat ()).Gc.heap_words
let heap_mb g = float_of_int (g.heap_words * (Sys.word_size / 8)) /. 1048576.

(* Totals that a measured phase takes differences of: modelled CPU over
   the sites, and the GC. *)
type counters = { cpu_busy_us : int; alloc_words : float; major_gcs : int }

let counters runtimes =
  let gc = Gc.quick_stat () in
  {
    cpu_busy_us = Array.fold_left (fun acc rt -> acc + Runtime.cpu_busy_us rt) 0 runtimes;
    alloc_words = gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words;
    major_gcs = gc.Gc.major_collections;
  }

let diff a b =
  {
    cpu_busy_us = b.cpu_busy_us - a.cpu_busy_us;
    alloc_words = b.alloc_words -. a.alloc_words;
    major_gcs = b.major_gcs - a.major_gcs;
  }

(* --- per-layer report lines ------------------------------------------- *)

(* Ratios are per delivery: the Deliver events the traced run saw. *)
let per_msg st x = float_of_int x /. float_of_int (max 1 st.delivers)
let delivers_basis st = Printf.sprintf "over %d deliveries" st.delivers

(* Every stage as p50 and p99; a stage the run never passed through
   reads 0. *)
let stage_lines st =
  let d name s =
    let p50 = name ^ ".p50" and p99 = name ^ ".p99" in
    match Stats.dist_lines ~p50 ~tail:p99 ~unit_:"us" s with
    | [] ->
      let why = "the stage does not occur on this workload" in
      [ Stats.absent p50 "us" why; Stats.absent p99 "us" why ]
    | l -> l
  in
  d "stage.origin_us" st.origin_us
  @ d "stage.transit_us" st.transit_us
  @ d "stage.cb_holdback_us" st.cb_holdback_us
  @ d "stage.ab_holdback_us" st.ab_holdback_us
  @ d "stage.abvote_us" st.abvote_us
  @ d "stage.stable_us" st.stable_us

let transport_lines ?payload_bytes st =
  let b = delivers_basis st in
  [ Stats.line "transport.frames_per_msg" "count" (per_msg st st.frames) b;
    Stats.line "transport.packets_per_msg" "count" (per_msg st st.packets) b;
    Stats.line "transport.acks_per_msg" "count" (per_msg st st.acks) b;
    Stats.line "transport.retransmits_per_msg" "count" (per_msg st st.retransmits) b ]
  @
  match payload_bytes with
  | Some p ->
    [ Stats.line "transport.bytes_per_payload_byte" "ratio"
        (float_of_int st.packet_bytes /. float_of_int (max 1 p))
        (Printf.sprintf "%d wire bytes, %d payload bytes delivered" st.packet_bytes p) ]
  | None -> []

let backend_lines bp =
  Stats.dist_lines ~p50:"backend.timer_lag_us.p50" ~tail:"backend.timer_lag_us.p99" ~unit_:"us"
    bp.timer_lag_us
  @ [ Stats.line "backend.rx_cb_us" "us" (Stats.mean bp.rx_cb_ns /. 1000.)
        (Printf.sprintf "mean of %d packet deliveries" (Stats.count bp.rx_cb_ns));
      Stats.line "backend.timer_cb_us" "us" (Stats.mean bp.timer_cb_ns /. 1000.)
        (Printf.sprintf "mean of %d timer callbacks" (Stats.count bp.timer_cb_ns)) ]

let gauge_lines g =
  let l name v = Stats.line name "count" (float_of_int v) "largest sum over sites, sampled per slice" in
  [ l "transport.sendq_depth_max" g.sendq_depth;
    l "transport.inflight_max" g.inflight;
    l "runtime.pending_store_max" g.pending_store;
    l "runtime.ab_queue_max" g.ab_queue ]

(* Modelled CPU and the GC, over the same span as [st]'s deliveries. *)
let cost_lines st (c : counters) =
  let b = delivers_basis st in
  [ Stats.line "cpu.modelled_us_per_msg" "us" (per_msg st c.cpu_busy_us) b;
    Stats.line "gc.alloc_words_per_msg" "words" (c.alloc_words /. float_of_int (max 1 st.delivers)) b;
    Stats.line "gc.major_per_kmsg" "count" (1000. *. per_msg st c.major_gcs) b ]

let overhead_line ~traced ~untraced ~what =
  Stats.line "obs.trace_overhead_frac" "ratio" ((traced /. untraced) -. 1.)
    (Printf.sprintf "%s, traced %.3g vs untraced %.3g" what traced untraced)

(* The view-change metrics of a run without a membership change. *)
let no_view_lines =
  let why = "no membership change on this workload" in
  [ Stats.absent "view.changes" "count" why;
    Stats.absent "view.detect_ms" "virtual_ms" why;
    Stats.absent "view.flush_ms" "virtual_ms" why;
    Stats.absent "view.failover_ms" "virtual_ms" why;
    Stats.absent "view.rejoin_ms" "virtual_ms" why ]

(* The simulator metrics of a wall-clock run. *)
let no_sim_lines =
  let why = "the wall-clock backend runs no simulator" in
  [ Stats.absent "sim.events_per_msg" "count" why; Stats.absent "sim.ns_per_event" "ns" why ]

(* Cost of building, copying and decoding messages (ns per message):
   the [n] messages [make i] builds, shaped like the workload's.  The
   codec is not on the multicast path — frames travel as OCaml values —
   so decode is expected to move nothing end to end. *)
let msg_lines ~what ~n make =
  let msgs = Array.init n make in
  let encoded = Array.map Message.encode msgs in
  let iters = 40 in
  let per f =
    let t0 = Clock.ns () in
    for _ = 1 to iters do
      for i = 0 to n - 1 do
        f i
      done
    done;
    float_of_int (Clock.ns () - t0) /. float_of_int (iters * n)
  in
  let sink = ref 0 in
  let build = per (fun i -> sink := !sink + Message.size (make i)) in
  let copy = per (fun i -> sink := !sink + Message.size (Message.copy msgs.(i))) in
  let decode = per (fun i -> sink := !sink + Message.size (Message.decode encoded.(i))) in
  assert (!sink > 0);
  let basis = Printf.sprintf "mean over %d %s" n what in
  [ Stats.line "msg.build_ns" "ns" build basis;
    Stats.line "msg.copy_ns" "ns" copy basis;
    Stats.line "msg.decode_ns" "ns" decode basis ]
