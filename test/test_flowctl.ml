(* Flow control and adaptive wire tuning: per-destination credit
   budgets on the transport (replenished by cumulative acks), typed
   backpressure from the runtime to originators, and the AIMD ABCAST
   origination window.  Everything here is deterministic — fixed seeds
   on the simulator — and the 25-seed sweep at the end A/Bs the whole
   stack against the historical static tuning under the nemesis. *)

open Vsync_core
module Engine = Vsync_sim.Engine
module Net = Vsync_sim.Net
module Endpoint = Vsync_transport.Endpoint
module Addr = Vsync_msg.Addr
module Entry = Vsync_msg.Entry
module Message = Vsync_msg.Message
module Types = Vsync_core.Types

type payload = { tag : int; size : int }

let e_app = Entry.user 0

let ep_setup ?(sites = 2) ?(seed = 1L) ~config () =
  let e = Engine.create ~seed () in
  let n = Net.create e Net.default_config ~sites in
  let fab = Endpoint.fabric (Net.backend n) in
  let eps =
    Array.init sites (fun site -> Endpoint.create ~config fab ~site ~size:(fun p -> p.size) ())
  in
  (e, n, eps)

let collect ep =
  let log = ref [] in
  Endpoint.set_receiver ep (fun ~src ps -> List.iter (fun p -> log := (src, p.tag) :: !log) ps);
  log

let sink ep = Endpoint.set_receiver ep (fun ~src:_ _ -> ())

(* --- transport credits --- *)

let test_frame_credits_gate_and_replenish () =
  (* Budget of 2 frames: two messages launch, four wait; cumulative
     acks refund the budget and drain the wait queue in FIFO order. *)
  let cfg = { Endpoint.default_config with Endpoint.credit_frames = 2 } in
  let e, _n, eps = ep_setup ~config:cfg () in
  let log = collect eps.(1) in
  sink eps.(0);
  let refunds = ref 0 in
  Endpoint.set_credit_handler eps.(0) (fun _ -> incr refunds);
  for tag = 1 to 6 do
    Endpoint.send eps.(0) ~dst:1 { tag; size = 100 }
  done;
  Alcotest.(check int) "two launched, four waiting" 4 (Endpoint.credit_waiting eps.(0));
  Alcotest.(check bool) "backpressured while waiting" true (Endpoint.backpressured eps.(0) ~dst:1);
  Alcotest.(check bool) "credit charged" true (Endpoint.credit_used_bytes eps.(0) > 0);
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int)))
    "all delivered, FIFO, exactly once"
    (List.init 6 (fun i -> (0, i + 1)))
    (List.rev !log);
  Alcotest.(check int) "wait queue drained" 0 (Endpoint.credit_waiting eps.(0));
  Alcotest.(check int) "credit fully refunded" 0 (Endpoint.credit_used_bytes eps.(0));
  Alcotest.(check bool) "backpressure released" false (Endpoint.backpressured eps.(0) ~dst:1);
  Alcotest.(check bool) "refund handler fired" true (!refunds > 0)

let test_byte_credits_exact_refund () =
  (* Byte budget that fits exactly one 124-byte-cost message: the
     second send waits until the first message's ack refunds exactly
     its cost (used drops back to zero before the second launches). *)
  let cfg = { Endpoint.default_config with Endpoint.credit_bytes = 150 } in
  let e, _n, eps = ep_setup ~config:cfg () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  let used_one = Endpoint.credit_used_bytes eps.(0) in
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Alcotest.(check int) "second send waits" 1 (Endpoint.credit_waiting eps.(0));
  Alcotest.(check int) "budget charged for exactly one message" used_one
    (Endpoint.credit_used_bytes eps.(0));
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int))) "both delivered in order" [ (0, 1); (0, 2) ]
    (List.rev !log);
  Alcotest.(check int) "refund is exact: zero residue" 0 (Endpoint.credit_used_bytes eps.(0))

let test_oversized_message_never_wedges () =
  (* A message bigger than the whole budget must still launch on an
     idle channel — the budget degrades to stop-and-wait, not a
     permanent wedge. *)
  let cfg = { Endpoint.default_config with Endpoint.credit_bytes = 50 } in
  let e, _n, eps = ep_setup ~config:cfg () in
  let log = collect eps.(1) in
  sink eps.(0);
  Endpoint.send eps.(0) ~dst:1 { tag = 1; size = 100 };
  Alcotest.(check int) "oversized message launched, not queued" 0
    (Endpoint.credit_waiting eps.(0));
  Endpoint.send eps.(0) ~dst:1 { tag = 2; size = 100 };
  Alcotest.(check int) "busy channel queues the next" 1 (Endpoint.credit_waiting eps.(0));
  Engine.run ~until:10_000_000 e;
  Alcotest.(check (list (pair int int))) "stop-and-wait delivery" [ (0, 1); (0, 2) ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Endpoint.credit_waiting eps.(0))

(* --- runtime backpressure --- *)

let flood p gid n =
  let m = Message.create () in
  for _ = 1 to n do
    ignore
      (Runtime.bcast p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app m ~want:Types.No_reply)
  done

let form_group w members =
  let gid = ref None in
  World.run_task w members.(0) (fun () -> gid := Some (Runtime.pg_create members.(0) "fc"));
  World.run w;
  let gid = Option.get !gid in
  Array.iteri
    (fun i m ->
      if i > 0 then
        World.run_task w m (fun () ->
            ignore (Runtime.pg_lookup m "fc");
            match Runtime.pg_join m gid ~credentials:(Message.create ()) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "join failed: %s" e))
    members;
  World.run w;
  gid

let test_backpressure_fires_and_releases () =
  (* ab_window = 1 serializes rounds; ab_queue_limit = 4 turns the
     backlog into a typed verdict.  The flood saturates the queue, so
     bcast_try reports Backpressure; after the pipeline drains it
     admits again.  Same engine, same seed: fully deterministic. *)
  let config =
    { Runtime.default_config with Runtime.ab_window = 1; ab_window_min = 1; ab_queue_limit = 4 }
  in
  let w = World.create ~seed:0xF10CL ~runtime_config:config ~sites:3 () in
  let members = Array.init 3 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = form_group w members in
  let verdict_hot = ref None in
  let verdict_cold = ref None in
  let waited = ref [] in
  let wait_done = ref false in
  World.run_task w members.(0) (fun () ->
      let p = members.(0) in
      flood p gid 12;
      (* Yield so the CPU queue feeds the origination pipeline. *)
      Runtime.sleep p 400_000;
      verdict_hot :=
        Some (Runtime.bcast_try p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app
                (Message.create ()) ~want:Types.No_reply);
      (* Blocking variant: parks until the overload clears, reporting
         the shed exactly once through the callback. *)
      ignore
        (Runtime.bcast_wait
           ~on_backpressure:(fun g -> waited := g :: !waited)
           p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app (Message.create ())
           ~want:Types.No_reply);
      wait_done := true;
      (* Let everything drain, then admission must be open again. *)
      Runtime.sleep p 30_000_000;
      verdict_cold :=
        Some (Runtime.bcast_try p Types.Abcast ~dest:(Addr.Group gid) ~entry:e_app
                (Message.create ()) ~want:Types.No_reply));
  World.run w;
  (match !verdict_hot with
  | Some (Runtime.Backpressure g) -> Alcotest.(check bool) "overloaded group" true (g = gid)
  | Some (Runtime.Admitted _) -> Alcotest.fail "flooded group did not report backpressure"
  | None -> Alcotest.fail "hot verdict missing");
  Alcotest.(check bool) "bcast_wait completed" true !wait_done;
  Alcotest.(check int) "backpressure callback fired exactly once" 1 (List.length !waited);
  (match !verdict_cold with
  | Some (Runtime.Admitted _) -> ()
  | Some (Runtime.Backpressure _) -> Alcotest.fail "drained group still backpressured"
  | None -> Alcotest.fail "cold verdict missing");
  (* Quiescent hygiene: admission control left nothing queued. *)
  let t0 = World.runtime w 0 in
  Alcotest.(check int) "no queued rounds at quiescence" 0
    (Option.value ~default:(-1) (Vsync_obs.Metrics.read_int (Runtime.metrics t0) "runtime.ab_queue"))

(* --- AIMD window --- *)

let test_aimd_shrink_and_regrow () =
  (* Loss (a partition window with rounds in flight) fires RTOs: the
     adaptive window halves once per congestion episode.  After the
     heal, clean commits grow it additively back to the static
     ceiling. *)
  let config = { Runtime.default_config with Runtime.ab_window = 8; ab_adaptive = true } in
  let w = World.create ~seed:0xA1BDL ~runtime_config:config ~sites:2 () in
  let members = Array.init 2 (fun s -> World.proc w ~site:s ~name:(Printf.sprintf "m%d" s)) in
  let gid = form_group w members in
  let t0 = World.runtime w 0 in
  let window () = Option.value ~default:(-1) (Runtime.ab_window_now t0 gid) in
  Alcotest.(check int) "starts at the static ceiling" 8 (window ());
  World.run_task w members.(0) (fun () -> flood members.(0) gid 10);
  World.run_for w 200_000;
  (* Partition with rounds in flight: no acks, RTOs back off. *)
  World.partition w [ 0 ] [ 1 ];
  World.run_for w 1_200_000;
  let shrunk = window () in
  Alcotest.(check bool)
    (Printf.sprintf "window shrank under loss (now %d)" shrunk)
    true (shrunk < 8);
  Alcotest.(check bool) "but not below the floor" true (shrunk >= config.Runtime.ab_window_min);
  World.heal w;
  (* Clean traffic after the heal: additive growth reopens the window.
     Sustained load keeps probing — an occasional marginal RTT still
     fires an RTO and re-halves, which is AIMD's equilibrium, so the
     assertion is strict regrowth above the congestion value rather
     than pinning the ceiling. *)
  World.run_task w members.(0) (fun () -> flood members.(0) gid 60);
  World.run w;
  World.run_task w members.(0) (fun () -> flood members.(0) gid 40);
  World.run w;
  Alcotest.(check bool)
    (Printf.sprintf "regrew after heal (now %d > %d)" (window ()) shrunk)
    true
    (window () > shrunk)

(* The window config is validated up front: a window below one round,
   or a floor outside [1, ab_window], is refused instead of silently
   meaning something else. *)
let test_window_config_validated () =
  let create config =
    let w = World.create ~sites:1 () in
    let fab = Runtime.make_fabric (World.backend w) in
    ignore (Runtime.create ~config fab ~site:0 ~trace:(World.trace w) ())
  in
  let d = Runtime.default_config in
  List.iter
    (fun (label, config) ->
      match create config with
      | () -> Alcotest.failf "%s: accepted" label
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: refused by the window check (%s)" label msg)
          true
          (String.starts_with ~prefix:"Runtime.create: ab_window" msg))
    [
      ("ab_window = 0", { d with Runtime.ab_window = 0; ab_window_min = 1 });
      ("ab_window < 0", { d with Runtime.ab_window = -1; ab_window_min = 1 });
      ("ab_window_min = 0", { d with Runtime.ab_window_min = 0 });
      ("ab_window_min > ab_window", { d with Runtime.ab_window = 4; ab_window_min = 5 });
    ];
  create { d with Runtime.ab_window = 1; ab_window_min = 1 }

(* --- 25-seed oracle sweep: flow control on vs off --- *)

let flowctl_config =
  {
    Runtime.default_config with
    Runtime.ab_adaptive = true;
    ab_queue_limit = 64;
    endpoint =
      {
        Endpoint.default_config with
        Endpoint.adaptive_ack = true;
        credit_bytes = 64 * 1024;
        credit_frames = 64;
      };
  }

let digest (r : Scenario.result) =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Oracle.pp_history r.oracle))

let test_sweep_on_off () =
  (* Every seed runs the nemesis scenario twice: historical static
     tuning (flow control off — the config-less baseline) and the full
     flow-control stack.  Both must satisfy every oracle invariant.
     The off-run must be bit-identical to the baseline that doesn't
     thread a config at all: feature-off means digest-locked traces
     are untouched. *)
  for s = 1 to 25 do
    let seed = Int64.of_int (1000 + s) in
    let run cfg =
      match
        Scenario.run ~sites:3 ~horizon_us:3_000_000 ~settle_us:15_000_000 ~intensity:0.5
          ?runtime_config:cfg ~seed ()
      with
      | Ok r -> r
      | Error e -> Alcotest.failf "seed %Ld: setup failed: %s" seed e
    in
    let off = run None in
    Alcotest.(check int)
      (Printf.sprintf "seed %Ld off: no violations" seed)
      0
      (List.length off.violations);
    let off' = run (Some Runtime.default_config) in
    Alcotest.(check string)
      (Printf.sprintf "seed %Ld: explicit default config is bit-identical" seed)
      (digest off) (digest off');
    let on = run (Some flowctl_config) in
    Alcotest.(check int)
      (Printf.sprintf "seed %Ld on: no violations" seed)
      0
      (List.length on.violations);
    Alcotest.(check bool)
      (Printf.sprintf "seed %Ld on: traffic made progress" seed)
      true (on.delivered > 0)
  done

let suite =
  [
    Alcotest.test_case "frame credits gate and replenish" `Quick test_frame_credits_gate_and_replenish;
    Alcotest.test_case "byte credits refund exactly" `Quick test_byte_credits_exact_refund;
    Alcotest.test_case "oversized message never wedges" `Quick test_oversized_message_never_wedges;
    Alcotest.test_case "backpressure fires and releases" `Quick test_backpressure_fires_and_releases;
    Alcotest.test_case "AIMD shrinks on loss, regrows after heal" `Quick test_aimd_shrink_and_regrow;
    Alcotest.test_case "window config validated" `Quick test_window_config_validated;
    Alcotest.test_case "25-seed sweep: flow control on/off" `Slow test_sweep_on_off;
  ]
