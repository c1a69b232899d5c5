(* The [twentyq] workload: the paper's Sec 5 service on the wall clock.

   Four sites with a member at each and one closed-loop client per site.
   Clients mix queries and updates 9:1: a query is [Client.vertical]
   (one CBCAST and one reply), an update is [Client.add_row_sync] (a
   GBCAST every member confirms).  This is the group-RPC path [flood]
   bypasses: reply sessions, blocking tasks, GBCAST and database
   evaluation, with reads running beside writes. *)

open Perfbench_stats
open Vsync_core
open Twentyq
module Rng = Vsync_util.Rng
module Message = Vsync_msg.Message

let sites = 4
let update_one_in = 10 (* 9:1 queries:updates *)

let queries =
  [| "price>9000"; "color=blue"; "make=Ford"; "size=sport"; "price<6000"; "color=white";
     "make=Nissan"; "model=Taurus" |]

let colors = [| "red"; "blue"; "white"; "grey"; "green" |]
let sizes = [| "compact"; "sedan"; "sport"; "wagon" |]
let query_window_us = 2_000_000 (* about 1000 queries, enough for a p99 each *)
let window_s = float_of_int query_window_us /. 1e6
let drain_us = 15_000_000
let slice_us = 5_000

type deployment = {
  stack : Stack.t;
  services : Service.t array;
  handles : Client.t array;
  clients : Runtime.proc array;
}

(* Waits for [n] results of tasks already started; any [Error] fails
   the set-up. *)
let await stack what results =
  let ok () = Array.for_all (fun r -> r <> None) results in
  let failed () = Array.exists (function Some (Error _) -> true | _ -> false) results in
  if not (Stack.run_cond stack ~timeout_us:30_000_000 (fun () -> ok () || failed ())) then
    failwith (what ^ " timed out");
  Array.map
    (function Some (Ok x) -> x | Some (Error e) -> failwith (what ^ ": " ^ e) | None -> assert false)
    results

let setup ~stack =
  let members =
    Array.init sites (fun s -> Stack.proc stack ~site:s ~name:(Printf.sprintf "tq%d" s))
  in
  let founder = [| None |] in
  Runtime.spawn_task members.(0) (fun () ->
      founder.(0) <-
        Some (Ok (Service.create members.(0) ~db:(Database.demo_cars ()) ~nmembers:sites ())));
  let founder = (await stack "service create" founder).(0) in
  let joined = Array.make (sites - 1) None in
  Array.iteri
    (fun i p -> if i > 0 then Runtime.spawn_task p (fun () -> joined.(i - 1) <- Some (Service.join p ())))
    members;
  let joined = await stack "service join" joined in
  let clients =
    Array.init sites (fun s -> Stack.proc stack ~site:s ~name:(Printf.sprintf "cl%d" s))
  in
  let handles = Array.make sites None in
  Array.iteri (fun i p -> Runtime.spawn_task p (fun () -> handles.(i) <- Some (Client.connect p))) clients;
  let handles = await stack "client connect" handles in
  { stack; services = Array.append [| founder |] joined; handles; clients }

type result = {
  attempted : int;
  failed : int;
  errors : string list;
  query_ms : Stats.samples array;  (** by two-second window of the request's start *)
  completed : int array;  (** requests that returned [Ok], by the same windows *)
  update_ms : Stats.samples array;  (** by the same windows *)
  wall_s : float;
  cpu_s : float;
  win : Probe.counters;
  gauges : Probe.gauges;
}

let run d ~seed ~us =
  let stack = d.stack in
  let stop = ref false and active = ref sites in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let err e = if List.length !errors < 8 then errors := e :: !errors in
  let acked = ref [] in
  let start_ns = Clock.ns () in
  let query_ms = Array.init (max 1 (us / query_window_us)) (fun _ -> Stats.samples ()) in
  let completed = Array.make (Array.length query_ms) 0 in
  let window t0 = min (Array.length query_ms - 1) ((t0 - start_ns) / 1000 / query_window_us) in
  let update_ms = Array.init (Array.length query_ms) (fun _ -> Stats.samples ()) in
  let gauges = Probe.gauges () in
  let on_slice () =
    Probe.sample_gauges gauges stack.Stack.runtimes;
    Probe.sample_heap gauges
  in
  let timed s f =
    let t0 = Clock.ns () in
    let r = f () in
    (match r with
    | Ok _ ->
      Stats.add (s t0) (float_of_int (Clock.ns () - t0) *. 1e-6);
      let w = window t0 in
      completed.(w) <- completed.(w) + 1
    | Error e ->
      incr failed;
      err e);
    r
  in
  let c0 = Probe.counters stack.Stack.runtimes in
  let cpu0 = Clock.cpu_s () and wall0 = Clock.s () in
  Array.iteri
    (fun i p ->
      let r = Rng.create (Int64.of_int ((seed * 104_729) + i + 1)) in
      let h = d.handles.(i) in
      Runtime.spawn_task p (fun () ->
          let rec loop k =
            if !stop then decr active
            else begin
              incr attempted;
              (if Rng.int r update_one_in = 0 then begin
                 let row =
                   [ "car"; colors.(Rng.int r (Array.length colors));
                     sizes.(Rng.int r (Array.length sizes)); string_of_int (1000 + Rng.int r 50_000);
                     "bench"; Printf.sprintf "c%d-%d" i k ]
                 in
                 match timed (fun t0 -> update_ms.(window t0)) (fun () -> Client.add_row_sync h row) with
                 | Ok () -> acked := row :: !acked
                 | Error _ -> ()
               end
               else
                 let q = queries.(Rng.int r (Array.length queries)) in
                 ignore (timed (fun t0 -> query_ms.(window t0)) (fun () -> Client.vertical h q)));
              loop (k + 1)
            end
          in
          loop 0))
    d.clients;
  let t_end = stack.Stack.now () + us in
  ignore
    (Stack.run_cond ~slice_us ~on_slice stack ~timeout_us:us (fun () -> stack.Stack.now () >= t_end));
  let cpu1 = Clock.cpu_s () and wall1 = Clock.s () in
  let c1 = Probe.counters stack.Stack.runtimes in
  stop := true;
  if not (Stack.run_cond ~slice_us stack ~timeout_us:drain_us (fun () -> !active = 0)) then
    err "clients still blocked after the drain deadline";
  (* Every replica holds the initial rows plus exactly the acknowledged
     updates, in one order. *)
  let rows = Array.map (fun s -> Database.rows (Service.db s)) d.services in
  Array.iteri
    (fun i r -> if r <> rows.(0) then err (Printf.sprintf "member %d's database differs from member 0's" i))
    rows;
  let expected = List.sort compare (Database.rows (Database.demo_cars ()) @ !acked) in
  if List.sort compare rows.(0) <> expected then
    err
      (Printf.sprintf "database holds %d rows, expected the %d initial plus %d acknowledged"
         (List.length rows.(0)) (List.length expected - List.length !acked) (List.length !acked));
  {
    attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    query_ms;
    completed;
    update_ms;
    wall_s = wall1 -. wall0;
    cpu_s = cpu1 -. cpu0;
    win = Probe.diff c0 c1;
    gauges;
  }

let e2e ~seed ~seconds =
  let setups, d =
    Stack.timed_setups (fun i ->
        setup ~stack:(Stack.wall_world ~seed:(Int64.of_int ((seed * 31) + i)) ~sites))
  in
  Gc.compact ();
  let r = run d ~seed ~us:(seconds * 1_000_000) in
  {
    Stats.backend = "wall";
    attempted = r.attempted;
    failed = r.failed;
    errors = r.errors;
    lines =
      [ Stats.line "setup_s" "s" (Stats.median setups) (Stats.trials_basis "set-ups" setups);
        (let per_s = Array.to_list (Array.map (fun n -> float_of_int n /. window_s) r.completed) in
         Stats.line "tput" "1/s"
           (-.Stats.mean_of_least3 (List.map Float.neg per_s))
           (Printf.sprintf
              "requests completed per second: mean of the 3 busiest of %d 2 s windows, %d in all"
              (List.length per_s)
              (Array.fold_left ( + ) 0 r.completed))) ]
      @ Stats.windowed_lines ~p50:"lat_p50_ms" ~tail:"lat_p99_ms" ~unit_:"ms" ~window:"2 s query"
          r.query_ms
      @ Stats.windowed_lines ~want:0.9 ~p50:"ordered_p50_ms" ~tail:"ordered_p90_ms" ~unit_:"ms"
          ~window:"2 s update" r.update_ms
      @ [ Stats.line "heap_mb" "MB" (Probe.heap_mb r.gauges) "peak major heap" ];
  }

(* Mean cost of [Database.eval] for each of the workload's queries over
   [db] (µs per query), as the [twentyq.eval_us] line. *)
let eval_line ~what db =
  let parsed = Array.map (fun q -> Option.get (Database.parse_query q)) queries in
  let iters = 200 in
  let t0 = Clock.ns () in
  for _ = 1 to iters do
    Array.iter (fun q -> ignore (Database.eval db q ~row_filter:(fun _ -> true))) parsed
  done;
  Stats.line "twentyq.eval_us" "us"
    (float_of_int (Clock.ns () - t0) /. 1000. /. float_of_int (iters * Array.length parsed))
    (Printf.sprintf "mean over the %d queries, %s of %d rows" (Array.length parsed) what
       (Database.n_rows db))

(* Requests shaped like the clients': queries and updates 9:1, built
   as [Client] builds them. *)
let request_lines ~seed =
  let r = Rng.create (Int64.of_int (seed + 17)) in
  let n = 512 in
  let pick a = a.(Rng.int r (Array.length a)) in
  let reqs =
    Array.init n (fun i ->
        if Rng.int r update_one_in = 0 then
          ( "add_row",
            "$tq.values",
            String.concat "\x1f"
              [ "car"; pick colors; pick sizes; string_of_int (1000 + Rng.int r 50_000); "bench";
                Printf.sprintf "c0-%d" i ] )
        else ("query", "$tq.q", pick queries))
  in
  Probe.msg_lines ~what:"requests shaped like the clients'" ~n (fun i ->
      let op, field, v = reqs.(i) in
      let m = Message.create () in
      Message.set_str m "$tq.op" op;
      Message.set_str m field v;
      m)

(* The traced run: the attributed run over a wrapped backend with the
   typed tracer on, then an untraced run as the overhead baseline. *)
let traced ~seed ~seconds =
  let us = seconds * 1_000_000 in
  let bp = Probe.backend_probe () and st = Probe.stages () in
  let stack = Stack.wrapped_wall ~seed:(Int64.of_int seed) ~sites ~wrap:(Probe.wrap bp) in
  let d = setup ~stack in
  Probe.attach st (Vsync_sim.Trace.obs stack.Stack.trace);
  Gc.compact ();
  let ev0 = Stack.events_fired stack in
  st.Probe.s_on <- true;
  bp.Probe.on <- true;
  let r = run d ~seed ~us:(us * 3 / 5) in
  bp.Probe.on <- false;
  st.Probe.s_on <- false;
  let events = Stack.events_fired stack - ev0 in
  Probe.write_records st ~workload:"twentyq";
  let eval = eval_line ~what:"the relation the run left" (Service.db d.services.(0)) in
  let rb = run (setup ~stack:(Stack.wall_world ~seed:(Int64.of_int (seed + 2)) ~sites)) ~seed ~us:(us * 3 / 10) in
  let cpu_per r = r.cpu_s /. float_of_int (max 1 r.attempted) in
  {
    Stats.backend = "wall";
    attempted = r.attempted + rb.attempted;
    failed = r.failed + rb.failed;
    errors = r.errors @ rb.errors;
    lines =
      [ Stats.line "backend.idle_frac" "ratio" (1. -. (r.cpu_s /. r.wall_s))
          (Printf.sprintf "%.3f CPU s in %.3f s" r.cpu_s r.wall_s);
        Stats.line "backend.events_per_msg" "count" (Probe.per_msg st events)
          (Printf.sprintf "%d driver events, %s" events (Probe.delivers_basis st)) ]
      @ Probe.backend_lines bp
      @ Probe.cost_lines st r.win
      @ Probe.transport_lines st
      @ [ Stats.absent "transport.bytes_per_payload_byte" "ratio"
            "the clients build their requests inside the library, so their payload bytes are not seen" ]
      @ Probe.gauge_lines r.gauges
      @ Probe.stage_lines st
      @ Probe.no_view_lines
      @ [ eval ]
      @ request_lines ~seed
      @ Probe.no_sim_lines
      @ [ Stats.absent "gen.late_ms.p99" "ms" "closed-loop clients follow no send schedule";
          Probe.overhead_line ~traced:(cpu_per r) ~untraced:(cpu_per rb) ~what:"CPU s per request" ];
  }
