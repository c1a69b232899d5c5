(* The metrics BENCHMARK.json names, in its order, with their units.

   Every workload reports the same metrics: an untraced run exactly
   [end_to_end], a traced run exactly [per_layer].  A metric whose layer
   a workload does not exercise reads 0 and says so beside it.
   [test_stats] checks these lists against BENCHMARK.json. *)

let end_to_end =
  [ ("setup_s", "s");
    ("tput", "1/s");
    ("lat_p50_ms", "ms");
    ("lat_p99_ms", "ms");
    ("ordered_p50_ms", "ms");
    ("ordered_p90_ms", "ms");
    ("heap_mb", "MB") ]

let per_layer =
  [ ("backend.idle_frac", "ratio");
    ("backend.events_per_msg", "count");
    ("backend.timer_lag_us.p50", "us");
    ("backend.timer_lag_us.p99", "us");
    ("backend.rx_cb_us", "us");
    ("backend.timer_cb_us", "us");
    ("cpu.modelled_us_per_msg", "us");
    ("transport.frames_per_msg", "count");
    ("transport.packets_per_msg", "count");
    ("transport.acks_per_msg", "count");
    ("transport.retransmits_per_msg", "count");
    ("transport.bytes_per_payload_byte", "ratio");
    ("transport.sendq_depth_max", "count");
    ("transport.inflight_max", "count");
    ("stage.origin_us.p50", "us");
    ("stage.origin_us.p99", "us");
    ("stage.transit_us.p50", "us");
    ("stage.transit_us.p99", "us");
    ("stage.cb_holdback_us.p50", "us");
    ("stage.cb_holdback_us.p99", "us");
    ("stage.ab_holdback_us.p50", "us");
    ("stage.ab_holdback_us.p99", "us");
    ("stage.abvote_us.p50", "us");
    ("stage.abvote_us.p99", "us");
    ("stage.stable_us.p50", "us");
    ("stage.stable_us.p99", "us");
    ("runtime.pending_store_max", "count");
    ("runtime.ab_queue_max", "count");
    ("view.changes", "count");
    ("view.detect_ms", "virtual_ms");
    ("view.flush_ms", "virtual_ms");
    ("view.failover_ms", "virtual_ms");
    ("view.rejoin_ms", "virtual_ms");
    ("twentyq.eval_us", "us");
    ("msg.build_ns", "ns");
    ("msg.copy_ns", "ns");
    ("msg.decode_ns", "ns");
    ("sim.events_per_msg", "count");
    ("sim.ns_per_event", "ns");
    ("gc.alloc_words_per_msg", "words");
    ("gc.major_per_kmsg", "count");
    ("obs.trace_overhead_frac", "ratio");
    ("gen.late_ms.p99", "ms") ]

(* [lines] put in the order of [wanted], or what keeps them from
   matching it: a metric missing, reported twice, in another unit, or
   not in the list. *)
let conform wanted (lines : Stats.line list) =
  let find name = List.filter (fun l -> l.Stats.metric.Stats.name = name) lines in
  let errors =
    List.concat_map
      (fun (name, unit_) ->
        match find name with
        | [] -> [ Printf.sprintf "metric %s not reported" name ]
        | [ l ] when l.Stats.metric.Stats.unit_ = unit_ -> []
        | [ l ] ->
          [ Printf.sprintf "metric %s in %s, not %s" name l.Stats.metric.Stats.unit_ unit_ ]
        | _ -> [ Printf.sprintf "metric %s reported more than once" name ])
      wanted
    @ List.filter_map
        (fun l ->
          let name = l.Stats.metric.Stats.name in
          if List.mem_assoc name wanted then None
          else Some (Printf.sprintf "metric %s is not in the manifest" name))
        lines
  in
  if errors = [] then Ok (List.map (fun (name, _) -> List.hd (find name)) wanted) else Error errors
