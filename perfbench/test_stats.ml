(* Checks of the benchmark's statistics: percentiles and the "ten
   samples beyond" rule, Python-compatible quartiles and spread, the
   shape of the result line, and the manifest of metrics against
   BENCHMARK.json. *)

open Perfbench_stats

let close a b = Float.abs (a -. b) < 1e-9

let check name ok =
  if not ok then begin
    Printf.eprintf "test_stats: %s failed\n" name;
    exit 1
  end

let of_list xs =
  let s = Stats.samples () in
  List.iter (Stats.add s) xs;
  s

let range n = List.init n (fun i -> float_of_int (i + 1))

(* The [(name, unit)] pairs of one metric list of BENCHMARK.json: the
   text from [key] to [stop] (or the end), read as the file is laid
   out, one ["name"] and one ["unit"] per metric. *)
let manifest_section text ~key ~stop =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let start = Option.get (find (Printf.sprintf "\"%s\":" key) 0) in
  let stop =
    match stop with
    | Some k -> Option.get (find (Printf.sprintf "\"%s\":" k) start)
    | None -> String.length text
  in
  let value_after field from =
    match find (Printf.sprintf "\"%s\": \"" field) from with
    | Some i when i < stop ->
      let v0 = i + String.length field + 5 in
      let v1 = String.index_from text v0 '"' in
      Some (String.sub text v0 (v1 - v0), v1)
    | Some _ | None -> None
  in
  let rec go from acc =
    match value_after "name" from with
    | None -> List.rev acc
    | Some (name, at) -> (
      match value_after "unit" at with
      | Some (unit_, at) -> go at ((name, unit_) :: acc)
      | None -> List.rev acc)
  in
  go start []

let () =
  (* nearest-rank percentiles over 1..100 *)
  let v = Stats.sorted (of_list (List.rev (range 100))) in
  check "p50 of 1..100" (Stats.percentile v 0.5 = 50.);
  check "p99 of 1..100" (Stats.percentile v 0.99 = 99.);
  check "p100 of 1..100" (Stats.percentile v 1.0 = 100.);
  check "p0 clamps to the minimum" (Stats.percentile v 0.0 = 1.);
  (* the ten-beyond rule *)
  check "1000 samples support p99" (Stats.tail_q 1000 = Some 0.99);
  check "999 samples fall back to p95" (Stats.tail_q 999 = Some 0.95);
  check "200 samples support p95" (Stats.tail_q 200 = Some 0.95);
  check "100 samples fall back to p90" (Stats.tail_q 100 = Some 0.9);
  check "19 samples support only p50" (Stats.tail_q 19 = None && Stats.tail_q 20 = Some 0.5);
  check "beyond at p99 of 1000" (Stats.beyond 1000 0.99 = 10);
  (match Stats.dist (of_list (range 1000)) with
  | Some d -> check "dist of 1..1000" (d.Stats.n = 1000 && d.p50 = 500. && d.tail = 990. && d.tail_q = 0.99)
  | None -> check "dist of 1..1000 present" false);
  (match Stats.dist (of_list (range 150)) with
  | Some d -> check "dist of 1..150 reports p90" (d.Stats.tail_q = 0.9 && d.tail = 135.)
  | None -> check "dist of 1..150 present" false);
  check "dist of nothing" (Stats.dist (Stats.samples ()) = None);
  check "mean" (close (Stats.mean (of_list [ 1.; 2.; 6. ])) 3.);
  (* quartiles as Python's statistics.quantiles(xs, n=4) gives them *)
  let q1, q2, q3 = Stats.quartiles (range 10) in
  check "quartiles of 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Stats.quartiles [ 4.; 1.; 3.; 2. ] in
  check "quartiles of 1..4" (close q1 1.25 && close q2 2.5 && close q3 3.75);
  let q1, _, q3 = Stats.quartiles [ 7.; 7. ] in
  check "quartiles of two equal values" (close q1 7. && close q3 7.);
  check "median odd" (Stats.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "spread of 1..10" (close (Stats.spread (range 10)) ((8.25 -. 2.75) /. 5.5));
  check "spread of constants" (Stats.spread [ 5.; 5.; 5. ] = 0.);
  (* windowed timings: the mean over the three quietest windows of each
     window's p50 and p99; empty windows skipped *)
  let scaled k = of_list (List.map (fun x -> x *. float_of_int k) (range 1000)) in
  (match
     Stats.windowed_lines ~p50:"a" ~tail:"b" ~unit_:"ms" ~window:"1 s"
       [| scaled 4; scaled 1; Stats.samples (); scaled 3; scaled 2 |]
   with
  | [ a; b ] ->
    check "windowed p50" (a.Stats.metric.Stats.value = 1000.);
    check "windowed p99" (b.Stats.metric.Stats.value = 1980.)
  | _ -> check "windowed lines" false);
  (* the result line: exactly four keys, every digit of each value *)
  let line =
    Stats.result_line ~correct:true ~attempted:12 ~failed:0
      [
        { Stats.name = "latency_ms"; value = 1.2034; unit_ = "ms" };
        { Stats.name = "setup_s"; value = 3.; unit_ = "s" };
      ]
  in
  check "result line"
    (line
    = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"latency_ms\": \
       {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 3.0, \
       \"unit\": \"s\"}}}");
  check "json float keeps digits"
    (Stats.json_float 0.1 = "0.1" && Stats.json_float (1. /. 3.) = "0.3333333333333333");
  check "json float refuses nan"
    (match Stats.json_float nan with _ -> false | exception Invalid_argument _ -> true);
  check "json string escapes" (Stats.json_string "a\"b" = "\"a\\\"b\"");
  (* conform: the manifest's order; a missing, doubled, foreign or
     mis-united metric is an error *)
  let l name unit_ = Stats.line name unit_ 1. "" in
  let wanted = [ ("a", "ms"); ("b", "s") ] in
  let names = function
    | Ok ls -> List.map (fun x -> x.Stats.metric.Stats.name) ls
    | Error _ -> []
  in
  check "conform orders" (names (Manifest.conform wanted [ l "b" "s"; l "a" "ms" ]) = [ "a"; "b" ]);
  check "conform: missing" (Result.is_error (Manifest.conform wanted [ l "a" "ms" ]));
  check "conform: unit" (Result.is_error (Manifest.conform wanted [ l "a" "s"; l "b" "s" ]));
  check "conform: foreign"
    (Result.is_error (Manifest.conform wanted [ l "a" "ms"; l "b" "s"; l "c" "s" ]));
  check "conform: twice"
    (Result.is_error (Manifest.conform wanted [ l "a" "ms"; l "b" "s"; l "a" "ms" ]));
  (* the manifest is BENCHMARK.json's *)
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  check "end_to_end matches BENCHMARK.json"
    (manifest_section text ~key:"end_to_end" ~stop:(Some "per_layer") = Manifest.end_to_end);
  check "per_layer matches BENCHMARK.json"
    (manifest_section text ~key:"per_layer" ~stop:None = Manifest.per_layer)
