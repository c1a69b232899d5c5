(* The repository benchmark.

     vsbench --workload flood|twentyq|churn --seed N --seconds S --trace 0|1

   With [--trace 0] it measures the workload's end-to-end metrics; with
   [--trace 1] it makes the separate traced run that attributes time to
   each layer.  Every run checks the program's output, prints one line
   per metric with the samples or trials behind it, and ends with a
   single JSON line.  A failed check exits 1.  See NOTES.md. *)

open Perfbench_stats

let usage () =
  prerr_endline
    "usage: vsbench --workload flood|twentyq|churn --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "vsbench: %s wants an integer, got %S\n" flag v;
      usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg "--seed" v);
      go rest
    | "--seconds" :: v :: rest ->
      seconds := Some (int_arg "--seconds" v);
      go rest
    | "--trace" :: v :: rest ->
      trace := Some (int_arg "--trace" v);
      go rest
    | [] -> ()
    | a :: _ ->
      Printf.eprintf "vsbench: unexpected argument %S\n" a;
      usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs >= 1 && (t = 0 || t = 1) -> (w, s, secs, t = 1)
  | _ -> usage ()

(* The commit of the checkout, read from [.git] when there is one (the
   benchmark may run from an exported tree that has none). *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
    let ref_ = String.sub h 5 (String.length h - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some c -> c
    | None -> (
      try
        let ic = open_in ".git/packed-refs" in
        let rec find () =
          match input_line ic with
          | l when String.length l > 41 && String.sub l 41 (String.length l - 41) = ref_ ->
            String.sub l 0 40
          | _ -> find ()
        in
        let c = try find () with End_of_file -> "unknown" in
        close_in ic;
        c
      with Sys_error _ -> "unknown"))
  | Some c -> c
  | None -> "unknown (not a git checkout)"

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  let run =
    match (workload, traced) with
    | "flood", false -> Flood.e2e
    | "flood", true -> Flood.traced
    | "twentyq", false -> Tq.e2e
    | "twentyq", true -> Tq.traced
    | "churn", false -> Churn.e2e
    | "churn", true -> Churn.traced
    | w, _ ->
      Printf.eprintf "vsbench: unknown workload %S\n" w;
      usage ()
  in
  let t0 = Clock.s () in
  let o = run ~seed ~seconds in
  (* Every workload reports exactly the metrics BENCHMARK.json lists,
     in its order. *)
  let o =
    match Manifest.conform (if traced then Manifest.per_layer else Manifest.end_to_end) o.Stats.lines with
    | Ok lines -> { o with Stats.lines }
    | Error es -> { o with Stats.errors = o.Stats.errors @ es }
  in
  Printf.printf "workload %s, seed %d, %s run, %d s measured\n" workload seed
    (if traced then "traced" else "untraced") seconds;
  Printf.printf "commit %s, OCaml %s, nproc %d, backend %s\n" (commit ())
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    o.Stats.backend;
  List.iter
    (fun { Stats.metric = m; basis } ->
      Printf.printf "  %-34s %14.4f %-14s %s\n" m.Stats.name m.Stats.value m.Stats.unit_ basis)
    o.Stats.lines;
  Printf.printf "attempted %d, failed %d (fail_frac %.6f), wall %.1f s\n" o.Stats.attempted
    o.Stats.failed
    (float_of_int o.Stats.failed /. float_of_int (max 1 o.Stats.attempted))
    (Clock.s () -. t0);
  List.iteri (fun i e -> if i < 20 then Printf.printf "CHECK FAILED: %s\n" e) o.Stats.errors;
  let n_errors = List.length o.Stats.errors in
  if n_errors > 20 then Printf.printf "CHECK FAILED: ... and %d more\n" (n_errors - 20);
  let correct = o.Stats.errors = [] && o.Stats.failed = 0 in
  print_endline
    (Stats.result_line ~correct ~attempted:(max 1 o.Stats.attempted) ~failed:o.Stats.failed
       (List.map (fun l -> l.Stats.metric) o.Stats.lines));
  if not correct then exit 1
